"""What ``import ftstack`` and a placement run load: neither scipy, nor
``numpy.ma``, nor the process pool."""

import subprocess
import sys
from pathlib import Path

import ftstack

SRC = Path(ftstack.__file__).resolve().parent.parent


def test_import_leaves_scipy_and_the_process_pool_out():
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import ftstack; "
            "print([m for m in ('scipy', 'concurrent.futures.process') if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code, str(SRC)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


def test_a_placement_run_leaves_scipy_numpy_ma_and_the_process_pool_out(tmp_path):
    # np.unique and np.median import numpy.ma, about 15 ms and 1.3 MB a process
    placement = SRC.parent / "scenarios" / "zero_offset_noiseless.yaml"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from ftstack import harness; "
            "assert harness.run_scenario(sys.argv[2], out_dir=sys.argv[3])['passed']; "
            "print([m for m in ('scipy', 'numpy.ma', 'concurrent.futures.process') "
            "if m in sys.modules])")
    run = subprocess.run([sys.executable, "-c", code, str(SRC), str(placement), str(tmp_path)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"
