"""What ``import ftstack`` loads: neither scipy nor the process pool."""

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
