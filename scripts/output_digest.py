"""One digest over every output file the program writes for a fixed request set.

    python3 scripts/output_digest.py [--out DIR]

Runs every shipped scenario (``scenarios/*.yaml``) and every request of
seeds 1-3 of the benchmark workloads (``bench/workloads.py``, imported
read-only). Each run writes its report, traces or CSV table, the
``plot-data`` CSVs of each trace and the ``save_scenario`` copy of its
scenario under one directory; the last line of output is the file count
and a sha256 over the relative paths and contents of all of them, sorted
by path. Two commits that print the same line wrote the same bytes.
Exits 1 when any request raises, after running the rest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)


def _requests():
    """(output directory, scenario document or path) pairs, in a fixed order."""
    sys.dont_write_bytecode = True   # leave no cache behind in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        yield Path("scenarios") / path.stem, path
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for block in workloads.generate(workload, seed):
                for request in block:
                    yield Path(workload) / f"seed{seed}" / request.name, request.doc


def _run(out: Path, source) -> None:
    from ftstack import harness, scenario

    if isinstance(source, Path):
        loaded = scenario.load_scenario(source)
    else:
        loaded = scenario.Scenario.from_dict(source)
    out.mkdir(parents=True)
    scenario.save_scenario(loaded, out / "scenario.yaml")
    harness.run_scenario(loaded, out_dir=out)
    for trace in sorted(out.glob("*.trace")):
        harness.emit_contact_plot_data(trace, out / "plot-data")


def digest(root: Path) -> tuple[int, str]:
    h = hashlib.sha256()
    files = sorted(p for p in root.rglob("*") if p.is_file())
    for path in files:
        h.update(path.relative_to(root).as_posix().encode() + b"\0")
        h.update(path.read_bytes() + b"\0")
    return len(files), h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=None,
                        help="empty or new directory to keep the outputs in "
                             "(default: a temporary directory, removed afterwards)")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(ROOT / "src"))

    with tempfile.TemporaryDirectory() as tmp:
        root = args.out if args.out is not None else Path(tmp)
        root.mkdir(parents=True, exist_ok=True)
        if any(root.iterdir()):
            parser.error(f"{root} is not empty")
        failed = 0
        for rel, source in _requests():
            try:
                _run(root / rel, source)
            except Exception as exc:  # noqa: BLE001 - every raising request is reported
                failed += 1
                print(f"FAILED {rel}: {exc!r}", file=sys.stderr)
        count, sha = digest(root)
    print(f"{count} files sha256 {sha}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
