"""Time two source trees on the same benchmark requests, alternating in one process.

    python3 scripts/pair_requests.py PARENT_TREE CHANGE_TREE [workload:blocks:rounds ...]
        [--seed N]

Loads ``src/ftstack`` of each tree under its own package name, so both run
side by side in one interpreter. Each ``workload:blocks:rounds`` argument
(default: one block and one round of each workload) takes the first
``blocks`` blocks of the seed's request pool from ``bench/workloads.py``
(imported read-only) and runs every request ``rounds`` times on both trees,
alternating which tree runs first from one request to the next. Only
``run_scenario`` is timed; scenario loading is not.

Speed drifts between sessions on a shared host, and alternating inside one
process cancels most of that drift. For each workload it prints p50, p90
and total request time for each tree with their ratio (change over parent),
the share of requests the change ran faster (a tie counts for neither tree),
the same p50 ratio and share for each request kind (puck, ramp, stack,
sweep, finger), and whether both trees wrote byte-identical files for every
request. Exits 1 when any request's outputs differ or a request raises.
"""

from __future__ import annotations

import argparse
import importlib.util
import shutil
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def _load_tree(tree: Path, name: str):
    """The tree's ``src/ftstack`` package, imported as ``name``."""
    init = tree / "src" / "ftstack" / "__init__.py"
    spec = importlib.util.spec_from_file_location(
        name, init, submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def _workloads():
    sys.dont_write_bytecode = True   # leave no cache behind in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    return workloads


def _spec(text: str, names) -> tuple[str, int, int]:
    parts = text.split(":")
    if len(parts) != 3 or parts[0] not in names:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not workload:blocks:rounds with a workload in {', '.join(names)}")
    try:
        blocks, rounds = int(parts[1]), int(parts[2])
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r}: blocks and rounds must be integers")
    if blocks < 1 or rounds < 1:
        raise argparse.ArgumentTypeError(f"{text!r}: blocks and rounds must be at least 1")
    return parts[0], blocks, rounds


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _run(package, doc: dict, out: Path) -> float:
    loaded = package.scenario.Scenario.from_dict(doc)
    started = perf_counter()
    package.harness.run_scenario(loaded, out_dir=out)
    return perf_counter() - started


def pair(packages: dict, requests: list, rounds: int, scratch: Path, turn: int):
    """Per-side request seconds, the names of requests whose outputs differ,
    and the next turn; ``turn`` decides which side runs first."""
    seconds = {side: [] for side in SIDES}
    differ = []
    for r in range(rounds):
        for request in requests:
            order = SIDES if turn % 2 == 0 else SIDES[::-1]
            turn += 1
            outs = {side: scratch / f"{side}-{turn}" for side in SIDES}
            for side in order:
                seconds[side].append(_run(packages[side], request.doc, outs[side]))
            if _files(outs["parent"]) != _files(outs["change"]):
                differ.append(f"{request.name} (round {r})")
            for out in outs.values():
                shutil.rmtree(out)
    return seconds, differ, turn


def _faster(seconds: dict) -> str:
    """The p50 ratio (change over parent) of paired request times, and on how
    many requests each tree ran faster; a tie counts for neither."""
    parent, change = (np.array(seconds[side]) for side in SIDES)
    won, lost = int(np.sum(change < parent)), int(np.sum(change > parent))
    ratio = np.percentile(change, 50) / np.percentile(parent, 50)
    return (f"p50 ratio {ratio:.3f}, change faster on {won}/{len(parent)} "
            f"({won / len(parent):.3f}), parent faster on {lost}")


def main(argv=None) -> int:
    workloads = _workloads()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("specs", nargs="*", metavar="workload:blocks:rounds",
                        type=lambda text: _spec(text, workloads.WORKLOADS),
                        help="requests to pair (default: one block, one round of each)")
    parser.add_argument("--seed", type=int, default=1, help="request pool seed (default 1)")
    args = parser.parse_args(argv)
    specs = args.specs or [(w, 1, 1) for w in workloads.WORKLOADS]
    packages = {side: _load_tree(getattr(args, side).resolve(), f"ftstack_{side}")
                for side in SIDES}

    failed = False
    turn = 0
    print(f"{'workload':<15} {'requests':>8} {'side':<7} {'p50_ms':>9} {'p90_ms':>9} "
          f"{'total_s':>9}")
    for workload, blocks, rounds in specs:
        requests = [r for block in workloads.generate(workload, args.seed)[:blocks] for r in block]
        with tempfile.TemporaryDirectory() as tmp:
            try:
                seconds, differ, turn = pair(packages, requests, rounds, Path(tmp), turn)
            except Exception:  # noqa: BLE001 - reported, then the next workload runs
                print(f"FAILED {workload}:", file=sys.stderr)
                traceback.print_exc()
                failed = True
                continue
        stats = {}
        for side in SIDES:
            ms = 1e3 * np.array(seconds[side])
            stats[side] = (np.percentile(ms, 50), np.percentile(ms, 90), ms.sum() / 1e3)
            print(f"{workload:<15} {len(ms):>8} {side:<7} "
                  + " ".join(f"{v:>9.3f}" for v in stats[side]))
        ratios = [c / p for p, c in zip(stats["parent"], stats["change"])]
        print(f"{workload:<15} {'':>8} {'ratio':<7} " + " ".join(f"{v:>9.3f}" for v in ratios))
        kinds = [request.kind for request in requests] * rounds  # the order pair runs them
        print(f"{workload:<15} {len(kinds):>8} {'all':<7} {_faster(seconds)}")
        for kind in sorted(set(kinds)):
            mine = {side: [s for s, k in zip(seconds[side], kinds) if k == kind]
                    for side in SIDES}
            print(f"{workload:<15} {len(mine['parent']):>8} {kind:<7} {_faster(mine)}")
        print(f"{workload:<15} outputs {'identical' if not differ else 'DIFFER'}")
        for name in differ[:20]:
            print(f"  differs: {name}", file=sys.stderr)
        failed |= bool(differ)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
