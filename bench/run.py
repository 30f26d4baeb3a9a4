"""Closed-loop benchmark of the ftstack placement system.

    python3 bench/run.py --workload place_adjust --seed 1 --seconds 30 --trace 0

One client submits generated scenarios to ``harness.run_scenario`` one after
another, each with an output directory, and checks every request's report
and trace files. The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones; with ``--trace 1`` the run measures an
untraced half and a traced half, checks that both wrote byte-identical
outputs, and reports the per-layer metrics and the tracing overhead.
See README.md in this directory.
"""

from __future__ import annotations

import os
import time

STARTED = time.perf_counter()


def _process_age() -> float:
    """Seconds since this process started, from the kernel's start time."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        age = time.clock_gettime(time.CLOCK_BOOTTIME) - int(fields[19]) / os.sysconf("SC_CLK_TCK")
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0
    return age if 0.0 <= age < 10.0 else 0.0


AGE_AT_START = _process_age()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import NamedTuple  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_ROOT = ROOT / ".bench_out"
MIN_TAIL_REQUESTS = 100   # p90 needs ten requests beyond it
TIME_LIMIT = 150.0        # s; a run stops at the first block boundary after this


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import ftstack  # noqa: F401
    if Path(ftstack.__file__).resolve().parent != src / "ftstack":
        raise ImportError(f"ftstack resolved to {ftstack.__file__}, not the checkout's {src}")


class Done(NamedTuple):
    """A request that returned, with the block of the phase it ran in."""

    request_id: int
    block: int
    request: object
    latency: float
    outcome: object


class Loop:
    """Submits a workload's requests block by block and keeps the results."""

    def __init__(self, blocks, scenarios, out_dirs):
        self.blocks = blocks
        self.scenarios = scenarios
        self.out_dirs = out_dirs
        self.digests: dict = {}
        self.attempted = 0
        self.failed = 0
        self.failed_notes: list = []   # why operations failed
        self.failures: list = []       # output checks that failed on operations that did not

    def submit(self, request, key):
        import checks
        from ftstack import harness

        self.attempted += 1
        begin = time.perf_counter()
        try:
            # looked up per call, so the traced half goes through the wrapper
            harness.run_scenario(self.scenarios[key], out_dir=self.out_dirs[key])
        except Exception as exc:  # a raising request is a failed operation
            self.failed += 1
            self.failed_notes.append(f"{request.name}: run_scenario raised {exc!r}")
            return None, None
        latency = time.perf_counter() - begin
        artifacts = checks.read_artifacts(self.out_dirs[key])
        outcome = checks.check_request(request.kind, request.doc, artifacts)
        if outcome.errored:
            self.failed += 1
            self.failed_notes.extend(f"{request.name}: {f}" for f in outcome.failures)
            return None, None
        self.failures.extend(f"{request.name}: {f}" for f in outcome.failures)
        digest = checks.digest(artifacts)
        if self.digests.setdefault(key, digest) != digest:
            self.failures.append(f"{request.name}: outputs differ from an earlier run "
                                 "of the same request")
        return latency, outcome

    def phase(self, seconds: float, min_requests: int, deadline: float, tracer=None):
        """Whole blocks until ``seconds`` and ``min_requests`` are both reached."""
        done: list[Done] = []
        begin = time.perf_counter()
        b = attempts = 0
        while True:
            for key, request in self.blocks[b % len(self.blocks)]:
                if tracer is not None:
                    tracer.request = attempts
                latency, outcome = self.submit(request, key)
                if latency is not None:
                    done.append(Done(attempts, b, request, latency, outcome))
                attempts += 1
            b += 1
            now = time.perf_counter()
            if now >= deadline or (now - begin >= seconds and len(done) >= min_requests):
                return done


def _rate(done, count) -> float:
    """Median over blocks of work per second of request time.

    Every block has the same make-up, so block rates are comparable; the
    median keeps a burst of load from other processes out of the figure.
    """
    import numpy as np

    work, busy = {}, {}
    for d in done:
        work[d.block] = work.get(d.block, 0) + count(d.outcome)
        busy[d.block] = busy.get(d.block, 0.0) + d.latency
    return float(np.median([work[b] / busy[b] for b in work]))


def _end_to_end(done, setup_s):
    import numpy as np

    latencies = [d.latency for d in done]
    return {
        "setup_s": (setup_s, "s"),
        "trials_per_s": (_rate(done, lambda o: o.trials), "1/s"),
        "presses_per_s": (_rate(done, lambda o: o.presses), "1/s"),
        "request_ms_p50": (1e3 * float(np.percentile(latencies, 50)), "ms"),
        "request_ms_p90": (1e3 * float(np.percentile(latencies, 90)), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def _per_layer(tracer, loop, traced, untraced_tps):
    import checks
    from tracing import DESCEND, SAMPLE, Summary

    summary = Summary(tracer.spans, len(traced))
    descends = summary.per_request_counts(DESCEND)
    samples = summary.per_request_counts(SAMPLE)
    for d in traced:
        for failure in checks.cross_check(d.request.doc, d.outcome, descends.get(d.request_id, 0),
                                          samples.get(d.request_id, 0)):
            loop.failures.append(f"{d.request.name} (traced): {failure}")
    metrics = summary.metrics()
    traced_tps = _rate(traced, lambda o: o.trials)
    metrics["harness.artifact_bytes"] = (
        sum(d.outcome.artifact_bytes for d in traced) / len(traced), "bytes/request")
    metrics["trace.request_ms"] = (1e3 * sum(d.latency for d in traced) / len(traced),
                                   "ms/request")
    metrics["trace.overhead_pct"] = (100.0 * (untraced_tps - traced_tps) / untraced_tps, "%")
    return metrics


def _write_spans(path: Path, spans: list, origin: float) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("request\tname\tspan\tparent\tstart_s\tend_s\tself_s\textra\n")
        for s in spans:
            fh.write(f"{s.request}\t{s.name}\t{s.sid}\t{s.parent}\t{s.start - origin:.9f}\t"
                     f"{s.end - origin:.9f}\t{s.self_s:.9f}\t{json.dumps(s.extra)}\n")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import yaml

    import workloads
    from ftstack import scenario as scenario_module

    blocks = workloads.generate(workload, seed)
    run_dir = OUT_ROOT / f"{workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        (run_dir / "scenarios").mkdir(parents=True)
        keyed, scenarios, out_dirs, paths = [], {}, {}, {}
        for block in blocks:
            keyed.append([])
            for request in block:
                key = request.name
                path = run_dir / "scenarios" / f"{key}.yaml"
                path.write_text(yaml.safe_dump(request.doc, sort_keys=False), encoding="utf-8")
                scenarios[key] = scenario_module.load_scenario(path)
                paths[key] = path
                out_dirs[key] = run_dir / "out" / key
                keyed[-1].append((key, request))
        loop = Loop(keyed, scenarios, out_dirs)

        # warm-up: the first request of each kind, so lazy set-up is paid before timing
        seen = set()
        for key, request in (item for block in keyed for item in block):
            if request.kind not in seen:
                seen.add(request.kind)
                loop.submit(request, key)
        loop.attempted = loop.failed = 0
        setup_s = AGE_AT_START + time.perf_counter() - STARTED
        deadline = STARTED + TIME_LIMIT

        if not trace:
            done = loop.phase(seconds, MIN_TAIL_REQUESTS, deadline)
            metrics = _end_to_end(done, setup_s)
        else:
            from tracing import Tracer

            untraced_tps = _rate(loop.phase(seconds / 2.0, 1, deadline), lambda o: o.trials)
            tracer = Tracer()
            origin = time.perf_counter()
            tracer.install()
            try:
                # reload through the traced loader; the traced half runs what it returns
                for key, path in paths.items():
                    scenarios[key] = scenario_module.load_scenario(path)
                traced = loop.phase(seconds / 2.0, 1, deadline, tracer=tracer)
            finally:
                tracer.uninstall()
            metrics = _per_layer(tracer, loop, traced, untraced_tps)
            _write_spans(OUT_ROOT / f"spans-{workload}.tsv", tracer.spans, origin)
        return {
            "correct": not loop.failures,
            "attempted": loop.attempted,
            "failed": loop.failed,
            "failures": loop.failures,
            "failed_notes": loop.failed_notes,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        _import_program()
    except ImportError as exc:
        print(f"cannot import the ftstack sources from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2

    result = run(args.workload, args.seed % 2**63, args.seconds, bool(args.trace))
    for note in result.pop("failed_notes")[:20]:
        print(f"FAILED OPERATION: {note}", file=sys.stderr)
    for failure in result.pop("failures")[:20]:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    for name, (value, unit) in result["metrics"].items():
        print(f"{args.workload:<15} {name:<34} {value:>14.6g} {unit}")
    result["metrics"] = {name: {"value": value, "unit": unit}
                         for name, (value, unit) in result["metrics"].items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
