"""Command line front end.

Subcommands mirror the harness entry points: ``run`` executes any scenario,
``sweep`` and ``press-check`` insist on their matching families, and
``plot-data`` splits a trace file into plot-ready CSVs. Exit code 0 means
every trial ran and the scenario's embedded thresholds passed (or it had
none), 1 means a threshold failed or a trial raised, 2 means the inputs
were unusable.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .harness import (
    ScenarioFamilyError,
    emit_contact_plot_data,
    finger_press_check,
    run_scenario,
    sweep_offsets,
)
from .scenario import ScenarioError


def _add_scenario_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("scenario", type=Path, help="scenario YAML file")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the scenario's seed")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for trials (default 1)")
    parser.add_argument("--out", type=Path, default=None,
                        help="directory for report.yaml and trace/table files")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ftstack",
        description="force-torque guided placement experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario's trials and report")
    _add_scenario_args(run)

    sweep = sub.add_parser("sweep", help="offset-grid sweep (noise_sweep family)")
    _add_scenario_args(sweep)

    press = sub.add_parser("press-check",
                           help="synthetic wrench injection (finger_press family)")
    _add_scenario_args(press)

    plot = sub.add_parser("plot-data",
                          help="extract descent CSVs from a trace file")
    plot.add_argument("trace", type=Path, help="trace file from a previous run")
    plot.add_argument("--out", type=Path, default=None,
                      help="directory for CSV output (default: beside the trace)")
    return parser


def _print_report(report: dict) -> None:
    print(f"scenario {report['scenario']} (family {report['family']}, "
          f"seed {report['seed']}, trials {report['trials']})")
    body = report["results"]
    if "success_rate" in body:
        lo, hi = body["wilson_ci_95"]
        print(f"  success rate {body['success_rate']:.4f}  "
              f"95% CI [{lo:.4f}, {hi:.4f}]")
    if "outcomes" in body:
        parts = ", ".join(f"{k}={v}" for k, v in body["outcomes"].items() if v)
        print(f"  outcomes: {parts or 'none'}")
    if "min_placed" in body:
        print(f"  min placed {body['min_placed']}, mean {body['mean_placed']}")
    if "by_magnitude" in body:
        for g in body["by_magnitude"]:
            med = "n/a" if g["median_deg"] is None else f"{g['median_deg']:.1f} deg"
            print(f"  offset {g['magnitude']:.4f} m: median error {med} (n={g['n']})")
        print(f"  crossover below 60 deg: {body['crossover_magnitude_below_60_deg']}")
    if "max_angle_error_deg" in body:
        print(f"  direction error max {body['max_angle_error_deg']}, "
              f"median {body['median_angle_error_deg']} deg "
              f"({body['degenerate']} degenerate)")
    if body.get("errors"):
        print(f"  trial errors: {body['errors']}")
    for name, check in report["checks"].items():
        status = "pass" if check["passed"] else "FAIL"
        print(f"  check {name}: {status} ({check['detail']})")
    print("result:", "pass" if report["passed"] else "FAIL")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "plot-data":
            for path in emit_contact_plot_data(args.trace, args.out):
                print(path)
            return 0
        runner = {
            "run": run_scenario,
            "sweep": sweep_offsets,
            "press-check": finger_press_check,
        }[args.command]
        report = runner(args.scenario, out_dir=args.out,
                        seed=args.seed, jobs=args.jobs)
    except (ScenarioError, ScenarioFamilyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _print_report(report)
    return 0 if report["passed"] else 1


if __name__ == "__main__":
    sys.exit(main())
