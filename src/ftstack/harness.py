"""Scenario-driven experiment runner.

Runs the trial batches behind each experiment family, aggregates reports with
Wilson confidence intervals, and writes diff-able artifacts: a YAML report,
columnar trace files, and plot-ready CSV tables. Reports contain no wall
clock and reference artifacts by relative name, so a re-run with the same
seeds is byte-identical regardless of where or how parallel it ran.

Per-trial randomness comes from SeedSequence([scenario_seed, trial_index])
split into a scenario stream (geometry sampling) and a sensor stream, which
makes trial results independent of execution order and worker count.
"""

from __future__ import annotations

import dataclasses
import math
import operator
import os
import re
from itertools import repeat
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .estimation import DegenerateNormalForce, estimate_contact
from .policy import (
    PlacementOutcome,
    StackPlan,
    calibrate_for_held,
    press_and_estimate,
    propose_shift,
    run_placement,
    run_stack,
)
from .scenario import (
    _PLACEMENT_FAMILIES,
    Scenario,
    build_object,
    build_sensor,
    build_world,
    check_seed,
    evaluate_expect,
    load_scenario,
    sample_start_xy,
)
from .spatial import cross

REPORT_VERSION = 1
WILSON_Z = 1.959963984540054  # two-sided 95%


class ScenarioFamilyError(ValueError):
    """Subcommand invoked on a scenario of the wrong family."""


def wilson_interval(successes: int, trials: int, z: float = WILSON_Z):
    """Wilson score interval for a binomial proportion."""
    if trials <= 0:
        raise ValueError("trials must be positive")
    if not 0 <= successes <= trials:
        raise ValueError("successes must lie in [0, trials]")
    p = successes / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


def angle_error_deg(proposed, reference) -> float:
    """Planar angle between a proposed shift and the reference direction."""
    u = np.asarray(proposed, dtype=float)[:2]
    v = np.asarray(reference, dtype=float)[:2]
    nu, nv = np.linalg.norm(u), np.linalg.norm(v)
    if nu == 0.0 or nv == 0.0:
        return float("nan")
    c = np.clip(float(u @ v) / (nu * nv), -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def _trial_rngs(seed: int, trial: int):
    ss = np.random.SeedSequence([seed, trial])
    scn, sen = ss.spawn(2)
    return np.random.default_rng(scn), np.random.default_rng(sen)


def _listify(a) -> list:
    return [float(v) for v in np.asarray(a, dtype=float).ravel()]


def _trace_row(trace) -> dict:
    """One placement's report fields, and its trace for ``write_trace``."""
    return {
        "outcome": trace.outcome.value,
        "iterations": len(trace.iterations),
        "final_com": None if trace.final_com is None else _listify(trace.final_com),
        "trace": trace,
    }


# -- per-trial runners (top level so worker processes can import them) --------


def _calibrated(scenario: Scenario, rng_scn, rng_sen, section: dict, world=None):
    """A world holding a freshly drawn object, calibrated at the section's
    calibration_xy and hover_tip_z; returns the world, object, sensor and
    calibration. A new world unless one is given."""
    if world is None:
        world = build_world(scenario)
    obj = build_object(scenario, rng_scn)
    world.hold(obj)
    sensor = build_sensor(scenario, rng_sen)
    calibration = calibrate_for_held(
        world, sensor, scenario.policy, scenario.window,
        section["calibration_xy"], section["hover_tip_z"],
    )
    return world, obj, sensor, calibration


def _placement_trial(scenario: Scenario, trial: int) -> dict:
    rng_scn, rng_sen = _trial_rngs(scenario.seed, trial)
    row: dict = {"trial": trial}
    place = scenario.placement
    try:
        world, obj, sensor, calibration = _calibrated(scenario, rng_scn, rng_sen, place)
        # the scenario stream draws the object first, then the start xy
        start_xy = sample_start_xy(scenario, rng_scn)
        trace = run_placement(
            world, sensor, calibration, scenario.policy, start_xy,
            start_tip_z=place["hover_tip_z"], window=scenario.window,
        )
    except Exception as exc:  # per-trial failures are recorded, never fatal
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    row.update({
        "start_xy": _listify(start_xy),
        "com_offset": _listify(obj.com_offset),
        **_trace_row(trace),
    })

    stable_xy = place["stable_xy"]
    if stable_xy is not None:
        angles = []
        for rec in trace.iterations:
            if rec.released or rec.degenerate:
                angles.append(None)
                continue
            to_stable = np.asarray(stable_xy) - rec.press_xy
            angles.append(angle_error_deg(rec.shift, to_stable))
        row["shift_angle_errors_deg"] = angles
        first = trace.iterations[0] if trace.iterations else None
        if first is not None and not first.released and not first.degenerate:
            com_after = first.press_xy + first.shift + obj.com_offset[:2]
            row["oneshot_com_error"] = float(
                np.linalg.norm(com_after - np.asarray(stable_xy))
            )
        else:
            row["oneshot_com_error"] = None
    return row


def _stack_trial(scenario: Scenario, trial: int) -> dict:
    rng_scn, rng_sen = _trial_rngs(scenario.seed, trial)
    row: dict = {"trial": trial}
    try:
        world = build_world(scenario)
        cfg = scenario.stack
        objects = [build_object(scenario, rng_scn) for _ in range(cfg["count"])]
        limit = cfg["perturbation_limit"]
        perturbations = rng_scn.uniform(-limit, limit, (cfg["count"], 2))
        sensor = build_sensor(scenario, rng_sen)
        plan = StackPlan(
            target_xy=tuple(cfg["target_xy"]),
            perturbations=perturbations,
            calibration_xy=tuple(cfg["calibration_xy"]),
            hover_tip_z=cfg["hover_tip_z"],
            approach_clearance=cfg["approach_clearance"],
        )
        result = run_stack(world, sensor, objects, plan, scenario.policy, scenario.window)
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    row.update({
        "placed": result.placed,
        "success": bool(result.success),
        "objects": [{"object": i, **_trace_row(trace)}
                    for i, trace in enumerate(result.traces)],
    })
    return row


def _sweep_point(scenario: Scenario, trial: int):
    sweep = scenario.sweep
    per_mag = sweep["directions"] * sweep["repeats"]
    mag_idx, rest = divmod(trial, per_mag)
    dir_idx, _repeat = divmod(rest, sweep["repeats"])
    magnitude = sweep["magnitudes"][mag_idx]
    theta = 2.0 * math.pi * dir_idx / sweep["directions"]
    return magnitude, math.degrees(theta), np.array(
        [sweep["center"][0] + magnitude * math.cos(theta),
         sweep["center"][1] + magnitude * math.sin(theta)]
    )


def _sweep_trial(scenario: Scenario, trial: int, world=None) -> dict:
    rng_scn, rng_sen = _trial_rngs(scenario.seed, trial)
    sweep = scenario.sweep
    magnitude, direction_deg, press_xy = _sweep_point(scenario, trial)
    row: dict = {
        "trial": trial,
        "magnitude": float(magnitude),
        "direction_deg": float(direction_deg),
    }
    try:
        world, _, sensor, calibration = _calibrated(scenario, rng_scn, rng_sen, sweep, world)
        press = press_and_estimate(
            world, sensor, calibration, scenario.policy, scenario.window,
            press_xy, sweep["hover_tip_z"],
        )
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    row["degenerate"] = bool(press.degenerate)
    if press.estimate is None:
        row.update({"shift": None, "angle_error_deg": None, "press_force": None})
        return row
    shift = propose_shift(press.estimate, scenario.policy)
    to_center = np.asarray(sweep["center"]) - press_xy
    err = angle_error_deg(shift, to_center)
    row.update({
        "shift": _listify(shift),
        "angle_error_deg": None if math.isnan(err) else float(err),
        "press_force": float(press.estimate.press_magnitude),
    })
    return row


def _press_torque(scenario: Scenario, trial: int) -> float:
    cfg = scenario.press["torques"]
    if isinstance(cfg, list):
        return float(cfg[trial])
    n = scenario.trials
    if n == 1:
        return float(cfg["min"])
    frac = trial / (n - 1)
    if cfg["spacing"] == "log":
        return float(cfg["min"] * (cfg["max"] / cfg["min"]) ** frac)
    return float(cfg["min"] + (cfg["max"] - cfg["min"]) * frac)


def _press_trial(scenario: Scenario, trial: int) -> dict:
    """Synthetic finger press: push down at a known offset, check the estimate.

    The object hangs in free space while an external press of magnitude P
    acts at a known horizontal offset from the assumed COM, giving torque
    P times the offset radius. No world model is involved; this exercises
    the sensor-plus-estimator chain alone.
    """
    rng_scn, rng_sen = _trial_rngs(scenario.seed, trial)
    cfg = scenario.press
    torque_mag = _press_torque(scenario, trial)
    theta = rng_scn.uniform(0.0, 2.0 * math.pi)
    offset = cfg["offset_radius"] * np.array([math.cos(theta), math.sin(theta), 0.0])
    push = torque_mag / cfg["offset_radius"]
    weight = cfg["mass"] * cfg["gravity"]

    row: dict = {
        "trial": trial,
        "torque": float(torque_mag),
        "direction_deg": float(math.degrees(theta)),
        "press_force": float(push),
    }
    try:
        sensor = build_sensor(scenario, rng_sen)
        window = scenario.window
        # true wrenches about the assumed COM: hanging, then pressed at the offset
        hanging = np.array([0.0, 0.0, -weight])
        finger = np.array([0.0, 0.0, -push])
        hover_torque, hover_force = sensor.settle_and_average(np.zeros(3), hanging, window)
        torque, force = sensor.settle_and_average(cross(offset, finger), hanging + finger,
                                                  window)
        estimate = estimate_contact(torque - hover_torque, force, hover_force,
                                    force_floor=scenario.policy.force_floor)
    except DegenerateNormalForce:
        row.update({"degenerate": True, "angle_error_deg": None})
        return row
    except Exception as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row

    row.update({
        "degenerate": False,
        "angle_error_deg": float(angle_error_deg(estimate.tangent_offset, offset)),
    })
    return row


def _run_trials(scenario: Scenario, jobs: int) -> list[dict]:
    """Every trial's row, in trial order. A pool has no more workers than
    trials or CPUs, which all start at its first task; one worker runs in
    process."""
    family = _FAMILIES[scenario.family]
    runner = family.run
    trials = range(scenario.trials)
    workers = min(jobs, scenario.trials, os.cpu_count() or 1)
    if workers <= 1:
        shared = (build_world(scenario),) if family.keeps_terrain else ()
        return [runner(scenario, t, *shared) for t in trials]
    from concurrent.futures import ProcessPoolExecutor  # only pooled runs pay its import

    with ProcessPoolExecutor(max_workers=workers) as pool:
        # map preserves order, so results land by trial index
        return list(pool.map(runner, repeat(scenario), trials))


# -- aggregation ---------------------------------------------------------------

# per-trial row key -> CSV header; the same keys, in order, make each
# trial's report entry
_SWEEP_COLUMNS = {
    "trial": "trial",
    "magnitude": "magnitude_m",
    "direction_deg": "direction_deg",
    "angle_error_deg": "angle_error_deg",
    "press_force": "press_force_N",
    "degenerate": "degenerate",
}
_PRESS_COLUMNS = {
    "trial": "trial",
    "torque": "torque_Nm",
    "direction_deg": "direction_deg",
    "press_force": "press_force_N",
    "angle_error_deg": "angle_error_deg",
    "degenerate": "degenerate",
}


def _finite(values: list) -> list:
    return [v for v in values if v is not None and not math.isnan(v)]


def _median(values: list) -> float | None:
    """The middle of the sorted values, or the mean of the middle two: the
    bits ``np.median`` gives, without the ``numpy.ma`` import it costs."""
    clean = sorted(_finite(values))
    if not clean:
        return None
    mid = len(clean) // 2
    return float(clean[mid] if len(clean) % 2 else (clean[mid - 1] + clean[mid]) / 2)


def _mean(values: list) -> float | None:
    clean = _finite(values)
    return float(np.mean(clean)) if clean else None


def _errors(rows: list[dict]) -> int:
    return sum(1 for r in rows if "error" in r)


def _per_trial(rows: list[dict], entry: Callable[[dict], dict]) -> list[dict]:
    """Each trial's report entry; a failed trial keeps only its index and error."""
    return [{"trial": r["trial"], "error": r["error"]} if "error" in r else entry(r)
            for r in rows]


def _aggregate_placement(scenario: Scenario, rows: list[dict]) -> dict:
    counts = {o.value: 0 for o in PlacementOutcome}
    iteration_counts = []
    for row in rows:
        if "error" not in row:
            counts[row["outcome"]] += 1
            iteration_counts.append(row["iterations"])
    successes = counts["released_stable"]
    lo, hi = wilson_interval(successes, scenario.trials)

    by_iteration = []
    if scenario.placement["stable_xy"] is not None:
        depth = max((len(r.get("shift_angle_errors_deg", [])) for r in rows), default=0)
        for k in range(depth):
            angles = [
                r["shift_angle_errors_deg"][k]
                for r in rows
                if "shift_angle_errors_deg" in r and len(r["shift_angle_errors_deg"]) > k
                and r["shift_angle_errors_deg"][k] is not None
            ]
            if angles:
                by_iteration.append({
                    "iteration": k,
                    "n": len(angles),
                    "median_deg": _median(angles),
                    "mean_deg": _mean(angles),
                })

    keys = ("trial", "outcome", "iterations", "start_xy", "com_offset", "final_com",
            "oneshot_com_error")
    return {
        "outcomes": counts,
        "errors": _errors(rows),
        "success_rate": successes / scenario.trials,
        "wilson_ci_95": [lo, hi],
        "mean_iterations": _mean(iteration_counts),
        "direction_stats": by_iteration,
        "per_trial": _per_trial(rows, lambda r: {k: r[k] for k in keys if k in r}),
    }


def _aggregate_stack(scenario: Scenario, rows: list[dict]) -> dict:
    successes = sum(1 for r in rows if r.get("success"))
    lo, hi = wilson_interval(successes, scenario.trials)
    placed = [r["placed"] for r in rows if "placed" in r]
    return {
        "errors": _errors(rows),
        "success_rate": successes / scenario.trials,
        "wilson_ci_95": [lo, hi],
        "min_placed": min(placed) if placed else 0,
        "mean_placed": _mean(placed),
        "per_trial": _per_trial(rows, lambda r: {
            "trial": r["trial"],
            "placed": r["placed"],
            "success": r["success"],
            "objects": [
                {k: o[k] for k in ("object", "outcome", "iterations", "final_com")}
                for o in r["objects"]
            ],
        }),
    }


def _aggregate_sweep(scenario: Scenario, rows: list[dict]) -> dict:
    groups = []
    for magnitude in scenario.sweep["magnitudes"]:
        angles = [
            r["angle_error_deg"] for r in rows
            if r.get("magnitude") == magnitude and r.get("angle_error_deg") is not None
        ]
        groups.append({
            "magnitude": float(magnitude),
            "n": len(angles),
            "median_deg": _median(angles),
            "mean_deg": _mean(angles),
        })
    crossover = None
    for g in groups:
        if g["median_deg"] is not None and g["median_deg"] < 60.0:
            crossover = g["magnitude"]
            break
    return {
        "errors": _errors(rows),
        "by_magnitude": groups,
        "crossover_magnitude_below_60_deg": crossover,
        "per_trial": _per_trial(rows, lambda r: {k: r.get(k) for k in _SWEEP_COLUMNS}),
    }


def _aggregate_press(scenario: Scenario, rows: list[dict]) -> dict:
    valid = [r["angle_error_deg"] for r in rows
             if r.get("angle_error_deg") is not None]
    return {
        "errors": _errors(rows),
        "degenerate": sum(1 for r in rows if r.get("degenerate")),
        "n_valid": len(valid),
        "max_angle_error_deg": max(valid) if valid else None,
        "median_angle_error_deg": _median(valid),
        "per_trial": _per_trial(rows, lambda r: {k: r.get(k) for k in _PRESS_COLUMNS}),
    }


class _Family(NamedTuple):
    run: Callable[[Scenario, int], dict]
    aggregate: Callable[[Scenario, list], dict]
    table: tuple[str, dict] | None  # CSV name and columns; None writes traces
    # no trial changes the terrain, so in-process trials run in one world,
    # passed to ``run`` as a third argument
    keeps_terrain: bool = False


_PLACEMENT = _Family(_placement_trial, _aggregate_placement, None)
_FAMILIES = {
    **dict.fromkeys(_PLACEMENT_FAMILIES, _PLACEMENT),
    "multi_stack": _Family(_stack_trial, _aggregate_stack, None),
    "finger_press": _Family(_press_trial, _aggregate_press, ("press.csv", _PRESS_COLUMNS)),
    "noise_sweep": _Family(_sweep_trial, _aggregate_sweep, ("sweep.csv", _SWEEP_COLUMNS),
                           keeps_terrain=True),
}


# -- artifacts ------------------------------------------------------------------


def _r(value) -> str:
    """Shortest round-trip decimal text for a float; stable across runs."""
    return repr(float(value))


def _write_trace_sections(lines: list, trace, prefix: str = "") -> None:
    """A placement trace's descent sections, labelled ``{prefix}{k}``, then
    its iteration section, one row per ``IterationRecord``."""
    for k, series in enumerate(trace.descent_series):
        lines.append(f"# section: descent {prefix}{k}")
        lines.append("# columns: t_s f_norm_N tau_norm_Nm")
        # rows hold floats (the series' tolist), so %r is the text _r gives
        lines.extend("%r %r %r" % tuple(row) for row in series.tolist())
    lines.append("# section: iterations")
    lines.append("# columns: index x_m y_m tip_z_m residual_norm_Nm press_force_N "
                 "released degenerate shift_x_m shift_y_m")
    for rec in trace.iterations:
        lines.append(" ".join([
            str(rec.index), _r(rec.press_xy[0]), _r(rec.press_xy[1]), _r(rec.tip_z),
            _r(rec.residual_norm), _r(rec.press_force),
            str(int(rec.released)), str(int(rec.degenerate)),
            _r(rec.shift[0]), _r(rec.shift[1]),
        ]))


def write_trace(scenario: Scenario, row: dict, out_dir: Path) -> str:
    """Write one trial's columnar trace; returns the file name."""
    name = f"trial_{row['trial']:03d}.trace"
    lines = [
        "# ftstack trace v1",
        f"# scenario: {scenario.name}",
        f"# trial: {row['trial']}",
    ]
    if "error" in row:
        lines.append(f"# error: {row['error']}")
    elif scenario.family == "multi_stack":
        for obj in row["objects"]:
            lines.append(f"# object: {obj['object']}")
            _write_trace_sections(lines, obj["trace"], f"{obj['object']}_")
            lines.append(f"# outcome: {obj['outcome']}")
    else:
        lines.append(f"# outcome: {row['outcome']}")
        _write_trace_sections(lines, row["trace"])
    lines.append("# end")
    (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


def _write_table(out_dir: Path, name: str, header: list, rows: list) -> str:
    lines = [",".join(header)]
    for row in rows:
        cells = []
        for v in row:
            if v is None:
                cells.append("")
            elif isinstance(v, bool):
                cells.append(str(int(v)))
            elif isinstance(v, float):
                cells.append(_r(v))
            else:
                cells.append(str(v))
        lines.append(",".join(cells))
    (out_dir / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return name


# libyaml's emitter when PyYAML has it: the text yaml.safe_dump gives, faster
_DUMPER = getattr(yaml, "CSafeDumper", yaml.SafeDumper)
_RESOLVER = yaml.resolver.Resolver()
_MAP, _SEQ, _STR = (f"tag:yaml.org,2002:{kind}" for kind in ("map", "seq", "str"))


def _float_text(value: float) -> str:
    """``SafeRepresenter.represent_float``'s text for a float."""
    if value != value:
        return ".nan"
    if value == math.inf:
        return ".inf"
    if value == -math.inf:
        return "-.inf"
    text = repr(value).lower()
    return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text


# exact type -> (tag, text function): each text resolves back to its tag, so
# these scalars are plain
_SCALARS = {
    bool: ("tag:yaml.org,2002:bool", lambda value: "true" if value else "false"),
    int: ("tag:yaml.org,2002:int", str),
    float: ("tag:yaml.org,2002:float", _float_text),
    type(None): ("tag:yaml.org,2002:null", lambda value: "null"),
}


def _report_events(value, events: list, seen: set) -> None:
    """Append the YAML events PyYAML's safe representer and serializer make
    for a tree of dict, list, str, int, float, bool and None, keys in their
    order: block containers with implicit tags, and the representer's scalar
    texts. A string's plain-implicit flag comes from the resolver, so the
    emitter quotes and folds it as it does for ``yaml.dump``."""
    kind = type(value)
    if kind is dict or kind is list:
        if id(value) in seen:
            raise ValueError(f"a {kind.__name__} appears twice in the report; "
                             "yaml.dump would write an anchor and an alias")
        seen.add(id(value))
        if kind is dict:
            events.append(yaml.MappingStartEvent(None, _MAP, True, flow_style=False))
            for key, item in value.items():
                _report_events(key, events, seen)
                _report_events(item, events, seen)
            events.append(yaml.MappingEndEvent())
        else:
            events.append(yaml.SequenceStartEvent(None, _SEQ, True, flow_style=False))
            for item in value:
                _report_events(item, events, seen)
            events.append(yaml.SequenceEndEvent())
    elif kind is str:
        plain = _RESOLVER.resolve(yaml.ScalarNode, value, (True, False)) == _STR
        events.append(yaml.ScalarEvent(None, _STR, (plain, True), value))
    elif kind in _SCALARS:
        tag, text = _SCALARS[kind]
        events.append(yaml.ScalarEvent(None, tag, (True, False), text(value)))
    else:
        raise TypeError("a report holds only dict, list, str, int, float, bool and None, "
                        f"got {kind.__name__}")


def _report_text(report: dict) -> str:
    """The text ``yaml.dump(report, Dumper=_DUMPER, sort_keys=False)`` gives,
    emitted from ``_report_events`` without PyYAML's representer."""
    events = [yaml.StreamStartEvent(), yaml.DocumentStartEvent()]
    _report_events(report, events, set())
    events += [yaml.DocumentEndEvent(), yaml.StreamEndEvent()]
    return yaml.emit(events, Dumper=_DUMPER)


def emit_contact_plot_data(trace_path, out_dir=None) -> list:
    """Split a trace file's descent sections into plot-ready CSV files."""
    trace_path = Path(trace_path)
    out = Path(out_dir) if out_dir is not None else trace_path.parent
    out.mkdir(parents=True, exist_ok=True)
    sections: list[tuple[str, list]] = []
    current = None
    for line in trace_path.read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            m = re.match(r"#\s*section:\s*descent\s+(\S+)", line)
            if m:
                current = (m.group(1), [])
                sections.append(current)
            elif not re.match(r"#\s*columns:", line):
                current = None  # any other marker ends the section
            continue
        if current is not None and line.strip():
            current[1].append(line.split())
    sections = [(label, rows) for label, rows in sections if rows]
    if not sections:
        raise ValueError(f"{trace_path}: no descent samples to plot")
    written = []
    for label, rows in sections:
        name = f"{trace_path.stem}_descent_{label}.csv"
        lines = ["t_s,f_norm_N,tau_norm_Nm"]
        lines.extend(",".join(r) for r in rows)
        (out / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(str(out / name))
    return written


# -- entry points ----------------------------------------------------------------


def _as_scenario(source, seed=None) -> Scenario:
    scenario = source if isinstance(source, Scenario) else load_scenario(source)
    if seed is not None:
        scenario = dataclasses.replace(scenario, seed=check_seed(seed))
    return scenario


def _check_jobs(value) -> int:
    """Worker processes asked for: at least 1, of any integer type
    (``np.int64``, say), never a bool, as a seed override is checked."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        jobs = operator.index(value)
        if jobs >= 1:
            return jobs
    raise ValueError(f"jobs: expected an integer of at least 1, got {value!r}")


def run_scenario(source, out_dir=None, seed=None, jobs: int = 1) -> dict:
    """Run every trial of a scenario and assemble the report.

    ``source`` is a scenario path or a Scenario. Writes report and artifacts
    under out_dir when given. The report's ``passed`` field is true when no
    trial raised and every check of the scenario's expect block passed.
    """
    jobs = _check_jobs(jobs)
    scenario = _as_scenario(source, seed)
    rows = _run_trials(scenario, jobs)
    family = _FAMILIES[scenario.family]
    body = family.aggregate(scenario, rows)
    checks = evaluate_expect(scenario, body)
    report = {
        "report_version": REPORT_VERSION,
        "scenario": scenario.name,
        "family": scenario.family,
        "seed": scenario.seed,
        "trials": scenario.trials,
        "results": body,
        "checks": checks,
        "passed": body["errors"] == 0 and all(c["passed"] for c in checks.values()),
    }

    if out_dir is not None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        if family.table is None:
            artifacts = {"traces": [write_trace(scenario, row, out) for row in rows]}
        else:
            name, columns = family.table
            artifacts = {"table": _write_table(
                out, name, list(columns.values()),
                [[r.get(k) for k in columns] for r in rows],
            )}
        report["artifacts"] = artifacts
        (out / "report.yaml").write_text(_report_text(report), encoding="utf-8")
    return report


def _run_family(family: str, command: str, source, out_dir, seed, jobs: int) -> dict:
    scenario = _as_scenario(source, seed)
    if scenario.family != family:
        raise ScenarioFamilyError(f"{command} requires a {family} scenario, got "
                                  f"{scenario.family}")
    return run_scenario(scenario, out_dir=out_dir, jobs=jobs)


def sweep_offsets(source, out_dir=None, seed=None, jobs: int = 1) -> dict:
    """Offset-grid sweep: first-press shift proposals against known geometry."""
    return _run_family("noise_sweep", "sweep", source, out_dir, seed, jobs)


def finger_press_check(source, out_dir=None, seed=None, jobs: int = 1) -> dict:
    """Synthetic wrench injections with known directions, estimator readback."""
    return _run_family("finger_press", "press-check", source, out_dir, seed, jobs)
