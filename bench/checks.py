"""Output checks for benchmark requests.

The checks read what a user of the program gets, the files written to the
request's output directory (``report.yaml``, trace files and tables), and
compare them with values derived from the generated scenario or with
properties the placement method must have. None of them calls into the
program under test.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import yaml

REL_TOL = 1e-9       # zero-noise force balance and rest heights are exact up to rounding
SWEEP_TOL_DEG = 0.5  # overhanging sweep shifts point at the puck center
FINGER_TOL_DEG = 5.0

_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass
class Outcome:
    """What one request's outputs show: failures, and the work they account for."""

    failures: list = field(default_factory=list)
    errored: bool = False          # run_scenario raised, a trial errored, or an embedded check failed
    trials: int = 0
    presses: int = 0               # settled presses: calibration, iteration, retry, finger
    world_presses: int = 0         # presses that descend in the world
    hovers: int = 0                # hover readings (one per calibration)
    finger_presses: int = 0
    descent_rows: int = 0          # per-step samples recorded in traces
    artifact_bytes: int = 0


def read_artifacts(out_dir) -> dict:
    """Every file the request wrote, by name."""
    return {p.name: p.read_bytes() for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def digest(artifacts: dict) -> str:
    h = hashlib.sha256()
    for name in sorted(artifacts):
        h.update(name.encode() + b"\0" + artifacts[name] + b"\0")
    return h.hexdigest()


def parse_trace(text: str) -> list[dict]:
    """Per placed object (one for a placement trace): descent rows and iteration rows."""
    groups: list[dict] = []
    current = None
    section = None
    for line in text.splitlines():
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("object:") or (body.startswith("outcome:") and current is None):
                current = {"descent_rows": 0, "descents": 0, "iterations": []}
                groups.append(current)
            if body.startswith("outcome:"):
                current["outcome"] = body.split(":", 1)[1].strip()
            if body.startswith("section: descent"):
                section = "descent"
                current["descents"] += 1
            elif body.startswith("section: iterations"):
                section = "iterations"
            elif not body.startswith("columns:"):
                section = None
            continue
        if not line.strip() or current is None:
            continue
        if section == "descent":
            current["descent_rows"] += 1
        elif section == "iterations":
            cols = line.split()
            current["iterations"].append({
                "press_force": float(cols[5]),
                "released": cols[6] == "1",
                "degenerate": cols[7] == "1",
            })
    return groups


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=REL_TOL)


def _press_count(rows: list, threshold: float, scale: float, out: Outcome, where: str) -> int:
    """Presses behind the iteration rows, checking zero-noise force balance.

    A settled zero-noise press reads exactly the press-until force; a row that
    reads the retry force, or stayed degenerate, stands for two presses.
    """
    presses = 0
    for k, row in enumerate(rows):
        force = row["press_force"]
        if row["degenerate"]:
            presses += 2
        elif _close(force, threshold):
            presses += 1
        elif _close(force, scale * threshold):
            presses += 2
        else:
            presses += 1
            out.failures.append(
                f"{where} iteration {k}: press force {force!r} N is neither the "
                f"threshold {threshold!r} N nor the retry force {scale * threshold!r} N")
    return presses


def _load_report(artifacts: dict, out: Outcome):
    if "report.yaml" not in artifacts:
        out.failures.append("report.yaml missing")
        return None
    report = yaml.load(artifacts["report.yaml"], Loader=_Loader)
    if not report.get("passed", False):
        out.errored = True
        failed = [k for k, c in report.get("checks", {}).items() if not c["passed"]]
        out.failures.append(f"embedded checks failed: {failed}")
    if report["results"].get("errors", 0):
        out.errored = True
        out.failures.append(f"{report['results']['errors']} trial(s) raised")
    return report


def _traces(artifacts: dict, report: dict, out: Outcome) -> list:
    names = report.get("artifacts", {}).get("traces", [])
    if len(names) != report["trials"]:
        out.failures.append(f"{len(names)} trace files for {report['trials']} trials")
    groups = []
    for name in names:
        if name not in artifacts:
            out.failures.append(f"trace {name} missing")
            groups.append([])
            continue
        groups.append(parse_trace(artifacts[name].decode("utf-8")))
    return groups


def _check_placements(doc: dict, report: dict, traces: list, out: Outcome, ramp: bool) -> None:
    policy = doc.get("policy", {})
    threshold = policy.get("resistance_threshold", 10.0)
    scale = policy.get("repress_scale", 1.5)
    max_iter = policy.get("max_iterations", 10)
    obj = doc["object"]
    tip_to_bottom = obj.get("tip_to_bottom", obj["thickness"] / 2.0)
    puck = doc["world"]["surfaces"][1]
    for row, groups in zip(report["results"]["per_trial"], traces):
        where = f"trial {row['trial']}"
        if "error" in row or len(groups) != 1:
            out.failures.append(f"{where}: no placement trace")
            continue
        trace = groups[0]
        out.trials += 1
        out.hovers += 1
        presses = 1 + _press_count(trace["iterations"], threshold, scale, out, where)
        out.presses += presses
        out.world_presses += presses
        out.descent_rows += trace["descent_rows"]
        if trace["descents"] != len(trace["iterations"]):
            out.failures.append(f"{where}: {trace['descents']} descents for "
                                f"{len(trace['iterations'])} iterations")
        released = [r["released"] for r in trace["iterations"]]
        if ramp:
            if row["outcome"] != "max_iterations" or any(released) \
                    or row["iterations"] != max_iter or row["final_com"] is not None:
                out.failures.append(f"{where}: ramp placement released or stopped early "
                                    f"({row['outcome']}, {row['iterations']} iterations)")
            continue
        if row["outcome"] != "released_stable" or released[-1:] != [True] or any(released[:-1]):
            out.failures.append(f"{where}: puck placement ended {row['outcome']}")
            continue
        x, y, z = row["final_com"]
        cx, cy = puck["center"]
        if math.hypot(x - cx, y - cy) > puck["radius"]:
            out.failures.append(f"{where}: released COM ({x!r}, {y!r}) is off the puck top")
        if not _close(z, puck["top_height"] + tip_to_bottom + row["com_offset"][2]):
            out.failures.append(f"{where}: released COM height {z!r} m, expected "
                                f"{puck['top_height'] + tip_to_bottom!r} m")


def _inside(kind: str, size: float, dx: float, dy: float) -> bool:
    if kind == "disk":
        return math.hypot(dx, dy) <= size
    return abs(dx) <= size and abs(dy) <= size


def _check_stack(doc: dict, report: dict, traces: list, out: Outcome) -> None:
    policy = doc.get("policy", {})
    threshold = policy.get("resistance_threshold", 10.0)
    scale = policy.get("repress_scale", 1.5)
    obj = doc["object"]
    kind, size = obj["footprint"]["kind"], obj["footprint"]["size"]
    thickness = obj["thickness"]
    tip_to_bottom = obj.get("tip_to_bottom", thickness / 2.0)
    count = doc["stack"]["count"]
    ground = doc["world"]["surfaces"][0]["height"]
    for row, groups in zip(report["results"]["per_trial"], traces):
        where = f"trial {row['trial']}"
        if "error" in row:
            continue
        out.trials += 1
        if row["placed"] != count or not row["success"] or len(groups) != count:
            out.failures.append(f"{where}: placed {row['placed']} of {count}")
        below = None
        for i, (placed, trace) in enumerate(zip(row["objects"], groups)):
            at = f"{where} object {i}"
            out.hovers += 1
            presses = 1 + _press_count(trace["iterations"], threshold, scale, out, at)
            out.presses += presses
            out.world_presses += presses
            out.descent_rows += trace["descent_rows"]
            if placed["outcome"] != "released_stable" or placed["final_com"] is None:
                out.failures.append(f"{at}: ended {placed['outcome']}")
                break
            x, y, z = placed["final_com"]
            if not _close(z, ground + i * thickness + tip_to_bottom):
                out.failures.append(f"{at}: rests at COM height {z!r} m, expected "
                                    f"{ground + i * thickness + tip_to_bottom!r} m")
            if below is not None and not _inside(kind, size, x - below[0], y - below[1]):
                out.failures.append(f"{at}: COM ({x!r}, {y!r}) is outside the footprint "
                                    f"of the object below at ({below[0]!r}, {below[1]!r})")
            below = (x, y)


def _check_sweep(doc: dict, report: dict, out: Outcome) -> None:
    sweep = doc["sweep"]
    threshold = doc.get("policy", {}).get("resistance_threshold", 10.0)
    puck = doc["world"]["surfaces"][1]
    overhang_from = puck["radius"] - doc["object"]["footprint"]["size"]
    for row in report["results"]["per_trial"]:
        where = f"trial {row['trial']}"
        if "error" in row:
            continue
        out.trials += 1
        out.hovers += 1
        out.presses += 2
        out.world_presses += 2
        mag_idx, rest = divmod(row["trial"], sweep["directions"] * sweep["repeats"])
        direction = 360.0 * (rest // sweep["repeats"]) / sweep["directions"]
        if row["magnitude"] != sweep["magnitudes"][mag_idx] \
                or not _close(row["direction_deg"], direction):
            out.failures.append(f"{where}: pressed at {row['magnitude']!r} m, "
                                f"{row['direction_deg']!r} deg, expected {direction!r} deg")
        if row["degenerate"] or row["press_force"] is None \
                or not _close(row["press_force"], threshold):
            out.failures.append(f"{where}: press force {row['press_force']!r} N, "
                                f"expected {threshold!r} N")
        if row["magnitude"] > overhang_from:
            err = row["angle_error_deg"]
            if err is None or not err <= SWEEP_TOL_DEG:
                out.failures.append(f"{where}: shift misses the puck center by {err!r} deg")


def _check_finger(report: dict, out: Outcome) -> None:
    for row in report["results"]["per_trial"]:
        if "error" in row:
            continue
        out.trials += 1
        out.presses += 1
        out.finger_presses += 1
        err = row["angle_error_deg"]
        if row["degenerate"] or err is None or not err <= FINGER_TOL_DEG:
            out.failures.append(f"trial {row['trial']}: press direction off by {err!r} deg")


def check_request(kind: str, doc: dict, artifacts: dict) -> Outcome:
    """Check one request's outputs against its generated scenario."""
    out = Outcome(artifact_bytes=sum(len(v) for v in artifacts.values()))
    report = _load_report(artifacts, out)
    if report is None:
        return out
    if report["trials"] != doc["trials"] or report["seed"] != doc["seed"] \
            or report["scenario"] != doc["name"]:
        out.failures.append("report does not describe the submitted scenario")
    if len(report["results"]["per_trial"]) != doc["trials"]:
        out.failures.append(f"{len(report['results']['per_trial'])} result rows "
                            f"for {doc['trials']} trials")
    if kind in ("puck", "ramp"):
        _check_placements(doc, report, _traces(artifacts, report, out), out, kind == "ramp")
    elif kind == "stack":
        _check_stack(doc, report, _traces(artifacts, report, out), out)
    elif kind == "sweep":
        _check_sweep(doc, report, out)
    elif kind == "finger":
        _check_finger(report, out)
    else:
        raise ValueError(f"unknown request kind {kind!r}")
    return out


def window_samples(doc: dict) -> int:
    """Sensor samples behind one settled reading, from the scenario's window and rate."""
    window = doc.get("window", {})
    rate = doc.get("sensor", {}).get("sample_rate", 25.0)
    settle = int(math.floor(window.get("settle_time", 0.1) * rate))
    average = int(math.floor(window.get("average_time", 0.5) * rate))
    return settle + average


def cross_check(doc: dict, outcome: Outcome, descends: int, samples: int) -> list:
    """Compare traced call counts with the totals the outputs imply."""
    failures = []
    if descends != outcome.world_presses:
        failures.append(f"traced {descends} descents, outputs show "
                        f"{outcome.world_presses} world presses")
    readings = outcome.hovers + outcome.world_presses + 2 * outcome.finger_presses
    expected = outcome.descent_rows + readings * window_samples(doc)
    if samples != expected:
        failures.append(f"traced {samples} sensor samples, outputs imply {expected} "
                        f"({outcome.descent_rows} descent rows + {readings} readings)")
    return failures
