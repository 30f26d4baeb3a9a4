"""Scenario files: schema, validation, and builders.

A scenario is a versioned YAML mapping that pins every stochastic element to
an explicit seed, so a batch re-run reproduces its report byte for byte. The
parser validates eagerly and reports problems by field path; builders turn
the validated sections into live world, object, sensor, and policy values.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, NamedTuple

import numpy as np
import yaml

from .policy import PlacementOutcome, PolicyConfig
from .sensor import ForceTorqueSensor, ReadingWindow, SensorConfig
from .surfaces import FlatPlane, HeightField, Puck, RampPatch, SphericalCap
from .world import (
    BottomProfile,
    Footprint,
    HeldObject,
    SimParams,
    TopProfile,
    World,
)

SCHEMA_VERSION = 1

_SURFACE_KINDS = ("flat", "puck", "ramp", "spherical_cap", "height_field")

# the families that place one object; they read the same sections and expect keys
_PLACEMENT_FAMILIES = ("zero_offset", "offset_recovery", "ramp")


class ScenarioError(ValueError):
    """Scenario file failed validation; message carries the field path."""


def _fail(path: str, problem: str):
    raise ScenarioError(f"{path}: {problem}")


def _mapping(value, path: str) -> dict:
    if not isinstance(value, dict):
        _fail(path, f"expected a mapping, got {type(value).__name__}")
    return value


def _check_keys(d: dict, path: str, required: tuple, optional: tuple = ()):
    for key in required:
        if key not in d:
            _fail(path, f"missing required key '{key}'")
    allowed = set(required) | set(optional)
    for key in d:
        if key not in allowed:
            _fail(f"{path}.{key}", "unknown key")


def _num(value, path: str, lo=None, hi=None, lo_open=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {value!r}")
    v = float(value)
    if not np.isfinite(v):
        _fail(path, "must be finite")
    if lo is not None and (v <= lo if lo_open else v < lo):
        _fail(path, f"must be {'>' if lo_open else '>='} {lo}, got {v}")
    if hi is not None and v > hi:
        _fail(path, f"must be <= {hi}, got {v}")
    return v


def _int(value, path: str, lo=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        _fail(path, f"expected an integer, got {value!r}")
    if lo is not None and value < lo:
        _fail(path, f"must be >= {lo}, got {value}")
    return value


def _bool(value, path: str) -> bool:
    if not isinstance(value, bool):
        _fail(path, f"expected a boolean, got {value!r}")
    return value


def _vec(value, n: int, path: str) -> list:
    if not isinstance(value, (list, tuple)) or len(value) != n:
        _fail(path, f"expected a list of {n} numbers, got {value!r}")
    return [_num(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _choice(value, choices: tuple, path: str) -> str:
    if value not in choices:
        _fail(path, f"expected one of {list(choices)}, got {value!r}")
    return value


def _span(value, path: str) -> list:
    pair = _vec(value, 2, path)
    if pair[0] >= pair[1]:
        _fail(path, f"range must be ascending, got {pair}")
    return pair


def _parse_surface(data, path: str) -> dict:
    d = _mapping(data, path)
    kind = _choice(d.get("kind"), _SURFACE_KINDS, f"{path}.kind")
    if kind == "flat":
        _check_keys(d, path, ("kind",), ("height",))
        return {"kind": "flat", "height": _num(d.get("height", 0.0), f"{path}.height")}
    if kind == "puck":
        _check_keys(d, path, ("kind", "center", "radius", "top_height"),
                    ("ripple_amplitude", "ripple_wavelength"))
        return {
            "kind": "puck",
            "center": _vec(d["center"], 2, f"{path}.center"),
            "radius": _num(d["radius"], f"{path}.radius", lo=0.0, lo_open=True),
            "top_height": _num(d["top_height"], f"{path}.top_height"),
            "ripple_amplitude": _num(d.get("ripple_amplitude", 0.0),
                                     f"{path}.ripple_amplitude", lo=0.0),
            "ripple_wavelength": _num(d.get("ripple_wavelength", 0.02),
                                      f"{path}.ripple_wavelength", lo=0.0, lo_open=True),
        }
    if kind == "ramp":
        _check_keys(d, path, ("kind", "x_range", "y_range", "slope_deg"),
                    ("base_height", "azimuth_deg"))
        slope = _num(d["slope_deg"], f"{path}.slope_deg", lo=0.0, hi=89.0, lo_open=True)
        return {
            "kind": "ramp",
            "x_range": _span(d["x_range"], f"{path}.x_range"),
            "y_range": _span(d["y_range"], f"{path}.y_range"),
            "slope_deg": slope,
            "base_height": _num(d.get("base_height", 0.0), f"{path}.base_height"),
            "azimuth_deg": _num(d.get("azimuth_deg", 0.0), f"{path}.azimuth_deg"),
        }
    if kind == "spherical_cap":
        _check_keys(d, path, ("kind", "center", "extent_radius", "curvature_radius",
                              "apex_height"), ())
        extent = _num(d["extent_radius"], f"{path}.extent_radius", lo=0.0, lo_open=True)
        curv = _num(d["curvature_radius"], f"{path}.curvature_radius",
                    lo=extent, lo_open=True)
        return {
            "kind": "spherical_cap",
            "center": _vec(d["center"], 2, f"{path}.center"),
            "extent_radius": extent,
            "curvature_radius": curv,
            "apex_height": _num(d["apex_height"], f"{path}.apex_height"),
        }
    _check_keys(d, path, ("kind", "origin", "pitch", "values"), ())
    values = d["values"]
    if not isinstance(values, list) or not values or not all(
        isinstance(row, list) and len(row) == len(values[0]) and row for row in values
    ):
        _fail(f"{path}.values", "expected a non-empty rectangular list of rows")
    rows = [[_num(v, f"{path}.values[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(values)]
    return {
        "kind": "height_field",
        "origin": _vec(d["origin"], 2, f"{path}.origin"),
        "pitch": _num(d["pitch"], f"{path}.pitch", lo=0.0, lo_open=True),
        "values": rows,
    }


# SimParams field -> (lower bound, bound excluded); a None bound only asks for
# a finite value. Pitches, steps and stiffness divide or scale every trial.
_SIM_PARAM_BOUNDS = {
    "spring_k": (0.0, True),
    "descent_step": (0.0, True),
    "contact_pitch": (0.0, True),
    "raster_pitch": (0.0, True),
    "patch_tie_tol": (0.0, False),
    "stability_margin": (0.0, False),
    "gravity": (0.0, True),
    "wrist_lift": (0.0, False),
    "gripper_mass": (0.0, False),
    "descent_floor": (None, False),
}


def _parse_world(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("surfaces",), ("x_range", "y_range", "params"))
    surfaces = d["surfaces"]
    if not isinstance(surfaces, list) or not surfaces:
        _fail(f"{path}.surfaces", "expected a non-empty list")
    parsed = [_parse_surface(s, f"{path}.surfaces[{i}]") for i, s in enumerate(surfaces)]
    params = _mapping(d.get("params", {}), f"{path}.params")
    _check_keys(params, f"{path}.params", (), tuple(_SIM_PARAM_BOUNDS))
    out_params = {}
    for k in params:
        lo, lo_open = _SIM_PARAM_BOUNDS[k]
        out_params[k] = _num(params[k], f"{path}.params.{k}", lo=lo, lo_open=lo_open)
    return {
        "x_range": _span(d.get("x_range", [-0.3, 0.3]), f"{path}.x_range"),
        "y_range": _span(d.get("y_range", [-0.3, 0.3]), f"{path}.y_range"),
        "surfaces": parsed,
        "params": out_params,
    }


# object profile -> kind -> the keys besides 'kind' that the kind reads, each
# with its default (None: required); every value is a positive number
_PROFILE_KEYS = {
    "bottom": {"flat": {}, "dome": {"curvature_radius": None}},
    "top": {"flat": {}, "undulating": {"amplitude": None, "wavelength": 0.02}},
}


def _parse_profile(obj: dict, path: str, profile: str) -> dict:
    """An object's bottom or top profile; a key its kind does not read fails."""
    kinds, path = _PROFILE_KEYS[profile], f"{path}.{profile}"
    d = _mapping(obj.get(profile, {"kind": "flat"}), path)
    _check_keys(d, path, ("kind",), tuple(k for keys in kinds.values() for k in keys))
    kind = _choice(d["kind"], tuple(kinds), f"{path}.kind")
    for key in d:
        if key != "kind" and key not in kinds[kind]:
            _fail(f"{path}.{key}", f"not used by kind {kind}")
    return {"kind": kind, **{key: _num(d.get(key, default), f"{path}.{key}",
                                       lo=0.0, lo_open=True)
                             for key, default in kinds[kind].items()}}


def _parse_object(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("mass", "footprint", "thickness"),
                ("com_offset", "com_offset_sampler", "bottom", "top", "tip_to_bottom"))
    fp = _mapping(d["footprint"], f"{path}.footprint")
    _check_keys(fp, f"{path}.footprint", ("kind", "size"), ())
    footprint = {
        "kind": _choice(fp["kind"], ("disk", "square"), f"{path}.footprint.kind"),
        "size": _num(fp["size"], f"{path}.footprint.size", lo=0.0, lo_open=True),
    }
    if "com_offset" in d and "com_offset_sampler" in d:
        _fail(path, "give com_offset or com_offset_sampler, not both")
    sampler = None
    if "com_offset_sampler" in d:
        sampler = _parse_sampler(d["com_offset_sampler"], f"{path}.com_offset_sampler")
    bottom = _parse_profile(d, path, "bottom")
    top = _parse_profile(d, path, "top")
    out = {
        "mass": _num(d["mass"], f"{path}.mass", lo=0.0, lo_open=True),
        "footprint": footprint,
        "thickness": _num(d["thickness"], f"{path}.thickness", lo=0.0, lo_open=True),
        "com_offset": _vec(d.get("com_offset", [0.0, 0.0, 0.0]), 3, f"{path}.com_offset"),
        "com_offset_sampler": sampler,
        "bottom": bottom,
        "top": top,
    }
    if "tip_to_bottom" in d:
        out["tip_to_bottom"] = _num(d["tip_to_bottom"], f"{path}.tip_to_bottom",
                                    lo=0.0, lo_open=True)
    else:
        out["tip_to_bottom"] = None
    return out


def _defaults(config, skip=()) -> dict:
    return {f.name: getattr(config, f.name) for f in fields(config) if f.name not in skip}


# the sensor's RNG comes from the trial seed, never from the file
_SENSOR_DEFAULTS = _defaults(SensorConfig(), skip=("seed",))
_WINDOW_DEFAULTS = _defaults(ReadingWindow())
_POLICY_DEFAULTS = _defaults(PolicyConfig())


def _with_defaults(data, path: str, defaults: dict) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, (), tuple(defaults))
    return {**defaults, **d}


def _parse_sensor(data, path: str) -> dict:
    d = _with_defaults(data, path, _SENSOR_DEFAULTS)
    return {
        "sample_rate": _num(d["sample_rate"], f"{path}.sample_rate", lo=0.0, lo_open=True),
        "noise_force": _num(d["noise_force"], f"{path}.noise_force", lo=0.0),
        "noise_torque": _num(d["noise_torque"], f"{path}.noise_torque", lo=0.0),
        "bias_force": _vec(d["bias_force"], 3, f"{path}.bias_force"),
        "bias_torque": _vec(d["bias_torque"], 3, f"{path}.bias_torque"),
        "drift_force": _vec(d["drift_force"], 3, f"{path}.drift_force"),
        "drift_torque": _vec(d["drift_torque"], 3, f"{path}.drift_torque"),
    }


def _parse_window(data, path: str) -> dict:
    d = _with_defaults(data, path, _WINDOW_DEFAULTS)
    return {
        "settle_time": _num(d["settle_time"], f"{path}.settle_time", lo=0.0),
        "average_time": _num(d["average_time"], f"{path}.average_time",
                             lo=0.0, lo_open=True),
    }


def _parse_policy(data, path: str) -> dict:
    d = _with_defaults(data, path, _POLICY_DEFAULTS)
    return {
        "resistance_threshold": _num(d["resistance_threshold"],
                                     f"{path}.resistance_threshold", lo=0.0, lo_open=True),
        "torque_release_threshold": _num(d["torque_release_threshold"],
                                         f"{path}.torque_release_threshold",
                                         lo=0.0, lo_open=True),
        "step_gain": _num(d["step_gain"], f"{path}.step_gain", lo=0.0),
        "flat_dir_floor": _num(d["flat_dir_floor"], f"{path}.flat_dir_floor", lo=0.0),
        "raise_height": _num(d["raise_height"], f"{path}.raise_height", lo=0.0),
        "force_floor": _num(d["force_floor"], f"{path}.force_floor", lo=0.0, lo_open=True),
        "max_iterations": _int(d["max_iterations"], f"{path}.max_iterations", lo=1),
        "workspace_limit": _num(d["workspace_limit"], f"{path}.workspace_limit",
                                lo=0.0, lo_open=True),
        "repress_scale": _num(d["repress_scale"], f"{path}.repress_scale",
                              lo=1.0, lo_open=True),
    }


def _parse_sampler(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("radius",), ("axis_aligned",))
    radius = _vec(d["radius"], 2, f"{path}.radius")
    if not 0.0 <= radius[0] <= radius[1]:
        _fail(f"{path}.radius", f"need 0 <= lo <= hi, got {radius}")
    return {
        "radius": radius,
        "axis_aligned": _bool(d.get("axis_aligned", False), f"{path}.axis_aligned"),
    }


def _parse_placement(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, (), ("start_xy", "guess_sampler", "hover_tip_z",
                              "calibration_xy", "stable_xy"))
    out = {
        "start_xy": _vec(d.get("start_xy", [0.0, 0.0]), 2, f"{path}.start_xy"),
        "guess_sampler": (None if d.get("guess_sampler") is None
                          else _parse_sampler(d["guess_sampler"], f"{path}.guess_sampler")),
        "hover_tip_z": _num(d.get("hover_tip_z", 0.1), f"{path}.hover_tip_z"),
        "calibration_xy": _vec(d.get("calibration_xy", [0.15, -0.15]), 2,
                               f"{path}.calibration_xy"),
        "stable_xy": (None if d.get("stable_xy") is None
                      else _vec(d["stable_xy"], 2, f"{path}.stable_xy")),
    }
    return out


def _parse_stack(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("count",), ("perturbation_limit", "target_xy",
                                      "calibration_xy", "hover_tip_z",
                                      "approach_clearance"))
    return {
        "count": _int(d["count"], f"{path}.count", lo=1),
        "perturbation_limit": _num(d.get("perturbation_limit", 0.01),
                                   f"{path}.perturbation_limit", lo=0.0),
        "target_xy": _vec(d.get("target_xy", [0.0, 0.0]), 2, f"{path}.target_xy"),
        "calibration_xy": _vec(d.get("calibration_xy", [0.15, -0.15]), 2,
                               f"{path}.calibration_xy"),
        "hover_tip_z": _num(d.get("hover_tip_z", 0.1), f"{path}.hover_tip_z"),
        "approach_clearance": _num(d.get("approach_clearance", 0.01),
                                   f"{path}.approach_clearance", lo=0.0, lo_open=True),
    }


def _parse_sweep(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("magnitudes",), ("center", "directions", "repeats",
                                           "hover_tip_z", "calibration_xy"))
    mags = d["magnitudes"]
    if not isinstance(mags, list) or not mags:
        _fail(f"{path}.magnitudes", "expected a non-empty list")
    parsed = [_num(m, f"{path}.magnitudes[{i}]", lo=0.0) for i, m in enumerate(mags)]
    if any(b <= a for a, b in zip(parsed, parsed[1:])):
        _fail(f"{path}.magnitudes", "must be strictly increasing")
    return {
        "center": _vec(d.get("center", [0.0, 0.0]), 2, f"{path}.center"),
        "magnitudes": parsed,
        "directions": _int(d.get("directions", 8), f"{path}.directions", lo=1),
        "repeats": _int(d.get("repeats", 6), f"{path}.repeats", lo=1),
        "hover_tip_z": _num(d.get("hover_tip_z", 0.1), f"{path}.hover_tip_z"),
        "calibration_xy": _vec(d.get("calibration_xy", [0.15, -0.15]), 2,
                               f"{path}.calibration_xy"),
    }


def _parse_press(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, ("offset_radius",), ("mass", "torques", "gravity"))
    torques = d.get("torques", {"min": 1.0, "max": 30.0, "spacing": "linear"})
    if isinstance(torques, list):
        t_out = [_num(t, f"{path}.torques[{i}]", lo=0.0) for i, t in enumerate(torques)]
        if not t_out:
            _fail(f"{path}.torques", "expected a non-empty list")
    else:
        t = _mapping(torques, f"{path}.torques")
        _check_keys(t, f"{path}.torques", ("min", "max"), ("spacing",))
        lo = _num(t["min"], f"{path}.torques.min", lo=0.0)
        hi = _num(t["max"], f"{path}.torques.max", lo=lo, lo_open=True)
        t_out = {
            "min": lo,
            "max": hi,
            "spacing": _choice(t.get("spacing", "linear"), ("linear", "log"),
                               f"{path}.torques.spacing"),
        }
        if t_out["spacing"] == "log" and lo <= 0.0:
            _fail(f"{path}.torques.min", "log spacing needs min > 0")
    return {
        "mass": _num(d.get("mass", 1.0), f"{path}.mass", lo=0.0, lo_open=True),
        "offset_radius": _num(d["offset_radius"], f"{path}.offset_radius",
                              lo=0.0, lo_open=True),
        "gravity": _num(d.get("gravity", 9.81), f"{path}.gravity", lo=0.0, lo_open=True),
        "torques": t_out,
    }


def _judge_min_success_rate(e: dict, r: dict):
    rate = r["success_rate"]
    return (rate >= e["min_success_rate"],
            f"success_rate {rate:.6g} vs required {e['min_success_rate']:.6g}")


def _judge_max_iterations_per_trial(e: dict, r: dict):
    worst = max((t["iterations"] for t in r["per_trial"] if "iterations" in t), default=0)
    return (worst <= e["max_iterations_per_trial"],
            f"worst trial used {worst} iterations, limit {e['max_iterations_per_trial']}")


def _judge_all_outcome(e: dict, r: dict):
    outcomes = {t["outcome"] for t in r["per_trial"] if "outcome" in t}
    return (outcomes == {e["all_outcome"]} and r.get("errors", 0) == 0,
            f"outcomes seen {sorted(outcomes)}, required all {e['all_outcome']}")


def _judge_min_placed(e: dict, r: dict):
    worst = min((t["placed"] for t in r["per_trial"] if "placed" in t), default=0)
    return worst >= e["min_placed"], f"least placed {worst}, required {e['min_placed']}"


def _judge_oneshot_tolerance(e: dict, r: dict):
    tol = e["oneshot_tolerance"]
    vals = [t.get("oneshot_com_error") for t in r["per_trial"] if "error" not in t]
    hits = sum(1 for v in vals if v is not None and v <= tol)
    rate = hits / len(vals) if vals else 0.0
    return (rate >= e.get("min_oneshot_rate", 1.0),
            f"{hits}/{len(vals)} first proposals within {tol:g} m (rate {rate:.6g})")


def _judge_max_direction_error_deg(e: dict, r: dict):
    worst, limit = r.get("max_angle_error_deg"), e["max_direction_error_deg"]
    return (worst is not None and worst <= limit,
            f"max direction error {worst} deg, limit {limit}")


def _medians(r: dict, keep=lambda magnitude: True) -> list:
    """The sweep's known medians, by ascending offset, at the offsets kept."""
    return [g["median_deg"] for g in r["by_magnitude"]
            if keep(g["magnitude"]) and g["median_deg"] is not None]


def _judge_median_below_deg(e: dict, r: dict):
    cutoff = e.get("at_or_above_offset", 0.0)
    meds = _medians(r, lambda m: m >= cutoff)
    return (bool(meds) and all(m < e["median_below_deg"] for m in meds),
            f"medians at offsets >= {cutoff:g}: {[round(m, 2) for m in meds]}")


def _judge_median_above_deg(e: dict, r: dict):
    cutoff = e.get("at_or_below_offset", float("inf"))
    meds = _medians(r, lambda m: m <= cutoff)
    return (bool(meds) and all(m > e["median_above_deg"] for m in meds),
            f"medians at offsets <= {cutoff:g}: {[round(m, 2) for m in meds]}")


def _judge_monotone_slack_deg(e: dict, r: dict):
    meds = _medians(r)
    return (all(b <= a + e["monotone_slack_deg"] for a, b in zip(meds, meds[1:])),
            f"medians over ascending offsets: {[round(m, 2) for m in meds]}")


class _ExpectKey(NamedTuple):
    families: tuple      # the families whose report the key judges
    check: Callable      # (value, path) -> the validated value
    qualifies: str | None = None  # a qualifier tunes that key's judge and needs it given
    judge: Callable | None = None  # (expect, results) -> (passed, detail)


def _rate(v, path: str) -> float:
    return _num(v, path, lo=0.0, hi=1.0)


def _at_least_zero(v, path: str) -> float:
    return _num(v, path, lo=0.0)


_OUTCOMES = tuple(o.value for o in PlacementOutcome)
_SWEEP = ("noise_sweep",)

# expect key -> its record; the order is the canonical expect order and the
# order of the report's checks
_EXPECT = {
    "min_success_rate": _ExpectKey(_PLACEMENT_FAMILIES + ("multi_stack",), _rate,
                                   judge=_judge_min_success_rate),
    "min_oneshot_rate": _ExpectKey(_PLACEMENT_FAMILIES, _rate, qualifies="oneshot_tolerance"),
    "max_iterations_per_trial": _ExpectKey(_PLACEMENT_FAMILIES, lambda v, p: _int(v, p, lo=1),
                                           judge=_judge_max_iterations_per_trial),
    "all_outcome": _ExpectKey(_PLACEMENT_FAMILIES, lambda v, p: _choice(v, _OUTCOMES, p),
                              judge=_judge_all_outcome),
    "min_placed": _ExpectKey(("multi_stack",), lambda v, p: _int(v, p, lo=0),
                             judge=_judge_min_placed),
    "oneshot_tolerance": _ExpectKey(_PLACEMENT_FAMILIES, _at_least_zero,
                                    judge=_judge_oneshot_tolerance),
    "max_direction_error_deg": _ExpectKey(("finger_press",), _at_least_zero,
                                          judge=_judge_max_direction_error_deg),
    "median_below_deg": _ExpectKey(_SWEEP, _at_least_zero, judge=_judge_median_below_deg),
    "at_or_above_offset": _ExpectKey(_SWEEP, _at_least_zero, qualifies="median_below_deg"),
    "median_above_deg": _ExpectKey(_SWEEP, _at_least_zero, judge=_judge_median_above_deg),
    "at_or_below_offset": _ExpectKey(_SWEEP, _at_least_zero, qualifies="median_above_deg"),
    "monotone_slack_deg": _ExpectKey(_SWEEP, _at_least_zero, judge=_judge_monotone_slack_deg),
}


def _parse_expect(data, path: str) -> dict:
    d = _mapping(data, path)
    _check_keys(d, path, (), tuple(_EXPECT))
    return {key: row.check(d[key], f"{path}.{key}") for key, row in _EXPECT.items() if key in d}


def _check_expect(family: str, sections: dict) -> None:
    """Reject expect keys that the family's report cannot judge."""
    expect = sections["expect"]
    for key in expect:
        if family not in _EXPECT[key].families:
            _fail(f"scenario.expect.{key}", f"not checked for family {family}")
    for key in expect:
        qualified = _EXPECT[key].qualifies
        if qualified is not None and qualified not in expect:
            _fail(f"scenario.expect.{key}", f"qualifies {qualified}, which is not given")
    if "oneshot_tolerance" in expect and sections["placement"]["stable_xy"] is None:
        _fail("scenario.expect.oneshot_tolerance", "needs scenario.placement.stable_xy")


def evaluate_expect(scenario: Scenario, results: dict) -> dict:
    """The report's checks: each judged expect key's verdict on the results."""
    checks = {}
    for key, row in _EXPECT.items():
        if key in scenario.expect and row.judge is not None:
            passed, detail = row.judge(scenario.expect, results)
            checks[key] = {"passed": bool(passed), "detail": detail}
    return checks


_SECTION_PARSERS = {
    "world": _parse_world,
    "object": _parse_object,
    "sensor": _parse_sensor,
    "window": _parse_window,
    "policy": _parse_policy,
    "placement": _parse_placement,
    "stack": _parse_stack,
    "sweep": _parse_sweep,
    "press": _parse_press,
    "expect": _parse_expect,
}

# family -> {section it reads: required}. Every family also reads the common
# sections; any other section is rejected. A section left out or given as
# null is absent, and an absent optional section parses from {}.
_COMMON_SECTIONS = dict.fromkeys(("sensor", "window", "policy", "expect"), False)
_PLACEMENT_SECTIONS = {"world": True, "object": True, "placement": False}
_FAMILY_SECTIONS = {
    **dict.fromkeys(_PLACEMENT_FAMILIES, _PLACEMENT_SECTIONS),
    "multi_stack": {"world": True, "object": True, "stack": True},
    "finger_press": {"press": True},
    "noise_sweep": {"world": True, "object": True, "sweep": True},
}
FAMILIES = tuple(_FAMILY_SECTIONS)


@dataclass(frozen=True)
class Scenario:
    """Validated scenario with canonical (defaults-filled) sections."""

    name: str
    family: str
    seed: int
    trials: int
    world: dict | None = None
    obj: dict | None = None
    sensor: dict = field(default_factory=lambda: _parse_sensor({}, "sensor"))
    window: dict = field(default_factory=lambda: _parse_window({}, "window"))
    policy: dict = field(default_factory=lambda: _parse_policy({}, "policy"))
    placement: dict | None = None
    stack: dict | None = None
    sweep: dict | None = None
    press: dict | None = None
    expect: dict = field(default_factory=dict)

    @classmethod
    def from_dict(cls, data) -> "Scenario":
        d = _mapping(data, "scenario")
        _check_keys(
            d, "scenario",
            ("schema_version", "name", "family", "seed", "trials"),
            tuple(_SECTION_PARSERS),
        )
        version = _int(d["schema_version"], "scenario.schema_version")
        if version != SCHEMA_VERSION:
            _fail("scenario.schema_version",
                  f"unsupported version {version}, expected {SCHEMA_VERSION}")
        name = d["name"]
        if not isinstance(name, str) or not name:
            _fail("scenario.name", f"expected a non-empty string, got {name!r}")
        family = _choice(d["family"], FAMILIES, "scenario.family")
        seed = _int(d["seed"], "scenario.seed", lo=0)
        trials = _int(d["trials"], "scenario.trials", lo=1)

        reads = {**_FAMILY_SECTIONS[family], **_COMMON_SECTIONS}
        for key in _SECTION_PARSERS:
            if d.get(key) is not None and key not in reads:
                _fail(f"scenario.{key}", f"not used by family {family}")
        sections = {}
        for key, required in reads.items():
            value = d.get(key)
            if value is None:
                if required:
                    _fail(f"scenario.{key}", f"required for family {family}")
                value = {}
            sections[key] = _SECTION_PARSERS[key](value, f"scenario.{key}")

        # the sensor's own expression, so a window it would refuse fails here
        average, rate = sections["window"]["average_time"], sections["sensor"]["sample_rate"]
        if int(np.floor(average * rate)) < 1:
            _fail("scenario.window.average_time",
                  f"window of {average} s yields no samples at {rate} Hz")
        _check_expect(family, sections)
        sweep = sections.get("sweep")
        if sweep is not None:
            expected = len(sweep["magnitudes"]) * sweep["directions"] * sweep["repeats"]
            if trials != expected:
                _fail("scenario.trials",
                      f"must equal magnitudes x directions x repeats = {expected}")
        press = sections.get("press")
        if press is not None and isinstance(press["torques"], list):
            if trials != len(press["torques"]):
                _fail("scenario.trials",
                      f"must equal the torque list length {len(press['torques'])}")

        return cls(name=name, family=family, seed=seed, trials=trials,
                   obj=sections.pop("object", None), **sections)

    def to_dict(self) -> dict:
        # emit the minimal canonical form: optional keys that parsed to None
        # are dropped so the output re-parses under the strict schema
        out = {
            "schema_version": SCHEMA_VERSION,
            "name": self.name,
            "family": self.family,
            "seed": self.seed,
            "trials": self.trials,
        }
        if self.world is not None:
            out["world"] = self.world
        if self.obj is not None:
            obj = {k: v for k, v in self.obj.items() if v is not None}
            if self.obj.get("com_offset_sampler") is not None:
                obj.pop("com_offset", None)
            out["object"] = obj
        out["sensor"] = self.sensor
        out["window"] = self.window
        out["policy"] = self.policy
        if self.placement is not None:
            out["placement"] = {k: v for k, v in self.placement.items() if v is not None}
        if self.stack is not None:
            out["stack"] = self.stack
        if self.sweep is not None:
            out["sweep"] = self.sweep
        if self.press is not None:
            out["press"] = self.press
        if self.expect:
            out["expect"] = self.expect
        return out


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.safe_load(fh)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not parseable YAML ({exc})") from exc
    return Scenario.from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario.to_dict(), fh, sort_keys=False)


# -- builders -----------------------------------------------------------------


def build_surface(cfg: dict):
    kind = cfg["kind"]
    if kind == "flat":
        return FlatPlane(cfg["height"])
    if kind == "puck":
        return Puck(
            center=tuple(cfg["center"]),
            radius=cfg["radius"],
            top_height=cfg["top_height"],
            ripple_amplitude=cfg["ripple_amplitude"],
            ripple_wavelength=cfg["ripple_wavelength"],
        )
    if kind == "ramp":
        return RampPatch(
            x_range=tuple(cfg["x_range"]),
            y_range=tuple(cfg["y_range"]),
            base_height=cfg["base_height"],
            slope_angle=np.radians(cfg["slope_deg"]),
            azimuth=np.radians(cfg["azimuth_deg"]),
        )
    if kind == "spherical_cap":
        return SphericalCap(
            center=tuple(cfg["center"]),
            extent_radius=cfg["extent_radius"],
            curvature_radius=cfg["curvature_radius"],
            apex_height=cfg["apex_height"],
        )
    origin = cfg["origin"]
    values = np.asarray(cfg["values"], dtype=float)
    return HeightField(origin=(origin[0], origin[1]), pitch=cfg["pitch"], values=values)


def build_world(scenario: Scenario) -> World:
    cfg = scenario.world
    params = SimParams(**cfg["params"]) if cfg["params"] else SimParams()
    layers = [build_surface(s) for s in cfg["surfaces"]]
    return World(
        layers,
        x_range=tuple(cfg["x_range"]),
        y_range=tuple(cfg["y_range"]),
        params=params,
    )


def _sample_offset(sampler: dict, rng: np.random.Generator) -> np.ndarray:
    lo, hi = sampler["radius"]
    mag = rng.uniform(lo, hi)
    if sampler["axis_aligned"]:
        axis = rng.integers(0, 4)
        dx, dy = ((mag, 0.0), (-mag, 0.0), (0.0, mag), (0.0, -mag))[axis]
    else:
        theta = rng.uniform(0.0, 2.0 * np.pi)
        dx, dy = mag * np.cos(theta), mag * np.sin(theta)
    return np.array([dx, dy])


def build_object(scenario: Scenario, rng: np.random.Generator) -> HeldObject:
    cfg = scenario.obj
    if cfg["com_offset_sampler"] is not None:
        xy = _sample_offset(cfg["com_offset_sampler"], rng)
        com_offset = np.array([xy[0], xy[1], 0.0])
    else:
        com_offset = np.asarray(cfg["com_offset"], dtype=float)
    return HeldObject(
        mass=cfg["mass"],
        footprint=Footprint(cfg["footprint"]["kind"], cfg["footprint"]["size"]),
        thickness=cfg["thickness"],
        com_offset=com_offset,
        bottom=BottomProfile(**cfg["bottom"]),
        top=TopProfile(**cfg["top"]),
        tip_to_bottom=cfg["tip_to_bottom"],
    )


def sample_start_xy(scenario: Scenario, rng: np.random.Generator) -> np.ndarray:
    cfg = scenario.placement
    start = np.asarray(cfg["start_xy"], dtype=float)
    if cfg["guess_sampler"] is not None:
        start = start + _sample_offset(cfg["guess_sampler"], rng)
    return start


def build_sensor(scenario: Scenario, rng: np.random.Generator) -> ForceTorqueSensor:
    s = scenario.sensor
    config = SensorConfig(
        sample_rate=s["sample_rate"],
        noise_torque=s["noise_torque"],
        noise_force=s["noise_force"],
        bias_torque=tuple(s["bias_torque"]),
        bias_force=tuple(s["bias_force"]),
        drift_torque=tuple(s["drift_torque"]),
        drift_force=tuple(s["drift_force"]),
    )
    return ForceTorqueSensor(config, rng=rng)


def build_window(scenario: Scenario) -> ReadingWindow:
    return ReadingWindow(settle_time=scenario.window["settle_time"],
                         average_time=scenario.window["average_time"])


def build_policy(scenario: Scenario) -> PolicyConfig:
    return PolicyConfig(**scenario.policy)
