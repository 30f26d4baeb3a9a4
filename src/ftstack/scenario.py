"""Scenario files: schema, validation, and builders.

A scenario is a versioned YAML mapping that pins every stochastic element to
an explicit seed, so a batch re-run reproduces its report byte for byte. The
parser validates eagerly and reports problems by field path; builders turn
the validated sections into live world, object, sensor, and policy values.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import partial
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
# most samples a window's settle or averaging span may take: 1 kHz for 1000 s
MAX_WINDOW_SAMPLES = 1_000_000
# libyaml's parser when PyYAML has it: the documents yaml.safe_load gives, faster
_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)

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


def check_seed(value) -> int:
    """A scenario's seed, from its file or an override: a non-negative integer.
    An override may be any integer type (``np.int64``, say), never a bool."""
    if not isinstance(value, bool) and hasattr(type(value), "__index__"):
        value = operator.index(value)
    return _int(value, "scenario.seed", lo=0)


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


def _list(value, path: str, item: Callable) -> list:
    """A non-empty list, each item checked at its index."""
    if not isinstance(value, list) or not value:
        _fail(path, "expected a non-empty list")
    return [item(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _pos(value, path: str) -> float:
    return _num(value, path, lo=0.0, lo_open=True)


def _at_least_zero(value, path: str) -> float:
    return _num(value, path, lo=0.0)


def _rate(value, path: str) -> float:
    return _num(value, path, lo=0.0, hi=1.0)


def _count(value, path: str) -> int:
    return _int(value, path, lo=1)


def _xy(value, path: str) -> list:
    return _vec(value, 2, path)


def _xyz(value, path: str) -> list:
    return _vec(value, 3, path)


_REQUIRED = object()


class _Key(NamedTuple):
    check: Callable              # (value, path) -> the validated value
    default: object = _REQUIRED  # filled in when absent; None leaves an absent or null key None


def _parse_keys(data, path: str, keys: dict) -> dict:
    """A mapping checked against its key table (key -> _Key): missing and
    unknown keys fail, absent keys take their defaults, and every value is
    checked in table order, which is also the canonical key order."""
    d = _mapping(data, path)
    _check_keys(d, path, tuple(k for k, key in keys.items() if key.default is _REQUIRED),
                tuple(keys))
    out = {}
    for name, key in keys.items():
        value = d.get(name, key.default)
        absent = value is None and key.default is None
        out[name] = None if absent else key.check(value, f"{path}.{name}")
    return out


def _section(keys: dict) -> Callable:
    """The check of a mapping whose keys the table declares."""
    return lambda data, path: _parse_keys(data, path, keys)


def _grid(values, path: str) -> list:
    if not isinstance(values, list) or not values or not all(
        isinstance(row, list) and len(row) == len(values[0]) and row for row in values
    ):
        _fail(path, "expected a non-empty rectangular list of rows")
    return [[_num(v, f"{path}[{i}][{j}]") for j, v in enumerate(row)]
            for i, row in enumerate(values)]


class _SurfaceKind(NamedTuple):
    keys: dict       # the keys besides 'kind'
    build: Callable  # canonical surface -> terrain layer


_SURFACES = {
    "flat": _SurfaceKind({"height": _Key(_num, 0.0)}, lambda c: FlatPlane(c["height"])),
    "puck": _SurfaceKind(
        {"center": _Key(_xy), "radius": _Key(_pos), "top_height": _Key(_num),
         "ripple_amplitude": _Key(_at_least_zero, 0.0), "ripple_wavelength": _Key(_pos, 0.02)},
        lambda c: Puck(center=tuple(c["center"]), radius=c["radius"],
                       top_height=c["top_height"], ripple_amplitude=c["ripple_amplitude"],
                       ripple_wavelength=c["ripple_wavelength"])),
    "ramp": _SurfaceKind(
        {"x_range": _Key(_span), "y_range": _Key(_span),
         "slope_deg": _Key(lambda v, p: _num(v, p, lo=0.0, hi=89.0, lo_open=True)),
         "base_height": _Key(_num, 0.0), "azimuth_deg": _Key(_num, 0.0)},
        lambda c: RampPatch(x_range=tuple(c["x_range"]), y_range=tuple(c["y_range"]),
                            base_height=c["base_height"], slope_angle=np.radians(c["slope_deg"]),
                            azimuth=np.radians(c["azimuth_deg"]))),
    # the curvature must exceed the extent; _parse_surface checks it
    "spherical_cap": _SurfaceKind(
        {"center": _Key(_xy), "extent_radius": _Key(_pos), "curvature_radius": _Key(_num),
         "apex_height": _Key(_num)},
        lambda c: SphericalCap(center=tuple(c["center"]), extent_radius=c["extent_radius"],
                               curvature_radius=c["curvature_radius"],
                               apex_height=c["apex_height"])),
    "height_field": _SurfaceKind(
        {"origin": _Key(_xy), "pitch": _Key(_pos), "values": _Key(_grid)},
        lambda c: HeightField(origin=tuple(c["origin"]), pitch=c["pitch"],
                              values=np.asarray(c["values"], dtype=float))),
}
_KIND = _Key(lambda kind, path: kind)  # checked before the kind's table is chosen


def _parse_surface(data, path: str) -> dict:
    d = _mapping(data, path)
    kind = _choice(d.get("kind"), tuple(_SURFACES), f"{path}.kind")
    out = _parse_keys(d, path, {"kind": _KIND, **_SURFACES[kind].keys})
    if kind == "spherical_cap" and out["curvature_radius"] <= out["extent_radius"]:
        _fail(f"{path}.curvature_radius",
              f"must be > {out['extent_radius']}, got {out['curvature_radius']}")
    return out


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


def _sim_params(data, path: str) -> dict:
    """Only the params given, in the order given: save_scenario writes them so."""
    d = _mapping(data, path)
    _check_keys(d, path, (), tuple(_SIM_PARAM_BOUNDS))
    return {k: _num(v, f"{path}.{k}", lo=_SIM_PARAM_BOUNDS[k][0], lo_open=_SIM_PARAM_BOUNDS[k][1])
            for k, v in d.items()}


_WORLD_KEYS = {
    "x_range": _Key(_span, [-0.3, 0.3]),
    "y_range": _Key(_span, [-0.3, 0.3]),
    "surfaces": _Key(lambda v, p: _list(v, p, _parse_surface)),
    "params": _Key(_sim_params, {}),
}


# object profile -> kind -> the keys besides 'kind' that the kind reads, each
# with its default (None: required); every value is a positive number
_PROFILE_KEYS = {
    "bottom": {"flat": {}, "dome": {"curvature_radius": None}},
    "top": {"flat": {}, "undulating": {"amplitude": None, "wavelength": 0.02}},
}


def _parse_profile(kinds: dict, data, path: str) -> dict:
    """An object's bottom or top profile; a key its kind does not read fails."""
    d = _mapping(data, path)
    _check_keys(d, path, ("kind",), tuple(k for keys in kinds.values() for k in keys))
    kind = _choice(d["kind"], tuple(kinds), f"{path}.kind")
    for key in d:
        if key != "kind" and key not in kinds[kind]:
            _fail(f"{path}.{key}", f"not used by kind {kind}")
    return {"kind": kind, **{key: _pos(d.get(key, default), f"{path}.{key}")
                             for key, default in kinds[kind].items()}}


def _radius_range(value, path: str) -> list:
    radius = _vec(value, 2, path)
    if not 0.0 <= radius[0] <= radius[1]:
        _fail(path, f"need 0 <= lo <= hi, got {radius}")
    return radius


_SAMPLER_KEYS = {"radius": _Key(_radius_range), "axis_aligned": _Key(_bool, False)}

_OBJECT_KEYS = {
    "mass": _Key(_pos),
    "footprint": _Key(_section({
        "kind": _Key(lambda v, p: _choice(v, ("disk", "square"), p)),
        "size": _Key(_pos),
    })),
    "thickness": _Key(_pos),
    "com_offset": _Key(_xyz, [0.0, 0.0, 0.0]),
    "com_offset_sampler": _Key(_section(_SAMPLER_KEYS), None),
    "bottom": _Key(partial(_parse_profile, _PROFILE_KEYS["bottom"]), {"kind": "flat"}),
    "top": _Key(partial(_parse_profile, _PROFILE_KEYS["top"]), {"kind": "flat"}),
    "tip_to_bottom": _Key(_pos, None),
}


def _parse_object(data, path: str) -> dict:
    obj = _parse_keys(data, path, _OBJECT_KEYS)
    if "com_offset" in data and obj["com_offset_sampler"] is not None:
        _fail(path, "give com_offset or com_offset_sampler, not both")
    return obj


def _config_keys(config, checks: dict) -> dict:
    """A key table over a config's fields, each defaulting to the config's value."""
    return {name: _Key(check, getattr(config, name)) for name, check in checks.items()}


_SENSOR_KEYS = _config_keys(SensorConfig(), {
    "sample_rate": _pos,
    "noise_force": _at_least_zero,
    "noise_torque": _at_least_zero,
    "bias_force": _xyz,
    "bias_torque": _xyz,
    "drift_force": _xyz,
    "drift_torque": _xyz,
})
_WINDOW_KEYS = _config_keys(ReadingWindow(), {"settle_time": _at_least_zero,
                                              "average_time": _pos})
_POLICY_KEYS = _config_keys(PolicyConfig(), {
    "resistance_threshold": _pos,
    "torque_release_threshold": _pos,
    "step_gain": _at_least_zero,
    "flat_dir_floor": _at_least_zero,
    "raise_height": _at_least_zero,
    "force_floor": _pos,
    "max_iterations": _count,
    "workspace_limit": _pos,
    "repress_scale": lambda v, p: _num(v, p, lo=1.0, lo_open=True),
})

# defaults of every section that places objects: the flat-press spot and the hover height
_CALIBRATION_XY = [0.15, -0.15]
_HOVER_TIP_Z = 0.1

_PLACEMENT_KEYS = {
    "start_xy": _Key(_xy, [0.0, 0.0]),
    "guess_sampler": _Key(_section(_SAMPLER_KEYS), None),
    "hover_tip_z": _Key(_num, _HOVER_TIP_Z),
    "calibration_xy": _Key(_xy, _CALIBRATION_XY),
    "stable_xy": _Key(_xy, None),
}

_STACK_KEYS = {
    "count": _Key(_count),
    "perturbation_limit": _Key(_at_least_zero, 0.01),
    "target_xy": _Key(_xy, [0.0, 0.0]),
    "calibration_xy": _Key(_xy, _CALIBRATION_XY),
    "hover_tip_z": _Key(_num, _HOVER_TIP_Z),
    "approach_clearance": _Key(_pos, 0.01),
}


def _magnitudes(value, path: str) -> list:
    mags = _list(value, path, _at_least_zero)
    if any(b <= a for a, b in zip(mags, mags[1:])):
        _fail(path, "must be strictly increasing")
    return mags


_SWEEP_KEYS = {
    "center": _Key(_xy, [0.0, 0.0]),
    "magnitudes": _Key(_magnitudes),
    "directions": _Key(_count, 8),
    "repeats": _Key(_count, 6),
    "hover_tip_z": _Key(_num, _HOVER_TIP_Z),
    "calibration_xy": _Key(_xy, _CALIBRATION_XY),
}

_TORQUE_RANGE_KEYS = {
    "min": _Key(_at_least_zero),
    "max": _Key(_num),
    "spacing": _Key(lambda v, p: _choice(v, ("linear", "log"), p), "linear"),
}


def _torques(value, path: str) -> list | dict:
    """A list of torques, one per trial, or a min/max range."""
    if isinstance(value, list):
        return _list(value, path, _at_least_zero)
    t = _parse_keys(value, path, _TORQUE_RANGE_KEYS)
    if t["max"] <= t["min"]:
        _fail(f"{path}.max", f"must be > {t['min']}, got {t['max']}")
    if t["spacing"] == "log" and t["min"] <= 0.0:
        _fail(f"{path}.min", "log spacing needs min > 0")
    return t


_PRESS_KEYS = {
    "mass": _Key(_pos, 1.0),
    "offset_radius": _Key(_pos),
    "gravity": _Key(_pos, 9.81),
    "torques": _Key(_torques, {"min": 1.0, "max": 30.0, "spacing": "linear"}),
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


_OUTCOMES = tuple(o.value for o in PlacementOutcome)
_SWEEP = ("noise_sweep",)

# expect key -> its record; the order is the canonical expect order and the
# order of the report's checks
_EXPECT = {
    "min_success_rate": _ExpectKey(_PLACEMENT_FAMILIES + ("multi_stack",), _rate,
                                   judge=_judge_min_success_rate),
    "min_oneshot_rate": _ExpectKey(_PLACEMENT_FAMILIES, _rate, qualifies="oneshot_tolerance"),
    "max_iterations_per_trial": _ExpectKey(_PLACEMENT_FAMILIES, _count,
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
    "world": _section(_WORLD_KEYS),
    "object": _parse_object,
    "sensor": _section(_SENSOR_KEYS),
    "window": _section(_WINDOW_KEYS),
    "policy": _section(_POLICY_KEYS),
    "placement": _section(_PLACEMENT_KEYS),
    "stack": _section(_STACK_KEYS),
    "sweep": _section(_SWEEP_KEYS),
    "press": _section(_PRESS_KEYS),
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
    sensor: dict
    window: dict
    policy: dict
    expect: dict
    world: dict | None = None
    obj: dict | None = None
    placement: dict | None = None
    stack: dict | None = None
    sweep: dict | None = None
    press: dict | None = None

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
        if not name.isprintable():  # it heads every trace, one line of text
            _fail("scenario.name", f"expected printable characters only, got {name!r}")
        family = _choice(d["family"], FAMILIES, "scenario.family")
        seed = check_seed(d["seed"])
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
        rate = sections["sensor"]["sample_rate"]
        for key, span in sections["window"].items():
            if np.floor(span * rate) > MAX_WINDOW_SAMPLES:  # an overflow to inf too
                _fail(f"scenario.window.{key}", f"window of {span} s takes more than "
                      f"{MAX_WINDOW_SAMPLES} samples at {rate} Hz")
        average = sections["window"]["average_time"]
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
        # emit the minimal canonical form: values that parsed to None and an
        # empty expect are dropped so the output re-parses under the strict schema
        out = {"schema_version": SCHEMA_VERSION, "name": self.name, "family": self.family,
               "seed": self.seed, "trials": self.trials}
        for key in _SECTION_PARSERS:
            section = getattr(self, "obj" if key == "object" else key)
            if section:
                out[key] = {k: v for k, v in section.items() if v is not None}
        if self.obj is not None and self.obj["com_offset_sampler"] is not None:
            del out["object"]["com_offset"]
        return out


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = yaml.load(fh, Loader=_LOADER)
        except yaml.YAMLError as exc:
            raise ScenarioError(f"{path}: not parseable YAML ({exc})") from exc
    return Scenario.from_dict(data)


def save_scenario(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(scenario.to_dict(), fh, sort_keys=False)


# -- builders -----------------------------------------------------------------


def build_surface(cfg: dict):
    return _SURFACES[cfg["kind"]].build(cfg)


def build_world(scenario: Scenario) -> World:
    cfg = scenario.world
    return World(
        [build_surface(s) for s in cfg["surfaces"]],
        x_range=tuple(cfg["x_range"]),
        y_range=tuple(cfg["y_range"]),
        params=SimParams(**cfg["params"]),
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
    config = SensorConfig(**{k: tuple(v) if isinstance(v, list) else v
                             for k, v in scenario.sensor.items()})
    return ForceTorqueSensor(config, rng)


def build_window(scenario: Scenario) -> ReadingWindow:
    return ReadingWindow(**scenario.window)


def build_policy(scenario: Scenario) -> PolicyConfig:
    return PolicyConfig(**scenario.policy)
