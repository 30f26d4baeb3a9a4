"""One digest over how the scenario parser answers every single-fault document.

    python3 scripts/schema_digest.py

Starts from every shipped scenario (``scenarios/*.yaml``), the first request
of each request kind of the benchmark workloads (``bench/workloads.py``,
seed 1, imported read-only) and two documents below that use every surface
kind and every optional key. Each key and list item of a document, at any
depth, is set to each of ``BAD_VALUES`` in turn and deleted, and each
mapping is given an unknown key. ``Scenario.from_dict`` parses every such
mutation; its outcome is the ``ScenarioError`` text, or the canonical dict
(``to_dict``) of a document that parses. The last line of output is the
mutation count and a sha256 over every mutation and its outcome, in order.
Two commits that print the same line parse every mutation the same way.
Exits 1 when any mutation raises anything but ``ScenarioError``.
"""

from __future__ import annotations

import copy
import hashlib
import json
import sys
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_SEED = 1
DELETE = "<delete>"
UNKNOWN_KEY = "bogus"
BAD_VALUES = (None, True, 0, 1, -1, 0.0, -0.5, 0.5, 2.5, 1e9, float("nan"), float("inf"),
              "x", [], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0, 0.0], {})

_SURFACES = [
    {"kind": "flat", "height": 0.0},
    {"kind": "puck", "center": [0.0, 0.0], "radius": 0.05, "top_height": 0.04,
     "ripple_amplitude": 0.0005, "ripple_wavelength": 0.01},
    {"kind": "ramp", "x_range": [-0.25, -0.1], "y_range": [-0.05, 0.25], "slope_deg": 15.0,
     "base_height": 0.02, "azimuth_deg": 90.0},
    {"kind": "spherical_cap", "center": [0.1, 0.1], "extent_radius": 0.03,
     "curvature_radius": 0.2, "apex_height": 0.03},
    {"kind": "height_field", "origin": [-0.1, -0.2], "pitch": 0.01,
     "values": [[0.0, 0.01], [0.02, 0.0]]},
]
_PARAMS = {"spring_k": 1e5, "descent_step": 5e-4, "contact_pitch": 1e-3, "raster_pitch": 2e-3,
           "patch_tie_tol": 1e-6, "stability_margin": 1e-3, "gravity": 9.81,
           "wrist_lift": 0.15, "gripper_mass": 0.0, "descent_floor": -0.02}
_COMMON = {
    "sensor": {"sample_rate": 50.0, "noise_force": 0.1, "noise_torque": 0.005,
               "bias_force": [0.1, 0.0, -0.1], "bias_torque": [0.0, 0.01, 0.0],
               "drift_force": [0.0, 0.0, 0.01], "drift_torque": [0.001, 0.0, 0.0]},
    "window": {"settle_time": 0.2, "average_time": 0.4},
    "policy": {"resistance_threshold": 8.0, "torque_release_threshold": 0.04,
               "step_gain": 0.4, "flat_dir_floor": 0.03, "raise_height": 0.015,
               "force_floor": 0.5, "max_iterations": 8, "workspace_limit": 0.25,
               "repress_scale": 2.0},
}
_PROFILES = {"bottom": {"kind": "dome", "curvature_radius": 0.3},
             "top": {"kind": "undulating", "amplitude": 0.001, "wavelength": 0.03},
             "tip_to_bottom": 0.05}
# every surface kind and optional key; com_offset and its sampler exclude each other
FULL_DOCUMENTS = {
    "full_placement": {
        "schema_version": 1, "name": "full_placement", "family": "offset_recovery",
        "seed": 4, "trials": 2,
        "world": {"x_range": [-0.25, 0.25], "y_range": [-0.2, 0.3], "surfaces": _SURFACES,
                  "params": _PARAMS},
        "object": {"mass": 1.0, "footprint": {"kind": "disk", "size": 0.05},
                   "thickness": 0.02, "com_offset": [0.01, 0.0, 0.0], **_PROFILES},
        **_COMMON,
        "placement": {"start_xy": [0.02, 0.0],
                      "guess_sampler": {"radius": [0.0, 0.01], "axis_aligned": False},
                      "hover_tip_z": 0.12, "calibration_xy": [0.2, -0.2],
                      "stable_xy": [0.0, 0.0]},
        "expect": {"min_success_rate": 0.5, "min_oneshot_rate": 0.5,
                   "max_iterations_per_trial": 8, "all_outcome": "released_stable",
                   "oneshot_tolerance": 0.01},
    },
    "full_stack": {
        "schema_version": 1, "name": "full_stack", "family": "multi_stack",
        "seed": 6, "trials": 1,
        "world": {"surfaces": _SURFACES[:1]},
        "object": {"mass": 1.0, "footprint": {"kind": "square", "size": 0.05},
                   "thickness": 0.006,
                   "com_offset_sampler": {"radius": [0.0, 0.005], "axis_aligned": True},
                   **_PROFILES},
        **_COMMON,
        "stack": {"count": 3, "perturbation_limit": 0.005, "target_xy": [0.01, 0.0],
                  "calibration_xy": [0.2, -0.2], "hover_tip_z": 0.12,
                  "approach_clearance": 0.02},
        "expect": {"min_success_rate": 1.0, "min_placed": 3},
    },
}


def documents():
    """(name, scenario document) pairs, in a fixed order."""
    sys.dont_write_bytecode = True   # leave no cache behind in bench/
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    for path in sorted((ROOT / "scenarios").glob("*.yaml")):
        yield path.stem, yaml.safe_load(path.read_text(encoding="utf-8"))
    kinds = set()
    for workload in workloads.WORKLOADS:
        for block in workloads.generate(workload, WORKLOAD_SEED):
            for request in block:
                if request.kind not in kinds:
                    kinds.add(request.kind)
                    yield f"{workload}.{request.kind}", request.doc
    yield from FULL_DOCUMENTS.items()


def _nodes(node, path=()):
    """(path, value) of every key and list item under the node, parents first."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield path + (key,), child
        yield from _nodes(child, path + (key,))


def mutations(doc: dict):
    """(key path, value) of every single fault in the document; the value
    replaces the key, or is DELETE."""
    targets = [((), doc)] + list(_nodes(doc))
    for path, value in targets:
        if isinstance(value, dict):
            yield (*path, UNKNOWN_KEY), 1.0
        if path:
            for bad in BAD_VALUES + (DELETE,):
                yield path, bad


def _apply(doc: dict, path: tuple, value) -> dict:
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = copy.deepcopy(value)
    return doc


def outcome(scenario_module, doc: dict) -> str:
    """The ScenarioError text, or the canonical dict of a document that parses."""
    try:
        parsed = scenario_module.Scenario.from_dict(doc)
    except scenario_module.ScenarioError as exc:
        return f"error {exc}"
    return f"ok {json.dumps(parsed.to_dict())}"


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from ftstack import scenario

    h = hashlib.sha256()
    count = raised = 0
    for name, doc in documents():
        for path, value in mutations(doc):
            label = f"{name} {'.'.join(map(str, path))} = {value!r}"
            try:
                result = outcome(scenario, _apply(doc, path, value))
            except Exception as exc:  # noqa: BLE001 - every other exception is reported
                raised += 1
                print(f"RAISED {label}: {exc!r}", file=sys.stderr)
                result = f"raised {type(exc).__name__}"
            h.update(f"{label}\t{result}\n".encode())
            count += 1
    print(f"{count} mutations sha256 {h.hexdigest()}")
    return 1 if raised else 0


if __name__ == "__main__":
    sys.exit(main())
