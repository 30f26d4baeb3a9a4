"""Scenario schema: round-trips, field-path errors, and builders."""

import copy
import dataclasses
import re
from pathlib import Path

import numpy as np
import pytest
import yaml

from ftstack import scenario as scenario_module
from ftstack.scenario import (
    FAMILIES,
    MAX_WINDOW_SAMPLES,
    Scenario,
    ScenarioError,
    _EXPECT,
    evaluate_expect,
    _SURFACES,
    build_object,
    build_sensor,
    build_surface,
    build_world,
    load_scenario,
    sample_start_xy,
    save_scenario,
)
from ftstack.policy import PolicyConfig
from ftstack.sensor import ReadingWindow, SensorConfig
from ftstack.surfaces import FlatPlane, HeightField, Puck, RampPatch, SphericalCap
from ftstack.world import BottomProfile, SimParams, TopProfile, World

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def minimal_placement() -> dict:
    return {
        "schema_version": 1,
        "name": "unit",
        "family": "zero_offset",
        "seed": 1,
        "trials": 2,
        "world": {"surfaces": [{"kind": "flat"}]},
        "object": {
            "mass": 1.0,
            "footprint": {"kind": "disk", "size": 0.05},
            "thickness": 0.02,
        },
    }


def minimal_sweep() -> dict:
    return {
        "schema_version": 1,
        "name": "unit",
        "family": "noise_sweep",
        "seed": 3,
        "trials": 4,
        "world": {"surfaces": [{"kind": "flat"}]},
        "object": {
            "mass": 1.0,
            "footprint": {"kind": "disk", "size": 0.05},
            "thickness": 0.02,
        },
        "sweep": {"magnitudes": [0.0, 0.01], "directions": 2, "repeats": 1},
    }


def minimal_press() -> dict:
    return {
        "schema_version": 1,
        "name": "unit",
        "family": "finger_press",
        "seed": 5,
        "trials": 3,
        "press": {"offset_radius": 0.1, "torques": [1.0, 2.0, 3.0]},
    }


def minimal_stack() -> dict:
    d = minimal_placement()
    d.update(family="multi_stack", stack={"count": 2})
    return d


# complete documents: every surface kind and every optional key, in the
# canonical key order that save_scenario writes
FULL_SENSOR = {"sample_rate": 50.0, "noise_force": 0.1, "noise_torque": 0.005,
               "bias_force": [0.1, 0.0, -0.1], "bias_torque": [0.0, 0.01, 0.0],
               "drift_force": [0.0, 0.0, 0.01], "drift_torque": [0.001, 0.0, 0.0]}
FULL_WINDOW = {"settle_time": 0.2, "average_time": 0.4}
FULL_POLICY = {"resistance_threshold": 8.0, "torque_release_threshold": 0.04, "step_gain": 0.4,
               "flat_dir_floor": 0.03, "raise_height": 0.015, "force_floor": 0.5,
               "max_iterations": 8, "workspace_limit": 0.25, "repress_scale": 2.0}
FULL_OBJECT = {"mass": 1.0, "footprint": {"kind": "disk", "size": 0.05}, "thickness": 0.02,
               "com_offset": [0.01, 0.0, 0.0],
               "bottom": {"kind": "dome", "curvature_radius": 0.3},
               "top": {"kind": "undulating", "amplitude": 0.001, "wavelength": 0.03},
               "tip_to_bottom": 0.05}
# surface kind -> (a complete surface of that kind, the layer it builds)
FULL_SURFACES = {
    "flat": ({"kind": "flat", "height": 0.0}, FlatPlane),
    "puck": ({"kind": "puck", "center": [0.0, 0.0], "radius": 0.05, "top_height": 0.04,
              "ripple_amplitude": 0.0005, "ripple_wavelength": 0.01}, Puck),
    "ramp": ({"kind": "ramp", "x_range": [-0.25, -0.1], "y_range": [-0.05, 0.25],
              "slope_deg": 15.0, "base_height": 0.02, "azimuth_deg": 90.0}, RampPatch),
    "spherical_cap": ({"kind": "spherical_cap", "center": [0.1, 0.1], "extent_radius": 0.03,
                       "curvature_radius": 0.2, "apex_height": 0.03}, SphericalCap),
    "height_field": ({"kind": "height_field", "origin": [-0.1, -0.2], "pitch": 0.01,
                      "values": [[0.0, 0.01], [0.02, 0.0]]}, HeightField),
}


def _full(name, family, seed, trials, **sections) -> dict:
    common = {"sensor": FULL_SENSOR, "window": FULL_WINDOW, "policy": FULL_POLICY}
    doc = {"schema_version": 1, "name": name, "family": family, "seed": seed, "trials": trials}
    if family != "finger_press":
        doc["world"] = {"x_range": [-0.25, 0.25], "y_range": [-0.2, 0.3],
                        "surfaces": [s for s, _ in FULL_SURFACES.values()],
                        "params": {"spring_k": 5000.0, "descent_step": 0.0005}}
        doc["object"] = FULL_OBJECT
    return copy.deepcopy({**doc, **common, **sections})


def full_placement() -> dict:
    return _full("full_placement", "offset_recovery", 4, 2,
                 placement={"start_xy": [0.02, 0.0],
                            "guess_sampler": {"radius": [0.0, 0.01], "axis_aligned": False},
                            "hover_tip_z": 0.12, "calibration_xy": [0.2, -0.2],
                            "stable_xy": [0.0, 0.0]},
                 expect={"min_success_rate": 0.5, "min_oneshot_rate": 0.5,
                         "max_iterations_per_trial": 8, "all_outcome": "released_stable",
                         "oneshot_tolerance": 0.01})


def full_stack() -> dict:
    return _full("full_stack", "multi_stack", 6, 1,
                 object={"mass": 1.0, "footprint": {"kind": "square", "size": 0.05},
                         "thickness": 0.006,
                         "com_offset_sampler": {"radius": [0.0, 0.005], "axis_aligned": True},
                         "bottom": {"kind": "flat"}, "top": {"kind": "flat"},
                         "tip_to_bottom": 0.02},
                 stack={"count": 3, "perturbation_limit": 0.005, "target_xy": [0.01, 0.0],
                        "calibration_xy": [0.2, -0.2], "hover_tip_z": 0.12,
                        "approach_clearance": 0.02},
                 expect={"min_success_rate": 1.0, "min_placed": 3})


def full_sweep() -> dict:
    return _full("full_sweep", "noise_sweep", 3, 4,
                 sweep={"center": [0.0, 0.0], "magnitudes": [0.0, 0.01], "directions": 2,
                        "repeats": 1, "hover_tip_z": 0.12, "calibration_xy": [0.2, -0.2]},
                 expect={"median_below_deg": 30.0, "at_or_above_offset": 0.01,
                         "median_above_deg": 60.0, "at_or_below_offset": 0.0,
                         "monotone_slack_deg": 5.0})


def full_press() -> dict:
    return _full("full_press", "finger_press", 5, 3,
                 press={"mass": 1.0, "offset_radius": 0.1, "gravity": 9.81,
                        "torques": {"min": 1.0, "max": 30.0, "spacing": "log"}},
                 expect={"max_direction_error_deg": 5.0})


DELETE = object()


def _set(doc: dict, path: str, value) -> dict:
    """The document with the dotted key path (digits index lists) set or deleted."""
    *parents, last = [int(p) if p.isdigit() else p for p in path.split(".")]
    node = doc
    for key in parents:
        node = node[key]
    if value is DELETE:
        del node[last]
    else:
        node[last] = value
    return doc


class TestShippedFiles:
    def test_every_shipped_scenario_round_trips(self):
        paths = sorted(SCENARIO_DIR.glob("*.yaml"))
        assert len(paths) == 8
        for path in paths:
            scenario = load_scenario(path)
            assert scenario.family in FAMILIES
            again = Scenario.from_dict(scenario.to_dict())
            assert again == scenario

    def test_save_then_load_is_identity(self, tmp_path):
        scenario = load_scenario(SCENARIO_DIR / "zero_offset_noiseless.yaml")
        out = tmp_path / "copy.yaml"
        save_scenario(scenario, out)
        assert load_scenario(out) == scenario

    def test_libyaml_and_python_loaders_agree(self, monkeypatch):
        assert scenario_module._LOADER is yaml.CSafeLoader
        for path in sorted(SCENARIO_DIR.glob("*.yaml")):
            texts = set()
            for loader in (yaml.CSafeLoader, yaml.SafeLoader):
                monkeypatch.setattr(scenario_module, "_LOADER", loader)
                # the saved text, so an int parsed as a float would differ too
                texts.add(yaml.safe_dump(load_scenario(path).to_dict(), sort_keys=False))
            assert len(texts) == 1, path

    @pytest.mark.parametrize("loader", ["CSafeLoader", "SafeLoader"])
    def test_garbled_yaml_names_the_file_under_either_loader(self, tmp_path, monkeypatch,
                                                              loader):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        monkeypatch.setattr(scenario_module, "_LOADER", getattr(yaml, loader))
        with pytest.raises(ScenarioError, match=f"^{re.escape(str(bad))}: not parseable YAML"):
            load_scenario(bad)


class TestValidation:
    def test_missing_required_key(self):
        d = minimal_placement()
        del d["seed"]
        with pytest.raises(ScenarioError, match="missing required key 'seed'"):
            Scenario.from_dict(d)

    def test_unknown_key_reports_its_path(self):
        d = minimal_placement()
        d["bogus"] = 1
        with pytest.raises(ScenarioError, match=r"scenario\.bogus: unknown key"):
            Scenario.from_dict(d)

    def test_unknown_nested_key_reports_its_path(self):
        d = minimal_placement()
        d["object"]["color"] = "red"
        with pytest.raises(ScenarioError, match=r"scenario\.object\.color"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("section, profile, key", [
        ("top", {"kind": "flat", "amplitude": 0.01, "wavelength": 0.5}, "amplitude"),
        ("top", {"kind": "flat", "wavelength": 0.5}, "wavelength"),
        ("bottom", {"kind": "flat", "curvature_radius": 0.2}, "curvature_radius"),
    ])
    def test_profile_keys_the_kind_does_not_read(self, section, profile, key):
        d = minimal_placement()
        d["object"][section] = profile
        with pytest.raises(ScenarioError, match=rf"scenario\.object\.{section}\.{key}: "
                                                rf"not used by kind flat$"):
            Scenario.from_dict(d)

    def test_profile_keys_the_kind_reads(self):
        d = minimal_placement()
        d["object"]["top"] = {"kind": "undulating", "amplitude": 0.001, "wavelength": 0.02}
        d["object"]["bottom"] = {"kind": "dome", "curvature_radius": 0.2}
        obj = Scenario.from_dict(d).obj
        assert obj["top"] == d["object"]["top"]
        assert obj["bottom"] == d["object"]["bottom"]
        d["object"]["bottom"]["radius"] = 0.2
        with pytest.raises(ScenarioError, match=r"scenario\.object\.bottom\.radius: unknown key"):
            Scenario.from_dict(d)

    def test_unsupported_schema_version(self):
        d = minimal_placement()
        d["schema_version"] = 2
        with pytest.raises(ScenarioError, match="unsupported version 2"):
            Scenario.from_dict(d)

    def test_unknown_family(self):
        d = minimal_placement()
        d["family"] = "tower_of_hanoi"
        with pytest.raises(ScenarioError, match=r"scenario\.family"):
            Scenario.from_dict(d)

    def test_placement_family_requires_world_and_object(self):
        d = minimal_placement()
        del d["world"]
        with pytest.raises(ScenarioError, match=r"scenario\.world"):
            Scenario.from_dict(d)

    def test_sweep_trials_must_match_the_grid(self):
        d = minimal_sweep()
        d["trials"] = 5
        with pytest.raises(ScenarioError, match="magnitudes x directions x repeats"):
            Scenario.from_dict(d)

    def test_sweep_magnitudes_must_increase(self):
        d = minimal_sweep()
        d["sweep"]["magnitudes"] = [0.01, 0.01]
        with pytest.raises(ScenarioError, match="strictly increasing"):
            Scenario.from_dict(d)

    def test_press_trials_must_match_the_torque_list(self):
        d = minimal_press()
        d["trials"] = 4
        with pytest.raises(ScenarioError, match="torque list length 3"):
            Scenario.from_dict(d)

    def test_sections_the_family_does_not_read_are_rejected(self):
        d = minimal_placement()
        d["stack"] = "garbage"
        d["sweep"] = [1, 2]
        with pytest.raises(ScenarioError,
                           match=r"scenario\.stack: not used by family zero_offset"):
            Scenario.from_dict(d)
        d = minimal_press()
        d["world"] = {"surfaces": [{"kind": "flat"}]}
        with pytest.raises(ScenarioError,
                           match=r"scenario\.world: not used by family finger_press"):
            Scenario.from_dict(d)

    def test_null_sections_count_as_absent(self):
        d = minimal_placement()
        d["stack"] = None
        d["placement"] = None
        d["sensor"] = None
        scenario = Scenario.from_dict(d)
        default = Scenario.from_dict(minimal_placement())
        assert scenario.stack is None
        assert scenario.placement == default.placement
        assert scenario.sensor == default.sensor
        d["world"] = None
        with pytest.raises(ScenarioError, match=r"scenario\.world: required"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("key, value", [
        ("raster_pitch", 0.0),
        ("contact_pitch", 0.0),
        ("descent_step", -5e-4),
        ("spring_k", 0.0),
        ("gravity", -9.81),
        ("patch_tie_tol", -1e-6),
        ("stability_margin", -1e-3),
        ("gripper_mass", -0.1),
        ("wrist_lift", -0.15),
        ("descent_floor", float("-inf")),
    ])
    def test_world_params_out_of_bounds(self, key, value):
        d = minimal_placement()
        d["world"]["params"] = {key: value}
        with pytest.raises(ScenarioError, match=rf"scenario\.world\.params\.{key}: must be"):
            Scenario.from_dict(d)

    def test_world_params_bounds_cover_sim_params(self):
        # every SimParams field declares its check, and the schema takes every field
        fields = dataclasses.fields(SimParams)
        assert all("check" in f.metadata for f in fields)
        d = minimal_placement()
        d["world"]["params"] = {f.name: 1 for f in reversed(fields)}
        params = Scenario.from_dict(d).world["params"]
        assert list(params) == [f.name for f in reversed(fields)]
        assert all(type(v) is float and v == 1.0 for v in params.values())

    @pytest.mark.parametrize("make, key, value", [
        (minimal_placement, "median_below_deg", 10.0),
        (minimal_placement, "min_placed", 1),
        (minimal_stack, "max_iterations_per_trial", 5),
        (minimal_stack, "all_outcome", "no_contact"),
        (minimal_press, "min_success_rate", 1.0),
        (minimal_sweep, "max_direction_error_deg", 5.0),
    ])
    def test_expect_keys_the_family_cannot_judge(self, make, key, value):
        d = make()
        d["expect"] = {key: value}
        with pytest.raises(ScenarioError, match=rf"scenario\.expect\.{key}: not checked "
                                                rf"for family {d['family']}"):
            Scenario.from_dict(d)

    @pytest.mark.parametrize("make, qualifier, key", [
        (minimal_placement, "min_oneshot_rate", "oneshot_tolerance"),
        (minimal_sweep, "at_or_above_offset", "median_below_deg"),
        (minimal_sweep, "at_or_below_offset", "median_above_deg"),
    ])
    def test_expect_qualifier_needs_its_key(self, make, qualifier, key):
        d = make()
        d["expect"] = {qualifier: 0.5}
        with pytest.raises(ScenarioError,
                           match=rf"scenario\.expect\.{qualifier}: qualifies {key}"):
            Scenario.from_dict(d)

    def test_oneshot_tolerance_needs_stable_xy(self):
        d = minimal_placement()
        d["expect"] = {"oneshot_tolerance": 0.01}
        with pytest.raises(ScenarioError,
                           match=r"scenario\.expect\.oneshot_tolerance: needs .*stable_xy"):
            Scenario.from_dict(d)
        d["placement"] = {"stable_xy": [0.0, 0.0]}
        assert Scenario.from_dict(d).expect == {"oneshot_tolerance": 0.01}

    def test_expect_table_is_consistent(self):
        assert {f for row in _EXPECT.values() for f in row.families} == set(FAMILIES)
        for key, row in _EXPECT.items():
            if row.qualifies is None:
                assert row.judge is not None, key
            else:
                qualified = _EXPECT[row.qualifies]
                assert qualified.qualifies is None and qualified.judge is not None, key
                assert qualified.families == row.families, key

    @pytest.mark.parametrize("make", [minimal_placement, minimal_press])
    def test_window_without_samples(self, make):
        d = make()
        d["window"] = {"average_time": 0.01}
        with pytest.raises(ScenarioError, match=r"^scenario\.window\.average_time: window of "
                                                r"0\.01 s yields no samples at 25\.0 Hz$"):
            Scenario.from_dict(d)
        d["sensor"] = {"sample_rate": 100.0}
        assert Scenario.from_dict(d).window.average_time == 0.01

    @pytest.mark.parametrize("key", ["settle_time", "average_time"])
    def test_window_past_the_sample_cap(self, key):
        d = minimal_press()
        d["window"] = {"settle_time": 0.0, key: MAX_WINDOW_SAMPLES / 25.0}
        assert getattr(Scenario.from_dict(d).window, key) == 40000.0
        d["window"][key] = 1e300
        with pytest.raises(ScenarioError, match=rf"^scenario\.window\.{key}: window of 1e\+300 s "
                                                rf"takes more than 1000000 samples at 25\.0 Hz$"):
            Scenario.from_dict(d)
        # a span times a rate that overflows to infinity
        d["window"][key] = 1e200
        d["sensor"] = {"sample_rate": 1e200}
        with pytest.raises(ScenarioError, match=rf"^scenario\.window\.{key}: window of 1e\+200 s "
                                                rf"takes more than 1000000 samples at 1e\+200 Hz$"):
            Scenario.from_dict(d)

    def test_com_offset_and_sampler_are_exclusive(self):
        d = minimal_placement()
        d["object"]["com_offset"] = [0.01, 0.0, 0.0]
        d["object"]["com_offset_sampler"] = {"radius": [0.01, 0.02]}
        with pytest.raises(ScenarioError, match="not both"):
            Scenario.from_dict(d)

    def test_booleans_are_not_numbers(self):
        d = minimal_placement()
        d["object"]["mass"] = True
        with pytest.raises(ScenarioError, match="expected a number"):
            Scenario.from_dict(d)

    def test_ramp_slope_bounds(self):
        d = minimal_placement()
        d["world"]["surfaces"] = [
            {"kind": "ramp", "x_range": [-0.1, 0.1], "y_range": [-0.1, 0.1],
             "slope_deg": 0.0}
        ]
        with pytest.raises(ScenarioError, match=r"slope_deg"):
            Scenario.from_dict(d)

    def test_cap_curvature_must_exceed_extent(self):
        d = minimal_placement()
        d["world"]["surfaces"] = [
            {"kind": "spherical_cap", "center": [0.0, 0.0], "extent_radius": 0.05,
             "curvature_radius": 0.04, "apex_height": 0.05}
        ]
        with pytest.raises(ScenarioError, match=r"curvature_radius"):
            Scenario.from_dict(d)

    def test_empty_surface_list_rejected(self):
        d = minimal_placement()
        d["world"]["surfaces"] = []
        with pytest.raises(ScenarioError, match="non-empty list"):
            Scenario.from_dict(d)

    def test_garbled_yaml_reports_the_file(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("name: [unclosed\n")
        with pytest.raises(ScenarioError, match="not parseable YAML"):
            load_scenario(bad)


class TestKeyTables:
    """Every section key: its fault messages, defaults, nulls and round trip."""

    @pytest.mark.parametrize("make, path, value, message", [
    (full_placement, "world.surfaces", DELETE,
     "scenario.world: missing required key 'surfaces'"),
    (full_placement, "world.surfaces", {},
     "scenario.world.surfaces: expected a non-empty list"),
    (full_placement, "world.x_range", [0.1, -0.1],
     "scenario.world.x_range: range must be ascending, got [0.1, -0.1]"),
    (full_placement, "world.y_range", [0.0],
     "scenario.world.y_range: expected a list of 2 numbers, got [0.0]"),
    (full_placement, "world.params", [],
     "scenario.world.params: expected a mapping, got list"),
    (full_placement, "world.params.spring_k", "stiff",
     "scenario.world.params.spring_k: expected a number, got 'stiff'"),
    (full_placement, "world.params.bogus", 1.0,
     "scenario.world.params.bogus: unknown key"),
    (full_placement, "world.bogus", 1.0,
     "scenario.world.bogus: unknown key"),
    (full_placement, "world.surfaces.0.kind", "lake",
     "scenario.world.surfaces[0].kind: expected one of "
     "['flat', 'puck', 'ramp', 'spherical_cap', 'height_field'], got 'lake'"),
    (full_placement, "world.surfaces.0.height", float("nan"),
     "scenario.world.surfaces[0].height: must be finite"),
    (full_placement, "world.surfaces.0.bogus", 1.0,
     "scenario.world.surfaces[0].bogus: unknown key"),
    (full_placement, "world.surfaces.1.center", [0.0, 0.0, 0.0],
     "scenario.world.surfaces[1].center: expected a list of 2 numbers, got [0.0, 0.0, 0.0]"),
    (full_placement, "world.surfaces.1.radius", 0.0,
     "scenario.world.surfaces[1].radius: must be > 0.0, got 0.0"),
    (full_placement, "world.surfaces.1.top_height", DELETE,
     "scenario.world.surfaces[1]: missing required key 'top_height'"),
    (full_placement, "world.surfaces.1.ripple_amplitude", -0.001,
     "scenario.world.surfaces[1].ripple_amplitude: must be >= 0.0, got -0.001"),
    (full_placement, "world.surfaces.1.ripple_wavelength", 0.0,
     "scenario.world.surfaces[1].ripple_wavelength: must be > 0.0, got 0.0"),
    (full_placement, "world.surfaces.2.x_range", [0.1, 0.1],
     "scenario.world.surfaces[2].x_range: range must be ascending, got [0.1, 0.1]"),
    (full_placement, "world.surfaces.2.y_range", "wide",
     "scenario.world.surfaces[2].y_range: expected a list of 2 numbers, got 'wide'"),
    (full_placement, "world.surfaces.2.slope_deg", 90.0,
     "scenario.world.surfaces[2].slope_deg: must be <= 89.0, got 90.0"),
    (full_placement, "world.surfaces.2.base_height", True,
     "scenario.world.surfaces[2].base_height: expected a number, got True"),
    (full_placement, "world.surfaces.2.azimuth_deg", None,
     "scenario.world.surfaces[2].azimuth_deg: expected a number, got None"),
    (full_placement, "world.surfaces.3.center", DELETE,
     "scenario.world.surfaces[3]: missing required key 'center'"),
    (full_placement, "world.surfaces.3.extent_radius", -0.03,
     "scenario.world.surfaces[3].extent_radius: must be > 0.0, got -0.03"),
    (full_placement, "world.surfaces.3.curvature_radius", 0.03,
     "scenario.world.surfaces[3].curvature_radius: must be > 0.03, got 0.03"),
    (full_placement, "world.surfaces.3.apex_height", "high",
     "scenario.world.surfaces[3].apex_height: expected a number, got 'high'"),
    (full_placement, "world.surfaces.3.ripple_amplitude", 0.001,
     "scenario.world.surfaces[3].ripple_amplitude: unknown key"),
    (full_placement, "world.surfaces.4.origin", [0.0, "a"],
     "scenario.world.surfaces[4].origin[1]: expected a number, got 'a'"),
    (full_placement, "world.surfaces.4.pitch", -0.01,
     "scenario.world.surfaces[4].pitch: must be > 0.0, got -0.01"),
    (full_placement, "world.surfaces.4.values", [[0.0, 0.01], [0.02]],
     "scenario.world.surfaces[4].values: expected a non-empty rectangular list of rows"),
    (full_placement, "world.surfaces.4.values.1.0", float("inf"),
     "scenario.world.surfaces[4].values[1][0]: must be finite"),
    (full_placement, "object.mass", DELETE,
     "scenario.object: missing required key 'mass'"),
    (full_placement, "object.mass", -1.0,
     "scenario.object.mass: must be > 0.0, got -1.0"),
    (full_placement, "object.footprint", "disk",
     "scenario.object.footprint: expected a mapping, got str"),
    (full_placement, "object.footprint.kind", "hexagon",
     "scenario.object.footprint.kind: expected one of ['disk', 'square'], got 'hexagon'"),
    (full_placement, "object.footprint.size", 0.0,
     "scenario.object.footprint.size: must be > 0.0, got 0.0"),
    (full_placement, "object.footprint.bogus", 1.0,
     "scenario.object.footprint.bogus: unknown key"),
    (full_placement, "object.thickness", "thin",
     "scenario.object.thickness: expected a number, got 'thin'"),
    (full_placement, "object.com_offset", [0.0, 0.0],
     "scenario.object.com_offset: expected a list of 3 numbers, got [0.0, 0.0]"),
    (full_placement, "object.com_offset_sampler", {'radius': [0.0, 0.01]},
     "scenario.object: give com_offset or com_offset_sampler, not both"),
    (full_stack, "object.com_offset_sampler.radius", [0.02, 0.01],
     "scenario.object.com_offset_sampler.radius: need 0 <= lo <= hi, got [0.02, 0.01]"),
    (full_stack, "object.com_offset_sampler.radius", DELETE,
     "scenario.object.com_offset_sampler: missing required key 'radius'"),
    (full_stack, "object.com_offset_sampler.axis_aligned", 1,
     "scenario.object.com_offset_sampler.axis_aligned: expected a boolean, got 1"),
    (full_stack, "object.com_offset_sampler.bogus", 1,
     "scenario.object.com_offset_sampler.bogus: unknown key"),
    (full_placement, "object.bottom.kind", "cone",
     "scenario.object.bottom.kind: expected one of ['flat', 'dome'], got 'cone'"),
    (full_placement, "object.bottom.curvature_radius", 0.0,
     "scenario.object.bottom.curvature_radius: must be > 0.0, got 0.0"),
    (full_placement, "object.top", [1.0],
     "scenario.object.top: expected a mapping, got list"),
    (full_placement, "object.top.amplitude", DELETE,
     "scenario.object.top.amplitude: expected a number, got None"),
    (full_placement, "object.top.wavelength", -0.03,
     "scenario.object.top.wavelength: must be > 0.0, got -0.03"),
    (full_placement, "object.tip_to_bottom", 0.0,
     "scenario.object.tip_to_bottom: must be > 0.0, got 0.0"),
    (full_placement, "object.tip_to_bottom", "long",
     "scenario.object.tip_to_bottom: expected a number, got 'long'"),
    (full_placement, "object.bogus", 1.0,
     "scenario.object.bogus: unknown key"),
    (full_placement, "sensor.sample_rate", 0.0,
     "scenario.sensor.sample_rate: must be > 0.0, got 0.0"),
    (full_placement, "sensor.noise_force", -0.1,
     "scenario.sensor.noise_force: must be >= 0.0, got -0.1"),
    (full_placement, "sensor.noise_torque", "loud",
     "scenario.sensor.noise_torque: expected a number, got 'loud'"),
    (full_placement, "sensor.bias_force", [0.0, 0.0],
     "scenario.sensor.bias_force: expected a list of 3 numbers, got [0.0, 0.0]"),
    (full_placement, "sensor.bias_torque", 0.0,
     "scenario.sensor.bias_torque: expected a list of 3 numbers, got 0.0"),
    (full_placement, "sensor.drift_force", [0.0, float("nan"), 0.0],
     "scenario.sensor.drift_force[1]: must be finite"),
    (full_placement, "sensor.drift_torque", None,
     "scenario.sensor.drift_torque: expected a list of 3 numbers, got None"),
    (full_placement, "sensor.seed", 3,
     "scenario.sensor.seed: unknown key"),
    (full_placement, "sensor", [1.0],
     "scenario.sensor: expected a mapping, got list"),
    (full_placement, "window.settle_time", -0.1,
     "scenario.window.settle_time: must be >= 0.0, got -0.1"),
    (full_placement, "window.average_time", 0.0,
     "scenario.window.average_time: must be > 0.0, got 0.0"),
    (full_placement, "window.bogus", 1.0,
     "scenario.window.bogus: unknown key"),
    (full_placement, "policy.resistance_threshold", 0.0,
     "scenario.policy.resistance_threshold: must be > 0.0, got 0.0"),
    (full_placement, "policy.torque_release_threshold", -0.05,
     "scenario.policy.torque_release_threshold: must be > 0.0, got -0.05"),
    (full_placement, "policy.step_gain", -0.5,
     "scenario.policy.step_gain: must be >= 0.0, got -0.5"),
    (full_placement, "policy.flat_dir_floor", "low",
     "scenario.policy.flat_dir_floor: expected a number, got 'low'"),
    (full_placement, "policy.raise_height", -0.02,
     "scenario.policy.raise_height: must be >= 0.0, got -0.02"),
    (full_placement, "policy.force_floor", 0.0,
     "scenario.policy.force_floor: must be > 0.0, got 0.0"),
    (full_placement, "policy.max_iterations", 0,
     "scenario.policy.max_iterations: must be >= 1, got 0"),
    (full_placement, "policy.max_iterations", 2.5,
     "scenario.policy.max_iterations: expected an integer, got 2.5"),
    (full_placement, "policy.workspace_limit", 0.0,
     "scenario.policy.workspace_limit: must be > 0.0, got 0.0"),
    (full_placement, "policy.repress_scale", 1.0,
     "scenario.policy.repress_scale: must be > 1.0, got 1.0"),
    (full_placement, "policy.bogus", 1.0,
     "scenario.policy.bogus: unknown key"),
    (full_placement, "placement.start_xy", [0.0],
     "scenario.placement.start_xy: expected a list of 2 numbers, got [0.0]"),
    (full_placement, "placement.guess_sampler", [0.0, 0.01],
     "scenario.placement.guess_sampler: expected a mapping, got list"),
    (full_placement, "placement.guess_sampler.radius", [-0.01, 0.01],
     "scenario.placement.guess_sampler.radius: need 0 <= lo <= hi, got [-0.01, 0.01]"),
    (full_placement, "placement.hover_tip_z", "up",
     "scenario.placement.hover_tip_z: expected a number, got 'up'"),
    (full_placement, "placement.calibration_xy", None,
     "scenario.placement.calibration_xy: expected a list of 2 numbers, got None"),
    (full_placement, "placement.stable_xy", [0.0, 0.0, 0.0],
     "scenario.placement.stable_xy: expected a list of 2 numbers, got [0.0, 0.0, 0.0]"),
    (full_placement, "placement.bogus", 1.0,
     "scenario.placement.bogus: unknown key"),
    (full_stack, "stack.count", DELETE,
     "scenario.stack: missing required key 'count'"),
    (full_stack, "stack.count", 0,
     "scenario.stack.count: must be >= 1, got 0"),
    (full_stack, "stack.perturbation_limit", -0.01,
     "scenario.stack.perturbation_limit: must be >= 0.0, got -0.01"),
    (full_stack, "stack.target_xy", "centre",
     "scenario.stack.target_xy: expected a list of 2 numbers, got 'centre'"),
    (full_stack, "stack.calibration_xy", [0.15, -0.15, 0.0],
     "scenario.stack.calibration_xy: expected a list of 2 numbers, got [0.15, -0.15, 0.0]"),
    (full_stack, "stack.hover_tip_z", None,
     "scenario.stack.hover_tip_z: expected a number, got None"),
    (full_stack, "stack.approach_clearance", 0.0,
     "scenario.stack.approach_clearance: must be > 0.0, got 0.0"),
    (full_stack, "stack.bogus", 1.0,
     "scenario.stack.bogus: unknown key"),
    (full_sweep, "sweep.center", [0.0],
     "scenario.sweep.center: expected a list of 2 numbers, got [0.0]"),
    (full_sweep, "sweep.magnitudes", DELETE,
     "scenario.sweep: missing required key 'magnitudes'"),
    (full_sweep, "sweep.magnitudes", [],
     "scenario.sweep.magnitudes: expected a non-empty list"),
    (full_sweep, "sweep.magnitudes", [0.01, 0.0],
     "scenario.sweep.magnitudes: must be strictly increasing"),
    (full_sweep, "sweep.magnitudes.0", -0.01,
     "scenario.sweep.magnitudes[0]: must be >= 0.0, got -0.01"),
    (full_sweep, "sweep.directions", 0,
     "scenario.sweep.directions: must be >= 1, got 0"),
    (full_sweep, "sweep.repeats", 1.0,
     "scenario.sweep.repeats: expected an integer, got 1.0"),
    (full_sweep, "sweep.hover_tip_z", float("inf"),
     "scenario.sweep.hover_tip_z: must be finite"),
    (full_sweep, "sweep.calibration_xy", {},
     "scenario.sweep.calibration_xy: expected a list of 2 numbers, got {}"),
    (full_sweep, "sweep.bogus", 1.0,
     "scenario.sweep.bogus: unknown key"),
    (full_press, "press.offset_radius", DELETE,
     "scenario.press: missing required key 'offset_radius'"),
    (full_press, "press.offset_radius", 0.0,
     "scenario.press.offset_radius: must be > 0.0, got 0.0"),
    (full_press, "press.mass", -1.0,
     "scenario.press.mass: must be > 0.0, got -1.0"),
    (full_press, "press.gravity", "down",
     "scenario.press.gravity: expected a number, got 'down'"),
    (full_press, "press.torques", [],
     "scenario.press.torques: expected a non-empty list"),
    (full_press, "press.torques", [1.0, -2.0, 3.0],
     "scenario.press.torques[1]: must be >= 0.0, got -2.0"),
    (full_press, "press.torques", "many",
     "scenario.press.torques: expected a mapping, got str"),
    (full_press, "press.torques.min", DELETE,
     "scenario.press.torques: missing required key 'min'"),
    (full_press, "press.torques.min", 0.0,
     "scenario.press.torques.min: log spacing needs min > 0"),
    (full_press, "press.torques.max", 1.0,
     "scenario.press.torques.max: must be > 1.0, got 1.0"),
    (full_press, "press.torques.spacing", "cubic",
     "scenario.press.torques.spacing: expected one of ['linear', 'log'], got 'cubic'"),
    (full_press, "press.torques.bogus", 1.0,
     "scenario.press.torques.bogus: unknown key"),
    (full_press, "press.bogus", 1.0,
     "scenario.press.bogus: unknown key"),

    ])
    def test_single_fault(self, make, path, value, message):
        with pytest.raises(ScenarioError) as caught:
            Scenario.from_dict(_set(make(), path, value))
        assert str(caught.value) == message

    @pytest.mark.parametrize("make, path, value, message", [
        # the name heads every trace file, so a line break could forge a section
        (full_placement, "name", "x\n# section: descent 9\n1.0 2.0 3.0",
         "scenario.name: expected printable characters only, "
         "got 'x\\n# section: descent 9\\n1.0 2.0 3.0'"),
        (full_placement, "name", "tab\tname",
         "scenario.name: expected printable characters only, got 'tab\\tname'"),
        (full_placement, "name", "line\u2028break",
         "scenario.name: expected printable characters only, got 'line\\u2028break'"),
        (full_placement, "seed", -3,
         "scenario.seed: must be >= 0, got -3"),
        (full_placement, "seed", 1.7,
         "scenario.seed: expected an integer, got 1.7"),
    ])
    def test_name_and_seed_faults(self, make, path, value, message):
        with pytest.raises(ScenarioError) as caught:
            Scenario.from_dict(_set(make(), path, value))
        assert str(caught.value) == message

    @pytest.mark.parametrize("make, section, given, canonical", [
        (minimal_placement, "world",
         {"surfaces": [{"kind": "flat"},
                       {"kind": "puck", "center": [0, 0], "radius": 0.05, "top_height": 0.04},
                       {"kind": "ramp", "x_range": [-1, 1], "y_range": [0, 1], "slope_deg": 5}]},
         {"x_range": [-0.3, 0.3], "y_range": [-0.3, 0.3], "params": {},
          "surfaces": [{"kind": "flat", "height": 0.0},
                       {"kind": "puck", "center": [0.0, 0.0], "radius": 0.05,
                        "top_height": 0.04, "ripple_amplitude": 0.0, "ripple_wavelength": 0.02},
                       {"kind": "ramp", "x_range": [-1.0, 1.0], "y_range": [0.0, 1.0],
                        "slope_deg": 5.0, "base_height": 0.0, "azimuth_deg": 0.0}]}),
        (minimal_placement, "object",
         {"mass": 1, "footprint": {"kind": "disk", "size": 0.05}, "thickness": 0.02,
          "com_offset_sampler": {"radius": [0, 0.01]}},
         {"mass": 1.0, "footprint": {"kind": "disk", "size": 0.05}, "thickness": 0.02,
          "com_offset": [0.0, 0.0, 0.0],
          "com_offset_sampler": {"radius": [0.0, 0.01], "axis_aligned": False},
          "bottom": {"kind": "flat"}, "top": {"kind": "flat"}, "tip_to_bottom": None}),
        (minimal_placement, "placement", {},
         {"start_xy": [0.0, 0.0], "guess_sampler": None, "hover_tip_z": 0.1,
          "calibration_xy": [0.15, -0.15], "stable_xy": None}),
        (minimal_stack, "stack", {"count": 2},
         {"count": 2, "perturbation_limit": 0.01, "target_xy": [0.0, 0.0],
          "calibration_xy": [0.15, -0.15], "hover_tip_z": 0.1, "approach_clearance": 0.01}),
        (minimal_sweep, "sweep", {"magnitudes": [0, 0.01, 0.02]},
         {"center": [0.0, 0.0], "magnitudes": [0.0, 0.01, 0.02], "directions": 8,
          "repeats": 6, "hover_tip_z": 0.1, "calibration_xy": [0.15, -0.15]}),
        (minimal_press, "press", {"offset_radius": 0.1},
         {"mass": 1.0, "offset_radius": 0.1, "gravity": 9.81,
          "torques": {"min": 1.0, "max": 30.0, "spacing": "linear"}}),
    ])
    def test_defaults_fill_the_canonical_section(self, make, section, given, canonical):
        d = make()
        d[section] = given
        if section == "sweep":
            d["trials"] = 3 * 8 * 6
        parsed = Scenario.from_dict(d)
        assert getattr(parsed, "obj" if section == "object" else section) == canonical

    @pytest.mark.parametrize("section, config", [
        ("sensor", SensorConfig), ("window", ReadingWindow), ("policy", PolicyConfig),
    ])
    def test_config_sections_cover_their_fields(self, section, config):
        scenario = Scenario.from_dict(minimal_placement())
        default = config()
        assert getattr(scenario, section) == default
        canonical = scenario.to_dict()[section]
        assert list(canonical) == [f.name for f in dataclasses.fields(config)]
        for key, value in canonical.items():
            want = getattr(default, key)
            assert value == (list(want) if isinstance(want, tuple) else want), key

    def test_every_surface_kind_builds_its_layer(self):
        assert set(FULL_SURFACES) == set(_SURFACES)
        d = minimal_placement()
        d["world"]["surfaces"] = [s for s, _ in FULL_SURFACES.values()]
        parsed = Scenario.from_dict(d).world["surfaces"]
        for cfg, (_, layer) in zip(parsed, FULL_SURFACES.values()):
            assert type(build_surface(cfg)) is layer, cfg["kind"]

    @pytest.mark.parametrize("make, path", [
        (full_placement, "placement.guess_sampler"),
        (full_placement, "placement.stable_xy"),
        (full_stack, "object.com_offset_sampler"),
        (full_placement, "object.tip_to_bottom"),
    ])
    def test_null_means_absent(self, make, path):
        d = make()
        d["expect"] = {}
        absent = Scenario.from_dict(_set(copy.deepcopy(d), path, DELETE))
        assert Scenario.from_dict(_set(d, path, None)) == absent

    @pytest.mark.parametrize("make", [full_placement, full_stack, full_sweep, full_press])
    def test_complete_documents_round_trip(self, make, tmp_path):
        doc = make()
        scenario = Scenario.from_dict(doc)
        assert (yaml.safe_dump(scenario.to_dict(), sort_keys=False)
                == yaml.safe_dump(doc, sort_keys=False))
        save_scenario(scenario, tmp_path / "copy.yaml")
        assert load_scenario(tmp_path / "copy.yaml") == scenario


# scripts/schema_digest.py's BAD_VALUES
BAD_VALUES = (None, True, 0, 1, -1, 0.0, -0.5, 0.5, 2.5, 1e9, float("nan"), float("inf"),
              "x", [], [0.0, 0.0], [1.0, 0.0], [0.0, 0.0, 0.0], {})


def _parse_config_section(section: str, values: dict):
    """The scenario section's parse of the given keys: the config, or for
    world.params the checked params; the ScenarioError when it refuses."""
    parse = scenario_module._SECTION_PARSERS
    try:
        if section == "world.params":
            world = {"surfaces": [{"kind": "flat"}], "params": values}
            return parse["world"](world, "scenario.world")["params"]
        return parse[section](values, f"scenario.{section}")
    except ScenarioError as exc:
        return exc


class TestDeclaredOnce:
    """Each config field's check is declared once, on its class: the
    scenario section refuses a value exactly when direct construction does."""

    @pytest.mark.parametrize("section, config", [
        ("sensor", SensorConfig), ("window", ReadingWindow), ("policy", PolicyConfig),
        ("world.params", SimParams),
    ])
    def test_sections_refuse_what_their_configs_refuse(self, section, config):
        default = config()
        for field in dataclasses.fields(config):
            for bad in BAD_VALUES:
                label = f"{field.name} = {bad!r}"
                parsed = _parse_config_section(section, {field.name: copy.deepcopy(bad)})
                try:
                    direct = config(**{field.name: copy.deepcopy(bad)})
                except ValueError as exc:
                    assert isinstance(parsed, ScenarioError), label
                    assert str(parsed) == f"scenario.{section}.{exc}", label
                    continue
                assert not isinstance(parsed, ScenarioError), f"{label}: {parsed}"
                value = getattr(direct, field.name)
                assert value == (parsed[field.name] if section == "world.params"
                                 else getattr(parsed, field.name)), label
                # stored as checked: a number as a float, a vector as a tuple of floats
                assert type(value) is type(getattr(default, field.name)), label
                if isinstance(value, tuple):
                    assert all(type(v) is float for v in value), label

    def test_config_errors_start_with_the_field(self):
        with pytest.raises(ValueError, match=r"^drift_force\[1\]: must be finite$"):
            SensorConfig(drift_force=(0.0, float("nan"), 0.0))
        with pytest.raises(ValueError, match=r"^average_time: must be > 0\.0, got 0\.0$"):
            ReadingWindow(average_time=0.0)
        for key, value in [("descent_step", float("nan")), ("raster_pitch", 0.0),
                           ("gravity", -9.81)]:
            with pytest.raises(ValueError, match=rf"^{key}: must be"):
                SimParams(**{key: value})

    def test_sections_are_their_configs(self):
        scenario = Scenario.from_dict(full_placement())
        assert scenario.sensor == SensorConfig(**{k: tuple(v) if isinstance(v, list) else v
                                                  for k, v in FULL_SENSOR.items()})
        assert scenario.window == ReadingWindow(**FULL_WINDOW)
        assert scenario.policy == PolicyConfig(**FULL_POLICY)
        assert scenario.sensor.bias_force == (0.1, 0.0, -0.1)
        # to_dict writes the fields in declaration order, the schema's key order
        canonical = scenario.to_dict()
        assert [list(canonical[k]) for k in ("sensor", "window", "policy")] == [
            list(FULL_SENSOR), list(FULL_WINDOW), list(FULL_POLICY)]


class TestBuilders:
    def test_build_world_composes_layers(self):
        d = minimal_placement()
        d["world"]["surfaces"] = [
            {"kind": "flat"},
            {"kind": "puck", "center": [0.0, 0.0], "radius": 0.05, "top_height": 0.04},
        ]
        scenario = Scenario.from_dict(d)
        world = build_world(scenario)
        assert isinstance(world, World)
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(0.04)
        assert float(world.surface_height(0.2, 0.2)) == pytest.approx(0.0)

    def test_build_object_with_axis_aligned_sampler(self):
        d = minimal_placement()
        d["object"]["com_offset_sampler"] = {
            "radius": [0.03, 0.05], "axis_aligned": True,
        }
        scenario = Scenario.from_dict(d)
        for k in range(20):
            obj = build_object(scenario, np.random.default_rng(k))
            off = obj.com_offset
            assert off[2] == 0.0
            axes_used = (abs(off[0]) > 0.0) + (abs(off[1]) > 0.0)
            assert axes_used == 1
            assert 0.03 <= np.linalg.norm(off[:2]) <= 0.05

    def test_build_object_profiles(self):
        d = minimal_placement()
        scenario = Scenario.from_dict(d)
        obj = build_object(scenario, np.random.default_rng(0))
        assert (obj.bottom, obj.top) == (BottomProfile(), TopProfile())
        d["object"]["top"] = {"kind": "undulating", "amplitude": 0.001}
        d["object"]["bottom"] = {"kind": "dome", "curvature_radius": 0.2}
        obj = build_object(Scenario.from_dict(d), np.random.default_rng(0))
        assert obj.bottom == BottomProfile("dome", 0.2)
        assert obj.top == TopProfile("undulating", 0.001, 0.02)

    def test_build_object_fixed_offset(self):
        d = minimal_placement()
        d["object"]["com_offset"] = [0.01, -0.02, 0.0]
        scenario = Scenario.from_dict(d)
        obj = build_object(scenario, np.random.default_rng(0))
        np.testing.assert_allclose(obj.com_offset, [0.01, -0.02, 0.0])

    def test_sample_start_xy_defaults_to_start(self):
        scenario = Scenario.from_dict(minimal_placement())
        np.testing.assert_allclose(
            sample_start_xy(scenario, np.random.default_rng(0)), [0.0, 0.0]
        )

    def test_build_policy_uses_file_defaults(self):
        d = minimal_placement()
        d["policy"] = {"max_iterations": 4, "repress_scale": 2}
        config = Scenario.from_dict(d).policy
        assert config == PolicyConfig(max_iterations=4, repress_scale=2.0)
        assert config.resistance_threshold == 10.0
        assert config.flat_dir_floor == 0.02

    def test_build_sensor_streams_follow_the_given_rng(self):
        scenario = Scenario.from_dict(minimal_placement())
        true_torque, true_force = [0.0, 0.0, 0.0], [0.0, 0.0, -9.81]
        s1 = build_sensor(scenario, np.random.default_rng(7))
        s2 = build_sensor(scenario, np.random.default_rng(7))
        np.testing.assert_array_equal(s1.sample(true_torque, true_force),
                                      s2.sample(true_torque, true_force))

    def test_build_window(self):
        d = minimal_placement()
        d["window"] = {"settle_time": 0.2, "average_time": 0.4}
        window = Scenario.from_dict(d).window
        assert window == ReadingWindow(settle_time=0.2, average_time=0.4)
        d["window"] = {"settle_time": 0}
        assert Scenario.from_dict(d).window == ReadingWindow(settle_time=0.0)


def _trials(key, values) -> list:
    return [{"trial": i, key: v} for i, v in enumerate(values)]


def _by_magnitude(pairs) -> dict:
    return {"errors": 0, "by_magnitude": [{"magnitude": m, "median_deg": d} for m, d in pairs]}


SWEEP_MEDIANS = [(0.005, 80.0), (0.01, 12.3456), (0.02, None), (0.03, 5.0)]


class TestExpectJudges:
    """Each judge on a hand-built results body: verdict and detail text."""

    @pytest.mark.parametrize("expect, results, passed, detail", [
        ({"min_success_rate": 0.5}, {"errors": 0, "success_rate": 0.5},
         True, "success_rate 0.5 vs required 0.5"),
        ({"min_success_rate": 0.5}, {"errors": 0, "success_rate": 0.25},
         False, "success_rate 0.25 vs required 0.5"),
        ({"max_iterations_per_trial": 3},
         {"errors": 1, "per_trial": _trials("iterations", [2, 3]) + [{"trial": 2, "error": "e"}]},
         True, "worst trial used 3 iterations, limit 3"),
        ({"max_iterations_per_trial": 3},
         {"errors": 0, "per_trial": _trials("iterations", [4, 1])},
         False, "worst trial used 4 iterations, limit 3"),
        ({"all_outcome": "released_stable"},
         {"errors": 0, "per_trial": _trials("outcome", ["released_stable"] * 2)},
         True, "outcomes seen ['released_stable'], required all released_stable"),
        ({"all_outcome": "released_stable"},
         {"errors": 0, "per_trial": _trials("outcome", ["released_stable", "max_iterations"])},
         False, "outcomes seen ['max_iterations', 'released_stable'], "
                "required all released_stable"),
        ({"all_outcome": "released_stable"},
         {"errors": 1, "per_trial": _trials("outcome", ["released_stable"])
          + [{"trial": 1, "error": "e"}]},
         False, "outcomes seen ['released_stable'], required all released_stable"),
        ({"min_placed": 3}, {"errors": 0, "per_trial": _trials("placed", [4, 3])},
         True, "least placed 3, required 3"),
        ({"min_placed": 3}, {"errors": 0, "per_trial": _trials("placed", [2, 4])},
         False, "least placed 2, required 3"),
        ({"oneshot_tolerance": 0.005, "min_oneshot_rate": 0.5},
         {"errors": 1, "per_trial": _trials("oneshot_com_error", [0.001, 0.004, None])
          + [{"trial": 3, "error": "e"}]},
         True, "2/3 first proposals within 0.005 m (rate 0.666667)"),
        ({"oneshot_tolerance": 0.005, "min_oneshot_rate": 0.5},
         {"errors": 0, "per_trial": _trials("oneshot_com_error", [0.001, 0.01, None])},
         False, "1/3 first proposals within 0.005 m (rate 0.333333)"),
        ({"oneshot_tolerance": 0.005},
         {"errors": 0, "per_trial": _trials("oneshot_com_error", [0.001, 0.004, 0.006])},
         False, "2/3 first proposals within 0.005 m (rate 0.666667)"),
        ({"max_direction_error_deg": 5.0}, {"errors": 0, "max_angle_error_deg": 4.5},
         True, "max direction error 4.5 deg, limit 5.0"),
        ({"max_direction_error_deg": 5.0}, {"errors": 0, "max_angle_error_deg": 5.5},
         False, "max direction error 5.5 deg, limit 5.0"),
        ({"max_direction_error_deg": 5.0}, {"errors": 0, "max_angle_error_deg": None},
         False, "max direction error None deg, limit 5.0"),
        ({"median_below_deg": 30.0, "at_or_above_offset": 0.01}, _by_magnitude(SWEEP_MEDIANS),
         True, "medians at offsets >= 0.01: [12.35, 5.0]"),
        ({"median_below_deg": 30.0}, _by_magnitude(SWEEP_MEDIANS),
         False, "medians at offsets >= 0: [80.0, 12.35, 5.0]"),
        ({"median_below_deg": 30.0}, _by_magnitude([(0.01, None)]),
         False, "medians at offsets >= 0: []"),
        ({"median_above_deg": 60.0, "at_or_below_offset": 0.005}, _by_magnitude(SWEEP_MEDIANS),
         True, "medians at offsets <= 0.005: [80.0]"),
        ({"median_above_deg": 60.0}, _by_magnitude(SWEEP_MEDIANS),
         False, "medians at offsets <= inf: [80.0, 12.35, 5.0]"),
        ({"monotone_slack_deg": 2.0}, _by_magnitude([(0.01, 80.0), (0.02, 40.0), (0.03, None),
                                                     (0.04, 41.5), (0.05, 10.0)]),
         True, "medians over ascending offsets: [80.0, 40.0, 41.5, 10.0]"),
        ({"monotone_slack_deg": 2.0}, _by_magnitude([(0.01, 80.0), (0.02, 40.0),
                                                     (0.03, 42.125)]),
         False, "medians over ascending offsets: [80.0, 40.0, 42.12]"),
    ])
    def test_judge(self, expect, results, passed, detail):
        scenario = dataclasses.replace(Scenario.from_dict(minimal_placement()), expect=expect)
        key = next(k for k in expect if _EXPECT[k].qualifies is None)
        assert evaluate_expect(scenario, results) == {
            key: {"passed": passed, "detail": detail}}

    def test_no_expect_block_judges_nothing(self):
        scenario = Scenario.from_dict(minimal_placement())
        assert evaluate_expect(scenario, {"errors": 0, "success_rate": 0.0}) == {}
