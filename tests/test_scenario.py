"""Scenario schema: round-trips, field-path errors, and builders."""

import copy
import dataclasses
from pathlib import Path

import numpy as np
import pytest

from ftstack.scenario import (
    FAMILIES,
    Scenario,
    ScenarioError,
    _EXPECT,
    evaluate_expect,
    _SIM_PARAM_BOUNDS,
    build_object,
    build_policy,
    build_sensor,
    build_window,
    build_world,
    load_scenario,
    sample_start_xy,
    save_scenario,
)
from ftstack.spatial import Wrench
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
        assert set(_SIM_PARAM_BOUNDS) == {f.name for f in dataclasses.fields(SimParams)}

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
        assert Scenario.from_dict(d).window["average_time"] == 0.01

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
        scenario = Scenario.from_dict(minimal_placement())
        config = build_policy(scenario)
        assert config.resistance_threshold == 10.0
        assert config.flat_dir_floor == 0.02

    def test_build_sensor_streams_follow_the_given_rng(self):
        scenario = Scenario.from_dict(minimal_placement())
        true_w = Wrench(np.zeros(3), np.array([0.0, 0.0, -9.81]))
        s1 = build_sensor(scenario, np.random.default_rng(7))
        s2 = build_sensor(scenario, np.random.default_rng(7))
        t1, f1 = s1.sample(true_w.torque, true_w.force)
        t2, f2 = s2.sample(true_w.torque, true_w.force)
        np.testing.assert_array_equal(t1, t2)
        np.testing.assert_array_equal(f1, f2)

    def test_build_window(self):
        d = minimal_placement()
        d["window"] = {"settle_time": 0.2, "average_time": 0.4}
        window = build_window(Scenario.from_dict(d))
        assert window.settle_time == 0.2
        assert window.average_time == 0.4


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
