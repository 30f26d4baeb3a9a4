"""Batch runner: statistics, reports, artifacts, determinism, CLI."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from ftstack import harness, scenario
from ftstack.cli import main
from ftstack.harness import (
    ScenarioFamilyError,
    _report_text,
    _sweep_trial,
    _trial_rngs,
    angle_error_deg,
    emit_contact_plot_data,
    finger_press_check,
    run_scenario,
    sweep_offsets,
    wilson_interval,
)
from ftstack.policy import PolicyConfig
from ftstack.scenario import Scenario, ScenarioError, save_scenario
from ftstack.sensor import ReadingWindow, SensorConfig
from ftstack.spatial import RigidTransform, Wrench
from ftstack.world import World

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

QUIET_SENSOR = {"noise_force": 0.0, "noise_torque": 0.0}
DISK_OBJECT = {
    "mass": 1.0,
    "footprint": {"kind": "disk", "size": 0.05},
    "thickness": 0.02,
}
PUCK_WORLD = {
    "surfaces": [
        {"kind": "flat"},
        {"kind": "puck", "center": [0.0, 0.0], "radius": 0.05, "top_height": 0.04},
    ]
}


def tiny_placement(trials=3, **overrides) -> Scenario:
    d = {
        "schema_version": 1,
        "name": "tiny",
        "family": "zero_offset",
        "seed": 11,
        "trials": trials,
        "world": PUCK_WORLD,
        "object": DISK_OBJECT,
        "sensor": QUIET_SENSOR,
        "expect": {"min_success_rate": 1.0},
    }
    d.update(overrides)
    return Scenario.from_dict(d)


def tiny_sweep(**overrides) -> Scenario:
    d = {
        "schema_version": 1,
        "name": "tiny-sweep",
        "family": "noise_sweep",
        "seed": 13,
        "trials": 8,
        "world": PUCK_WORLD,
        "object": {
            "mass": 1.0,
            "footprint": {"kind": "disk", "size": 0.045},
            "thickness": 0.02,
        },
        "sensor": QUIET_SENSOR,
        "sweep": {"magnitudes": [0.01], "directions": 8, "repeats": 1},
    }
    d.update(overrides)
    return Scenario.from_dict(d)


def tiny_press(**overrides) -> Scenario:
    d = {
        "schema_version": 1,
        "name": "tiny-press",
        "family": "finger_press",
        "seed": 15,
        "trials": 2,
        "sensor": QUIET_SENSOR,
        "press": {"offset_radius": 0.1, "torques": [0.0, 5.0]},
    }
    d.update(overrides)
    return Scenario.from_dict(d)


class TestWilson:
    def test_frozen_values(self):
        lo, hi = wilson_interval(16, 16)
        assert lo == pytest.approx(0.8063923194655637, abs=1e-12)
        assert hi == pytest.approx(1.0, abs=1e-12)
        lo, hi = wilson_interval(15, 16)
        assert lo == pytest.approx(0.7167126242970107, abs=1e-12)
        assert hi == pytest.approx(0.9888806552353576, abs=1e-12)
        lo, hi = wilson_interval(0, 10)
        assert lo == pytest.approx(0.0, abs=1e-12)
        assert hi == pytest.approx(0.2775327998628892, abs=1e-12)

    def test_bounds_and_validation(self):
        lo, hi = wilson_interval(5, 10)
        assert 0.0 < lo < 0.5 < hi < 1.0
        with pytest.raises(ValueError):
            wilson_interval(2, 0)
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


class TestAngleError:
    def test_reference_angles(self):
        assert angle_error_deg([1, 0], [2, 0]) == pytest.approx(0.0)
        assert angle_error_deg([1, 0], [0, 3]) == pytest.approx(90.0)
        assert angle_error_deg([1, 0], [-1, 0]) == pytest.approx(180.0)
        assert angle_error_deg([1, 1], [1, 0]) == pytest.approx(45.0)

    def test_zero_vectors_give_nan(self):
        assert math.isnan(angle_error_deg([0, 0], [1, 0]))
        assert math.isnan(angle_error_deg([1, 0], [0, 0]))


class TestTrialRngs:
    def test_same_trial_reproduces_and_trials_differ(self):
        a_scn, a_sen = _trial_rngs(7, 3)
        b_scn, b_sen = _trial_rngs(7, 3)
        c_scn, _ = _trial_rngs(7, 4)
        assert a_scn.uniform() == b_scn.uniform()
        assert a_sen.uniform() == b_sen.uniform()
        assert a_scn.uniform() != c_scn.uniform()


class TestReports:
    def test_placement_report_invariants(self):
        scenario = tiny_placement()
        report = run_scenario(scenario)
        assert report["report_version"] == 1
        assert report["trials"] == 3
        body = report["results"]
        assert sum(body["outcomes"].values()) + body["errors"] == 3
        assert body["outcomes"]["released_stable"] == 3
        assert body["success_rate"] == 1.0
        assert len(body["per_trial"]) == 3
        assert report["checks"]["min_success_rate"]["passed"]
        assert report["passed"]

    def test_failed_expectation_fails_the_report(self):
        scenario = tiny_placement(expect={"all_outcome": "no_contact"})
        report = run_scenario(scenario)
        assert not report["checks"]["all_outcome"]["passed"]
        assert not report["passed"]

    def test_errored_trials_fail_the_report(self):
        # every trial starts inside the puck and raises; the iteration check
        # alone sees no trial over its limit
        scenario = tiny_placement(trials=2, placement={"hover_tip_z": 0.03},
                                  expect={"max_iterations_per_trial": 5})
        report = run_scenario(scenario)
        assert report["results"]["errors"] == 2
        assert report["checks"]["max_iterations_per_trial"] == {
            "passed": True, "detail": "worst trial used 0 iterations, limit 5"}
        assert not report["passed"]

    def test_seed_override_changes_sampled_geometry(self):
        base = {
            "object": dict(DISK_OBJECT,
                           com_offset_sampler={"radius": [0.02, 0.03]}),
            "family": "offset_recovery",
        }
        r1 = run_scenario(tiny_placement(**base))
        r2 = run_scenario(tiny_placement(**base), seed=999)
        assert r2["seed"] == 999
        offs1 = [t["com_offset"] for t in r1["results"]["per_trial"]]
        offs2 = [t["com_offset"] for t in r2["results"]["per_trial"]]
        assert offs1 != offs2

    def test_seed_override_takes_any_integer_type(self):
        report = run_scenario(tiny_placement(trials=1), seed=np.int64(999))
        assert report["seed"] == 999 and type(report["seed"]) is int

    @pytest.mark.parametrize("seed, problem", [
        (-3, "must be >= 0, got -3"),
        (1.7, "expected an integer, got 1.7"),
        (False, "expected an integer, got False"),
        (np.int64(-3), "must be >= 0, got -3"),
    ])
    def test_seed_override_is_checked_as_the_scenario_seed(self, seed, problem):
        with pytest.raises(ScenarioError) as caught:
            run_scenario(tiny_placement(trials=1), seed=seed)
        assert str(caught.value) == f"scenario.seed: {problem}"

    def test_press_report_counts_degenerate_trials(self):
        report = finger_press_check(tiny_press())
        body = report["results"]
        assert body["degenerate"] == 1
        assert body["n_valid"] == 1
        assert body["max_angle_error_deg"] == pytest.approx(0.0, abs=1e-6)

    def test_family_guards(self):
        with pytest.raises(ScenarioFamilyError):
            sweep_offsets(tiny_placement())
        with pytest.raises(ScenarioFamilyError):
            finger_press_check(tiny_placement())

    def test_every_scenario_family_has_a_runner(self):
        assert set(harness._FAMILIES) == set(scenario.FAMILIES)


class TestSweep:
    def test_noiseless_shifts_point_at_the_center(self):
        report = sweep_offsets(tiny_sweep())
        body = report["results"]
        assert body["errors"] == 0
        group = body["by_magnitude"][0]
        assert group["n"] == 8
        assert group["median_deg"] < 2.0
        assert body["crossover_magnitude_below_60_deg"] == 0.01

    def test_noisy_shifts_at_zero_offset_have_no_direction_bias(self):
        # pressing dead center, the proposal direction is pure noise; its
        # resultant over many trials must stay far below the step size
        scenario = tiny_sweep(
            trials=100,
            sensor={},
            sweep={"magnitudes": [0.0], "directions": 25, "repeats": 4},
        )
        shifts = []
        for t in range(scenario.trials):
            row = _sweep_trial(scenario, t)
            assert "error" not in row
            shifts.append(row["shift"])
        shifts = np.asarray(shifts)
        mean_step = float(np.mean(np.linalg.norm(shifts, axis=1)))
        resultant = float(np.linalg.norm(shifts.mean(axis=0)))
        assert resultant < 0.25 * mean_step

    def test_sweep_table_artifact(self, tmp_path):
        report = sweep_offsets(tiny_sweep(), out_dir=tmp_path)
        table = tmp_path / report["artifacts"]["table"]
        lines = table.read_text().splitlines()
        assert lines[0] == "trial,magnitude_m,direction_deg,angle_error_deg,press_force_N,degenerate"
        assert len(lines) == 1 + 8


    def test_shipped_sweep_writes_the_same_files_for_any_jobs(self, tmp_path, pooled):
        # in process the trials share one world; pooled, each task builds its own
        path = SCENARIO_DIR / "noise_sweep.yaml"
        one, two = tmp_path / "one", tmp_path / "two"
        run_scenario(path, out_dir=one, jobs=1)
        run_scenario(path, out_dir=two, jobs=2)
        assert pooled == [2]
        names = sorted(p.name for p in one.iterdir())
        assert names == ["report.yaml", "sweep.csv"]
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_in_process_trials_share_one_world(self, monkeypatch):
        built = []
        real = harness.build_world

        def counted(scenario):
            built.append(real(scenario))
            return built[-1]

        monkeypatch.setattr(harness, "build_world", counted)
        report = sweep_offsets(tiny_sweep(
            trials=2, sweep={"magnitudes": [0.01], "directions": 2, "repeats": 1}))
        assert report["results"]["errors"] == 0
        assert len(built) == 1

    def test_in_process_trials_repeat_one_calibration_press(self, monkeypatch):
        contacts = []
        real = World._contact_at

        def counted(self, *args):
            contacts.append(args)
            return real(self, *args)

        monkeypatch.setattr(World, "_contact_at", counted)
        assert sweep_offsets(tiny_sweep())["results"]["errors"] == 0
        # eight presses at eight sites, and the one calibration press they share
        assert len(contacts) == 8 + 1


class TestMedian:
    def test_matches_numpy_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for n in range(1, 41):
            for scale in (1e-9, 1.0, 1e9):
                values = list(rng.normal(0.0, scale, n))
                ties = list(rng.integers(0, 4, n) * 0.1 * scale)
                for case in (values, ties):
                    want = float(np.median(case))
                    assert np.float64(harness._median(case)).tobytes() == (
                        np.float64(want).tobytes()), case

    def test_missing_values_are_skipped(self):
        assert harness._median([]) is None
        assert harness._median([None, math.nan]) is None
        assert harness._median([3.0, None, math.nan, 1.0]) == 2.0
        assert harness._median([None, 5.0]) == 5.0


class TestArtifacts:
    def test_trace_file_layout(self, tmp_path):
        report = run_scenario(tiny_placement(trials=1), out_dir=tmp_path)
        name = report["artifacts"]["traces"][0]
        assert name == "trial_000.trace"  # relative, no directories baked in
        text = (tmp_path / name).read_text()
        lines = text.splitlines()
        assert lines[0] == "# ftstack trace v1"
        assert "# scenario: tiny" in lines
        assert "# outcome: released_stable" in lines
        assert "# section: descent 0" in lines
        assert "# section: iterations" in lines
        assert lines[-1] == "# end"

    def test_plot_data_extraction(self, tmp_path):
        run_scenario(tiny_placement(trials=1), out_dir=tmp_path)
        trace = tmp_path / "trial_000.trace"
        written = emit_contact_plot_data(trace, tmp_path / "csv")
        assert written
        first = Path(written[0])
        assert first.name == "trial_000_descent_0.csv"
        lines = first.read_text().splitlines()
        assert lines[0] == "t_s,f_norm_N,tau_norm_Nm"
        cells = lines[1].split(",")
        assert len(cells) == 3
        float(cells[0])  # parses

        descent_rows = 0
        in_section = False
        for line in trace.read_text().splitlines():
            if line.startswith("#"):
                if line.startswith("# section: descent 0"):
                    in_section = True
                elif not line.startswith("# columns:"):
                    in_section = False
            elif in_section and line.strip():
                descent_rows += 1
        assert len(lines) - 1 == descent_rows

    def test_plot_data_rejects_descent_free_traces(self, tmp_path):
        bare = tmp_path / "bare.trace"
        bare.write_text("# ftstack trace v1\n# scenario: x\n# trial: 0\n# end\n")
        with pytest.raises(ValueError):
            emit_contact_plot_data(bare)


class TestPool:
    """``_run_trials`` starts no more workers than trials or CPUs."""

    @pytest.fixture
    def pools(self, monkeypatch):
        import concurrent.futures

        made = []

        class InProcessPool:
            # records its size and maps in process, so no worker is ever started
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool,
                            raising=False)
        return made

    @pytest.mark.parametrize("jobs, trials, cpus, workers", [
        (5000, 3, 4, [3]),
        (3, 5, 2, [2]),
        (2, 3, 8, [2]),
        (8, 1, 4, []),     # one trial runs in process
        (8, 3, None, []),  # an unknown CPU count counts as one
        (1, 3, 4, []),
    ])
    def test_workers_are_bounded(self, pools, monkeypatch, jobs, trials, cpus, workers):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: cpus)
        scenario = tiny_placement(trials=trials)
        rows = harness._run_trials(scenario, jobs)
        assert pools == workers
        assert [r["trial"] for r in rows] == list(range(trials))
        assert all("error" not in r for r in rows)

    @pytest.mark.parametrize("jobs", [0, -3, 2.5, "2", True])
    def test_jobs_is_checked_before_any_pool(self, pools, monkeypatch, jobs):
        # eight CPUs, so a float or a string would reach the pool's size
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        for run in (run_scenario, finger_press_check):
            source = tiny_placement() if run is run_scenario else tiny_press()
            with pytest.raises(ValueError, match=r"^jobs: "):
                run(source, jobs=jobs)
        assert pools == []

    def test_jobs_takes_integer_types(self, pools, monkeypatch):
        monkeypatch.setattr(harness.os, "cpu_count", lambda: 8)
        report = run_scenario(tiny_placement(), jobs=np.int64(2))
        assert pools == [2]
        assert report["passed"]


class TestReadings:
    @pytest.mark.parametrize("cls, first", [(Wrench, np.zeros(3)), (RigidTransform, np.eye(3))],
                             ids=["Wrench", "RigidTransform"])
    def test_runs_build_no_frame_object(self, cls, first, monkeypatch, tmp_path):
        # readings travel as (3,) torque and force arrays from sensor to
        # estimator, and reach the assumed COM through the lever arm alone
        builds = []
        post_init = cls.__post_init__

        def counted(self):
            builds.append(self)
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
        for name in ("zero_offset_noiseless", "multi_stack_6", "noise_sweep", "finger_press"):
            report = run_scenario(SCENARIO_DIR / f"{name}.yaml", out_dir=tmp_path / name)
            assert report["passed"], name
        assert builds == []
        cls(first, np.zeros(3))  # a build the count does see
        assert len(builds) == 1

    def test_runs_build_no_config_after_load(self, monkeypatch, tmp_path):
        # a scenario's sensor, window and policy are built once, when it loads
        names = ("zero_offset_noiseless", "multi_stack_6", "noise_sweep", "finger_press")
        loaded = {name: scenario.load_scenario(SCENARIO_DIR / f"{name}.yaml") for name in names}
        builds = []
        for cls in (SensorConfig, ReadingWindow, PolicyConfig):
            def counted(self, post_init=cls.__post_init__):
                builds.append(self)
                post_init(self)

            monkeypatch.setattr(cls, "__post_init__", counted)
        for name, parsed in loaded.items():
            report = run_scenario(parsed, out_dir=tmp_path / name)
            assert report["passed"], name
        assert builds == []
        ReadingWindow()  # a build the count does see
        assert len(builds) == 1

    def test_report_rows_leave_the_trace_out(self):
        report = run_scenario(SCENARIO_DIR / "multi_stack_6.yaml")
        for row in report["results"]["per_trial"]:
            assert set(row) == {"trial", "placed", "success", "objects"}
            for obj in row["objects"]:
                assert set(obj) == {"object", "outcome", "iterations", "final_com"}


class TestDeterminism:
    def test_stack_traces_are_the_same_for_any_jobs(self, tmp_path, pooled):
        # pooled, every PlacementTrace comes back from a worker through pickle
        path = SCENARIO_DIR / "multi_stack_6.yaml"
        one, two = tmp_path / "one", tmp_path / "two"
        run_scenario(path, out_dir=one, jobs=1)
        run_scenario(path, out_dir=two, jobs=2)
        assert pooled == [2]
        names = sorted(p.name for p in one.iterdir())
        assert names == ["report.yaml"] + [f"trial_{k:03d}.trace" for k in range(3)]
        assert names == sorted(p.name for p in two.iterdir())
        for name in names:
            assert (one / name).read_bytes() == (two / name).read_bytes()

    def test_reports_and_traces_are_byte_identical(self, tmp_path, pooled):
        scenario = tiny_placement()
        a, b = tmp_path / "a", tmp_path / "b"
        run_scenario(scenario, out_dir=a, jobs=1)
        run_scenario(scenario, out_dir=b, jobs=2)
        assert pooled == [2]
        for name in ["report.yaml"] + [f"trial_{k:03d}.trace" for k in range(3)]:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_report_yaml_matches_returned_dict(self, tmp_path):
        report = run_scenario(tiny_placement(trials=1), out_dir=tmp_path)
        on_disk = yaml.safe_load((tmp_path / "report.yaml").read_text())
        assert on_disk == report



def safe_dump_text(doc) -> str:
    return yaml.safe_dump(doc, sort_keys=False)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestReportEmitter:
    """report.yaml is emitted from events through libyaml's emitter; its
    text must be safe_dump's."""

    @staticmethod
    def c_dump_text(doc) -> str:
        return yaml.dump(doc, Dumper=yaml.CSafeDumper, sort_keys=False)

    @pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.yaml")), ids=lambda p: p.stem)
    def test_shipped_scenario_reports(self, path, tmp_path):
        report = run_scenario(path, out_dir=tmp_path)
        text = (tmp_path / "report.yaml").read_text(encoding="utf-8")
        assert text == safe_dump_text(report)
        assert self.c_dump_text(report) == text

    def test_failed_trials_carry_error_text(self, tmp_path):
        # an approach that starts inside the puck fails every trial with a
        # message holding ': ' and decimals
        report = run_scenario(tiny_placement(trials=2, placement={"hover_tip_z": 0.03}),
                              out_dir=tmp_path)
        assert report["results"]["errors"] == 2
        text = (tmp_path / "report.yaml").read_text(encoding="utf-8")
        assert text == safe_dump_text(report) == self.c_dump_text(report)

    def test_edge_case_values(self):
        report = run_scenario(tiny_press())
        long = "RuntimeError: " + "descent range of 12 steps misses the stop; " * 20
        rng = np.random.default_rng(3)
        scales = 10.0 ** rng.integers(-320, 308, 3000)
        report["results"]["per_trial"] = [
            {"trial": 0, "error": long},
            {"trial": 1, "error": "ValueError: name 'x' is \"odd\": a # not a comment"},
            {"trial": 2, "error": "first line\nsecond line:\ttabbed # end"},
            {"trial": 3, "error": "non-ASCII: µ ° \u00e9 \u2014 \u00a0", "note": ""},
            {"trial": 4, "values": [float("nan"), float("inf"), float("-inf"), -0.0, 0.0,
                                    1e-300, 5e-324, 1.7976931348623157e308]},
            {"trial": 5, "empty_list": [], "empty_map": {}, "none": None, "flag": False,
             "yes": "yes", "null": "null", "number_text": "0.10", "colon": "a: b"},
            # floats from 1e-320 to 1e308, and exponents repr writes without a "."
            {"trial": 6, "values": (rng.normal(size=3000) * scales).tolist()
             + [1e16, 1e17, 1e22, 1e-5, -1e-7], "ints": [0, -7, 10**30]},
        ]
        assert _report_text(report) == safe_dump_text(report)

    @pytest.mark.parametrize("value", [np.float64(0.5), np.int64(3), (1.0, 2.0), {1.0}, b"x"])
    def test_other_types_are_refused(self, value):
        with pytest.raises(TypeError, match=type(value).__name__):
            _report_text({"results": {"value": value}})

    def test_a_container_met_twice_is_refused(self):
        # yaml.dump would write it once with an &id001 anchor and then an alias
        shared = [1.0, 2.0]
        with pytest.raises(ValueError, match="twice"):
            _report_text({"a": shared, "b": {"c": shared}})
        apart = {"a": [1.0, 2.0], "b": [1.0, 2.0]}  # equal lists, two objects
        assert _report_text(apart) == safe_dump_text(apart)


class TestCli:
    def scenario_file(self, tmp_path, scenario) -> Path:
        path = tmp_path / f"{scenario.name}.yaml"
        save_scenario(scenario, path)
        return path

    def test_run_pass_exit_zero(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, tiny_placement())
        code = main(["run", str(path), "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "result: pass" in out
        assert "check min_success_rate: pass" in out

    def test_failed_check_exit_one(self, tmp_path, capsys):
        scenario = tiny_placement(expect={"all_outcome": "no_contact"})
        path = self.scenario_file(tmp_path, scenario)
        code = main(["run", str(path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "result: FAIL" in out

    def test_errored_trial_exit_one(self, tmp_path, capsys):
        scenario = tiny_placement(trials=1, placement={"hover_tip_z": 0.03}, expect=None)
        code = main(["run", str(self.scenario_file(tmp_path, scenario))])
        out = capsys.readouterr().out
        assert code == 1
        assert "trial errors: 1" in out
        assert "result: FAIL" in out

    def test_negative_seed_override_exits_two_with_its_field(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, tiny_placement(trials=1))
        assert main(["run", str(path), "--seed", "-3"]) == 2
        assert capsys.readouterr().err == "error: scenario.seed: must be >= 0, got -3\n"

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_two(self, tmp_path, capsys, jobs):
        path = self.scenario_file(tmp_path, tiny_placement(trials=1))
        assert main(["run", str(path), "--jobs", jobs]) == 2
        assert capsys.readouterr().err == (
            f"error: jobs: expected an integer of at least 1, got {jobs}\n")

    def test_unusable_inputs_exit_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "missing.yaml")]) == 2
        placement = self.scenario_file(tmp_path, tiny_placement())
        assert main(["sweep", str(placement)]) == 2
        err = capsys.readouterr().err
        assert "error:" in err

    def test_expect_key_the_family_cannot_judge_exits_two(self, tmp_path, capsys):
        doc = tiny_placement().to_dict()
        doc["expect"] = {"median_below_deg": 10.0}
        path = tmp_path / "bad_expect.yaml"
        path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        assert main(["run", str(path)]) == 2
        err = capsys.readouterr().err
        assert "scenario.expect.median_below_deg: not checked for family zero_offset" in err

    def test_plot_data_subcommand(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, tiny_placement(trials=1))
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()
        code = main(["plot-data", str(tmp_path / "out" / "trial_000.trace"),
                     "--out", str(tmp_path / "csv")])
        out = capsys.readouterr().out
        assert code == 0
        assert "trial_000_descent_0.csv" in out

    def test_press_check_subcommand(self, tmp_path, capsys):
        path = self.scenario_file(tmp_path, tiny_press())
        code = main(["press-check", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "direction error max" in out
