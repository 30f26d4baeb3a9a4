"""Press-compare-shift controller: shifts, release gating, and full runs."""

import numpy as np
import pytest

from ftstack.estimation import ContactEstimate
from ftstack.policy import (
    Calibration,
    PlacementOutcome,
    PolicyConfig,
    StackPlan,
    _to_com,
    calibrate_for_held,
    clamp_to_workspace,
    press_and_estimate,
    propose_shift,
    run_placement,
    run_stack,
)
from ftstack.sensor import ForceTorqueSensor, ReadingWindow, SensorConfig
from ftstack.spatial import FrameId, RigidTransform, Wrench, transform_wrench
from ftstack.surfaces import FlatPlane, Puck, RampPatch, SphericalCap
from ftstack.world import Footprint, HeldObject, NoContactWithinRange, World

CAL_XY = (0.15, -0.15)
HOVER_Z = 0.1


def quiet_sensor(seed=0):
    return ForceTorqueSensor(SensorConfig(noise_torque=0.0, noise_force=0.0),
                             np.random.default_rng(seed))


def make_disk(radius=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("disk", radius),
                      thickness=thickness, **kw)


def make_square(half=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("square", half),
                      thickness=thickness, **kw)


def com_frame(lift):
    """The reference for ``_to_com``: the sensor origin to the assumed COM,
    the grasp point ``lift`` below it, as a rigid transform."""
    return RigidTransform.from_translation((0.0, 0.0, -lift),
                                           parent=FrameId.WRIST, child=FrameId.ROCK_COM)


def calibrated(world, sensor, config, window=None):
    window = window if window is not None else ReadingWindow()
    return calibrate_for_held(world, sensor, config, window, CAL_XY, HOVER_Z)


def fake_estimate(tangent, flat):
    tangent = np.asarray(tangent, dtype=float)
    flat = np.asarray(flat, dtype=float)
    return ContactEstimate(
        normal_force=np.array([0.0, 0.0, 10.0]),
        normal_dir=np.array([0.0, 0.0, 1.0]),
        tangent_offset=tangent,
        flat_dir=flat,
        press_magnitude=10.0,
    )


class TestProposeShift:
    def test_small_tilt_is_ignored(self):
        config = PolicyConfig()
        est = fake_estimate([0.01, -0.02, 0.0], [0.001, 0.0, 0.0])
        np.testing.assert_allclose(propose_shift(est, config), [0.01, -0.02])

    def test_large_tilt_adds_flat_seeking_step(self):
        config = PolicyConfig()
        est = fake_estimate([0.01, -0.02, 0.0], [0.26, 0.0, 0.0])
        np.testing.assert_allclose(
            propose_shift(est, config), [0.01 + 0.5 * 0.26, -0.02]
        )

    def test_zero_gain_disables_the_flat_term(self):
        config = PolicyConfig(step_gain=0.0)
        est = fake_estimate([0.01, -0.02, 0.0], [0.26, 0.0, 0.0])
        np.testing.assert_allclose(propose_shift(est, config), [0.01, -0.02])

    def test_clamp(self):
        np.testing.assert_allclose(
            clamp_to_workspace([0.3, -0.4], 0.2), [0.2, -0.2]
        )


class TestCalibration:
    def test_two_phase_calibration_values(self):
        world = World(FlatPlane(0.0))
        world.hold(make_disk(com_offset=np.array([0.006, 0.004, 0.0])))
        config = PolicyConfig()
        sensor = RecordingSensor(SensorConfig(noise_torque=0.0, noise_force=0.0),
                                 np.random.default_rng(0))
        state = calibrated(world, sensor, config)
        assert isinstance(state, Calibration)
        np.testing.assert_allclose(state.hover_force, [0, 0, -9.81], atol=1e-9)
        # the hover window's last tick (2 + 12 samples) taken to the assumed COM
        hover = transform_wrench(com_frame(world.params.wrist_lift),
                                 sensor.by_time[(2 + 12) / 25.0])
        np.testing.assert_allclose(state.hover_torque, hover.torque, atol=1e-9)
        np.testing.assert_allclose(state.hover_force, hover.force, atol=1e-9)
        # the last tick is the flat press: the 10 N threshold bears on the weight
        flat = sensor.by_time[max(sensor.by_time)]
        np.testing.assert_allclose(flat.force, [0, 0, -9.81 + 10.0], atol=1e-9)
        # the flat press's torque about the assumed COM, hover torque removed:
        # the 10 N press acting at the patch centroid, which the COM offset
        # moves off the tip
        contact, tip_z, _, _ = world.descend_until_contact(CAL_XY, 10.0, HOVER_Z)
        lever = contact.contact_point - np.array([CAL_XY[0], CAL_XY[1], tip_z])
        expected = np.cross(lever, contact.force)
        assert np.linalg.norm(expected) > 0.01
        np.testing.assert_allclose(state.torque_reference, expected, atol=1e-9)
        assert not state.torque_reference.flags.writeable


class TestPressAndEstimate:
    def test_centered_press_has_near_zero_residual(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        press = press_and_estimate(
            world, quiet_sensor(7), state, config, ReadingWindow(), (0.0, 0.0), 0.1
        )
        assert press.residual_norm < 0.01
        assert not press.degenerate
        assert press.estimate.press_magnitude == pytest.approx(10.0, abs=1e-6)

    def test_offset_press_points_back_at_the_contact(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        press = press_and_estimate(
            world, quiet_sensor(7), state, config, ReadingWindow(), (0.03, 0.0), 0.1
        )
        # equal disks: the contact patch centroid sits halfway back
        assert press.estimate.tangent_offset[0] == pytest.approx(-0.015, abs=1e-3)
        assert abs(press.estimate.tangent_offset[1]) < 1e-3


class TestRunPlacement:
    def test_offset_start_converges_monotonically(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(3), state, config, (0.03, 0.0), 0.1)
        assert trace.outcome is PlacementOutcome.RELEASED_STABLE
        assert len(trace.iterations) >= 2
        dists = [float(np.linalg.norm(r.press_xy)) for r in trace.iterations]
        assert all(b < a for a, b in zip(dists, dists[1:]))
        assert trace.iterations[-1].released
        assert trace.final_com is not None

    def test_descent_series_matches_iterations(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(3), state, config, (0.02, 0.0), 0.1)
        assert len(trace.descent_series) == len(trace.iterations)
        for series in trace.descent_series:
            assert series.shape[1] == 3
            assert series.shape[0] > 1
            assert np.all(np.diff(series[:, 0]) > 0)  # time strictly advances

    def test_workspace_clamp_applies_to_the_first_press(self):
        world = World(FlatPlane(0.0))
        world.hold(make_disk())
        config = PolicyConfig(workspace_limit=0.05)
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(1), state, config, (0.2, 0.2), 0.1)
        np.testing.assert_allclose(trace.iterations[0].press_xy, [0.05, 0.05])

    def test_weak_press_never_releases(self):
        # a press at the force floor gives no usable torque lever: the
        # controller must retry harder, and with the retry still under the
        # floor it must hold on rather than trust a tiny residual
        world = World(FlatPlane(0.0))
        world.hold(make_disk())
        config = PolicyConfig(resistance_threshold=0.5, max_iterations=3)
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(5), state, config, (0.0, 0.0), 0.1)
        assert trace.outcome is PlacementOutcome.MAX_ITERATIONS
        assert len(trace.iterations) == 3
        assert all(r.degenerate for r in trace.iterations)
        assert not any(r.released for r in trace.iterations)
        assert world.held is not None

    def test_no_material_under_start_gives_no_contact(self):
        world = World(Puck(CAL_XY, 0.07, 0.02))
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(9), state, config, (0.0, 0.0), 0.1)
        assert trace.outcome is PlacementOutcome.NO_CONTACT
        assert trace.iterations == ()
        assert len(trace.descent_series) == 1

    def test_no_contact_series_comes_from_the_exception_rows(self, monkeypatch):
        world = World(Puck(CAL_XY, 0.07, 0.02))
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        raised = []
        descend = World.descend_until_contact

        def keep_exception(self, *args, **kwargs):
            try:
                return descend(self, *args, **kwargs)
            except NoContactWithinRange as exc:
                raised.append(exc)
                raise

        monkeypatch.setattr(World, "descend_until_contact", keep_exception)
        sensor = RecordingSensor(SensorConfig(), np.random.default_rng(9))
        trace = run_placement(world, sensor, state, config, (0.0, 0.0), 0.1)
        assert trace.outcome is PlacementOutcome.NO_CONTACT
        [exc] = raised
        series = trace.descent_series[-1]
        torque_rows, force_rows = world.wrist_wrench_rows(exc.tips, exc.forces, None)
        assert len(series) == torque_rows.shape[0] == exc.forces.shape[0] > 0
        for t, tau, f in zip(series[:, 0], torque_rows, force_rows):
            true_tau, true_f = sensor.true_by_time[t]
            assert np.array_equal(true_tau, tau)
            assert np.array_equal(true_f, f)

    def test_ramp_press_never_satisfies_release(self):
        ramp = RampPatch((-0.25, 0.25), (-0.05, 0.25), 0.02,
                         np.radians(15.0), np.pi / 2)
        world = World([FlatPlane(0.0), ramp])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(11), state, config, (0.0, 0.1), 0.1)
        assert trace.outcome is PlacementOutcome.MAX_ITERATIONS

    def test_identical_seeds_give_identical_traces(self):
        def one_run():
            world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
            world.hold(make_disk())
            config = PolicyConfig()
            state = calibrated(world, ForceTorqueSensor(SensorConfig(), np.random.default_rng(42)),
                               config)
            return run_placement(
                world, ForceTorqueSensor(SensorConfig(), np.random.default_rng(43)), state, config,
                (0.025, -0.01), 0.1,
            )

        a, b = one_run(), one_run()
        assert a.outcome is b.outcome
        assert len(a.iterations) == len(b.iterations)
        for ra, rb in zip(a.iterations, b.iterations):
            assert np.array_equal(ra.press_xy, rb.press_xy)
            assert ra.residual_norm == rb.residual_norm
        for sa, sb in zip(a.descent_series, b.descent_series):
            assert np.array_equal(sa, sb)


class RecordingSensor(ForceTorqueSensor):
    """Keeps every tick's true and sampled wrench under the clock reading
    that follows it."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.true_by_time = {}
        self.by_time = {}

    def sample(self, torque, force):
        out = super().sample(torque, force)
        self.true_by_time[self.time] = (torque, force)
        self.by_time[self.time] = Wrench(*out, frame=FrameId.WRIST)
        return out


class TestDescentRows:
    @pytest.mark.parametrize("surfaces, start_xy", [
        ([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)], (0.03, -0.01)),
        ([FlatPlane(0.0), RampPatch((-0.25, 0.25), (-0.05, 0.25), 0.02,
                                    np.radians(15.0), np.pi / 2)], (0.0, 0.1)),
        ([Puck(CAL_XY, 0.07, 0.02)], (0.0, 0.0)),  # no material: rows before the raise
    ])
    def test_rows_match_per_sample_transform_and_norm(self, surfaces, start_xy):
        world = World(surfaces)
        world.hold(make_disk(com_offset=np.array([0.006, 0.004, 0.0])))
        config = PolicyConfig(max_iterations=3)
        state = calibrated(world, quiet_sensor(), config)
        sensor = RecordingSensor(SensorConfig(bias_torque=(0.02, -0.01, 0.005),
                                              bias_force=(0.3, 0.1, -0.2)),
                                 np.random.default_rng(21))
        trace = run_placement(world, sensor, state, config, start_xy, 0.1)

        g_wr = com_frame(world.params.wrist_lift)
        assert sum(len(series) for series in trace.descent_series) > 0
        for series in trace.descent_series:
            for t, f_norm, tau_norm in series:
                sampled = transform_wrench(g_wr, sensor.by_time[t])
                assert f_norm == float(np.linalg.norm(sampled.force - state.hover_force))
                assert tau_norm == float(np.linalg.norm(sampled.torque - state.hover_torque))


def signed_rows(rng, n, scale):
    """(n, 3) rows with a fifth of their components +0.0 and a fifth -0.0."""
    rows = rng.normal(0.0, scale, (n, 3))
    pick = rng.random((n, 3))
    rows[pick < 0.2] = 0.0
    rows[pick > 0.8] = -0.0
    return rows


class TestComShift:
    @pytest.mark.parametrize("n", [0, 1, 14, 335])
    @pytest.mark.parametrize("lift", [0.15, 0.0, -0.0, 0.37])
    def test_rows_have_the_transform_wrench_bits(self, lift, n):
        rng = np.random.default_rng(23)
        torque, force = signed_rows(rng, n, 2.0), signed_rows(rng, n, 20.0)
        tau, f = _to_com(lift, torque, force)
        assert tau.shape == f.shape == (n, 3)
        g_wr = com_frame(lift)
        for i in range(n):
            ref = transform_wrench(g_wr, Wrench(torque[i], force[i], frame=FrameId.WRIST))
            assert tau[i].tobytes() == ref.torque.tobytes()
            assert f[i].tobytes() == ref.force.tobytes()

    @pytest.mark.parametrize("lift", [0.15, 0.0, -0.0, 0.37])
    def test_one_reading_has_the_row_bits(self, lift):
        rng = np.random.default_rng(29)
        torque, force = signed_rows(rng, 200, 2.0), signed_rows(rng, 200, 20.0)
        rows = _to_com(lift, torque, force)
        g_wr = com_frame(lift)
        for i in range(200):
            tau, f = _to_com(lift, torque[i], force[i])
            ref = transform_wrench(g_wr, Wrench(torque[i], force[i], frame=FrameId.WRIST))
            assert tau.shape == f.shape == (3,)
            assert tau.tobytes() == rows[0][i].tobytes() == ref.torque.tobytes()
            assert f.tobytes() == rows[1][i].tobytes() == ref.force.tobytes()

    def test_a_force_at_the_tip_gives_no_com_torque(self):
        # a force applied at the grasp point, 0.15 m below the sensor, reads
        # as its moment about the sensor origin and as none about the COM
        force = np.array([3.0, -4.0, -9.81])
        torque = np.cross([0.0, 0.0, -0.15], force)
        tau, f = _to_com(0.15, torque, force)
        assert tau.tolist() == [0.0, 0.0, 0.0]
        assert f.tolist() == force.tolist()


class TestReleaseSoundness:
    def test_release_implies_stability_across_random_worlds(self):
        # noiseless randomized sweep; torque threshold over press force must
        # stay at or under the support margin for crowned tops, so those runs
        # tighten the release gate
        rng = np.random.default_rng(2024)
        outcomes = []
        for k in range(50):
            cx, cy = rng.uniform(-0.02, 0.02, size=2)
            world = World([FlatPlane(0.0),
                           Puck((cx, cy), rng.uniform(0.04, 0.06), rng.uniform(0.02, 0.05))])
            if k % 2 == 0:
                world.hold(make_disk(radius=rng.uniform(0.04, 0.055)))
            else:
                world.hold(make_square(half=rng.uniform(0.035, 0.05)))
            config = PolicyConfig()
            state = calibrated(world, quiet_sensor(k), config)
            start = np.array([cx, cy]) + rng.uniform(-0.02, 0.02, size=2)
            trace = run_placement(world, quiet_sensor(100 + k), state, config, start, 0.12)
            outcomes.append(trace.outcome)
        for k in range(30):
            cx, cy = rng.uniform(-0.01, 0.01, size=2)
            world = World([FlatPlane(0.0),
                           SphericalCap((cx, cy), 0.05, rng.uniform(0.1, 0.2), 0.0486)])
            world.hold(make_disk(radius=rng.uniform(0.045, 0.055)))
            config = PolicyConfig(torque_release_threshold=0.01)
            state = calibrated(world, quiet_sensor(500 + k), config)
            start = np.array([cx, cy]) + rng.uniform(-0.015, 0.015, size=2)
            trace = run_placement(world, quiet_sensor(600 + k), state, config, start, 0.12)
            outcomes.append(trace.outcome)

        assert PlacementOutcome.RELEASED_TOPPLED not in outcomes
        stable = sum(1 for o in outcomes if o is PlacementOutcome.RELEASED_STABLE)
        assert stable >= 0.6 * len(outcomes)


class TestRunStack:
    def test_two_object_stack_reuses_settled_pose(self):
        world = World(FlatPlane(0.0))
        objects = [make_square(half=0.05, thickness=0.006) for _ in range(2)]
        plan = StackPlan(
            target_xy=(0.0, 0.0),
            perturbations=np.array([[0.005, -0.003], [-0.004, 0.006]]),
            calibration_xy=CAL_XY,
            hover_tip_z=HOVER_Z,
        )
        result = run_stack(world, quiet_sensor(17), objects, plan, PolicyConfig())
        assert result.success
        assert result.placed == 2
        assert len(result.traces) == 2
        z0, z1 = (trace.top_height for trace in result.traces)
        assert z0 == pytest.approx(0.006, abs=1e-6)
        assert z1 == pytest.approx(z0 + 0.006, abs=1e-6)
        com_xy = result.traces[1].final_com[:2]
        assert float(world.surface_height(*com_xy)) == pytest.approx(z1, abs=1e-9)

    def test_plan_must_cover_every_object(self):
        world = World(FlatPlane(0.0))
        plan = StackPlan(target_xy=(0.0, 0.0), perturbations=np.zeros((1, 2)))
        with pytest.raises(ValueError):
            run_stack(world, quiet_sensor(), [make_square(), make_square()],
                      plan, PolicyConfig())


class TestConfigValidation:
    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            PolicyConfig(resistance_threshold=0.0)
        with pytest.raises(ValueError):
            PolicyConfig(step_gain=-0.1)
        with pytest.raises(ValueError):
            PolicyConfig(flat_dir_floor=-0.01)
        with pytest.raises(ValueError):
            PolicyConfig(max_iterations=0)
        with pytest.raises(ValueError):
            PolicyConfig(repress_scale=1.0)
        # a NaN or an infinity is refused too, by an error that names the field
        for name, value in [("torque_release_threshold", float("nan")),
                            ("raise_height", float("nan")), ("repress_scale", float("inf")),
                            ("max_iterations", 2.5), ("max_iterations", True),
                            ("force_floor", -1.0), ("force_floor", 0.0)]:
            with pytest.raises(ValueError, match=name):
                PolicyConfig(**{name: value})


class CountingSensor(ForceTorqueSensor):
    """Counts ``sample`` calls, as a tracer that wraps the method counts ticks."""

    def __init__(self, config, rng):
        super().__init__(config, rng)
        self.calls = 0

    def sample(self, torque, force):
        self.calls += 1
        return super().sample(torque, force)


def implied_presses(trace, config) -> int:
    """Presses behind a zero-noise placement's iteration rows: a row read at
    the retry force, or left degenerate, stands for two."""
    retry = config.repress_scale * config.resistance_threshold
    return sum(2 if rec.degenerate or rec.press_force == pytest.approx(retry, rel=1e-9) else 1
               for rec in trace.iterations)


class TestTickContract:
    """One ``sample`` call per sensor tick, one ``descend_until_contact``
    call per press and one ``true_wrist_wrench`` call per settled reading, so
    that the calls counted on those three methods match the work the outputs
    imply: descent rows plus readings times window samples."""

    WINDOW_SAMPLES = 2 + 12  # the default window at 25 Hz: 0.1 s settle, 0.5 s average

    @pytest.fixture
    def calls(self, monkeypatch):
        """The arguments of each counted ``World`` method's calls, by name."""
        calls = {"descend_until_contact": [], "true_wrist_wrench": []}
        for name, seen in calls.items():
            real = getattr(World, name)

            def counted(self, *args, real=real, seen=seen, **kwargs):
                seen.append(args)
                return real(self, *args, **kwargs)

            monkeypatch.setattr(World, name, counted)
        return calls

    def assert_counts(self, sensor, calls, traces, config, hovers, presses=0):
        """``hovers`` calibrations (a hover and a flat press each), the
        placement ``traces`` and ``presses`` other presses."""
        presses += hovers + sum(implied_presses(t, config) for t in traces)
        readings = hovers + presses
        rows = sum(len(series) for t in traces for series in t.descent_series)
        assert len(calls["descend_until_contact"]) == presses
        assert len(calls["true_wrist_wrench"]) == readings
        assert sensor.calls == rows + readings * self.WINDOW_SAMPLES

    def test_puck_placement(self, calls):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk(com_offset=np.array([0.006, -0.004, 0.0])))
        config = PolicyConfig()
        sensor = CountingSensor(SensorConfig(noise_torque=0.0, noise_force=0.0),
                                np.random.default_rng(3))
        trace = run_placement(world, sensor, calibrated(world, sensor, config), config,
                              (0.025, -0.01), 0.1)
        assert trace.outcome is PlacementOutcome.RELEASED_STABLE
        assert len(trace.iterations) > 1
        self.assert_counts(sensor, calls, [trace], config, hovers=1)

    def test_stack(self, calls):
        world = World(FlatPlane(0.0))
        objects = [make_square(half=0.05, thickness=0.006), make_disk(thickness=0.006)]
        plan = StackPlan(target_xy=(0.0, 0.0),
                         perturbations=np.array([[0.005, -0.003], [-0.008, 0.006]]),
                         calibration_xy=CAL_XY, hover_tip_z=HOVER_Z)
        config = PolicyConfig()
        sensor = CountingSensor(SensorConfig(noise_torque=0.0, noise_force=0.0),
                                np.random.default_rng(4))
        result = run_stack(world, sensor, objects, plan, config)
        assert result.success
        self.assert_counts(sensor, calls, result.traces, config, hovers=2)

    def test_sweep_press(self, calls):
        # a noise sweep trial: one calibration, then one press whose descent
        # rows are not read
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk(radius=0.045))
        config = PolicyConfig()
        sensor = CountingSensor(SensorConfig(), np.random.default_rng(5))
        state = calibrated(world, sensor, config)
        press = press_and_estimate(world, sensor, state, config, ReadingWindow(),
                                   (0.02, 0.01), 0.1)
        assert not press.degenerate
        self.assert_counts(sensor, calls, [], config, hovers=1, presses=1)
