"""Press-compare-shift controller: shifts, release gating, and full runs."""

import numpy as np
import pytest

from ftstack.estimation import ContactEstimate
from ftstack.policy import (
    PlacementOutcome,
    PolicyConfig,
    StackPlan,
    calibrate_for_held,
    clamp_to_workspace,
    com_frame_transform,
    press_and_estimate,
    propose_shift,
    run_placement,
    run_stack,
)
from ftstack.sensor import (
    CalibrationIncomplete,
    CalibrationState,
    ForceTorqueSensor,
    ReadingWindow,
    SensorConfig,
)
from ftstack.spatial import FrameId, transform_wrench
from ftstack.surfaces import FlatPlane, Puck, RampPatch, SphericalCap
from ftstack.world import Footprint, HeldObject, World

CAL_XY = (0.15, -0.15)
HOVER_Z = 0.1


def quiet_sensor(seed=0):
    return ForceTorqueSensor(SensorConfig(noise_torque=0.0, noise_force=0.0, seed=seed))


def make_disk(radius=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("disk", radius),
                      thickness=thickness, **kw)


def make_square(half=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("square", half),
                      thickness=thickness, **kw)


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
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        assert state.complete
        np.testing.assert_allclose(state.hover_baseline.force, [0, 0, -9.81], atol=1e-9)
        np.testing.assert_allclose(
            state.flat_reference.force, [0, 0, -9.81 + 10.0], atol=1e-9
        )
        assert state.hover_baseline.frame is FrameId.WRIST

    def test_incomplete_calibration_is_rejected(self):
        world = World(FlatPlane(0.0))
        world.hold(make_disk())
        with pytest.raises(CalibrationIncomplete):
            press_and_estimate(
                world, quiet_sensor(), CalibrationState(), PolicyConfig(),
                ReadingWindow(), (0.0, 0.0), 0.1,
            )


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

    def test_ramp_press_never_satisfies_release(self):
        ramp = RampPatch((-0.25, 0.25), (-0.05, 0.25), 0.02,
                         np.radians(15.0), np.pi / 2)
        world = World([FlatPlane(0.0), ramp])
        world.hold(make_disk())
        config = PolicyConfig()
        state = calibrated(world, quiet_sensor(), config)
        trace = run_placement(world, quiet_sensor(11), state, config, (0.0, 0.1), 0.1)
        assert trace.outcome is PlacementOutcome.MAX_ITERATIONS
        assert not trace.released

    def test_identical_seeds_give_identical_traces(self):
        def one_run():
            world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
            world.hold(make_disk())
            config = PolicyConfig()
            state = calibrated(world, ForceTorqueSensor(SensorConfig(seed=42)), config)
            return run_placement(
                world, ForceTorqueSensor(SensorConfig(seed=43)), state, config,
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
    """Keeps every sampled wrench under the clock reading that follows it."""

    def __init__(self, config):
        super().__init__(config)
        self.by_time = {}

    def sample(self, true_wrench):
        out = super().sample(true_wrench)
        self.by_time[self.time] = out
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
        sensor = RecordingSensor(SensorConfig(seed=21, bias_torque=(0.02, -0.01, 0.005),
                                              bias_force=(0.3, 0.1, -0.2)))
        trace = run_placement(world, sensor, state, config, start_xy, 0.1)

        g_wr = com_frame_transform(world.params.wrist_lift)
        hover = transform_wrench(g_wr, state.hover_baseline)
        assert sum(len(series) for series in trace.descent_series) > 0
        for series in trace.descent_series:
            for t, f_norm, tau_norm in series:
                sampled = transform_wrench(g_wr, sensor.by_time[t])
                assert f_norm == float(np.linalg.norm(sampled.force - hover.force))
                assert tau_norm == float(np.linalg.norm(sampled.torque - hover.torque))


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
        assert len(world.placed) == 2
        z0 = world.placed[0].top_height
        assert world.placed[1].top_height == pytest.approx(z0 + 0.006, abs=1e-6)

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

    def test_com_frame_transform_lands_on_the_tip(self):
        g = com_frame_transform(0.15)
        np.testing.assert_allclose(g.point_to_parent([0.0, 0.0, 0.0]), [0, 0, -0.15])
        assert g.parent is FrameId.WRIST
        assert g.child is FrameId.ROCK_COM
