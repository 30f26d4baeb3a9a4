"""Quasi-static world: descent, contact geometry, wrenches, and release."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftstack.estimation import estimate_contact
from ftstack.spatial import FrameId, Wrench, transform_wrench
from ftstack.surfaces import NO_SURFACE, FlatPlane, Puck, RampPatch, SphericalCap
from ftstack.world import (
    BottomProfile,
    ContactResult,
    Footprint,
    HeldObject,
    NoContactWithinRange,
    SimParams,
    World,
)
from ftstack.policy import com_frame_transform


def make_disk(radius=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("disk", radius),
                      thickness=thickness, **kw)


def make_square(half=0.05, thickness=0.02, mass=1.0, **kw):
    return HeldObject(mass=mass, footprint=Footprint("square", half),
                      thickness=thickness, **kw)


class TestFootprint:
    def test_kinds_and_bounds(self):
        disk = Footprint("disk", 0.05)
        square = Footprint("square", 0.05)
        assert disk.bounding_radius == pytest.approx(0.05)
        assert square.bounding_radius == pytest.approx(0.05 * np.sqrt(2.0))
        with pytest.raises(ValueError):
            Footprint("hexagon", 0.05)
        with pytest.raises(ValueError):
            Footprint("disk", 0.0)

    def test_sample_offsets_cover_the_exact_boundary(self):
        offs = Footprint("disk", 0.05).sample_offsets(1e-3)
        norms = np.linalg.norm(offs, axis=1)
        assert np.max(norms) == pytest.approx(0.05)
        offs_sq = Footprint("square", 0.05).sample_offsets(1e-3)
        assert np.max(np.abs(offs_sq)) == pytest.approx(0.05)


class TestDescent:
    def test_spring_stop_is_closed_form(self):
        # threshold / spring_k of compression below first touch
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        assert tip_z == pytest.approx(0.04 - 10.0 / 1e5 + 0.01, abs=1e-12)
        assert contact.normal_force_magnitude == pytest.approx(10.0)
        assert contact.penetration == pytest.approx(1e-4)
        # patch centroid is sample-accurate, not exact: the boundary ring
        # dedup against grid nodes leaves a sub-pitch asymmetry
        np.testing.assert_allclose(contact.contact_point[:2], [0.0, 0.0], atol=2e-4)
        assert contact.contact_point[2] == pytest.approx(0.04)
        np.testing.assert_allclose(contact.surface_normal, [0.0, 0.0, 1.0])

    def test_crown_contact_lands_at_the_apex(self):
        apex = (0.013, -0.007)  # on the sample grid for a press at (0.01, -0.01)
        world = World([FlatPlane(0.0), SphericalCap(apex, 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        np.testing.assert_allclose(contact.contact_point[:2], apex, atol=1e-12)
        assert contact.contact_point[2] == pytest.approx(0.0486)

    def test_offgrid_apex_found_within_sample_pitch(self):
        apex = (0.0134, -0.0071)
        world = World([FlatPlane(0.0), SphericalCap(apex, 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        err = np.linalg.norm(contact.contact_point[:2] - np.asarray(apex))
        assert err <= world.params.contact_pitch + 1e-12

    def test_step_series_reports_force_buildup(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        forces = []
        world.descend_until_contact(
            (0.0, 0.0), 10.0, 0.1, on_step=lambda w: forces.append(w.force.copy())
        )
        fz = np.array([f[2] for f in forces])
        weight = -1.0 * 9.81
        assert fz[0] == pytest.approx(weight)       # free descent: gravity only
        assert fz[-1] > weight + 10.0               # stepped past the threshold

    def test_no_material_raises(self):
        ramp = RampPatch((-0.25, 0.25), (-0.05, 0.25), 0.02, np.radians(15.0), np.pi / 2)
        world = World(ramp)
        world.hold(make_disk())
        with pytest.raises(NoContactWithinRange):
            world.descend_until_contact((0.0, -0.2), 10.0, 0.1)

    def test_starting_inside_terrain_rejected(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        with pytest.raises(ValueError):
            world.descend_until_contact((0.0, 0.0), 10.0, 0.045)

    def test_requires_a_held_object(self):
        world = World(FlatPlane(0.0))
        with pytest.raises(RuntimeError):
            world.descend_until_contact((0.0, 0.0), 10.0, 0.1)


def reference_wrist_wrench(world, tip, contact_point=None, contact_force=None):
    """The wrist wrench of one pose from 1-D cross products."""
    obj, params = world.held, world.params
    wrist = tip + np.array([0.0, 0.0, params.wrist_lift])
    tau = np.zeros(3)
    f = np.zeros(3)
    f_obj = np.array([0.0, 0.0, -obj.mass * params.gravity])
    tau += np.cross(tip + obj.com_offset - wrist, f_obj)
    f += f_obj
    if params.gripper_mass > 0.0:
        f_grip = np.array([0.0, 0.0, -params.gripper_mass * params.gravity])
        tau += np.cross(tip - wrist, f_grip)
        f += f_grip
    if contact_force is not None:
        tau += np.cross(contact_point - wrist, contact_force)
        f += contact_force
    return tau, f


def reference_descent(world, xy, threshold, start_tip_z):
    """The descent as a loop over 0.5 mm steps, one wrist wrench per step.

    Returns the per-step (torque, force) pairs, then the stop contact and tip
    height, or None for both when the bottom passes the floor untouched.
    """
    obj, params = world.held, world.params
    touch, pts, tower = world._touch_profile(xy)
    finite = np.isfinite(touch)
    z_touch = float(np.max(touch[finite])) if finite.any() else NO_SURFACE
    bottom_start = float(start_tip_z) - obj.tip_to_bottom
    pen_target = threshold / params.spring_k
    geom = world._contact_at(touch, pts, tower, 0.0, 0.0) if np.isfinite(z_touch) else None
    steps = []
    n = 0
    while True:
        z_bottom = bottom_start - n * params.descent_step
        pen = z_touch - z_bottom if np.isfinite(z_touch) else 0.0
        force = params.spring_k * pen if pen > 0.0 else 0.0
        tip = np.array([xy[0], xy[1], z_bottom + obj.tip_to_bottom])
        if force > 0.0 and geom is not None:
            steps.append(reference_wrist_wrench(
                world, tip, geom.contact_point, force * geom.surface_normal))
        else:
            steps.append(reference_wrist_wrench(world, tip))
        if force >= threshold:
            contact = world._contact_at(touch, pts, tower, threshold, pen_target)
            return steps, contact, float(z_touch - pen_target + obj.tip_to_bottom)
        if z_bottom <= params.descent_floor and force <= 0.0:
            return steps, None, None
        n += 1


def descent_case(case, gripper_mass, step, x, y, com):
    """A world holding an object over the terrain of one named case."""
    params = SimParams(gripper_mass=gripper_mass, descent_step=step)
    obj = make_disk(com_offset=np.array([com, -0.5 * com, 0.003]))
    if case == "flat":
        # first touch within 2 mm of the descent floor, above or below it
        surfaces = [FlatPlane(params.descent_floor + 0.05 * x)]
    elif case == "puck_edge":
        surfaces = [FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)]
        x = 0.05 + x
    elif case == "ramp":
        surfaces = [FlatPlane(0.0),
                    RampPatch((-0.2, 0.2), (-0.2, 0.2), 0.02, np.radians(15.0), 0.7)]
    elif case == "dome_bottom":
        surfaces = [FlatPlane(0.0), Puck((0.0, 0.0), 0.03, 0.01)]
        obj = make_disk(com_offset=obj.com_offset,
                        bottom=BottomProfile("dome", curvature_radius=0.3))
    else:  # no material anywhere under the footprint
        surfaces = [RampPatch((0.2, 0.25), (0.2, 0.25), 0.0, np.radians(10.0))]
    world = World(surfaces, params=params)
    world.hold(obj)
    return world, (x, y)


class TestBatchedDescent:
    @settings(max_examples=80, deadline=None)
    @given(
        case=st.sampled_from(["flat", "puck_edge", "ramp", "dome_bottom", "no_material"]),
        gripper_mass=st.sampled_from([0.0, 0.35]),
        step=st.sampled_from([5e-4, 3e-4, 1.1e-3]),
        x=st.floats(-0.04, 0.04),
        y=st.floats(-0.04, 0.04),
        com=st.floats(-0.01, 0.01),
        threshold=st.floats(0.5, 40.0),
        clearance=st.floats(1e-4, 0.03),
    )
    def test_matches_the_step_loop(self, case, gripper_mass, step, x, y, com,
                                   threshold, clearance):
        world, xy = descent_case(case, gripper_mass, step, x, y, com)
        touch, _, _ = world._touch_profile(xy)
        finite = np.isfinite(touch)
        top = float(np.max(touch[finite])) if finite.any() else 0.0
        start = top + world.held.tip_to_bottom + clearance

        steps, want_contact, want_z = reference_descent(world, xy, threshold, start)
        got = []
        if want_contact is None:
            with pytest.raises(NoContactWithinRange):
                world.descend_until_contact(xy, threshold, start, on_step=got.append)
        else:
            contact, tip_z = world.descend_until_contact(xy, threshold, start,
                                                         on_step=got.append)
            assert tip_z == want_z
            for name in ("contact_point", "surface_normal", "contact_patch"):
                assert np.array_equal(getattr(contact, name), getattr(want_contact, name))
            assert contact.penetration == want_contact.penetration
            assert contact.normal_force_magnitude == want_contact.normal_force_magnitude
        assert len(got) == len(steps)
        for w, (tau, f) in zip(got, steps):
            assert w.frame is FrameId.WRIST
            assert np.array_equal(w.torque, tau)
            assert np.array_equal(w.force, f)

    def test_true_wrist_wrench_matches_the_reference(self):
        world = World(FlatPlane(0.0), params=SimParams(gripper_mass=0.2))
        world.hold(make_disk(com_offset=np.array([0.004, -0.007, 0.002])))
        contact, tip_z = world.descend_until_contact((0.01, 0.02), 10.0, 0.1)
        tip = np.array([0.01, 0.02, tip_z])
        for c in (None, contact):
            w = world.true_wrist_wrench(tip, c)
            args = () if c is None else (c.contact_point, c.force)
            tau, f = reference_wrist_wrench(world, tip, *args)
            assert np.array_equal(w.torque, tau)
            assert np.array_equal(w.force, f)


class TestWristWrench:
    def test_force_and_torque_balance(self):
        params = SimParams(gripper_mass=0.2)
        world = World(FlatPlane(0.0), params=params)
        obj = make_disk(mass=1.3, com_offset=np.array([0.01, -0.02, 0.005]))
        world.hold(obj)

        tip = np.array([0.0, 0.0, 0.05])
        wrist = tip + np.array([0.0, 0.0, params.wrist_lift])
        c = np.array([0.03, 0.01, 0.04])
        contact = ContactResult(
            contact_point=c,
            surface_normal=np.array([0.0, 0.0, 1.0]),
            penetration=1e-4,
            normal_force_magnitude=10.0,
            contact_patch=c[None, :],
        )
        w = world.true_wrist_wrench(tip, contact)

        g = params.gravity
        f_obj = np.array([0.0, 0.0, -1.3 * g])
        f_grip = np.array([0.0, 0.0, -0.2 * g])
        f_c = np.array([0.0, 0.0, 10.0])
        np.testing.assert_allclose(w.force, f_obj + f_grip + f_c, atol=1e-12)
        tau = (
            np.cross(tip + obj.com_offset - wrist, f_obj)
            + np.cross(tip - wrist, f_grip)
            + np.cross(c - wrist, f_c)
        )
        np.testing.assert_allclose(w.torque, tau, atol=1e-12)
        assert w.frame is FrameId.WRIST

    def test_estimator_recovers_the_simulated_contact(self):
        # whole-chain check with no sensor in the loop: synthesize the hover
        # and press wrenches, difference them in the assumed-COM frame, and
        # the contact solver must return the exact contact-minus-tip offset
        world = World([FlatPlane(0.0), Puck((0.02, 0.01), 0.01, 0.03)])
        world.hold(make_disk())
        g_wr = com_frame_transform(world.params.wrist_lift)

        hover_tip = np.array([0.0, 0.0, 0.1])
        hover = transform_wrench(g_wr, world.true_wrist_wrench(hover_tip, None))

        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        tip = np.array([0.0, 0.0, tip_z])
        press = transform_wrench(g_wr, world.true_wrist_wrench(tip, contact))

        calibrated = Wrench(press.torque - hover.torque, press.force, frame=press.frame)
        est = estimate_contact(calibrated, hover.force, force_floor=1.0)
        np.testing.assert_allclose(est.press_magnitude, 10.0, atol=1e-9)
        np.testing.assert_allclose(est.tangent_offset, [0.02, 0.01, 0.0], atol=1e-9)
        np.testing.assert_allclose(est.normal_dir, [0.0, 0.0, 1.0], atol=1e-12)


class TestStability:
    def press_square_on_flat(self):
        world = World(FlatPlane(0.0))
        world.hold(make_square())
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        return world, contact, tip_z

    def test_patch_support_accepts_interior_com(self):
        world, contact, _ = self.press_square_on_flat()
        assert contact.contact_patch.shape[0] > 3
        assert world.stable_if_released((0.0, 0.0), contact)
        assert world.stable_if_released((0.045, -0.045), contact)

    def test_patch_boundary_com_counts_as_unstable(self):
        world, contact, _ = self.press_square_on_flat()
        assert not world.stable_if_released((0.05, 0.0), contact)
        assert not world.stable_if_released((0.0495, 0.0), contact)
        assert not world.stable_if_released((0.07, 0.0), contact)

    def test_point_support_uses_distance_slack(self):
        world = World([FlatPlane(0.0), SphericalCap((0.013, -0.007), 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        assert contact.contact_patch.shape[0] < 3
        assert world.stable_if_released((0.013, -0.007), contact)
        assert not world.stable_if_released((0.016, -0.007), contact)


class TestRelease:
    def test_settled_release_updates_terrain_and_inventory(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        out = world.release(np.array([0.0, 0.0, tip_z]), contact)
        assert out.settled
        # rests at first touch, not at the pressed-in depth
        np.testing.assert_allclose(out.final_com, [0.0, 0.0, 0.05], atol=1e-12)
        assert out.top_height == pytest.approx(0.06)
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(0.06)
        assert float(world.surface_height(0.2, 0.2)) == pytest.approx(0.0)
        assert world.held is None
        assert len(world.placed) == 1

    def test_stacking_raises_the_next_touch_height(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        world.release(np.array([0.0, 0.0, tip_z]), contact)
        world.hold(make_disk(radius=0.04))
        _, tip_z2 = world.descend_until_contact((0.0, 0.0), 10.0, 0.12)
        assert tip_z2 == pytest.approx(0.06 - 1e-4 + 0.01, abs=1e-9)

    def test_toppling_release_leaves_terrain_alone(self):
        # pressing well off the crown leaves the COM 3 cm from the single
        # contact point, far outside the support slack
        world = World([FlatPlane(0.0), SphericalCap((0.0, 0.0), 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, tip_z = world.descend_until_contact((0.03, 0.0), 10.0, 0.1)
        assert np.linalg.norm(contact.contact_point[:2]) < 2e-3
        before = float(world.surface_height(0.0, 0.0))
        out = world.release(np.array([0.03, 0.0, tip_z]), contact)
        assert not out.settled
        assert out.final_com is None
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(before)
        assert world.placed == []
        assert world.held is None

    def test_undulating_top_raises_reported_top_height(self):
        from ftstack.world import TopProfile

        world = World(FlatPlane(0.0))
        obj = make_square(top=TopProfile("undulating", amplitude=0.001, wavelength=0.02))
        world.hold(obj)
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        out = world.release(np.array([0.0, 0.0, tip_z]), contact)
        assert out.settled
        assert out.top_height == pytest.approx(0.02 + 0.001)
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(0.021)


class TestProfiles:
    def test_dome_bottom_touches_at_its_low_point(self):
        from ftstack.world import BottomProfile

        world = World(FlatPlane(0.0))
        obj = make_disk(bottom=BottomProfile("dome", curvature_radius=0.2))
        world.hold(obj)
        contact, tip_z = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        np.testing.assert_allclose(contact.contact_point[:2], [0.0, 0.0], atol=1e-9)
        assert tip_z == pytest.approx(0.0 - 1e-4 + 0.01, abs=1e-9)

    def test_profile_validation(self):
        from ftstack.world import BottomProfile, TopProfile

        with pytest.raises(ValueError):
            BottomProfile("dome", curvature_radius=0.0)
        with pytest.raises(ValueError):
            TopProfile("undulating", amplitude=0.0)
        with pytest.raises(ValueError):
            HeldObject(mass=0.0, footprint=Footprint("disk", 0.05), thickness=0.02)
