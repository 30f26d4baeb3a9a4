"""Quasi-static world: descent, contact geometry, wrenches, and release."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.spatial import ConvexHull, QhullError

from ftstack.estimation import estimate_contact
from ftstack.spatial import FrameId, RigidTransform, Wrench, transform_wrench
from ftstack.surfaces import NO_SURFACE, FlatPlane, Puck, RampPatch, SphericalCap
from ftstack.world import (
    BottomProfile,
    ContactResult,
    Footprint,
    HeldObject,
    NoContactWithinRange,
    _COLLINEAR_TOL,
    SimParams,
    World,
    _column_extremes,
    _convex_hull,
    _distance_to_point_set,
)
from ftstack.policy import PolicyConfig, StackPlan, run_stack
from ftstack.sensor import ForceTorqueSensor, SensorConfig


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
        assert (disk.kind, disk.size) == ("disk", 0.05)
        assert (square.kind, square.size) == ("square", 0.05)
        with pytest.raises(ValueError):
            Footprint("hexagon", 0.05)
        with pytest.raises(ValueError):
            Footprint("disk", 0.0)
        for size in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=r"^size: must be finite$"):
                Footprint("disk", size)

    def test_sample_offsets_cover_the_exact_boundary(self):
        offs = Footprint("disk", 0.05).sample_offsets(1e-3).T
        norms = np.linalg.norm(offs, axis=1)
        assert np.max(norms) == pytest.approx(0.05)
        offs_sq = Footprint("square", 0.05).sample_offsets(1e-3).T
        assert np.max(np.abs(offs_sq)) == pytest.approx(0.05)


class TestDescent:
    def test_spring_stop_is_closed_form(self):
        # threshold / spring_k of compression below first touch
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
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
        contact, _, _, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        np.testing.assert_allclose(contact.contact_point[:2], apex, atol=1e-12)
        assert contact.contact_point[2] == pytest.approx(0.0486)

    def test_offgrid_apex_found_within_sample_pitch(self):
        apex = (0.0134, -0.0071)
        world = World([FlatPlane(0.0), SphericalCap(apex, 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, _, _, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        err = np.linalg.norm(contact.contact_point[:2] - np.asarray(apex))
        assert err <= world.params.contact_pitch + 1e-12

    def test_step_series_reports_force_buildup(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, _, tips, forces = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        torque, force = world.wrist_wrench_rows(tips, forces, contact)
        assert torque.shape == force.shape == tips.shape == (forces.shape[0], 3)
        fz = force[:, 2]
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
        if want_contact is None:
            with pytest.raises(NoContactWithinRange) as raised:
                world.descend_until_contact(xy, threshold, start)
            contact, tips, forces = None, raised.value.tips, raised.value.forces
        else:
            contact, tip_z, tips, forces = world.descend_until_contact(xy, threshold, start)
            assert tip_z == want_z
            for name in ("contact_point", "surface_normal", "contact_patch"):
                assert np.array_equal(getattr(contact, name), getattr(want_contact, name))
            assert contact.penetration == want_contact.penetration
            assert contact.normal_force_magnitude == want_contact.normal_force_magnitude
            assert contact.touch_height == want_contact.touch_height
        torque, force = world.wrist_wrench_rows(tips, forces, contact)
        assert torque.shape == force.shape == (len(steps), 3)
        assert np.array_equal(torque, np.array([tau for tau, _ in steps]))
        assert np.array_equal(force, np.array([f for _, f in steps]))

    def test_true_wrist_wrench_matches_the_reference(self):
        world = World(FlatPlane(0.0), params=SimParams(gripper_mass=0.2))
        world.hold(make_disk(com_offset=np.array([0.004, -0.007, 0.002])))
        contact, tip_z, _, _ = world.descend_until_contact((0.01, 0.02), 10.0, 0.1)
        tip = np.array([0.01, 0.02, tip_z])
        for c in (None, contact):
            torque, force = world.true_wrist_wrench(tip, c)
            args = () if c is None else (c.contact_point, c.force)
            tau, f = reference_wrist_wrench(world, tip, *args)
            assert np.array_equal(torque, tau)
            assert np.array_equal(force, f)
            assert_row_bits(world, tip, c, torque, force)

    def test_true_wrist_wrench_has_the_row_bits_with_signed_zeros(self):
        # the shift and residual columns are written with repr, so a zero's
        # sign reaches the files: compare bytes, not values
        rng = np.random.default_rng(17)

        def vec():
            return np.array([rng.choice([0.0, -0.0, rng.normal(0.0, 0.05)]) for _ in range(3)])

        for i in range(600):
            world = World(FlatPlane(0.0), params=SimParams(gripper_mass=(0.0, 0.2)[i % 2]))
            world.hold(make_disk(mass=rng.uniform(0.2, 2.0), com_offset=vec()))
            contact = None
            if i % 3:  # absent, at zero force, pressing
                contact = ContactResult(
                    contact_point=vec(), surface_normal=vec(), penetration=0.0,
                    normal_force_magnitude=0.0 if i % 3 == 1 else rng.uniform(0.1, 30.0),
                    contact_patch=np.zeros((1, 3)), touch_height=0.0)
            tip = vec()
            assert_row_bits(world, tip, contact, *world.true_wrist_wrench(tip, contact))


def assert_row_bits(world, tip, contact, torque, force):
    """The torque and force carry the bits of the pose's one-row ``wrist_wrench_rows``."""
    forces = np.array([0.0 if contact is None else contact.normal_force_magnitude])
    rows = world.wrist_wrench_rows(np.asarray(tip, dtype=float)[None], forces, contact)
    assert torque.shape == force.shape == (3,)
    assert torque.tobytes() == rows[0][0].tobytes()
    assert force.tobytes() == rows[1][0].tobytes()


def reference_contact_geometry(world, touch, pts, tower):
    """The tie patch by boolean mask and column_stack, and its centroid."""
    z_touch = np.max(touch)
    tie = touch >= z_touch - world.params.patch_tie_tol
    patch = np.column_stack([pts.T[tie], tower[tie]])
    return patch, (patch.mean(axis=0) if patch.shape[0] > 1 else patch[0])


def stacked_case(rng):
    """A world whose raster holds a few stamped squares and disks, some rippled."""
    world = World(FlatPlane(0.0))
    for k in range(4):
        center = rng.uniform(-0.02, 0.02, 2)
        top, amp = 0.006 * (k + 1), rng.choice([0.0, 5e-4])

        def top_fn(dx, dy, top=top, amp=amp):
            return top + amp * np.cos(200.0 * dx) * np.cos(200.0 * dy)

        if k % 2:
            world.overlay.stamp_disk(center, rng.uniform(0.02, 0.05), top_fn)
        else:
            world.overlay.stamp_square(center, rng.uniform(0.02, 0.05), top_fn)
    world.hold(make_square(half=0.03) if rng.random() < 0.5 else make_disk(radius=0.03))
    return world, tuple(rng.uniform(-0.04, 0.04, 2))


class TestContactPatch:
    @pytest.mark.parametrize("case", ["flat", "puck_edge", "ramp", "dome_bottom", "stacked"])
    def test_patch_and_contact_point_match_the_column_stack(self, case):
        rng = np.random.default_rng(sum(map(ord, case)))
        for _ in range(15):
            if case == "stacked":
                world, xy = stacked_case(rng)
            else:
                x, y = rng.uniform(-0.04, 0.04, 2)
                world, xy = descent_case(case, 0.0, 5e-4, x, y, rng.uniform(-0.01, 0.01))
            touch, pts, tower = world._touch_profile(xy)
            assert np.isfinite(touch).any()
            want_patch, want_point = reference_contact_geometry(world, touch, pts, tower)
            contact = world._contact_at(touch, pts, tower, 10.0, 1e-4)
            assert contact.contact_patch.flags.c_contiguous
            assert np.array_equal(contact.contact_patch, want_patch)
            assert np.array_equal(contact.contact_point, want_point)
            assert contact.touch_height == float(np.max(touch))
            assert np.array_equal(contact.surface_normal,
                                  world.surface_normal(want_point[0], want_point[1]))

    def test_contact_point_is_the_row_mean_of_the_patch(self):
        # the reference is the mean over a C-ordered (P, 3) patch filled column
        # by column, a sequential row sum; an F-ordered copy would sum
        # pairwise and differ in the last place
        world = World(FlatPlane(0.0))
        rng = np.random.default_rng(31)
        sizes = np.concatenate([rng.integers(1, 3000, 1995), [1, 2, 10201, 10201, 20000]])
        for k in sizes:
            pts = rng.uniform(-0.3, 0.3, (2, k))
            tower = 0.02 - rng.uniform(0.0, 2e-6, k) * rng.integers(0, 2, k)
            contact = world._contact_at(tower, pts, tower, 10.0, 1e-4)
            tie = np.flatnonzero(tower >= np.max(tower) - world.params.patch_tie_tol)
            patch = np.empty((tie.size, 3))
            patch[:, 0], patch[:, 1], patch[:, 2] = pts[0][tie], pts[1][tie], tower[tie]
            want = patch.mean(axis=0) if tie.size > 1 else patch[0]
            assert np.array_equal(contact.contact_patch, patch)
            assert np.array_equal(contact.contact_point, want)

    @settings(max_examples=60, deadline=None)
    @given(
        kind=st.sampled_from(["disk", "square"]),
        size=st.sampled_from([0.01, 0.0237, 0.05]),
        pitch=st.sampled_from([1e-3, 7e-4, 2e-3]),
        x=st.floats(-0.25, 0.25),
        y=st.floats(-0.25, 0.25),
        com_x=st.floats(-0.02, 0.02),
        com_y=st.floats(-0.02, 0.02),
    )
    def test_patch_rows_come_in_xy_order(self, kind, size, pitch, x, y, com_x, com_y):
        world = World(FlatPlane(0.0), params=SimParams(contact_pitch=pitch))
        world.hold(HeldObject(mass=1.0, footprint=Footprint(kind, size), thickness=0.006,
                              com_offset=np.array([com_x, com_y, 0.0])))
        touch, pts, tower = world._touch_profile((x, y))
        patch = world._contact_at(touch, pts, tower, 10.0, 1e-4).contact_patch
        assert patch.shape[0] == touch.size   # flat ground: every sample ties
        order = np.lexsort((patch[:, 1], patch[:, 0]))
        assert np.array_equal(order, np.arange(patch.shape[0]))

        def no_sort(*args, **kwargs):
            raise AssertionError("rows in (x, y) order were sorted again")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np, "lexsort", no_sort)
            extremes = _column_extremes(patch[:, :2])
        assert np.array_equal(extremes, reference_column_extremes(patch[:, :2]))


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
            touch_height=float(c[2]),
        )
        torque, force = world.true_wrist_wrench(tip, contact)

        g = params.gravity
        f_obj = np.array([0.0, 0.0, -1.3 * g])
        f_grip = np.array([0.0, 0.0, -0.2 * g])
        f_c = np.array([0.0, 0.0, 10.0])
        np.testing.assert_allclose(force, f_obj + f_grip + f_c, atol=1e-12)
        tau = (
            np.cross(tip + obj.com_offset - wrist, f_obj)
            + np.cross(tip - wrist, f_grip)
            + np.cross(c - wrist, f_c)
        )
        np.testing.assert_allclose(torque, tau, atol=1e-12)
        # the wrist-frame row that wrist_wrench_rows gives the pose
        rows = world.wrist_wrench_rows(tip[None, :], np.array([10.0]), contact)
        assert np.array_equal(torque, rows[0][0]) and np.array_equal(force, rows[1][0])

    def test_estimator_recovers_the_simulated_contact(self):
        # whole-chain check with no sensor in the loop: synthesize the hover
        # and press wrenches, difference them in the assumed-COM frame, and
        # the contact solver must return the exact contact-minus-tip offset
        world = World([FlatPlane(0.0), Puck((0.02, 0.01), 0.01, 0.03)])
        world.hold(make_disk())
        g_wr = RigidTransform.from_translation((0.0, 0.0, -world.params.wrist_lift),
                                               parent=FrameId.WRIST, child=FrameId.ROCK_COM)

        hover_tip = np.array([0.0, 0.0, 0.1])
        hover = transform_wrench(
            g_wr, Wrench(*world.true_wrist_wrench(hover_tip, None), frame=FrameId.WRIST))

        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        tip = np.array([0.0, 0.0, tip_z])
        press = transform_wrench(
            g_wr, Wrench(*world.true_wrist_wrench(tip, contact), frame=FrameId.WRIST))

        est = estimate_contact(press.torque - hover.torque, press.force, hover.force,
                               force_floor=1.0)
        np.testing.assert_allclose(est.press_magnitude, 10.0, atol=1e-9)
        np.testing.assert_allclose(est.tangent_offset, [0.02, 0.01, 0.0], atol=1e-9)
        np.testing.assert_allclose(est.normal_dir, [0.0, 0.0, 1.0], atol=1e-12)


class TestStability:
    def press_square_on_flat(self):
        world = World(FlatPlane(0.0))
        world.hold(make_square())
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
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
        contact, _, _, _ = world.descend_until_contact((0.01, -0.01), 10.0, 0.1)
        assert contact.contact_patch.shape[0] < 3
        assert world.stable_if_released((0.013, -0.007), contact)
        assert not world.stable_if_released((0.016, -0.007), contact)


def hull_margin(verts, com):
    """stable_if_released's margin: least inward distance of com to a hull edge."""
    edges = np.roll(verts, -1, axis=0) - verts
    rel = com[None, :] - verts
    inward = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
    return np.min(inward / np.linalg.norm(edges, axis=1))


def random_tie_patch(rng):
    """A disk or square footprint's samples at a random center, maybe cut."""
    kind = ("disk", "square")[rng.integers(2)]
    size = (0.01, 0.03, 0.05)[rng.integers(3)]
    pts = Footprint(kind, size).sample_offsets(1e-3).T + rng.uniform(-0.1, 0.1, 2)
    center = pts.mean(axis=0)
    cut = rng.integers(3)
    if cut == 1:  # half-plane through a point near the center
        normal = rng.normal(size=2)
        pts = pts[(pts - center - rng.uniform(-0.5, 0.5) * size) @ normal >= 0.0]
    elif cut == 2:  # disk around a point of the footprint
        keep_center = center + rng.uniform(-size, size, 2)
        radius = rng.uniform(0.3, 1.5) * size
        pts = pts[np.sum((pts - keep_center) ** 2, axis=1) <= radius * radius]
    return pts


class TestColumnExtremesHull:
    """The support hull built on column extremes equals the full patch's hull."""

    def test_vertices_and_margin_match_the_full_patch(self):
        rng = np.random.default_rng(7)
        world = World(FlatPlane(0.0))
        margin = world.params.stability_margin
        checked = 0
        while checked < 60:
            pts = random_tie_patch(rng)
            if pts.shape[0] < 3:
                continue
            try:
                full = ConvexHull(pts)
            except QhullError:
                continue
            extremes = _column_extremes(pts)
            reduced = ConvexHull(extremes)
            full_verts = pts[full.vertices]
            reduced_verts = extremes[reduced.vertices]
            assert {tuple(v) for v in full_verts} == {tuple(v) for v in reduced_verts}
            contact = ContactResult(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.0, 0.0,
                                    np.column_stack([pts, np.zeros(len(pts))]), 0.0)
            for com in pts[rng.integers(pts.shape[0], size=4)] + rng.normal(0, 0.01, (4, 2)):
                expected = hull_margin(full_verts, com)
                assert hull_margin(reduced_verts, com) == expected
                assert world.stable_if_released(com, contact) == (expected >= margin)
            checked += 1

    def test_extremes_are_the_lowest_and_highest_point_of_each_column(self):
        pts = np.array([[0.0, 0.0], [0.0, 2.0], [0.0, 1.0], [1.0, 5.0], [2.0, 1.0], [2.0, -1.0]])
        assert _column_extremes(pts).tolist() == [
            [0.0, 0.0], [0.0, 2.0], [1.0, 5.0], [2.0, -1.0], [2.0, 1.0]]


def reference_column_extremes(pts):
    """Column extremes with the sort always run."""
    order = np.lexsort((pts[:, 1], pts[:, 0]))
    xs = pts[order, 0]
    new_column = xs[1:] != xs[:-1]
    keep = np.concatenate([[True], new_column]) | np.concatenate([new_column, [True]])
    return pts[order[keep]]


class TestColumnExtremesOrder:
    def test_unsorted_rows_are_sorted_first(self, monkeypatch):
        rng = np.random.default_rng(11)
        sorts = []
        real_lexsort = np.lexsort

        def counted(*args, **kwargs):
            sorts.append(1)
            return real_lexsort(*args, **kwargs)

        for _ in range(30):
            pts = random_tie_patch(rng)
            shuffled = pts[rng.permutation(pts.shape[0])]
            want = reference_column_extremes(pts)
            assert np.array_equal(reference_column_extremes(shuffled), want)
            monkeypatch.setattr(np, "lexsort", counted)
            sorts.clear()
            assert np.array_equal(_column_extremes(pts), want)
            assert not sorts
            assert np.array_equal(_column_extremes(shuffled), want)
            assert sorts == ([] if np.array_equal(shuffled, pts) else [1])
            monkeypatch.undo()


def qhull_vertices(pts):
    """The oracle: qhull's counter-clockwise hull vertices, or None where it
    calls the set flat."""
    try:
        return pts[ConvexHull(pts).vertices]
    except QhullError:
        return None


def grid_patch(rng, kind, cut):
    """A footprint's samples at a random centre on a 2 mm pitch, maybe cut
    by a half-plane near its middle."""
    size = rng.uniform(0.004, 0.03)
    pts = Footprint(kind, size).sample_offsets(1e-3).T + 2e-3 * rng.integers(-100, 101, 2)
    if cut:
        normal = rng.normal(size=2)
        pts = pts[(pts - pts.mean(axis=0) - rng.uniform(-0.5, 0.5) * size) @ normal >= 0.0]
    return pts


def random_cloud(rng):
    return rng.uniform(-0.1, 0.1, (rng.integers(3, 60), 2))


def collinear_set(rng):
    """Exactly collinear rows: on one row, one column or the line y = x."""
    n = rng.integers(3, 30)
    t = rng.uniform(-0.1, 0.1, n)
    c = np.full(n, rng.uniform(-0.1, 0.1))
    return (np.column_stack([t, c]), np.column_stack([c, t]), np.column_stack([t, t]))[
        rng.integers(3)]


def float_line(rng):
    """Points of a random segment, off its line by roundoff only."""
    a, b = rng.uniform(-0.2, 0.2, (2, 2))
    return a + rng.uniform(0.0, 1.0, (rng.integers(3, 30), 1)) * (b - a)


def with_duplicates(rng):
    """A cloud, a line or a cut patch with rows repeated, or one point repeated."""
    pts = (random_cloud, float_line, lambda r: grid_patch(r, "square", True))[
        rng.integers(3)](rng)
    if rng.random() < 0.2:
        return np.repeat(pts[:1], 4, axis=0)
    return np.concatenate([pts, pts[rng.integers(len(pts), size=len(pts) // 2 + 1)]])


HULL_CASES = {
    "disk": lambda rng: grid_patch(rng, "disk", False),
    "cut_disk": lambda rng: grid_patch(rng, "disk", True),
    "square": lambda rng: grid_patch(rng, "square", False),
    "cut_square": lambda rng: grid_patch(rng, "square", True),
    "cloud": random_cloud,
    "collinear": collinear_set,
    "near_collinear": float_line,
    "duplicates": with_duplicates,
}


def loop_left_turn_chain(rows) -> list:
    """Reference: the chain one row at a time, popping each kept row that
    fails against the row before it and the incoming row."""
    out = []
    for bx, by in rows.tolist():
        while len(out) >= 2:
            (ox, oy), (ax, ay) = out[-2], out[-1]
            dx, dy = bx - ox, by - oy
            if (ax - ox) * dy - (ay - oy) * dx > _COLLINEAR_TOL * np.sqrt(dx * dx + dy * dy):
                break
            out.pop()
        out.append((bx, by))
    return out


def loop_convex_hull(extremes):
    """Reference: the two loop chains, joined where a one-row column ends one
    and starts the other."""
    new_column = extremes[1:, 0] != extremes[:-1, 0]
    lower = loop_left_turn_chain(extremes[np.concatenate([[True], new_column])])
    upper = loop_left_turn_chain(extremes[np.concatenate([new_column, [True]])][::-1])
    if lower[-1] == upper[0]:
        del upper[0]
    if upper and upper[-1] == lower[0]:
        del upper[-1]
    hull = lower + upper
    return np.array(hull) if len(hull) >= 3 else None


class TestConvexHull:
    """The monotone chain gives qhull's vertices, flat verdicts and releases."""

    @pytest.mark.parametrize("case", list(HULL_CASES))
    def test_matches_qhull(self, case):
        rng = np.random.default_rng(list(HULL_CASES).index(case))
        world = World(FlatPlane(0.0))
        margin = world.params.stability_margin
        flat = 0
        for _ in range(200):
            pts = HULL_CASES[case](rng)
            if pts.shape[0] < 3:
                continue
            extremes = _column_extremes(pts)
            expected = qhull_vertices(extremes)
            verts = _convex_hull(extremes)
            flat += expected is None
            assert (verts is None) == (expected is None)
            if verts is not None:
                # coordinates, not indices: duplicate rows may swap
                assert {tuple(v) for v in verts} == {tuple(v) for v in expected}
                assert len(verts) == len(expected)
            contact = ContactResult(np.zeros(3), np.array([0.0, 0.0, 1.0]), 0.0, 0.0,
                                    np.column_stack([pts, np.zeros(len(pts))]), 0.0)
            for com in pts[rng.integers(len(pts), size=4)] + rng.normal(0.0, 2e-3, (4, 2)):
                if expected is None:
                    want = _distance_to_point_set(com, pts) <= margin
                else:
                    # the same margin bits, so the chain runs counter-clockwise
                    assert hull_margin(verts, com) == hull_margin(expected, com)
                    want = hull_margin(expected, com) >= margin
                assert world.stable_if_released(com, contact) == want
        if case in ("collinear", "near_collinear"):
            assert flat == 200
        elif case != "duplicates":
            assert flat == 0
        else:
            assert 0 < flat < 200

    @pytest.mark.parametrize("case", list(HULL_CASES))
    def test_matches_the_loop_chain_in_order(self, case):
        # the array passes drop rows in another order than the loop's pops,
        # yet keep the same vertices, in the same order, with the same bits
        rng = np.random.default_rng(100 + list(HULL_CASES).index(case))
        for _ in range(300):
            pts = HULL_CASES[case](rng)
            if pts.shape[0] < 3:
                continue
            extremes = _column_extremes(pts)
            want, got = loop_convex_hull(extremes), _convex_hull(extremes)
            assert (got is None) == (want is None)
            if got is not None:
                assert got.shape == want.shape and np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))

    def test_roundoff_off_a_straight_edge_is_no_vertex(self):
        # three samples of a cut square's edge, collinear but for roundoff:
        # the middle one is about 4e-18 m below the chord, and qhull merges it
        o, v, b = [-0.10700000000000001, -0.169], [-0.092, -0.164], \
            [-0.08900000000000001, -0.163]
        (ox, oy), (vx, vy), (bx, by) = o, v, b
        assert (vx - ox) * (by - oy) - (vy - oy) * (bx - ox) > 0.0
        pts = np.array([o, [-0.098, -0.15], v, b])
        assert sorted(qhull_vertices(pts).tolist()) == [o, [-0.098, -0.15], b]
        assert _convex_hull(pts).tolist() == [o, b, [-0.098, -0.15]]


def _distance_to_segment(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))


def loop_distance_to_point_set(p, pts) -> float:
    """Reference: the least distance to a segment, one pair at a time."""
    if pts.shape[0] == 1:
        return float(np.linalg.norm(p - pts[0]))
    best = np.inf
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            best = min(best, _distance_to_segment(p, pts[i], pts[j]))
    return float(best)


class TestCollinearSupport:
    def test_matches_the_pairwise_loop(self):
        rng = np.random.default_rng(11)
        margin = SimParams().stability_margin
        for _ in range(300):
            n = int(rng.integers(1, 12))
            origin = rng.uniform(-0.1, 0.1, 2)
            angle = (0.0, np.pi / 2, rng.uniform(0.0, 2.0 * np.pi))[rng.integers(3)]
            direction = np.array([np.cos(angle), np.sin(angle)])
            s = rng.uniform(-0.05, 0.05, n)
            s[rng.random(n) < 0.3] = s[0]  # duplicate points
            pts = origin + s[:, None] * direction
            side = np.array([-direction[1], direction[0]])
            along = rng.uniform(-0.07, 0.07)
            # off the line at random, or exactly one margin off its direction
            offset = (rng.uniform(-0.01, 0.01), margin, -margin)[rng.integers(3)]
            com = origin + along * direction + offset * side
            assert _distance_to_point_set(com, pts) == loop_distance_to_point_set(com, pts)

    def test_square_on_a_ramp_rests_on_one_edge(self):
        world = World(RampPatch((-0.2, 0.2), (-0.2, 0.2), 0.02, np.radians(15.0), np.pi / 2))
        world.hold(make_square())
        contact, _, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.2)
        pts = contact.contact_patch[:, :2]
        assert pts.shape[0] == 101 and np.all(pts[:, 1] == pts[0, 1])
        margin = world.params.stability_margin
        for com in ([0.0, 0.05], [0.0, 0.0505], [0.0, 0.0511], [0.0515, 0.05], [0.0, 0.0]):
            com = np.array(com)
            expected = loop_distance_to_point_set(com, pts) <= margin
            assert world.stable_if_released(com, contact) == expected


class TestRelease:
    def test_settled_release_updates_terrain_and_inventory(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        out = world.release(np.array([0.0, 0.0, tip_z]), contact)
        assert out.settled
        # rests at first touch, not at the pressed-in depth
        np.testing.assert_allclose(out.final_com, [0.0, 0.0, 0.05], atol=1e-12)
        assert out.top_height == pytest.approx(0.06)
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(0.06)
        assert float(world.surface_height(0.2, 0.2)) == pytest.approx(0.0)
        assert world.held is None

    def test_stacking_raises_the_next_touch_height(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk())
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        world.release(np.array([0.0, 0.0, tip_z]), contact)
        world.hold(make_disk(radius=0.04))
        _, tip_z2, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.12)
        assert tip_z2 == pytest.approx(0.06 - 1e-4 + 0.01, abs=1e-9)

    def test_toppling_release_leaves_terrain_alone(self):
        # pressing well off the crown leaves the COM 3 cm from the single
        # contact point, far outside the support slack
        world = World([FlatPlane(0.0), SphericalCap((0.0, 0.0), 0.05, 0.15, 0.0486)])
        world.hold(make_disk())
        contact, tip_z, _, _ = world.descend_until_contact((0.03, 0.0), 10.0, 0.1)
        assert np.linalg.norm(contact.contact_point[:2]) < 2e-3
        before = float(world.surface_height(0.0, 0.0))
        out = world.release(np.array([0.03, 0.0, tip_z]), contact)
        assert not out.settled
        assert out.final_com is None
        assert float(world.surface_height(0.0, 0.0)) == pytest.approx(before)
        assert world.held is None

    def test_undulating_top_raises_reported_top_height(self):
        from ftstack.world import TopProfile

        world = World(FlatPlane(0.0))
        obj = make_square(top=TopProfile("undulating", amplitude=0.001, wavelength=0.02))
        world.hold(obj)
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
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
        contact, tip_z, _, _ = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
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
        # non-finite and negative values, each refused by an error that names its field
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match=r"^curvature_radius: must be finite$"):
            BottomProfile("dome", nan)
        with pytest.raises(ValueError, match=r"^amplitude: must be finite$"):
            TopProfile("undulating", nan, 0.02)
        for key, value, error in [
            ("mass", nan, r"mass: must be finite"),
            ("thickness", inf, r"thickness: must be finite"),
            ("com_offset", (0.0, nan, 0.0), r"com_offset\[1\]: must be finite"),
            ("tip_to_bottom", -1.0, r"tip_to_bottom: must be > 0\.0, got -1\.0"),
        ]:
            kw = {"mass": 1.0, "footprint": Footprint("disk", 0.05), "thickness": 0.02, key: value}
            with pytest.raises(ValueError, match=rf"^{error}$"):
                HeldObject(**kw)


FAR_XY = (0.15, -0.15)  # a calibration site, well away from any stamp at the origin


def count_contact_at(monkeypatch) -> list:
    calls = []
    real = World._contact_at

    def counted(self, *args):
        calls.append(args)
        return real(self, *args)

    monkeypatch.setattr(World, "_contact_at", counted)
    return calls


def descent_bits(result) -> tuple:
    """Every value a descent returns, as bits."""
    contact, tip_z, tips, forces = result
    return tuple(np.asarray(v, dtype=float).tobytes() for v in (
        contact.contact_point, contact.surface_normal, contact.penetration,
        contact.normal_force_magnitude, contact.contact_patch, contact.touch_height,
        tip_z, tips, forces))


class TestRememberedDescents:
    def test_a_repeat_returns_the_same_read_only_objects(self, monkeypatch):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(make_disk(com_offset=np.array([0.004, -0.002, 0.001])))
        calls = count_contact_at(monkeypatch)
        first = world.descend_until_contact(FAR_XY, 10.0, 0.1)
        again = world.descend_until_contact(FAR_XY, 10.0, 0.1)
        assert len(calls) == 1
        assert all(a is b for a, b in zip(first, again))
        contact, _, tips, forces = first
        for arr in (contact.contact_point, contact.surface_normal, contact.contact_patch,
                    tips, forces):
            assert not arr.flags.writeable
        # the key is the object's geometry, not the object
        world.hold(make_disk(com_offset=np.array([0.004, -0.002, 0.001])))
        assert world.descend_until_contact(list(FAR_XY), 10.0, 0.1)[0] is contact
        assert len(calls) == 1

    def test_a_stamp_that_reaches_the_footprint_forces_a_fresh_descent(self, monkeypatch):
        world = World(FlatPlane(0.0))
        world.hold(make_square(thickness=0.006))
        far = world.descend_until_contact(FAR_XY, 10.0, 0.1)
        site = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        calls = count_contact_at(monkeypatch)
        assert world.release(np.array([0.0, 0.0, site[1]]), site[0]).settled
        world.hold(make_square(thickness=0.006))
        again = world.descend_until_contact((0.0, 0.0), 10.0, 0.1)
        assert len(calls) == 1 and again[0] is not site[0]
        assert again[0].touch_height == pytest.approx(0.006)

        fresh = World(FlatPlane(0.0))
        fresh.hold(make_square(thickness=0.006))
        fresh.release(np.array([0.0, 0.0, site[1]]), site[0])
        fresh.hold(make_square(thickness=0.006))
        assert descent_bits(fresh.descend_until_contact((0.0, 0.0), 10.0, 0.1)) == (
            descent_bits(again))
        # the stamp cannot reach the calibration site, which is still remembered
        assert world.descend_until_contact(FAR_XY, 10.0, 0.1)[0] is far[0]
        assert len(calls) == 2

    @pytest.mark.parametrize("change", [
        "com_offset", "footprint_kind", "footprint_size", "bottom", "tip_to_bottom",
        "threshold", "start_tip_z", "negative_zero_x",
    ])
    def test_each_input_of_the_descent_is_keyed(self, change, monkeypatch):
        base = dict(obj=make_disk(com_offset=np.array([0.002, 0.0, 0.0])),
                    xy=(0.0, 0.15), threshold=10.0, start=0.1)
        other = dict(base)
        other.update({
            "com_offset": {"obj": make_disk(com_offset=np.array([0.002, 0.0, 1e-3]))},
            "footprint_kind": {"obj": make_square(com_offset=np.array([0.002, 0.0, 0.0]))},
            "footprint_size": {"obj": make_disk(radius=0.04,
                                                com_offset=np.array([0.002, 0.0, 0.0]))},
            "bottom": {"obj": make_disk(com_offset=np.array([0.002, 0.0, 0.0]),
                                        bottom=BottomProfile("dome", curvature_radius=0.3))},
            "tip_to_bottom": {"obj": make_disk(com_offset=np.array([0.002, 0.0, 0.0]),
                                               tip_to_bottom=0.005)},
            "threshold": {"threshold": 12.0},
            "start_tip_z": {"start": 0.11},
            "negative_zero_x": {"xy": (-0.0, 0.15)},
        }[change])
        world = World(FlatPlane(0.0))
        calls = count_contact_at(monkeypatch)
        results = []
        for case in (base, other):
            world.hold(case["obj"])
            results.append(world.descend_until_contact(case["xy"], case["threshold"],
                                                       case["start"]))
        assert len(calls) == 2 and results[1][0] is not results[0][0]
        if change == "negative_zero_x":
            assert np.signbit(results[1][2][:, 0]).all()
            assert not np.signbit(results[0][2][:, 0]).any()

    def test_a_third_descent_evicts_the_least_recently_used(self, monkeypatch):
        world = World(FlatPlane(0.0))
        world.hold(make_disk())
        a, b, c = (0.1, 0.1), (0.1, -0.1), (-0.1, 0.1)
        calls = count_contact_at(monkeypatch)
        for xy in (a, b, a, c):  # a, asked for again, outlives b
            world.descend_until_contact(xy, 10.0, 0.1)
        assert len(calls) == 3
        world.descend_until_contact(c, 10.0, 0.1)
        world.descend_until_contact(a, 10.0, 0.1)
        assert len(calls) == 3
        world.descend_until_contact(b, 10.0, 0.1)
        assert len(calls) == 4

    def test_failed_descents_are_not_remembered(self):
        world = World(Puck((0.0, 0.0), 0.05, 0.04))
        world.hold(make_disk(radius=0.02))
        raised = []
        for _ in range(2):
            with pytest.raises(NoContactWithinRange) as info:
                world.descend_until_contact((0.2, 0.2), 10.0, 0.1)
            raised.append(info.value)
        assert raised[0].tips is not raised[1].tips
        with pytest.raises(ValueError):
            world.descend_until_contact((0.0, 0.0), 10.0, 0.04)  # bottom starts inside the puck
        assert world._descents == []

    def test_a_stack_repeats_its_calibration_press_exactly(self, monkeypatch):
        descents = []
        real_descend = World.descend_until_contact

        def counted(self, *args, **kwargs):
            descents.append(args)
            return real_descend(self, *args, **kwargs)

        monkeypatch.setattr(World, "descend_until_contact", counted)
        contacts = count_contact_at(monkeypatch)

        def stack(remember: bool):
            world = World(FlatPlane(0.0))
            if not remember:
                world._descent_key = lambda *args: None
            objects = [make_square(half=0.05, thickness=0.006) for _ in range(3)]
            plan = StackPlan(target_xy=(0.0, 0.0),
                             perturbations=np.array([[0.004, -0.003], [-0.006, 0.005],
                                                     [0.003, 0.004]]),
                             calibration_xy=FAR_XY, hover_tip_z=0.1)
            sensor = ForceTorqueSensor(SensorConfig(), np.random.default_rng(9))
            return run_stack(world, sensor, objects, plan, PolicyConfig())

        remembered = stack(True)
        n_descents, n_contacts = len(descents), len(contacts)
        assert remembered.placed == 3
        # the second and third calibration presses repeat the first
        assert n_contacts <= n_descents - 2
        recomputed = stack(False)
        assert len(descents) == 2 * n_descents
        assert len(contacts) - n_contacts == n_descents

        def bits(result):
            return [(t.outcome, [(r.index, r.released, r.degenerate,
                                  np.array([*r.press_xy, r.tip_z, r.residual_norm,
                                            r.press_force, *r.shift]).tobytes())
                                 for r in t.iterations],
                     [s.tobytes() for s in t.descent_series],
                     np.asarray(t.final_com, dtype=float).tobytes(), t.top_height)
                    for t in result.traces]

        assert bits(remembered) == bits(recomputed)
