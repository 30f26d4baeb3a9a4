"""Wrench/transform algebra checks against independent kinematic oracles.

The twist transform used here is derived inside the test file from plain
point-velocity kinematics, never from the library, so the power-invariance
checks pin the wrench convention externally.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftstack.spatial import (
    FrameId,
    FrameMismatch,
    RigidTransform,
    Wrench,
    compose,
    invert,
    tangent_projection,
    transform_twist,
    transform_wrench,
    transform_wrenches,
    wrench_transform_matrix,
)


def random_rotation(rng: np.random.Generator) -> np.ndarray:
    # QR of a Gaussian matrix, sign-fixed to det +1
    q, r = np.linalg.qr(rng.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    if np.linalg.det(q) < 0:
        q[:, 0] *= -1.0
    return q


def random_transform(rng: np.random.Generator) -> RigidTransform:
    return RigidTransform(random_rotation(rng), rng.normal(scale=0.5, size=3))


def oracle_twist(g: RigidTransform, omega_a, v_a):
    """Independent twist transform from point-velocity kinematics.

    A point fixed at the child origin has parent-frame velocity
    v_a + omega_a x t; re-expressing both vectors in child coordinates
    gives the child-frame twist.
    """
    omega_a = np.asarray(omega_a, dtype=float)
    v_a = np.asarray(v_a, dtype=float)
    omega_b = g.rotation.T @ omega_a
    v_b = g.rotation.T @ (v_a + np.cross(omega_a, g.translation))
    return omega_b, v_b


class TestFrozenExamples:
    def test_pure_translation_moment_arm(self):
        # hand-derived: t = (0, 1, 0), f = 10 N up through the old origin
        # appears in the shifted frame with a -10 N*m moment about x
        g = RigidTransform(np.eye(3), np.array([0.0, 1.0, 0.0]))
        w = transform_wrench(g, Wrench((0.0, 0.0, 0.0), (0.0, 0.0, 10.0)))
        np.testing.assert_allclose(w.torque, [-10.0, 0.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(w.force, [0.0, 0.0, 10.0], atol=1e-15)

    def test_rotation_and_offset(self):
        # hand cross product: t x f = (-0.1, 0.55, 0.2); rotating the
        # difference by R^T (z-quarter-turn) swaps and negates components
        rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        g = RigidTransform(rot, np.array([0.1, 0.0, 0.05]))
        w = transform_wrench(g, Wrench((0.2, -0.1, 0.3), (1.0, 2.0, -5.0)))
        np.testing.assert_allclose(w.torque, [-0.65, -0.3, 0.1], atol=1e-12)
        np.testing.assert_allclose(w.force, [2.0, -1.0, -5.0], atol=1e-12)


class TestPowerInvariance:
    def test_thousand_random_pairs(self):
        # instantaneous power is frame-independent; 1e-12 per the contract
        rng = np.random.default_rng(3)
        for _ in range(1000):
            g = random_transform(rng)
            tau = rng.normal(size=3)
            f = rng.normal(size=3)
            omega = rng.normal(size=3)
            v = rng.normal(size=3)
            w_b = transform_wrench(g, Wrench(tau, f))
            ob, vb = oracle_twist(g, omega, v)
            p_a = tau @ omega + f @ v
            p_b = w_b.torque @ ob + w_b.force @ vb
            assert abs(p_a - p_b) < 1e-12 * max(1.0, abs(p_a))

    def test_library_twist_matches_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            g = random_transform(rng)
            omega = rng.normal(size=3)
            v = rng.normal(size=3)
            ob, vb = transform_twist(g, omega, v)
            ob2, vb2 = oracle_twist(g, omega, v)
            np.testing.assert_allclose(ob, ob2, atol=1e-13)
            np.testing.assert_allclose(vb, vb2, atol=1e-13)


class TestComposition:
    def test_composed_equals_sequential(self):
        rng = np.random.default_rng(5)
        for _ in range(1000):
            g_ab = random_transform(rng)
            g_bc = random_transform(rng)
            w_a = Wrench(rng.normal(size=3), rng.normal(size=3))
            through = transform_wrench(compose(g_ab, g_bc), w_a)
            stepwise = transform_wrench(g_bc, transform_wrench(g_ab, w_a))
            np.testing.assert_allclose(through.torque, stepwise.torque, atol=1e-12)
            np.testing.assert_allclose(through.force, stepwise.force, atol=1e-12)

    def test_inverse_round_trip(self):
        rng = np.random.default_rng(6)
        for _ in range(200):
            g = random_transform(rng)
            w = Wrench(rng.normal(size=3), rng.normal(size=3))
            back = transform_wrench(invert(g), transform_wrench(g, w))
            np.testing.assert_allclose(back.torque, w.torque, atol=1e-12)
            np.testing.assert_allclose(back.force, w.force, atol=1e-12)

    def test_point_mapping_convention(self):
        # g maps child coordinates into the parent: p_a = R p_b + t
        rng = np.random.default_rng(7)
        g = random_transform(rng)
        p_b = rng.normal(size=3)
        np.testing.assert_allclose(
            g.point_to_parent(p_b), g.rotation @ p_b + g.translation, atol=1e-14
        )


class TestMatrixForm:
    def test_matrix_matches_direct(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            g = random_transform(rng)
            tau = rng.normal(size=3)
            f = rng.normal(size=3)
            direct = transform_wrench(g, Wrench(tau, f))
            stacked = wrench_transform_matrix(g) @ np.concatenate([tau, f])
            np.testing.assert_allclose(stacked[:3], direct.torque, atol=1e-12)
            np.testing.assert_allclose(stacked[3:], direct.force, atol=1e-12)


class TestFrameBookkeeping:
    def test_mismatched_frames_rejected(self):
        g = RigidTransform(np.eye(3), np.zeros(3),
                           parent=FrameId.WRIST, child=FrameId.ROCK_COM)
        w = Wrench(np.zeros(3), np.zeros(3), frame=FrameId.BASE)
        with pytest.raises(FrameMismatch):
            transform_wrench(g, w)

    def test_frame_propagates(self):
        g = RigidTransform(np.eye(3), np.zeros(3),
                           parent=FrameId.WRIST, child=FrameId.ROCK_COM)
        w = Wrench(np.zeros(3), np.ones(3), frame=FrameId.WRIST)
        assert transform_wrench(g, w).frame is FrameId.ROCK_COM

    def test_bad_rotation_rejected(self):
        with pytest.raises(ValueError):
            RigidTransform(np.eye(3) * 2.0, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-1, 1), min_size=3, max_size=3))
def test_tangent_projection_is_orthogonal(v, n):
    n = np.asarray(n)
    if np.linalg.norm(n) < 1e-3:
        return
    n_hat = n / np.linalg.norm(n)
    proj = tangent_projection(v, n_hat)
    assert abs(proj @ n_hat) < 1e-9
    # projecting twice changes nothing
    np.testing.assert_allclose(tangent_projection(proj, n_hat), proj, atol=1e-9)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_rotation_stays_orthonormal_under_composition(seed):
    rng = np.random.default_rng(seed)
    g = compose(random_transform(rng), random_transform(rng))
    np.testing.assert_allclose(g.rotation @ g.rotation.T, np.eye(3), atol=1e-12)
    assert np.linalg.det(g.rotation) > 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(0, 40))
def test_batched_wrench_transform_matches_one_at_a_time(seed, count):
    rng = np.random.default_rng(seed)
    g = random_transform(rng)
    wrenches = [Wrench(rng.normal(size=3), 20.0 * rng.normal(size=3)) for _ in range(count)]
    tau, f = transform_wrenches(g, wrenches)
    assert tau.shape == f.shape == (count, 3)
    for i, w in enumerate(wrenches):
        one = transform_wrench(g, w)
        assert np.array_equal(tau[i], one.torque)
        assert np.array_equal(f[i], one.force)


def test_batched_wrench_transform_checks_frames():
    g = RigidTransform(np.eye(3), np.ones(3), parent=FrameId.WRIST, child=FrameId.ROCK_COM)
    ok = Wrench(np.zeros(3), np.ones(3), frame=FrameId.WRIST)
    bad = Wrench(np.zeros(3), np.ones(3), frame=FrameId.BASE)
    transform_wrenches(g, [ok, Wrench(np.zeros(3), np.ones(3))])
    with pytest.raises(FrameMismatch):
        transform_wrenches(g, [ok, bad])
