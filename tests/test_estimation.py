"""Contact-offset recovery against hand-computed and dense-search oracles."""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftstack.estimation import (
    ContactEstimate,
    DegenerateNormalForce,
    ForceBudget,
    estimate_contact,
    flat_direction,
    recover_contact_offset,
    solve_normal_force,
    tangent_residual,
)
from ftstack.spatial import tangent_projection


def random_unit(rng: np.random.Generator) -> np.ndarray:
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class TestRecoverOffset:
    def test_frozen_vertical_press(self):
        # hand cross product: (0,0,10) x (0,0.2,0) = (-2,0,0); /|F|^2 -> -0.02
        r = recover_contact_offset((0.0, 0.0, 10.0), (0.0, 0.2, 0.0))
        np.testing.assert_allclose(r, [-0.02, 0.0, 0.0], atol=1e-15)

    def test_frozen_general_offset(self):
        # r = (0.02, -0.01, -0.05) under a 10 N vertical press produces
        # tau = r x F = (-0.1, -0.2, 0); recovery drops the normal component
        f = np.array([0.0, 0.0, 10.0])
        tau = np.cross([0.02, -0.01, -0.05], f)
        np.testing.assert_allclose(tau, [-0.1, -0.2, 0.0], atol=1e-15)
        r = recover_contact_offset(f, tau)
        np.testing.assert_allclose(r, [0.02, -0.01, 0.0], atol=1e-15)

    def test_round_trip_ten_thousand(self):
        # criterion: recovered r_T equals the tangent projection of r within
        # 1e-10 relative, for 10k random presses at >= 1 N, in under a second
        rng = np.random.default_rng(11)
        start = time.monotonic()
        for _ in range(10_000):
            r = rng.normal(scale=0.05, size=3)
            f = rng.normal(scale=8.0, size=3)
            if np.linalg.norm(f) < 1.001:
                continue
            tau = np.cross(r, f)
            got = recover_contact_offset(f, tau)
            want = r - (r @ f) / (f @ f) * f
            scale = max(np.linalg.norm(want), 1e-3)
            assert np.linalg.norm(got - want) <= 1e-10 * scale
        assert time.monotonic() - start < 1.0

    def test_floor_raises(self):
        with pytest.raises(DegenerateNormalForce):
            recover_contact_offset((0.0, 0.0, 0.5), (0.0, 0.01, 0.0))

    def test_recovered_offset_orthogonal_to_force(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            f = rng.normal(scale=10.0, size=3)
            if np.linalg.norm(f) < 1.5:
                continue
            tau = rng.normal(scale=0.2, size=3)
            r = recover_contact_offset(f, tau)
            assert abs(r @ f) < 1e-12 * np.linalg.norm(f)


class TestFlatDirection:
    def test_double_cross_identity(self):
        # -n x (n x z) and z - (n.z) n are the same vector, to 1e-15
        rng = np.random.default_rng(13)
        z = np.array([0.0, 0.0, 1.0])
        for _ in range(1000):
            n = random_unit(rng)
            d = flat_direction(n)
            alt = -np.cross(n, np.cross(n, z))
            np.testing.assert_allclose(d, alt, atol=1e-15)

    def test_matches_dense_tangent_search(self):
        # flat_dir points along the tangent direction of max height gain;
        # compare with a brute-force scan of 20k tangent directions
        rng = np.random.default_rng(14)
        z = np.array([0.0, 0.0, 1.0])
        for _ in range(50):
            n = random_unit(rng)
            if abs(abs(n[2]) - 1.0) < 1e-3:
                continue
            d = flat_direction(n)
            d_hat = d / np.linalg.norm(d)
            a = np.cross(n, z)
            a /= np.linalg.norm(a)
            b = np.cross(n, a)
            thetas = np.linspace(0.0, 2.0 * np.pi, 20_000, endpoint=False)
            cands = np.outer(np.cos(thetas), a) + np.outer(np.sin(thetas), b)
            best = cands[np.argmax(cands @ z)]
            angle = np.arccos(np.clip(best @ d_hat, -1.0, 1.0))
            assert angle < 1e-3

    def test_zero_at_vertical(self):
        np.testing.assert_allclose(flat_direction([0.0, 0.0, 1.0]), 0.0, atol=1e-15)
        np.testing.assert_allclose(flat_direction([0.0, 0.0, -1.0]), 0.0, atol=1e-15)

    def test_requires_unit_input(self):
        with pytest.raises(ValueError):
            flat_direction([0.0, 0.0, 2.0])


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_flat_direction_properties(seed):
    rng = np.random.default_rng(seed)
    n = random_unit(rng)
    d = flat_direction(n)
    # tangent to the contact plane, never pointing below it, length sin(tilt)
    assert abs(d @ n) < 1e-12
    assert d[2] >= -1e-15
    tilt = np.arccos(np.clip(abs(n[2]), -1.0, 1.0))
    assert abs(np.linalg.norm(d) - np.sin(tilt)) < 1e-9


class TestEstimateContact:
    @staticmethod
    def synth_reading(gravity, f_n, r):
        """Sensor reading at the COM for a press F_N applied at offset r.

        The reading is the wrench the load exerts on the wrist; under contact
        the supported fraction of the weight comes back through the sensor,
        so force = gravity + F_N.
        """
        force = np.asarray(gravity) + np.asarray(f_n)
        torque = np.cross(r, f_n)
        return torque, force

    def test_identity_on_exact_input(self):
        gravity = np.array([0.0, 0.0, -9.81])
        f_n = np.array([0.0, 0.0, 10.0])
        r = np.array([0.02, -0.01, 0.0])
        est = estimate_contact(*self.synth_reading(gravity, f_n, r), gravity)
        np.testing.assert_allclose(est.normal_force, f_n, atol=1e-15)
        np.testing.assert_allclose(est.normal_dir, [0.0, 0.0, 1.0], atol=1e-15)
        np.testing.assert_allclose(est.tangent_offset, r, atol=1e-15)
        np.testing.assert_allclose(est.flat_dir, 0.0, atol=1e-15)
        assert est.press_magnitude == pytest.approx(10.0, abs=1e-15)

    def test_scale_invariance_of_direction(self):
        # pressing harder must not move the recovered offset direction
        gravity = np.array([0.0, 0.0, -9.81])
        rng = np.random.default_rng(15)
        for _ in range(50):
            n = random_unit(rng)
            if n[2] < 0.2:
                continue
            r = rng.normal(scale=0.03, size=3)
            base = estimate_contact(
                *self.synth_reading(gravity, 10.0 * n, r), gravity)
            strong = estimate_contact(
                *self.synth_reading(gravity, 37.0 * n, r), gravity)
            np.testing.assert_allclose(
                strong.tangent_offset, base.tangent_offset, atol=1e-12)
            np.testing.assert_allclose(strong.normal_dir, base.normal_dir, atol=1e-12)
            assert strong.press_magnitude == pytest.approx(3.7 * base.press_magnitude,
                                                           rel=1e-12)

    def test_degenerate_when_hover_equals_press(self):
        gravity = np.array([0.0, 0.0, -9.81])
        with pytest.raises(DegenerateNormalForce):
            estimate_contact(np.zeros(3), gravity, gravity)

    def test_tangent_residual_zero_for_consistent_reference(self):
        gravity = np.array([0.0, 0.0, -9.81])
        f_n = np.array([1.0, 0.5, 9.0])
        r = np.array([0.015, -0.02, 0.004])
        est = estimate_contact(*self.synth_reading(gravity, f_n, r), gravity)
        np.testing.assert_allclose(tangent_residual(est, r), 0.0, atol=1e-12)

    def test_budget_rejects_upward_gravity(self):
        with pytest.raises(ValueError):
            ForceBudget(gravity=np.array([0.0, 0.0, 1.0]), push=np.zeros(3))

    def test_normal_force_balance(self):
        budget = ForceBudget(gravity=np.array([0.0, 0.0, -9.81]),
                             push=np.array([0.0, 0.0, -0.19]))
        np.testing.assert_allclose(solve_normal_force(budget), [0.0, 0.0, 10.0],
                                   atol=1e-15)
