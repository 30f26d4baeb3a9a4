"""Terrain layers: heights, gradients, rasters, and max-composition."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ftstack.surfaces import (
    NO_SURFACE,
    FlatPlane,
    HeightField,
    LayeredSurface,
    Puck,
    RampPatch,
    SphericalCap,
)


class TestFlatPlane:
    def test_height_everywhere(self):
        p = FlatPlane(0.04)
        assert p.height(0.0, 0.0) == pytest.approx(0.04)
        np.testing.assert_allclose(p.height(np.linspace(-1, 1, 7), 0.3), 0.04)

    def test_gradient_zero(self):
        gx, gy = FlatPlane().grad(0.2, -0.1)
        assert float(gx) == 0.0 and float(gy) == 0.0


class TestRampPatch:
    def test_height_profile_along_azimuth(self):
        ramp = RampPatch((-0.2, 0.2), (-0.1, 0.3), base_height=0.02,
                         slope_angle=np.radians(15.0), azimuth=np.pi / 2)
        # rises along +y from the patch midline at y = 0.1
        assert ramp.height(0.0, 0.1) == pytest.approx(0.02)
        assert ramp.height(0.0, 0.2) == pytest.approx(0.02 + np.tan(np.radians(15)) * 0.1)
        assert ramp.height(0.05, 0.0) == pytest.approx(0.02 - np.tan(np.radians(15)) * 0.1)

    def test_outside_patch_has_no_material(self):
        ramp = RampPatch((-0.2, 0.2), (-0.1, 0.3), 0.0, np.radians(10.0))
        assert ramp.height(0.5, 0.0) == NO_SURFACE
        assert ramp.height(0.0, -0.2) == NO_SURFACE

    def test_gradient_magnitude_is_tan_slope(self):
        slope = np.radians(15.0)
        ramp = RampPatch((-1, 1), (-1, 1), 0.0, slope, azimuth=np.pi / 2)
        gx, gy = ramp.grad(0.0, 0.0)
        assert float(gx) == pytest.approx(0.0, abs=1e-15)
        assert float(gy) == pytest.approx(np.tan(slope))

    def test_slope_bounds(self):
        with pytest.raises(ValueError):
            RampPatch((-1, 1), (-1, 1), 0.0, slope_angle=0.0)


class TestPuck:
    def test_disk_support(self):
        puck = Puck((0.0, 0.0), radius=0.05, top_height=0.04)
        assert puck.height(0.0, 0.0) == pytest.approx(0.04)
        assert puck.height(0.05, 0.0) == pytest.approx(0.04)  # rim included
        assert puck.height(0.051, 0.0) == NO_SURFACE

    def test_ripple_peaks_and_valleys(self):
        amp, wl = 0.001, 0.02
        puck = Puck((0.0, 0.0), 0.05, 0.04, ripple_amplitude=amp, ripple_wavelength=wl)
        assert puck.height(0.0, 0.0) == pytest.approx(0.04 + amp)
        assert puck.height(wl / 2, 0.0) == pytest.approx(0.04 - amp)
        gx, gy = puck.grad(0.0, 0.0)
        assert float(gx) == pytest.approx(0.0, abs=1e-12)
        assert float(gy) == pytest.approx(0.0, abs=1e-12)


class TestSphericalCap:
    def test_apex_and_rim_heights(self):
        cap = SphericalCap((0.0, 0.0), extent_radius=0.05,
                           curvature_radius=0.15, apex_height=0.048579)
        assert cap.height(0.0, 0.0) == pytest.approx(0.048579)
        rim = 0.048579 - 0.15 + np.sqrt(0.15**2 - 0.05**2)
        assert cap.height(0.05, 0.0) == pytest.approx(rim)
        assert cap.height(0.0501, 0.0) == NO_SURFACE

    def test_small_offset_drop_matches_curvature(self):
        # near the apex the sag is rho^2 / (2 Rc) to second order
        cap = SphericalCap((0.0, 0.0), 0.05, 0.15, 0.05)
        rho = 0.004
        drop = 0.05 - float(cap.height(rho, 0.0))
        assert drop == pytest.approx(rho**2 / (2 * 0.15), rel=1e-3)

    def test_extent_must_be_under_curvature(self):
        with pytest.raises(ValueError):
            SphericalCap((0.0, 0.0), 0.2, 0.1, 0.05)


class TestHeightField:
    def test_empty_field_has_no_material(self):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        assert hf.height(0.0, 0.0) == NO_SURFACE

    def test_stamp_disk_then_interpolate(self):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        hf.stamp_disk((0.0, 0.0), 0.05, lambda dx, dy: np.full(dx.shape, 0.03))
        assert hf.height(0.0, 0.0) == pytest.approx(0.03)
        assert hf.height(0.0101, 0.0203) == pytest.approx(0.03)  # off-node point
        assert hf.height(0.09, 0.09) == NO_SURFACE

    def test_stamp_keeps_higher_material(self):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        hf.stamp_square((0.0, 0.0), 0.05, lambda dx, dy: np.full(dx.shape, 0.03))
        hf.stamp_square((0.0, 0.0), 0.05, lambda dx, dy: np.full(dx.shape, 0.01))
        assert hf.height(0.0, 0.0) == pytest.approx(0.03)

    def test_edges_shrink_conservatively(self):
        # a point whose cell has any empty corner reads as empty, so the
        # stamped plateau never overhangs past its sampled support
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        hf.stamp_square((0.0, 0.0), 0.01, lambda dx, dy: np.full(dx.shape, 0.05))
        assert hf.height(0.0111, 0.0) == NO_SURFACE

    def test_gradient_of_sloped_stamp(self):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        hf.stamp_square((0.0, 0.0), 0.04, lambda dx, dy: 0.02 + 0.5 * dx)
        gx, gy = hf.grad(0.001, 0.001)
        assert float(gx) == pytest.approx(0.5, rel=1e-9)
        assert float(gy) == pytest.approx(0.0, abs=1e-12)


def reference_stamp(values, origin, pitch, center, mask_fn, height_fn):
    """Max-update over the whole raster, as a stamp that scans every node."""
    ny, nx = values.shape
    xs = origin[0] + pitch * np.arange(nx)
    ys = origin[1] + pitch * np.arange(ny)
    dxg, dyg = np.broadcast_arrays(xs[None, :] - center[0], ys[:, None] - center[1])
    mask = mask_fn(dxg, dyg)
    if mask.any():
        new = height_fn(dxg[mask], dyg[mask])
        current = values[mask]
        values[mask] = np.where(np.isfinite(current), np.maximum(current, new), new)


stamp_specs = st.tuples(
    st.sampled_from(["disk", "square"]),
    st.floats(-0.16, 0.16),          # center x, past the raster edge at 0.1
    st.floats(-0.16, 0.16),          # center y
    st.floats(0.001, 0.06),          # radius or half side
    st.floats(0.0, 0.05),            # top height
    st.floats(0.0, 0.003),           # undulation amplitude
)


class TestWindowedStamp:
    @settings(max_examples=60, deadline=None)
    @given(st.lists(stamp_specs, min_size=1, max_size=4))
    def test_matches_the_whole_raster_stamp(self, specs):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        want = hf.values.copy()
        for kind, cx, cy, size, top, amp in specs:
            def top_fn(dx, dy, top=top, amp=amp):
                return top + amp * np.cos(300.0 * dx) * np.cos(300.0 * dy)

            if kind == "disk":
                hf.stamp_disk((cx, cy), size, top_fn)
                mask_fn = lambda dx, dy, r=size: dx * dx + dy * dy <= r * r  # noqa: E731
            else:
                hf.stamp_square((cx, cy), size, top_fn)
                mask_fn = lambda dx, dy, h=size: (np.abs(dx) <= h) & (np.abs(dy) <= h)  # noqa: E731
            reference_stamp(want, hf.origin, hf.pitch, (cx, cy), mask_fn, top_fn)
            assert np.array_equal(hf.values, want)

    def test_on_grid_edges_and_corners(self):
        # centers and reaches on grid nodes exercise the window's rounding slack
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        want = hf.values.copy()
        for center in [(0.0, 0.0), (0.1, 0.1), (-0.1, 0.05), (0.11, 0.0), (0.2, 0.2)]:
            hf.stamp_square(center, 0.01, lambda dx, dy: 0.02 + dx)
            reference_stamp(want, hf.origin, hf.pitch, center,
                            lambda dx, dy: (np.abs(dx) <= 0.01) & (np.abs(dy) <= 0.01),
                            lambda dx, dy: 0.02 + dx)
        assert np.array_equal(hf.values, want)
        assert np.isfinite(hf.values[-1, -1]) and not np.isfinite(hf.values[0, 0])


class TestEmptyRaster:
    @pytest.mark.parametrize("x, y", [
        (0.0, 0.0),
        (np.linspace(-0.2, 0.2, 7), 0.01),
        (np.zeros((2, 3)), np.linspace(-0.1, 0.1, 3)),
    ])
    def test_height_and_grad_answer_empty(self, x, y):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        h = hf.height(x, y)
        gx, gy = hf.grad(x, y)
        for out in (h, gx, gy):
            assert isinstance(out, np.ndarray) and out.shape == shape and out.dtype == float
        assert np.all(h == NO_SURFACE)
        assert np.all(gx == 0.0) and np.all(gy == 0.0)

    def test_material_from_given_values_and_from_stamps(self):
        values = np.full((5, 5), NO_SURFACE)
        values[1:3, 1:3] = 0.01
        given_values = HeightField((0.0, 0.0), 0.01, values)
        assert given_values.height(0.015, 0.015) == pytest.approx(0.01)

        blank = HeightField((0.0, 0.0), 0.01, np.full((5, 5), NO_SURFACE))
        assert blank.height(0.015, 0.015) == NO_SURFACE
        blank.stamp_square((0.015, 0.015), 0.006, lambda dx, dy: 0.02 + dx)
        assert blank.height(0.015, 0.015) == pytest.approx(0.02)
        gx, _ = blank.grad(0.015, 0.015)
        assert float(gx) == pytest.approx(1.0)


class TestLayeredSurface:
    def test_max_composition(self):
        ground = FlatPlane(0.0)
        puck = Puck((0.0, 0.0), 0.05, 0.04)
        layered = LayeredSurface((ground, puck))
        assert layered.height(0.0, 0.0) == pytest.approx(0.04)
        assert layered.height(0.2, 0.0) == pytest.approx(0.0)

    def test_later_layer_wins_ties(self):
        a = FlatPlane(0.01)
        b = Puck((0.0, 0.0), 0.05, 0.01)
        layered = LayeredSurface((a, b))
        assert layered.active_layer(0.0, 0.0) == 1
        assert layered.active_layer(0.2, 0.2) == 0

    def test_normal_tilts_downhill_on_ramp(self):
        ramp = RampPatch((-1, 1), (-1, 1), 0.0, np.radians(15.0), azimuth=np.pi / 2)
        layered = LayeredSurface((FlatPlane(-1.0), ramp))
        n = layered.normal(0.0, 0.0)
        assert n[2] == pytest.approx(np.cos(np.radians(15.0)))
        assert n[1] == pytest.approx(-np.sin(np.radians(15.0)))
        assert np.linalg.norm(n) == pytest.approx(1.0)

    def test_empty_layering_rejected(self):
        with pytest.raises(ValueError):
            LayeredSurface(()).height(0.0, 0.0)
