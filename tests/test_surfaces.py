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
from ftstack.world import Footprint, HeldObject, World


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


    def test_queries_follow_the_logical_layout(self):
        # the corner gather indexes the raster flat; a Fortran-ordered grid
        # must answer exactly as its C-ordered copy, empty cells included
        rng = np.random.default_rng(5)
        values = rng.uniform(0.0, 0.05, (37, 53))
        values[rng.random(values.shape) < 0.1] = NO_SURFACE
        fortran = HeightField((-0.05, -0.03), 0.002, np.asfortranarray(values))
        c_order = HeightField((-0.05, -0.03), 0.002, np.ascontiguousarray(values))
        assert fortran.values.flags.f_contiguous and not fortran.values.flags.c_contiguous
        x = rng.uniform(-0.06, 0.06, 2000)
        y = rng.uniform(-0.04, 0.05, 2000)
        assert np.array_equal(fortran.height(x, y), c_order.height(x, y))
        for g_f, g_c in zip(fortran.grad(x, y), c_order.grad(x, y)):
            assert np.array_equal(g_f, g_c)
        assert fortran.height(0.0101, 0.0203) == c_order.height(0.0101, 0.0203)

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


def full_gather(hf, x, y):
    """Height and gradient by gathering all four corners of every query point,
    whatever the material box says: the bilinear blend over the raw grid."""
    values = hf.values
    ny, nx = values.shape
    fx = (np.asarray(x, dtype=float) - hf.origin[0]) / hf.pitch
    fy = (np.asarray(y, dtype=float) - hf.origin[1]) / hf.pitch
    ix = np.floor(fx).astype(int)
    iy = np.floor(fy).astype(int)
    valid = (ix >= 0) & (ix < nx - 1) & (iy >= 0) & (iy < ny - 1)
    ixc = np.clip(ix, 0, nx - 2)
    iyc = np.clip(iy, 0, ny - 2)
    v00, v10 = values[iyc, ixc], values[iyc, ixc + 1]
    v01, v11 = values[iyc + 1, ixc], values[iyc + 1, ixc + 1]
    finite = valid & np.isfinite(v00) & np.isfinite(v10) & np.isfinite(v01) & np.isfinite(v11)
    v00, v10, v01, v11 = (np.where(finite, v, 0.0) for v in (v00, v10, v01, v11))
    tx, ty = fx - ix, fy - iy
    h = v00 * (1 - tx) * (1 - ty) + v10 * tx * (1 - ty) + v01 * (1 - tx) * ty + v11 * tx * ty
    gx = ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / hf.pitch
    gy = ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / hf.pitch
    return (np.where(finite, h, NO_SURFACE), np.where(finite, gx, 0.0),
            np.where(finite, gy, 0.0))


def finite_box(values):
    """Inclusive (iy0, iy1, ix0, ix1) index box of the finite cells, or None."""
    finite = np.isfinite(values)
    rows = np.flatnonzero(finite.any(axis=1))
    cols = np.flatnonzero(finite.any(axis=0))
    if rows.size == 0:
        return None
    return (rows[0], rows[-1], cols[0], cols[-1])


def box_queries(hf, rng, n=400):
    """Query sets inside the material box, straddling it, wholly outside it,
    one cell off each edge, and on its edges exactly; the last field says
    whether the set lies wholly off the box."""
    iy0, iy1, ix0, ix1 = hf._box
    p = hf.pitch
    x0, x1 = hf.origin[0] + ix0 * p, hf.origin[0] + ix1 * p
    y0, y1 = hf.origin[1] + iy0 * p, hf.origin[1] + iy1 * p
    mid_y = rng.uniform(y0, y1, n)
    return [
        ("inside", rng.uniform(x0, x1, n), rng.uniform(y0, y1, n), False),
        ("straddling", rng.uniform(x0 - 3 * p, x1 + 3 * p, n),
         rng.uniform(y0 - 3 * p, y1 + 3 * p, n), False),
        ("left of it", rng.uniform(x0 - 0.05, x0 - 1.5 * p, n), mid_y, True),
        ("below it", rng.uniform(x0, x1, n), rng.uniform(y0 - 0.05, y0 - 1.5 * p, n), True),
        ("one cell left", x0 - p * rng.uniform(1e-9, 1.0, n), mid_y, True),
        ("one cell right", x1 + p * rng.uniform(0.0, 1.0, n), mid_y, True),
        ("one cell below", rng.uniform(x0, x1, n), y0 - p * rng.uniform(1e-9, 1.0, n), True),
        ("one cell above", rng.uniform(x0, x1, n), y1 + p * rng.uniform(0.0, 1.0, n), True),
        ("on the edges", np.array([x0, x1, x0, x1]), np.array([y0, y0, y1, y1]), False),
        ("scalar", float(rng.uniform(x0, x1)), float(rng.uniform(y0, y1)), False),
    ]


def some_cell_in_box(hf, x, y) -> bool:
    """Whether some query point's cell has all four corners in the box."""
    iy0, iy1, ix0, ix1 = hf._box
    ix = np.floor((np.asarray(x, dtype=float) - hf.origin[0]) / hf.pitch)
    iy = np.floor((np.asarray(y, dtype=float) - hf.origin[1]) / hf.pitch)
    return bool(np.any((ix >= ix0) & (ix + 1 <= ix1) & (iy >= iy0) & (iy + 1 <= iy1)))


def assert_box_answers_match_the_full_gather(hf, rng, monkeypatch):
    real_corners = HeightField._corners
    gathered = []

    def counted(self, fx, fy):
        gathered.append(np.size(fx))
        return real_corners(self, fx, fy)

    monkeypatch.setattr(HeightField, "_corners", counted)
    for label, x, y, off_box in box_queries(hf, rng):
        gathered.clear()
        want = full_gather(hf, x, y)
        got = (hf.height(x, y),) + tuple(hf.grad(x, y))
        for g, w in zip(got, want):
            assert isinstance(g, np.ndarray) and g.shape == w.shape and g.dtype == float, label
            assert np.array_equal(g, w), label
        # a set wholly off the box answers without a gather
        if off_box:
            assert not some_cell_in_box(hf, x, y) and not gathered, label
        elif some_cell_in_box(hf, x, y):
            assert gathered, label


class TestMaterialBox:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(stamp_specs, min_size=1, max_size=4), st.integers(0, 2**32 - 1))
    def test_stamped_raster_answers_as_the_full_gather(self, specs, seed):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        assert hf._box is None
        for kind, cx, cy, size, top, amp in specs:
            def top_fn(dx, dy, top=top, amp=amp):
                return top + amp * np.cos(300.0 * dx) * np.cos(300.0 * dy)

            stamp = hf.stamp_disk if kind == "disk" else hf.stamp_square
            stamp((cx, cy), size, top_fn)
            assert hf._box == finite_box(hf.values)
        if hf._box is None:  # every stamp fell off the raster
            return
        with pytest.MonkeyPatch.context() as mp:
            assert_box_answers_match_the_full_gather(hf, np.random.default_rng(seed), mp)

    @pytest.mark.parametrize("seed", range(6))
    def test_raster_from_values_answers_as_the_full_gather(self, seed, monkeypatch):
        rng = np.random.default_rng(seed)
        values = np.full((41, 57), NO_SURFACE)
        iy0, ix0 = rng.integers(0, 20, 2)
        iy1, ix1 = iy0 + rng.integers(1, 20), ix0 + rng.integers(1, 30)
        values[iy0:iy1 + 1, ix0:ix1 + 1] = rng.uniform(0.0, 0.05, (iy1 - iy0 + 1, ix1 - ix0 + 1))
        values[rng.random(values.shape) < 0.2] = NO_SURFACE
        values[iy0, ix0] = values[iy1, ix1] = 0.01   # keep the box's corners
        hf = HeightField((-0.05, -0.04), 0.002, values)
        assert hf._box == (iy0, iy1, ix0, ix1)
        assert_box_answers_match_the_full_gather(hf, rng, monkeypatch)

    @pytest.mark.parametrize("seed", range(4))
    def test_nan_and_infinite_cells_answer_as_the_full_gather(self, seed):
        # a NaN, +inf or empty corner leaves the blend non-finite, so the
        # blend's own finiteness is the four-corner mask; queries run past
        # every raster edge and land on grid nodes, where a weight is zero
        rng = np.random.default_rng(100 + seed)
        values = rng.uniform(-0.01, 0.05, (23, 31))
        kind = rng.integers(0, 8, values.shape)
        values[kind == 0] = np.nan
        values[kind == 1] = np.inf
        values[kind == 2] = NO_SURFACE
        hf = HeightField((-0.03, -0.02), 0.002, values)
        x0, y0 = hf.origin
        x1, y1 = x0 + 30 * hf.pitch, y0 + 22 * hf.pitch
        nodes_x = x0 + hf.pitch * rng.integers(-2, 33, 300)
        nodes_y = y0 + hf.pitch * rng.integers(-2, 25, 300)
        queries = [
            (rng.uniform(x0 - 0.01, x1 + 0.01, 3000), rng.uniform(y0 - 0.01, y1 + 0.01, 3000)),
            (nodes_x, nodes_y),
            (nodes_x, rng.uniform(y0 - 0.01, y1 + 0.01, 300)),
            (np.array([x0, x1, x0, x1]), np.array([y0, y0, y1, y1])),
        ]
        for x, y in queries:
            want = full_gather(hf, x, y)
            got = (hf.height(x, y),) + tuple(hf.grad(x, y))
            for g, w in zip(got, want):
                assert g.shape == w.shape and g.dtype == float
                assert np.array_equal(g, w)
                assert np.array_equal(np.signbit(g), np.signbit(w))
        h = hf.height(*queries[0])
        assert np.isfinite(h).any() and np.isneginf(h).any()

    def test_box_of_given_values(self):
        assert HeightField((0.0, 0.0), 0.01, np.full((4, 6), NO_SURFACE))._box is None
        full = HeightField((0.0, 0.0), 0.01, np.zeros((4, 6)))
        assert full._box == (0, 3, 0, 5)
        values = np.full((4, 6), NO_SURFACE)
        values[2, 1] = values[1, 4] = 0.0
        assert HeightField((0.0, 0.0), 0.01, values)._box == (1, 2, 1, 4)


def stamp_with(hf, spec):
    kind, cx, cy, size, top, amp = spec

    def top_fn(dx, dy):
        return top + amp * np.cos(300.0 * dx) * np.cos(300.0 * dy)

    (hf.stamp_disk if kind == "disk" else hf.stamp_square)((cx, cy), size, top_fn)


class TestGridOnFirstStamp:
    """``HeightField.empty`` makes no grid; the first stamp that writes does."""

    def test_the_grid_is_read_only_until_a_stamp_writes(self):
        hf = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        shape = hf.values.shape
        assert shape == (101, 101) and not hf.values.flags.writeable
        assert hf._box is None and np.all(hf.values == NO_SURFACE)
        assert hf.height(0.0, 0.0) == NO_SURFACE
        stamp_with(hf, ("square", 0.5, 0.5, 0.01, 0.02, 0.0))  # off the raster: no write
        assert not hf.values.flags.writeable and hf._box is None
        stamp_with(hf, ("square", 0.0, 0.0, 0.01, 0.02, 0.0))
        assert hf.values.flags.writeable and hf.values.shape == shape
        assert hf._box is not None and float(hf.height(0.0, 0.0)) == pytest.approx(0.02)

    def test_an_unstamped_world_holds_no_writable_grid(self):
        world = World([FlatPlane(0.0), Puck((0.0, 0.0), 0.05, 0.04)])
        world.hold(HeldObject(mass=1.0, footprint=Footprint("disk", 0.045), thickness=0.02))
        world.descend_until_contact((0.01, 0.0), 10.0, 0.1)
        assert not world.overlay.values.flags.writeable

    @settings(max_examples=40, deadline=None)
    @given(st.lists(stamp_specs, max_size=4), st.integers(0, 2**32 - 1))
    def test_stamps_answer_as_on_an_eagerly_filled_grid(self, specs, seed):
        lazy = HeightField.empty((-0.1, 0.1), (-0.1, 0.1), 0.002)
        eager = HeightField(lazy.origin, lazy.pitch, np.full(lazy.values.shape, NO_SURFACE))
        rng = np.random.default_rng(seed)
        x, y = rng.uniform(-0.12, 0.12, (2, 300))
        for spec in specs:
            stamp_with(lazy, spec)
            stamp_with(eager, spec)
            near = rng.uniform(-1.2 * spec[3], 1.2 * spec[3], (2, 100))
            x, y = np.concatenate([x, near[0] + spec[1]]), np.concatenate([y, near[1] + spec[2]])
            assert lazy._box == eager._box
            assert np.array_equal(lazy.values, eager.values)
            for got, want in zip((lazy.height(x, y), *lazy.grad(x, y)),
                                 (eager.height(x, y), *eager.grad(x, y))):
                assert got.tobytes() == want.tobytes()


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
