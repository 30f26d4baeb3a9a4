"""Terrain as height-from-above functions.

Every surface answers height(x, y) (vectorized, -inf where there is no
material under the point) and grad(x, y) where the height is finite. The
world composes layers by max; the descending object only ever meets the
composite from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

NO_SURFACE = -np.inf


def _arr(x):
    return np.asarray(x, dtype=float)


@dataclass(frozen=True)
class FlatPlane:
    """Infinite horizontal plane."""

    height_value: float = 0.0

    def height(self, x, y):
        x = _arr(x)
        return np.broadcast_to(np.float64(self.height_value), np.broadcast(x, _arr(y)).shape).copy()

    def grad(self, x, y):
        shape = np.broadcast(_arr(x), _arr(y)).shape
        return np.zeros(shape), np.zeros(shape)


@dataclass(frozen=True)
class RampPatch:
    """Tilted plane over an axis-aligned rectangle, rising along ``azimuth``."""

    x_range: tuple[float, float]
    y_range: tuple[float, float]
    base_height: float
    slope_angle: float   # rad, > 0
    azimuth: float = 0.0  # rad, 0 = rises along +x

    def __post_init__(self):
        if not 0.0 < self.slope_angle < np.pi / 2:
            raise ValueError("slope_angle must be in (0, pi/2)")

    def _inside(self, x, y):
        return (
            (x >= self.x_range[0]) & (x <= self.x_range[1])
            & (y >= self.y_range[0]) & (y <= self.y_range[1])
        )

    def height(self, x, y):
        x, y = _arr(x), _arr(y)
        cx = 0.5 * (self.x_range[0] + self.x_range[1])
        cy = 0.5 * (self.y_range[0] + self.y_range[1])
        along = (x - cx) * np.cos(self.azimuth) + (y - cy) * np.sin(self.azimuth)
        h = self.base_height + np.tan(self.slope_angle) * along
        return np.where(self._inside(x, y), h, NO_SURFACE)

    def grad(self, x, y):
        x, y = _arr(x), _arr(y)
        s = np.tan(self.slope_angle)
        gx = np.full(np.broadcast(x, y).shape, s * np.cos(self.azimuth))
        gy = np.full(np.broadcast(x, y).shape, s * np.sin(self.azimuth))
        return gx, gy


@dataclass(frozen=True)
class Puck:
    """Flat-topped disk, optionally with an egg-crate ripple on top."""

    center: tuple[float, float]
    radius: float
    top_height: float
    ripple_amplitude: float = 0.0
    ripple_wavelength: float = 0.02

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("radius must be positive")
        if self.ripple_amplitude < 0.0:
            raise ValueError("ripple_amplitude must be non-negative")
        if self.ripple_amplitude > 0.0 and self.ripple_wavelength <= 0.0:
            raise ValueError("ripple_wavelength must be positive")

    def _local(self, x, y):
        return _arr(x) - self.center[0], _arr(y) - self.center[1]

    def height(self, x, y):
        dx, dy = self._local(x, y)
        inside = dx * dx + dy * dy <= self.radius * self.radius
        h = np.full(np.broadcast(dx, dy).shape, float(self.top_height))
        if self.ripple_amplitude > 0.0:
            k = 2.0 * np.pi / self.ripple_wavelength
            h = h + self.ripple_amplitude * np.cos(k * dx) * np.cos(k * dy)
        return np.where(inside, h, NO_SURFACE)

    def grad(self, x, y):
        dx, dy = self._local(x, y)
        if self.ripple_amplitude == 0.0:
            shape = np.broadcast(dx, dy).shape
            return np.zeros(shape), np.zeros(shape)
        k = 2.0 * np.pi / self.ripple_wavelength
        gx = -self.ripple_amplitude * k * np.sin(k * dx) * np.cos(k * dy)
        gy = -self.ripple_amplitude * k * np.cos(k * dx) * np.sin(k * dy)
        return gx, gy


@dataclass(frozen=True)
class SphericalCap:
    """Gently crowned top: a sphere of curvature_radius truncated at extent_radius."""

    center: tuple[float, float]
    extent_radius: float
    curvature_radius: float
    apex_height: float

    def __post_init__(self):
        if self.extent_radius <= 0.0 or self.curvature_radius <= 0.0:
            raise ValueError("radii must be positive")
        if self.extent_radius >= self.curvature_radius:
            raise ValueError("extent_radius must be smaller than curvature_radius")

    def _local(self, x, y):
        return _arr(x) - self.center[0], _arr(y) - self.center[1]

    def height(self, x, y):
        dx, dy = self._local(x, y)
        rho_sq = dx * dx + dy * dy
        inside = rho_sq <= self.extent_radius * self.extent_radius
        safe = np.where(inside, rho_sq, 0.0)
        h = self.apex_height - self.curvature_radius + np.sqrt(
            self.curvature_radius**2 - safe
        )
        return np.where(inside, h, NO_SURFACE)

    def grad(self, x, y):
        dx, dy = self._local(x, y)
        rho_sq = dx * dx + dy * dy
        s = np.sqrt(np.maximum(self.curvature_radius**2 - rho_sq, 1e-12))
        return -dx / s, -dy / s


class HeightField:
    """Uniform-grid sampled heights with bilinear interpolation.

    Cells holding NO_SURFACE are empty; any empty corner makes the
    interpolated height NO_SURFACE (a non-finite corner leaves every blend
    it enters non-finite), so stamped regions are conservatively shrunk by
    up to one cell at their edges. The material box is the inclusive index
    range ``(iy0, iy1, ix0, ix1)`` that holds every finite cell, None while
    there is none; a query none of whose cells can have all four corners
    inside it answers "empty" without a gather. It is set from the given
    values and grown by ``_stamp``, so only the stamps write ``values``.
    A read-only grid, such as the one ``empty`` gives, is copied to a
    writable one by the first stamp that writes.
    """

    def __init__(self, origin: tuple[float, float], pitch: float, values: np.ndarray):
        if pitch <= 0.0:
            raise ValueError("pitch must be positive")
        self.origin = (float(origin[0]), float(origin[1]))
        self.pitch = float(pitch)
        self.values = np.asarray(values, dtype=float)
        if self.values.ndim != 2:
            raise ValueError("values must be a 2-D grid indexed [iy, ix]")
        self._box = _index_box(np.isfinite(self.values))

    @classmethod
    def empty(cls, x_range, y_range, pitch: float) -> "HeightField":
        nx = int(np.floor((x_range[1] - x_range[0]) / pitch)) + 1
        ny = int(np.floor((y_range[1] - y_range[0]) / pitch)) + 1
        # built on one cell, so no grid is scanned; until a stamp writes,
        # the grid is a read-only broadcast of NO_SURFACE
        field = cls((x_range[0], y_range[0]), pitch, np.full((1, 1), NO_SURFACE))
        field.values = np.broadcast_to(NO_SURFACE, (ny, nx))
        return field

    def _fractional_index(self, x, y):
        fx = (_arr(x) - self.origin[0]) / self.pitch
        fy = (_arr(y) - self.origin[1]) / self.pitch
        return fx, fy

    def _corners(self, fx, fy):
        ny, nx = self.values.shape
        ix = np.floor(fx).astype(int)
        iy = np.floor(fy).astype(int)
        valid = (ix >= 0) & (ix < nx - 1) & (iy >= 0) & (iy < ny - 1)
        ixc = np.minimum(np.maximum(ix, 0), nx - 2)
        iyc = np.minimum(np.maximum(iy, 0), ny - 2)
        # one flat index per query point: a single 1-D gather per corner;
        # ravel follows the logical [iy, ix] order whatever the memory layout
        flat = self.values.ravel()
        i00 = iyc * nx + ixc
        return (flat[i00], flat[i00 + 1], flat[i00 + nx], flat[i00 + nx + 1],
                fx - ix, fy - iy, valid)

    def _may_reach_material(self, x, y) -> bool:
        """False when no query point's cell has all four corners in the box."""
        if self._box is None or x.size == 0 or y.size == 0:
            return False
        return self._may_reach_rectangle(x.min(), y.min(), x.max(), y.max())

    def _may_reach_rectangle(self, x_lo, y_lo, x_hi, y_hi) -> bool:
        """False when no point of the rectangle has a cell with all four
        corners in the box.

        A cell's corners ix and ix + 1 lie in [ix0, ix1] exactly when its
        fractional index lies in [ix0, ix1); the index map is monotone, so
        the extreme coordinates decide for every point. NaN reads as "may".
        """
        if self._box is None:
            return False
        iy0, iy1, ix0, ix1 = self._box
        fx_lo, fy_lo = self._fractional_index(x_lo, y_lo)
        fx_hi, fy_hi = self._fractional_index(x_hi, y_hi)
        return not (fx_hi < ix0 or fx_lo >= ix1 or fy_hi < iy0 or fy_lo >= iy1)

    def height(self, x, y):
        x, y = _arr(x), _arr(y)
        if not self._may_reach_material(x, y):
            return np.full(np.broadcast(x, y).shape, NO_SURFACE)
        fx, fy = self._fractional_index(x, y)
        v00, v10, v01, v11, tx, ty, valid = self._corners(fx, fy)
        sx, sy = 1 - tx, 1 - ty
        with np.errstate(invalid="ignore"):
            h = v00 * sx * sy + v10 * tx * sy + v01 * sx * ty + v11 * tx * ty
        return np.where(valid & np.isfinite(h), h, NO_SURFACE)

    def grad(self, x, y):
        x, y = _arr(x), _arr(y)
        if not self._may_reach_material(x, y):
            shape = np.broadcast(x, y).shape
            return np.zeros(shape), np.zeros(shape)
        fx, fy = self._fractional_index(x, y)
        v00, v10, v01, v11, tx, ty, valid = self._corners(fx, fy)
        with np.errstate(invalid="ignore"):
            gx = ((v10 - v00) * (1 - ty) + (v11 - v01) * ty) / self.pitch
            gy = ((v01 - v00) * (1 - tx) + (v11 - v10) * tx) / self.pitch
        finite = valid & np.isfinite(gx)  # every corner enters gx, as it enters gy
        return np.where(finite, gx, 0.0), np.where(finite, gy, 0.0)

    def stamp_disk(self, center, radius: float, height_fn) -> None:
        self._stamp(
            center, radius, lambda dx, dy: dx * dx + dy * dy <= radius * radius, height_fn
        )

    def stamp_square(self, center, half_side: float, height_fn) -> None:
        self._stamp(
            center,
            half_side,
            lambda dx, dy: (np.abs(dx) <= half_side) & (np.abs(dy) <= half_side),
            height_fn,
        )

    def _stamp(self, center, reach: float, mask_fn, height_fn) -> None:
        # max-update the covered grid nodes with the object's top surface;
        # only the index window within ``reach`` of the center (plus a node of
        # slack for rounding) can pass mask_fn, so only that window is scanned
        ny, nx = self.values.shape
        ix0, ix1 = _index_window(center[0] - self.origin[0], reach, self.pitch, nx)
        iy0, iy1 = _index_window(center[1] - self.origin[1], reach, self.pitch, ny)
        if ix0 >= ix1 or iy0 >= iy1:
            return
        xs = self.origin[0] + self.pitch * np.arange(ix0, ix1)
        ys = self.origin[1] + self.pitch * np.arange(iy0, iy1)
        dx = xs[None, :] - center[0]
        dy = ys[:, None] - center[1]
        dxg, dyg = np.broadcast_arrays(dx, dy)
        mask = mask_fn(dxg, dyg)
        if not mask.any():
            return
        if not self.values.flags.writeable:
            self.values = self.values.copy()
        window = self.values[iy0:iy1, ix0:ix1]
        new = height_fn(dxg[mask], dyg[mask])
        current = window[mask]
        window[mask] = np.where(
            np.isfinite(current), np.maximum(current, new), new
        )
        r0, r1, c0, c1 = _index_box(mask)
        box = (iy0 + r0, iy0 + r1, ix0 + c0, ix0 + c1)
        if self._box is not None:
            box = (min(box[0], self._box[0]), max(box[1], self._box[1]),
                   min(box[2], self._box[2]), max(box[3], self._box[3]))
        self._box = box


def _index_box(mask: np.ndarray):
    """Inclusive (iy0, iy1, ix0, ix1) box of a 2-D mask's true cells, or None."""
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        return None
    cols = np.flatnonzero(mask.any(axis=0))
    return int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])


def _index_window(offset: float, reach: float, pitch: float, n: int) -> tuple[int, int]:
    """Clipped [lo, hi) range of grid indices within reach of offset, plus one of slack."""
    lo = math.floor((offset - reach) / pitch) - 1
    hi = math.ceil((offset + reach) / pitch) + 2
    return max(lo, 0), min(hi, n)


@dataclass(frozen=True)
class LayeredSurface:
    """Max-composition of layers; later layers win height ties."""

    layers: tuple = field(default_factory=tuple)

    def height(self, x, y):
        if not self.layers:
            raise ValueError("LayeredSurface needs at least one layer")
        h = self.layers[0].height(x, y)
        for layer in self.layers[1:]:
            h = np.maximum(h, layer.height(x, y))
        return h

    def active_layer(self, x, y) -> int:
        """Index of the layer supplying the composite height at one point."""
        heights = [float(layer.height(x, y)) for layer in self.layers]
        best = NO_SURFACE
        idx = 0
        for i, h in enumerate(heights):
            if h >= best:
                best = h
                idx = i
        return idx

    def grad(self, x, y):
        idx = self.active_layer(float(x), float(y))
        return self.layers[idx].grad(x, y)

    def normal(self, x, y) -> np.ndarray:
        gx, gy = self.grad(x, y)
        n = np.array([-float(gx), -float(gy), 1.0])
        return n / np.linalg.norm(n)
