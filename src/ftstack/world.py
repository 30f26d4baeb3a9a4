"""Quasi-static placement world.

A held object descends vertically onto the terrain. Contact is a linear
spring on the deepest interfering sample; exactly coplanar ties (flat on
flat) form a patch whose resultant acts at the tie centroid. Orientation is
fixed upright throughout, and contacts are frictionless, so the only
horizontal forces come from tilted contact normals.

Sign bookkeeping: the simulated sensor reading is the wrench the distal load
(gripper plus object) exerts on the wrist. Quasi-static balance makes that
the gravity wrench plus the contact wrench about the wrist origin.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass, field

import numpy as np

from .spatial import _row_dots, cross, cross_floats
from .surfaces import HeightField, LayeredSurface
from .validate import _at_least_zero, _num, _pos, _xyz, check_fields, checked


class NoContactWithinRange(RuntimeError):
    """Descent exhausted its height budget without meeting resistance; carries
    the stepped poses and spring forces, as a descent with contact returns them."""

    def __init__(self, message: str, tips: np.ndarray, forces: np.ndarray):
        super().__init__(message)
        self.tips = tips
        self.forces = forces


@dataclass(frozen=True)
class Footprint:
    """Horizontal extent of the object's bottom face, centered on its frame."""

    kind: str  # "disk" or "square"
    size: float  # disk radius or square half-side (m)

    def __post_init__(self):
        if self.kind not in ("disk", "square"):
            raise ValueError(f"unknown footprint kind {self.kind!r}")
        _pos(self.size, "size")

    def sample_offsets(self, pitch: float) -> np.ndarray:
        """Read-only (2, K) sample offsets: the x and the y row, samples in
        (x, y) order. Cached, so repeated descents share one array."""
        return _footprint_offsets(self.kind, self.size, pitch)


@functools.lru_cache(maxsize=64)
def _footprint_offsets(kind: str, size: float, pitch: float) -> np.ndarray:
    """Interior grid plus an exact boundary ring, as a (2, K) array: the x and
    the y offsets, each contiguous, with samples in (x, y) order.

    The rows are sorted as (x, y) records, the sort ``np.unique(axis=0)``
    runs, and their repeats dropped; rounding to 1e-12 keeps distinct offsets
    far enough apart that a shift by the footprint's center keeps that order.
    """
    n = int(np.floor(size / pitch))
    axis = np.arange(-n, n + 1) * pitch
    gx, gy = np.meshgrid(axis, axis)
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    if kind == "disk":
        pts = pts[pts[:, 0] ** 2 + pts[:, 1] ** 2 <= size * size]
        count = max(8, int(np.ceil(2.0 * np.pi * size / pitch)))
        theta = np.arange(count) * (2.0 * np.pi / count)
        ring = size * np.column_stack([np.cos(theta), np.sin(theta)])
        pts = np.vstack([pts, ring])
    else:
        edge = np.arange(-n, n + 1) * pitch
        border = np.vstack(
            [
                np.column_stack([edge, np.full_like(edge, size)]),
                np.column_stack([edge, np.full_like(edge, -size)]),
                np.column_stack([np.full_like(edge, size), edge]),
                np.column_stack([np.full_like(edge, -size), edge]),
                [[size, size], [size, -size], [-size, size], [-size, -size]],
            ]
        )
        pts = np.vstack([pts, border])
    rows = np.ascontiguousarray(np.round(pts, 12)).view([("x", float), ("y", float)]).ravel()
    rows.sort()
    rows = rows[np.concatenate([[True], rows[1:] != rows[:-1]])]
    out = np.ascontiguousarray(rows.view(float).reshape(-1, 2).T)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class BottomProfile:
    """Clearance of the bottom face above its lowest point."""

    kind: str = "flat"  # "flat" or "dome"
    curvature_radius: float = 0.0

    def __post_init__(self):
        if self.kind not in ("flat", "dome"):
            raise ValueError(f"unknown bottom kind {self.kind!r}")
        if self.kind == "dome":
            _pos(self.curvature_radius, "curvature_radius")

    def clearance(self, dx, dy):
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        if self.kind == "flat":
            return np.zeros(np.broadcast(dx, dy).shape)
        rho_sq = dx * dx + dy * dy
        r = self.curvature_radius
        return r - np.sqrt(np.maximum(r * r - rho_sq, 0.0))


@dataclass(frozen=True)
class TopProfile:
    """Shape of the top face relative to the nominal thickness plane."""

    kind: str = "flat"  # "flat" or "undulating"
    amplitude: float = 0.0
    wavelength: float = 0.02

    def __post_init__(self):
        if self.kind not in ("flat", "undulating"):
            raise ValueError(f"unknown top kind {self.kind!r}")
        if self.kind == "undulating":
            _pos(self.amplitude, "amplitude")
            _pos(self.wavelength, "wavelength")

    def rise(self, dx, dy):
        dx = np.asarray(dx, dtype=float)
        dy = np.asarray(dy, dtype=float)
        if self.kind == "flat":
            return np.zeros(np.broadcast(dx, dy).shape)
        k = 2.0 * np.pi / self.wavelength
        return self.amplitude * np.cos(k * dx) * np.cos(k * dy)


@dataclass(frozen=True, eq=False)
class HeldObject:
    """Rigid object in the gripper.

    The object frame sits at the true center of mass; ``com_offset`` is that
    frame's position relative to the gripper tip, so a nonzero value models a
    grasp away from the COM while the estimator keeps assuming they coincide.
    """

    mass: float
    footprint: Footprint
    thickness: float
    com_offset: np.ndarray = field(default_factory=lambda: np.zeros(3))
    bottom: BottomProfile = field(default_factory=BottomProfile)
    top: TopProfile = field(default_factory=TopProfile)
    tip_to_bottom: float | None = None  # grasp height above the bottom face

    def __post_init__(self):
        _pos(self.mass, "mass")
        _pos(self.thickness, "thickness")
        com_offset = np.asarray(self.com_offset, dtype=float).tolist()
        object.__setattr__(self, "com_offset", np.array(_xyz(com_offset, "com_offset")))
        if self.tip_to_bottom is None:
            object.__setattr__(self, "tip_to_bottom", self.thickness / 2.0)
        _pos(self.tip_to_bottom, "tip_to_bottom")


@dataclass(frozen=True)
class SimParams:
    # pitches, steps and stiffness divide or scale every trial
    spring_k: float = checked(1e5, _pos)                    # N per m of interference
    descent_step: float = checked(5e-4, _pos)               # m
    contact_pitch: float = checked(1e-3, _pos)              # m, footprint sampling
    raster_pitch: float = checked(2e-3, _pos)               # m, tower height-field stamps
    patch_tie_tol: float = checked(1e-6, _at_least_zero)    # m, coplanarity tie tolerance
    stability_margin: float = checked(1e-3, _at_least_zero)  # m, support shrink / point slack
    gravity: float = checked(9.81, _pos)                    # m/s^2
    wrist_lift: float = checked(0.15, _at_least_zero)       # m, tip to sensor origin
    gripper_mass: float = checked(0.0, _at_least_zero)      # kg, lumped at the tip
    descent_floor: float = checked(-0.02, _num)             # m, bottom-face budget to give up at

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True, eq=False)
class ContactResult:
    """Where and how hard the object meets the terrain at the press pose."""

    contact_point: np.ndarray          # resultant application point, world (m)
    surface_normal: np.ndarray         # unit, from the terrain gradient
    penetration: float                 # m at the deepest sample
    normal_force_magnitude: float      # N
    contact_patch: np.ndarray          # (P, 3) coplanar tie points, world
    touch_height: float                # m, bottom-face height at first touch

    @property
    def force(self) -> np.ndarray:
        return self.normal_force_magnitude * self.surface_normal


@dataclass(frozen=True, eq=False)
class ReleaseOutcome:
    settled: bool
    final_com: np.ndarray | None = None
    top_height: float | None = None


# descents a world remembers: a calibration press and the one press made
# between two calibrations
_REMEMBERED_DESCENTS = 2


class World:
    """Terrain, the optional held object, and the quasi-static contact model.

    A world changes its terrain only through its overlay, which only grows;
    the static layers never change. So a descent whose footprint cannot reach
    the overlay's material reads NO_SURFACE from the overlay, now as when
    first computed, and ``descend_until_contact`` may return its result again.
    """

    def __init__(self, surfaces, x_range=(-0.3, 0.3), y_range=(-0.3, 0.3),
                 params: SimParams | None = None):
        layers = tuple(surfaces) if isinstance(surfaces, (list, tuple)) else (surfaces,)
        if not layers:
            raise ValueError("world needs at least one surface layer")
        self.params = params if params is not None else SimParams()
        self.overlay = HeightField.empty(x_range, y_range, self.params.raster_pitch)
        self.terrain = LayeredSurface(layers + (self.overlay,))
        self.held: HeldObject | None = None
        self._descents: list = []  # (key, result) pairs, most recently used first

    def hold(self, obj: HeldObject) -> None:
        self.held = obj

    def surface_height(self, x, y):
        return self.terrain.height(x, y)

    def surface_normal(self, x, y) -> np.ndarray:
        return self.terrain.normal(x, y)

    # -- contact geometry ---------------------------------------------------

    def _require_held(self) -> HeldObject:
        if self.held is None:
            raise RuntimeError("no object is held")
        return self.held

    def _touch_profile(self, xy):
        """Per-sample bottom-face heights at first touch, the (2, K) x and y
        rows of the sample points, and the terrain heights under them."""
        obj = self._require_held()
        offsets = obj.footprint.sample_offsets(self.params.contact_pitch)
        center = np.asarray(xy, dtype=float) + obj.com_offset[:2]
        pts = offsets + center[:, None]
        tower = self.surface_height(pts[0], pts[1])
        touch = tower - obj.bottom.clearance(offsets[0], offsets[1])
        return touch, pts, tower

    def _contact_at(self, touch, pts, tower, force_magnitude, penetration) -> ContactResult:
        z_touch = np.max(touch)
        tie = np.flatnonzero(touch >= z_touch - self.params.patch_tie_tol)
        cols = (pts[0].take(tie), pts[1].take(tie), tower.take(tie))
        # rows keep the footprint's (x, y) order, which _column_extremes relies on
        patch = np.column_stack(cols)
        # sequential column sums, the bits patch.mean(axis=0) gives on these rows, cheaper
        app = np.array([np.cumsum(c)[-1] for c in cols]) / tie.size
        normal = self.surface_normal(app[0], app[1])
        return ContactResult(
            contact_point=app,
            surface_normal=normal,
            penetration=float(penetration),
            normal_force_magnitude=float(force_magnitude),
            contact_patch=patch,
            touch_height=float(z_touch),
        )

    def descend_until_contact(self, xy, resistance_threshold: float, start_tip_z: float):
        """Lower the held object until spring force reaches the threshold.

        Steps down by descent_step until the spring force meets
        resistance_threshold (detection), then settles at exactly the
        threshold compression, like a force-servo halt. All stepped poses
        are computed in one vectorized pass. Returns ``(contact, tip_z, tips,
        forces)``: the (N, 3) tip poses of the steps in order and their (N,)
        spring-force magnitudes, which ``wrist_wrench_rows`` turns into the
        contact-approach time series. Raises NoContactWithinRange, carrying
        the poses and forces, when the bottom face passes the descent floor
        untouched.

        The last ``_REMEMBERED_DESCENTS`` descents that cannot reach the
        overlay's material are remembered, with read-only arrays: asked for
        again while that holds, one returns the same objects.
        """
        obj = self._require_held()
        if resistance_threshold <= 0.0:
            raise ValueError("resistance_threshold must be positive")
        xy = np.asarray(xy, dtype=float)
        key = self._descent_key(obj, xy, resistance_threshold, start_tip_z)
        if key is not None:
            for i, (seen, result) in enumerate(self._descents):
                if seen == key:
                    self._descents.insert(0, self._descents.pop(i))
                    return result
        result = self._descend(obj, xy, resistance_threshold, start_tip_z)
        if key is not None:
            contact, _, tips, forces = result
            for a in (contact.contact_point, contact.surface_normal, contact.contact_patch,
                      tips, forces):
                a.setflags(write=False)
            self._descents = [(key, result)] + self._descents[:_REMEMBERED_DESCENTS - 1]
        return result

    def _descent_key(self, obj: HeldObject, xy: np.ndarray, resistance_threshold,
                     start_tip_z):
        """What the descent's result depends on, floats by their bits (the tips
        carry xy's, so -0.0 is not 0.0); None while the footprint's extent,
        plus a raster cell for the roundoff of the samples and the patch
        centroid, may reach the overlay's material."""
        center = xy + obj.com_offset[:2]
        reach = obj.footprint.size + self.overlay.pitch
        if self.overlay._may_reach_rectangle(center[0] - reach, center[1] - reach,
                                             center[0] + reach, center[1] + reach):
            return None
        return (xy.tobytes(), obj.com_offset.tobytes(),
                struct.pack("3d", start_tip_z, resistance_threshold, obj.tip_to_bottom),
                obj.footprint, obj.bottom, self.params)

    def _descend(self, obj: HeldObject, xy: np.ndarray, resistance_threshold: float,
                 start_tip_z):
        touch, pts, tower = self._touch_profile(xy)
        z_touch = float(np.max(touch))  # heights are finite or NO_SURFACE
        bottom_start = float(start_tip_z) - obj.tip_to_bottom
        if np.isfinite(z_touch) and bottom_start <= z_touch:
            raise ValueError(
                f"approach starts at bottom z {bottom_start:.4f} m, "
                f"inside terrain touching at {z_touch:.4f} m"
            )

        pen_target = resistance_threshold / self.params.spring_k
        contact = None
        if np.isfinite(z_touch):
            contact = self._contact_at(touch, pts, tower, resistance_threshold, pen_target)

        step = self.params.descent_step
        floor = self.params.descent_floor
        # The range only has to reach the stop, so it runs a few steps past
        # the travel to the threshold compression or, failing contact, past
        # the floor; which step stops is decided by the comparisons below.
        travel = bottom_start - floor + pen_target + step
        if np.isfinite(z_touch):
            travel = min(travel, bottom_start - z_touch + pen_target)
        n = np.arange(int(max(travel, 0.0) / step) + 3)
        z_bottom = bottom_start - n * step
        if np.isfinite(z_touch):
            pen = z_touch - z_bottom
        else:
            pen = np.zeros_like(z_bottom)
        force = np.where(pen > 0.0, self.params.spring_k * pen, 0.0)
        detected = force >= resistance_threshold
        stops = np.flatnonzero(detected | ((z_bottom <= floor) & (force <= 0.0)))
        if stops.size == 0:
            raise RuntimeError(
                f"descent range of {n.size} steps misses the stop at "
                f"xy ({xy[0]:.3f}, {xy[1]:.3f})"
            )
        last = int(stops[0])

        tips = np.empty((last + 1, 3))
        tips[:, :2] = xy
        tips[:, 2] = z_bottom[: last + 1] + obj.tip_to_bottom
        forces = force[: last + 1]
        if not detected[last]:
            raise NoContactWithinRange(
                f"no resistance above the floor {floor} m at "
                f"xy ({xy[0]:.3f}, {xy[1]:.3f})",
                tips, forces,
            )
        z_stop = z_touch - pen_target
        return contact, float(z_stop + obj.tip_to_bottom), tips, forces

    # -- wrench synthesis ---------------------------------------------------

    def true_wrist_wrench(self, tip_pose, contact: ContactResult | None,
                          ) -> tuple[np.ndarray, np.ndarray]:
        """Load-on-wrist wrench about the sensor origin, wrist frame, as its
        (3,) torque and force, for one held pose.

        Equals the gravity wrench of the distal load plus the contact wrench;
        the gripper's supporting wrench is their negation and is what the arm
        provides through the sensor. Computed on Python floats with the
        operations ``wrist_wrench_rows`` takes, in its order (the lift's
        ``+ 0.0`` on x and y and the sums into zeros included), so it gives
        the bits of that method's one row for the pose, signed zeros too.
        """
        obj = self._require_held()
        g = self.params.gravity
        tx, ty, tz = np.asarray(tip_pose, dtype=float).tolist()
        cx, cy, cz = obj.com_offset.tolist()
        wx, wy, wz = tx + 0.0, ty + 0.0, tz + self.params.wrist_lift

        fz = -obj.mass * g
        t0, t1, t2 = cross_floats(((tx + cx) - wx, (ty + cy) - wy, (tz + cz) - wz), (0.0, 0.0, fz))
        tau, f = [0.0 + t0, 0.0 + t1, 0.0 + t2], [0.0, 0.0, 0.0 + fz]
        if self.params.gripper_mass > 0.0:
            fz = -self.params.gripper_mass * g
            t0, t1, t2 = cross_floats((tx - wx, ty - wy, tz - wz), (0.0, 0.0, fz))
            tau, f[2] = [tau[0] + t0, tau[1] + t1, tau[2] + t2], f[2] + fz
        if contact is not None and contact.normal_force_magnitude > 0.0:
            m = contact.normal_force_magnitude
            fc = [m * n for n in contact.surface_normal.tolist()]
            px, py, pz = contact.contact_point.tolist()
            t0, t1, t2 = cross_floats((px - wx, py - wy, pz - wz), fc)
            tau = [tau[0] + t0, tau[1] + t1, tau[2] + t2]
            f = [f[0] + fc[0], f[1] + fc[1], f[2] + fc[2]]
        wrench = np.array(tau + f)
        return wrench[:3], wrench[3:]

    def wrist_wrench_rows(self, tips, forces, contact: ContactResult | None):
        """Torque and force rows of the true wrist wrench at (N, 3) tip poses.

        ``forces`` holds each pose's spring-force magnitude; a pose with a
        positive one adds that force along the contact normal, applied at
        the contact point.
        """
        obj = self._require_held()
        wrist = tips + np.array([0.0, 0.0, self.params.wrist_lift])
        g = self.params.gravity

        tau = np.zeros(tips.shape)
        f = np.zeros(tips.shape)
        f_obj = np.array([0.0, 0.0, -obj.mass * g])
        tau += cross(tips + obj.com_offset - wrist, f_obj)
        f += f_obj
        if self.params.gripper_mass > 0.0:
            f_grip = np.array([0.0, 0.0, -self.params.gripper_mass * g])
            tau += cross(tips - wrist, f_grip)
            f += f_grip
        touching = forces > 0.0
        if touching.any():
            fc = forces[touching, None] * contact.surface_normal
            tau[touching] += cross(contact.contact_point - wrist[touching], fc)
            f[touching] += fc
        return tau, f

    # -- release ------------------------------------------------------------

    def stable_if_released(self, com_xy, contact: ContactResult) -> bool:
        """Support test for the true COM's vertical projection.

        Patch contact: inside the patch convex hull shrunk by the stability
        margin (a COM on the raw boundary counts as unstable). Point or
        collinear contact: within the margin of the contact set.
        """
        com = np.asarray(com_xy, dtype=float)[:2]
        pts = contact.contact_patch[:, :2]
        margin = self.params.stability_margin
        if pts.shape[0] >= 3:
            verts = _convex_hull(_column_extremes(pts))  # counter-clockwise
            if verts is None:
                return _distance_to_point_set(com, pts) <= margin
            edges = np.roll(verts, -1, axis=0) - verts
            rel = com[None, :] - verts
            inward = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
            lengths = np.linalg.norm(edges, axis=1)
            return bool(np.min(inward / lengths) >= margin)
        return _distance_to_point_set(com, pts) <= margin

    def release(self, tip_pose, contact: ContactResult) -> ReleaseOutcome:
        """Open the gripper at the pose; settle or topple, then update terrain.

        ``contact`` is the descent's contact at this pose's xy; a settled
        object rests at its touch height.
        """
        obj = self._require_held()
        tip = np.asarray(tip_pose, dtype=float)
        com = tip + obj.com_offset
        stable = self.stable_if_released(com[:2], contact)
        if not stable:
            self.held = None
            return ReleaseOutcome(settled=False)

        self.held = None
        rest_bottom = contact.touch_height
        top_base = rest_bottom + obj.thickness
        center = com[:2]

        def top_fn(dx, dy):
            return top_base + obj.top.rise(dx, dy)

        if obj.footprint.kind == "disk":
            self.overlay.stamp_disk(center, obj.footprint.size, top_fn)
        else:
            self.overlay.stamp_square(center, obj.footprint.size, top_fn)

        final_com = np.array([com[0], com[1], rest_bottom + obj.tip_to_bottom + obj.com_offset[2]])
        top_height = top_base + (obj.top.amplitude if obj.top.kind == "undulating" else 0.0)
        return ReleaseOutcome(settled=True, final_com=final_com, top_height=float(top_height))


def _column_extremes(pts: np.ndarray) -> np.ndarray:
    """The lowest-y and highest-y point of each distinct x, sorted by (x, y).

    Any other point lies on the segment between its column's two extremes,
    so these rows span the convex hull of ``pts`` and hold all its vertices.
    Rows already in (x, y) order, as ``_contact_at`` gives them, skip the
    sort; it is stable, so it would leave them as they are.
    """
    xs, ys = pts[:, 0], pts[:, 1]
    if not np.all((xs[1:] > xs[:-1]) | ((xs[1:] == xs[:-1]) & (ys[1:] >= ys[:-1]))):
        pts = pts[np.lexsort((ys, xs))]
        xs = pts[:, 0]
    new_column = xs[1:] != xs[:-1]
    keep = np.concatenate([[True], new_column]) | np.concatenate([new_column, [True]])
    return pts[keep]


# m; a middle point this close to the chord between its hull neighbours is
# not a vertex, so rim points that roundoff alone takes off a straight edge
# merge into it, as they do in qhull
_COLLINEAR_TOL = 1e-12


def _convex_hull(extremes: np.ndarray) -> np.ndarray | None:
    """Counter-clockwise hull vertices of ``_column_extremes`` rows, or None
    when fewer than 3 are left, as for a point or collinear set.

    Andrew's monotone chain: the rows are sorted by (x, y), so the lower
    hull is the chain over each column's lowest row, left to right, and the
    upper hull the chain over each column's highest row, right to left.
    """
    new_column = extremes[1:, 0] != extremes[:-1, 0]
    lower = _left_turn_chain(extremes[np.concatenate([[True], new_column])])
    upper = _left_turn_chain(extremes[np.concatenate([new_column, [True]])][::-1])
    # a column of one row ends one chain and starts the other
    if np.array_equal(lower[-1], upper[0]):
        upper = upper[1:]
    if len(upper) and np.array_equal(upper[-1], lower[0]):
        upper = upper[:-1]
    hull = np.concatenate([lower, upper])
    return hull if len(hull) >= 3 else None


def _left_turn_chain(rows: np.ndarray) -> np.ndarray:
    """The rows, in order, less each middle row that lies left of, or within
    ``_COLLINEAR_TOL`` of, the chord between its neighbours: the chain turns
    left at every row it keeps. Each pass drops every middle row that fails
    against its current neighbours, until none fails."""
    x, y = rows[:, 0], rows[:, 1]
    keep = np.arange(len(rows))
    while len(keep) >= 3:
        kx, ky = x[keep], y[keep]
        ox, oy, dx, dy = kx[:-2], ky[:-2], kx[2:] - kx[:-2], ky[2:] - ky[:-2]
        turns = ((kx[1:-1] - ox) * dy - (ky[1:-1] - oy) * dx
                 > _COLLINEAR_TOL * np.sqrt(dx * dx + dy * dy))
        if turns.all():
            break
        keep = keep[np.concatenate([[True], turns, [True]])]
    return rows[keep]


def _distance_to_point_set(p: np.ndarray, pts: np.ndarray) -> float:
    """Distance from p to the convex hull of a point or collinear set.

    The least distance from p to any segment between two of the points,
    all pairs in one array pass: t is p's clipped projection parameter on
    the segment, and a zero-length pair measures to its point. Stacked dot
    products give the bits a one-vector ``@`` and ``np.linalg.norm`` give.
    """
    if pts.shape[0] == 1:
        return float(np.linalg.norm(p - pts[0]))
    i, j = np.triu_indices(pts.shape[0], 1)
    a = pts[i]
    ab = pts[j] - a
    denom = _row_dots(ab, ab)
    zero = denom == 0.0
    # a zero-length pair keeps t = 0, which leaves the distance to its point
    t = np.clip(_row_dots(p - a, ab) / np.where(zero, 1.0, denom), 0.0, 1.0)
    t[zero] = 0.0
    rel = p - (a + t[:, None] * ab)
    return float(np.min(np.sqrt(_row_dots(rel, rel))))
