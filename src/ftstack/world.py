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
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .spatial import FrameId, Wrench
from .surfaces import NO_SURFACE, HeightField, LayeredSurface


class NoContactWithinRange(RuntimeError):
    """Descent exhausted its height budget without meeting resistance."""


@dataclass(frozen=True)
class Footprint:
    """Horizontal extent of the object's bottom face, centered on its frame."""

    kind: str  # "disk" or "square"
    size: float  # disk radius or square half-side (m)

    def __post_init__(self):
        if self.kind not in ("disk", "square"):
            raise ValueError(f"unknown footprint kind {self.kind!r}")
        if self.size <= 0.0:
            raise ValueError("footprint size must be positive")

    @property
    def bounding_radius(self) -> float:
        return self.size if self.kind == "disk" else self.size * np.sqrt(2.0)

    def contains(self, dx, dy):
        if self.kind == "disk":
            return dx * dx + dy * dy <= self.size * self.size
        return (np.abs(dx) <= self.size) & (np.abs(dy) <= self.size)

    def sample_offsets(self, pitch: float) -> np.ndarray:
        return _footprint_offsets(self.kind, self.size, pitch)


@functools.lru_cache(maxsize=64)
def _footprint_offsets(kind: str, size: float, pitch: float) -> np.ndarray:
    """Interior grid plus an exact boundary ring, as (K, 2) offsets."""
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
    out = np.unique(np.round(pts, 12), axis=0)
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
        if self.kind == "dome" and self.curvature_radius <= 0.0:
            raise ValueError("dome bottom needs a positive curvature_radius")

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
            if self.amplitude <= 0.0 or self.wavelength <= 0.0:
                raise ValueError("undulating top needs positive amplitude and wavelength")

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
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.thickness <= 0.0:
            raise ValueError("thickness must be positive")
        object.__setattr__(self, "com_offset", np.asarray(self.com_offset, dtype=float))
        if self.com_offset.shape != (3,):
            raise ValueError("com_offset must be a 3-vector")
        if self.tip_to_bottom is None:
            object.__setattr__(self, "tip_to_bottom", self.thickness / 2.0)


@dataclass(frozen=True)
class SimParams:
    spring_k: float = 1e5          # N per m of interference
    descent_step: float = 5e-4     # m
    contact_pitch: float = 1e-3    # m, footprint sampling
    raster_pitch: float = 2e-3     # m, tower height-field stamps
    patch_tie_tol: float = 1e-6    # m, coplanarity tie tolerance
    stability_margin: float = 1e-3  # m, support shrink / point slack
    gravity: float = 9.81          # m/s^2
    wrist_lift: float = 0.15       # m, tip to sensor origin
    gripper_mass: float = 0.0      # kg, lumped at the tip
    descent_floor: float = -0.02   # m, bottom-face budget before giving up

    def __post_init__(self):
        if self.spring_k <= 0.0 or self.descent_step <= 0.0 or self.contact_pitch <= 0.0:
            raise ValueError("spring_k, descent_step and contact_pitch must be positive")


@dataclass(frozen=True, eq=False)
class ContactResult:
    """Where and how hard the object meets the terrain at the press pose."""

    contact_point: np.ndarray          # resultant application point, world (m)
    surface_normal: np.ndarray         # unit, from the terrain gradient
    penetration: float                 # m at the deepest sample
    normal_force_magnitude: float      # N
    contact_patch: np.ndarray          # (P, 3) coplanar tie points, world

    @property
    def force(self) -> np.ndarray:
        return self.normal_force_magnitude * self.surface_normal


@dataclass(frozen=True, eq=False)
class ReleaseOutcome:
    settled: bool
    final_com: np.ndarray | None = None
    top_height: float | None = None


@dataclass(frozen=True, eq=False)
class PlacedObject:
    obj: HeldObject
    final_com: np.ndarray
    top_height: float


class World:
    """Terrain, the optional held object, and the quasi-static contact model."""

    def __init__(self, surfaces, x_range=(-0.3, 0.3), y_range=(-0.3, 0.3),
                 params: SimParams | None = None):
        layers = tuple(surfaces) if isinstance(surfaces, (list, tuple)) else (surfaces,)
        if not layers:
            raise ValueError("world needs at least one surface layer")
        self.params = params if params is not None else SimParams()
        self.x_range = tuple(float(v) for v in x_range)
        self.y_range = tuple(float(v) for v in y_range)
        self.overlay = HeightField.empty(self.x_range, self.y_range, self.params.raster_pitch)
        self.terrain = LayeredSurface(layers + (self.overlay,))
        self.held: HeldObject | None = None
        self.placed: list[PlacedObject] = []

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
        """Per-sample bottom-face heights at first touch, plus sample points."""
        obj = self._require_held()
        offsets = obj.footprint.sample_offsets(self.params.contact_pitch)
        center = np.asarray(xy, dtype=float) + obj.com_offset[:2]
        pts = offsets + center
        tower = self.surface_height(pts[:, 0], pts[:, 1])
        touch = tower - obj.bottom.clearance(offsets[:, 0], offsets[:, 1])
        return touch, pts, tower

    def _contact_at(self, touch, pts, tower, force_magnitude, penetration) -> ContactResult:
        z_touch = np.max(touch)
        tie = touch >= z_touch - self.params.patch_tie_tol
        patch = np.column_stack([pts[tie], tower[tie]])
        if patch.shape[0] > 1:
            app = patch.mean(axis=0)
        else:
            app = patch[0]
        normal = self.surface_normal(app[0], app[1])
        return ContactResult(
            contact_point=app,
            surface_normal=normal,
            penetration=float(penetration),
            normal_force_magnitude=float(force_magnitude),
            contact_patch=patch,
        )

    def descend_until_contact(self, xy, resistance_threshold: float, start_tip_z: float,
                              on_step=None):
        """Lower the held object until spring force reaches the threshold.

        Steps down by descent_step until the spring force meets
        resistance_threshold (detection), then settles at exactly the
        threshold compression, like a force-servo halt. All stepped poses,
        and their true wrist wrenches, are computed in one vectorized pass;
        ``on_step`` is then called once per stepped pose, in order, with that
        pose's wrench, which is where the contact-approach time series comes
        from. Raises NoContactWithinRange, after those calls, when the bottom
        face passes the descent floor untouched.
        """
        obj = self._require_held()
        if resistance_threshold <= 0.0:
            raise ValueError("resistance_threshold must be positive")
        touch, pts, tower = self._touch_profile(xy)
        finite = np.isfinite(touch)
        z_touch = float(np.max(touch[finite])) if finite.any() else NO_SURFACE
        bottom_start = float(start_tip_z) - obj.tip_to_bottom
        if np.isfinite(z_touch) and bottom_start <= z_touch:
            raise ValueError(
                f"approach starts at bottom z {bottom_start:.4f} m, "
                f"inside terrain touching at {z_touch:.4f} m"
            )

        pen_target = resistance_threshold / self.params.spring_k
        contact_geom = None
        if np.isfinite(z_touch):
            contact_geom = self._contact_at(touch, pts, tower, 0.0, 0.0)

        xy = np.asarray(xy, dtype=float)
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

        if on_step is not None:
            z_steps, f_steps = z_bottom[: last + 1], force[: last + 1]
            tips = np.empty((last + 1, 3))
            tips[:, :2] = xy
            tips[:, 2] = z_steps + obj.tip_to_bottom
            touching = f_steps > 0.0
            if touching.any():
                fc = f_steps[touching, None] * contact_geom.surface_normal
                tau, f = self._wrist_wrench_rows(tips, contact_geom.contact_point, fc, touching)
            else:
                tau, f = self._wrist_wrench_rows(tips)
            for i in range(last + 1):
                on_step(Wrench(tau[i], f[i], frame=FrameId.WRIST))
        if not detected[last]:
            raise NoContactWithinRange(
                f"no resistance above the floor {floor} m at "
                f"xy ({xy[0]:.3f}, {xy[1]:.3f})"
            )

        z_stop = z_touch - pen_target
        contact = _with_force(contact_geom, float(resistance_threshold), float(pen_target))
        return contact, float(z_stop + obj.tip_to_bottom)

    # -- wrench synthesis ---------------------------------------------------

    def weight_force(self) -> np.ndarray:
        """Gravity force on the distal load (object plus gripper), base frame."""
        obj = self._require_held()
        w = (obj.mass + self.params.gripper_mass) * self.params.gravity
        return np.array([0.0, 0.0, -w])

    def true_wrist_wrench(self, tip_pose, contact: ContactResult | None) -> Wrench:
        """Load-on-wrist wrench about the sensor origin, wrist frame.

        Equals the gravity wrench of the distal load plus the contact wrench;
        the gripper's supporting wrench is their negation and is what the arm
        provides through the sensor.
        """
        tips = np.asarray(tip_pose, dtype=float)[None, :]
        if contact is None:
            tau, f = self._wrist_wrench_rows(tips)
        else:
            tau, f = self._wrist_wrench_rows(tips, contact.contact_point, contact.force[None, :])
        return Wrench(tau[0], f[0], frame=FrameId.WRIST)

    def _wrist_wrench_rows(self, tips, contact_point=None, contact_force=None,
                           touching=slice(None)):
        """Torque and force rows of the true wrist wrench at (N, 3) tip poses.

        ``contact_force`` holds one row per pose selected by ``touching``;
        those poses add the contact wrench applied at ``contact_point``.
        """
        obj = self._require_held()
        wrist = tips + np.array([0.0, 0.0, self.params.wrist_lift])
        g = self.params.gravity

        tau = np.zeros(tips.shape)
        f = np.zeros(tips.shape)
        f_obj = np.array([0.0, 0.0, -obj.mass * g])
        tau += np.cross(tips + obj.com_offset - wrist, f_obj)
        f += f_obj
        if self.params.gripper_mass > 0.0:
            f_grip = np.array([0.0, 0.0, -self.params.gripper_mass * g])
            tau += np.cross(tips - wrist, f_grip)
            f += f_grip
        if contact_force is not None:
            tau[touching] += np.cross(contact_point - wrist[touching], contact_force)
            f[touching] += contact_force
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
            try:
                hull = ConvexHull(pts)
            except QhullError:
                return _distance_to_point_set(com, pts) <= margin
            verts = pts[hull.vertices]  # counter-clockwise
            edges = np.roll(verts, -1, axis=0) - verts
            rel = com[None, :] - verts
            inward = edges[:, 0] * rel[:, 1] - edges[:, 1] * rel[:, 0]
            lengths = np.linalg.norm(edges, axis=1)
            return bool(np.min(inward / lengths) >= margin)
        return _distance_to_point_set(com, pts) <= margin

    def release(self, tip_pose, contact: ContactResult) -> ReleaseOutcome:
        """Open the gripper at the pose; settle or topple, then update terrain."""
        obj = self._require_held()
        tip = np.asarray(tip_pose, dtype=float)
        com = tip + obj.com_offset
        stable = self.stable_if_released(com[:2], contact)
        if not stable:
            self.held = None
            return ReleaseOutcome(settled=False)

        touch, _, _ = self._touch_profile(tip[:2])
        self.held = None
        rest_bottom = float(np.max(touch[np.isfinite(touch)]))
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
        placed = PlacedObject(obj=obj, final_com=final_com, top_height=float(top_height))
        self.placed.append(placed)
        return ReleaseOutcome(settled=True, final_com=final_com, top_height=float(top_height))


def _with_force(contact: ContactResult, force: float, penetration: float) -> ContactResult:
    return ContactResult(
        contact_point=contact.contact_point,
        surface_normal=contact.surface_normal,
        penetration=penetration,
        normal_force_magnitude=force,
        contact_patch=contact.contact_patch,
    )


def _distance_to_point_set(p: np.ndarray, pts: np.ndarray) -> float:
    """Distance from p to the convex hull of a point or collinear set."""
    if pts.shape[0] == 1:
        return float(np.linalg.norm(p - pts[0]))
    best = np.inf
    for i in range(pts.shape[0]):
        for j in range(i + 1, pts.shape[0]):
            best = min(best, _distance_to_segment(p, pts[i], pts[j]))
    return float(best)


def _distance_to_segment(p, a, b) -> float:
    ab = b - a
    denom = float(ab @ ab)
    if denom == 0.0:
        return float(np.linalg.norm(p - a))
    t = np.clip(float((p - a) @ ab) / denom, 0.0, 1.0)
    return float(np.linalg.norm(p - (a + t * ab)))
