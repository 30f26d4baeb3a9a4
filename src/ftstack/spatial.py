"""Rigid transforms and wrench algebra over the robot's named frames.

Conventions
-----------
A ``RigidTransform`` ``g`` with rotation ``R`` and translation ``t`` is the
pose of its ``child`` frame expressed in its ``parent`` frame, so it maps
point coordinates child -> parent::

    p_parent = R @ p_child + t

Wrenches are stacked torque-first. ``transform_wrench(g, w)`` takes a wrench
expressed in the *parent* frame (about the parent origin) and re-expresses it
in the *child* frame, which is the transpose-adjoint action::

    tau_child = R.T @ (tau_parent - t x f_parent)
    f_child   = R.T @ f_parent

The companion twist map ``transform_twist`` is derived independently from
rigid point velocities, and the pair is pinned by power invariance:
``tau . omega + f . v`` must be identical in every frame. The tests enforce
this, so the convention above is load-bearing, not decorative.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

ORTHONORMALITY_TOL = 1e-9
REORTHONORMALIZE_TOL = 1e-12
UNIT_TOL = 1e-9

Z_HAT = np.array([0.0, 0.0, 1.0])
Z_HAT.setflags(write=False)


class FrameId(Enum):
    """Named frames of the placement rig."""

    BASE = "base"
    WRIST = "wrist"
    GRIPPER_TIP = "gripper_tip"
    ROCK_COM = "rock_com"
    CONTACT = "contact"


class FrameMismatch(ValueError):
    """Frame labels on transforms or wrenches do not line up."""


def vec3(x: float, y: float, z: float) -> np.ndarray:
    v = np.array([x, y, z], dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"vector components must be finite, got {v}")
    return v


def _as_vec3(value, name: str) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite, got {arr}")
    return arr


def skew(v) -> np.ndarray:
    """Matrix form of the cross product: skew(v) @ u == v x u."""
    x, y, z = _as_vec3(v, "v")
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def _frozen_copy(arr: np.ndarray) -> np.ndarray:
    out = arr.copy()
    out.setflags(write=False)
    return out


def _merge_frames(a: FrameId | None, b: FrameId | None, what: str) -> FrameId | None:
    if a is not None and b is not None and a != b:
        raise FrameMismatch(f"{what}: {a.value} vs {b.value}")
    return a if a is not None else b


@dataclass(frozen=True, eq=False)
class Wrench:
    """Torque-first wrench about a frame origin, optionally frame-labeled."""

    torque: np.ndarray
    force: np.ndarray
    frame: FrameId | None = None

    def __post_init__(self):
        object.__setattr__(self, "torque", _frozen_copy(_as_vec3(self.torque, "torque")))
        object.__setattr__(self, "force", _frozen_copy(_as_vec3(self.force, "force")))

    @staticmethod
    def zero(frame: FrameId | None = None) -> "Wrench":
        return Wrench(np.zeros(3), np.zeros(3), frame)

    @staticmethod
    def from_vector(w, frame: FrameId | None = None) -> "Wrench":
        arr = np.asarray(w, dtype=float).reshape(6)
        return Wrench(arr[:3], arr[3:], frame)

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.torque, self.force])

    def __add__(self, other: "Wrench") -> "Wrench":
        frame = _merge_frames(self.frame, other.frame, "wrench add")
        return Wrench(self.torque + other.torque, self.force + other.force, frame)

    def __sub__(self, other: "Wrench") -> "Wrench":
        frame = _merge_frames(self.frame, other.frame, "wrench subtract")
        return Wrench(self.torque - other.torque, self.force - other.force, frame)

    def __repr__(self) -> str:
        tag = f", frame={self.frame.value}" if self.frame is not None else ""
        return f"Wrench(torque={self.torque.tolist()}, force={self.force.tolist()}{tag})"


def _validate_rotation(rot: np.ndarray) -> np.ndarray:
    arr = np.asarray(rot, dtype=float)
    if arr.shape != (3, 3):
        raise ValueError(f"rotation must be 3x3, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("rotation entries must be finite")
    drift = np.linalg.norm(arr.T @ arr - np.eye(3))
    if drift > ORTHONORMALITY_TOL:
        raise ValueError(f"rotation is not orthonormal (drift {drift:.3e})")
    if np.linalg.det(arr) <= 0.0:
        raise ValueError("rotation must be proper (det +1)")
    return arr


def _project_rotation(rot: np.ndarray) -> np.ndarray:
    # nearest proper rotation in the Frobenius sense
    u, _, vt = np.linalg.svd(rot)
    out = u @ vt
    if np.linalg.det(out) < 0.0:
        out = u @ np.diag([1.0, 1.0, -1.0]) @ vt
    return out


@dataclass(frozen=True, eq=False)
class RigidTransform:
    """Pose of ``child`` in ``parent``: p_parent = rotation @ p_child + translation."""

    rotation: np.ndarray
    translation: np.ndarray
    parent: FrameId | None = None
    child: FrameId | None = None

    def __post_init__(self):
        object.__setattr__(self, "rotation", _frozen_copy(_validate_rotation(self.rotation)))
        object.__setattr__(
            self, "translation", _frozen_copy(_as_vec3(self.translation, "translation"))
        )

    @staticmethod
    def identity(parent: FrameId | None = None, child: FrameId | None = None) -> "RigidTransform":
        return RigidTransform(np.eye(3), np.zeros(3), parent, child)

    @staticmethod
    def from_translation(t, parent=None, child=None) -> "RigidTransform":
        return RigidTransform(np.eye(3), _as_vec3(t, "translation"), parent, child)

    @staticmethod
    def from_axis_angle(axis, angle: float, translation=(0.0, 0.0, 0.0),
                        parent=None, child=None) -> "RigidTransform":
        a = _as_vec3(axis, "axis")
        norm = np.linalg.norm(a)
        if norm < 1e-12:
            raise ValueError("axis must be nonzero")
        a = a / norm
        k = skew(a)
        rot = np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)
        return RigidTransform(rot, _as_vec3(translation, "translation"), parent, child)

    @staticmethod
    def from_quaternion(q, translation=(0.0, 0.0, 0.0), parent=None, child=None) -> "RigidTransform":
        """Unit quaternion in (w, x, y, z) order; small norm drift is renormalized."""
        arr = np.asarray(q, dtype=float).reshape(4)
        norm = np.linalg.norm(arr)
        if norm < 1e-12:
            raise ValueError("quaternion must be nonzero")
        w, x, y, z = arr / norm
        rot = np.array(
            [
                [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
                [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
                [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
            ]
        )
        return RigidTransform(rot, _as_vec3(translation, "translation"), parent, child)

    def point_to_parent(self, p) -> np.ndarray:
        return self.rotation @ _as_vec3(p, "p") + self.translation


def compose(g_ab: RigidTransform, g_bc: RigidTransform) -> RigidTransform:
    """g_ac = g_ab then g_bc; inner frame labels must agree when present."""
    if g_ab.child is not None and g_bc.parent is not None and g_ab.child != g_bc.parent:
        raise FrameMismatch(f"compose: inner frames {g_ab.child.value} vs {g_bc.parent.value}")
    rot = g_ab.rotation @ g_bc.rotation
    drift = np.linalg.norm(rot.T @ rot - np.eye(3))
    if drift > REORTHONORMALIZE_TOL:
        rot = _project_rotation(rot)
    trans = g_ab.rotation @ g_bc.translation + g_ab.translation
    return RigidTransform(rot, trans, parent=g_ab.parent, child=g_bc.child)


def invert(g: RigidTransform) -> RigidTransform:
    rot_t = g.rotation.T
    return RigidTransform(rot_t, -(rot_t @ g.translation), parent=g.child, child=g.parent)


def transform_wrench(g_ab: RigidTransform, wrench_a: Wrench) -> Wrench:
    """Re-express a parent-frame wrench in the child frame.

    The torque picks up the moment-arm correction for the origin shift before
    rotating into child axes; the force only rotates. See the module docstring
    for the sign conventions this implements.
    """
    if (
        wrench_a.frame is not None
        and g_ab.parent is not None
        and wrench_a.frame != g_ab.parent
    ):
        raise FrameMismatch(
            f"wrench in {wrench_a.frame.value} cannot transform via parent {g_ab.parent.value}"
        )
    rot_t = g_ab.rotation.T
    tau = rot_t @ (wrench_a.torque - np.cross(g_ab.translation, wrench_a.force))
    return Wrench(tau, rot_t @ wrench_a.force, frame=g_ab.child)


def transform_wrenches(g_ab: RigidTransform, wrenches) -> tuple[np.ndarray, np.ndarray]:
    """``transform_wrench`` over a sequence of parent-frame wrenches at once.

    Returns the child-frame torques and forces as (N, 3) rows, bit for bit
    the components ``transform_wrench`` gives one wrench at a time.
    """
    for w in wrenches:
        if w.frame is not None and g_ab.parent is not None and w.frame != g_ab.parent:
            raise FrameMismatch(
                f"wrench in {w.frame.value} cannot transform via parent {g_ab.parent.value}"
            )
    torque = np.array([w.torque for w in wrenches]).reshape(-1, 3)
    force = np.array([w.force for w in wrenches]).reshape(-1, 3)
    rot_t = g_ab.rotation.T
    # one stacked matrix-vector product per row, the product transform_wrench takes
    tau = (rot_t @ (torque - np.cross(g_ab.translation, force))[:, :, None])[:, :, 0]
    return tau, (rot_t @ force[:, :, None])[:, :, 0]


def transform_twist(g_ab: RigidTransform, angular, linear) -> tuple[np.ndarray, np.ndarray]:
    """Re-express a parent-frame twist (angular, linear-at-origin) in the child frame.

    Derived from rigid point velocities, not from the wrench map: the linear
    part at the child origin is v + omega x t, rotated into child axes. Used
    as the independent side of the power-invariance check.
    """
    omega = _as_vec3(angular, "angular")
    v = _as_vec3(linear, "linear")
    rot_t = g_ab.rotation.T
    return rot_t @ omega, rot_t @ (v + np.cross(omega, g_ab.translation))


def wrench_transform_matrix(g_ab: RigidTransform) -> np.ndarray:
    """6x6 matrix applying transform_wrench to torque-first stacked wrenches."""
    rot_t = g_ab.rotation.T
    m = np.zeros((6, 6))
    m[:3, :3] = rot_t
    m[:3, 3:] = -rot_t @ skew(g_ab.translation)
    m[3:, 3:] = rot_t
    return m


def tangent_projection(v, n_hat) -> np.ndarray:
    """Component of v in the plane orthogonal to the unit normal n_hat."""
    n = _as_vec3(n_hat, "n_hat")
    if abs(np.linalg.norm(n) - 1.0) > UNIT_TOL:
        raise ValueError(f"n_hat must be unit length, got norm {np.linalg.norm(n)!r}")
    vv = _as_vec3(v, "v")
    return vv - np.dot(vv, n) * n
