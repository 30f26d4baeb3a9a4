"""Contact geometry recovered from calibrated wrench readings.

During a quasi-static press the forces on the held object balance:

    gravity + push + normal = 0        =>   F_N = -(gravity + push)

where ``gravity`` is the load weight measured at hover and ``push`` is the
arm's force on the load, the Newton-third-law flip of the sensed force. The
contact torque about the assumed COM satisfies tau = r x F_N, which pins the
tangent-plane part of the contact offset:

    r_T = F_N x tau / |F_N|^2

(the component of r along the normal is unobservable and reported as zero).
The in-plane direction whose tip gains the most height, used to walk toward
flatter ground, is

    d = z_hat - (n . z_hat) n    ( == -n x (n x z_hat) )

left unnormalized on purpose: |d| decays as the contact normal approaches
vertical, so steps along it shrink automatically near flat contact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spatial import Z_HAT, _as_vec3, cross_floats, tangent_projection

DEFAULT_FORCE_FLOOR = 1.0  # N; presses weaker than this are noise-dominated


class DegenerateNormalForce(RuntimeError):
    """Press too weak to resolve contact geometry from the wrench."""


@dataclass(frozen=True, eq=False)
class ForceBudget:
    """Base-frame forces on the held object during a press (N)."""

    gravity: np.ndarray
    push: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "gravity", _as_vec3(self.gravity, "gravity"))
        object.__setattr__(self, "push", _as_vec3(self.push, "push"))
        if self.gravity[2] > 0.0:
            raise ValueError(f"gravity must not point up, got {self.gravity}")


@dataclass(frozen=True, eq=False)
class ContactEstimate:
    """What one settled press reveals about the contact under the object."""

    normal_force: np.ndarray      # F_N, base frame (N)
    normal_dir: np.ndarray        # unit normal, F_N / |F_N|
    tangent_offset: np.ndarray    # contact minus assumed COM, tangent part (m)
    flat_dir: np.ndarray          # unnormalized flat-seeking direction
    press_magnitude: float        # |F_N| (N)


def solve_normal_force(budget: ForceBudget) -> np.ndarray:
    """Normal force implied by quasi-static balance: -(gravity + push)."""
    return -(budget.gravity + budget.push)


def recover_contact_offset(f_n, torque, force_floor: float = DEFAULT_FORCE_FLOOR) -> np.ndarray:
    """Tangent-plane contact offset from tau = r x F_N.

    Raises DegenerateNormalForce when |F_N| <= force_floor; below that the
    division amplifies noise past usefulness.
    """
    f = _as_vec3(f_n, "f_n")
    tau = _as_vec3(torque, "torque")
    norm_sq = float(f @ f)
    if norm_sq <= force_floor * force_floor:
        raise DegenerateNormalForce(
            f"|F_N| = {np.sqrt(norm_sq):.3g} N is at or below the floor {force_floor:g} N"
        )
    return np.array(cross_floats(f.tolist(), tau.tolist())) / norm_sq


def flat_direction(n_hat) -> np.ndarray:
    """Unnormalized tangent direction of steepest height gain; zero at n = +-z."""
    n = _as_vec3(n_hat, "n_hat")
    if abs(np.linalg.norm(n) - 1.0) > 1e-9:
        raise ValueError(f"n_hat must be unit length, got norm {np.linalg.norm(n)!r}")
    return Z_HAT - np.dot(n, Z_HAT) * n


def estimate_contact(
    torque,
    force,
    gravity,
    force_floor: float = DEFAULT_FORCE_FLOOR,
) -> ContactEstimate:
    """Bundle the full per-press estimate from one converted reading.

    ``torque`` and ``force`` are the settled sensor reading's (3,) parts,
    converted to the assumed COM frame, with the hover baseline subtracted
    from the torque. The force stays as sensed (load on wrist); together
    with the hover ``gravity`` estimate it forms the force budget, the push
    being the reaction of the sensed force. Constant sensor bias cancels
    between the two terms.
    """
    g = _as_vec3(gravity, "gravity")
    budget = ForceBudget(gravity=g, push=-_as_vec3(force, "force"))
    f_n = solve_normal_force(budget)
    press = float(np.linalg.norm(f_n))
    if press <= force_floor:
        raise DegenerateNormalForce(
            f"press of {press:.3g} N is at or below the floor {force_floor:g} N"
        )
    n_hat = f_n / press
    r_t = recover_contact_offset(f_n, torque, force_floor)
    # r_T is orthogonal to F_N by construction; keep only its tangent meaning
    return ContactEstimate(
        normal_force=f_n,
        normal_dir=n_hat,
        tangent_offset=r_t,
        flat_dir=flat_direction(n_hat),
        press_magnitude=press,
    )


def tangent_residual(estimate: ContactEstimate, reference_offset) -> np.ndarray:
    """Estimate error against a known offset, compared in the tangent plane."""
    ref = tangent_projection(reference_offset, estimate.normal_dir)
    return estimate.tangent_offset - ref
