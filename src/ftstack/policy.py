"""Press-and-shift placement controller.

Each iteration presses the held object onto the terrain until a fixed
resistance, reads the settled wrench, and compares its torque against the
flat-press reference from calibration. A small residual means the contact
sits under the calibrated bearing point, so the object is released; otherwise
the estimated contact offset plus a flat-seeking nudge gives the lateral
shift for the next press.

The torque residual is hover- and reference-subtracted before it reaches the
estimator, so the recovered offset is measured from the bearing point the
flat calibration established. With an off-center grasp that is exactly what
makes the true center of mass, not the gripper tip, end up over the contact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .estimation import (
    DEFAULT_FORCE_FLOOR,
    ContactEstimate,
    DegenerateNormalForce,
    estimate_contact,
)
from .sensor import ForceTorqueSensor, ReadingWindow
from .spatial import _row_dots
from .validate import _at_least_zero, _count, _num, _pos, check_fields, checked
from .world import ContactResult, HeldObject, NoContactWithinRange, World


def _above_one(value, path: str) -> float:
    return _num(value, path, lo=1.0, lo_open=True)


class PlacementOutcome(Enum):
    RELEASED_STABLE = "released_stable"
    RELEASED_TOPPLED = "released_toppled"
    MAX_ITERATIONS = "max_iterations"
    NO_CONTACT = "no_contact"


@dataclass(frozen=True)
class PolicyConfig:
    resistance_threshold: float = checked(10.0, _pos)      # N, press-until force
    torque_release_threshold: float = checked(0.05, _pos)  # N*m on the torque residual
    step_gain: float = checked(0.5, _at_least_zero)        # flat-seeking nudge; 0 disables
    flat_dir_floor: float = checked(0.02, _at_least_zero)  # tilt deadband (sine of the angle)
    raise_height: float = checked(0.02, _at_least_zero)    # m lifted between presses
    force_floor: float = checked(DEFAULT_FORCE_FLOOR, _pos)  # N, degenerate-press cutoff
    max_iterations: int = checked(10, _count)
    workspace_limit: float = checked(0.2, _pos)            # m, symmetric xy clamp
    repress_scale: float = checked(1.5, _above_one)        # threshold factor for the retry press

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True, eq=False)
class PressOutcome:
    """One settled press: geometry, the referenced torque residual, and the estimate."""

    contact: ContactResult
    tip_pose: np.ndarray
    residual_torque: np.ndarray  # assumed-COM torque minus hover and flat reference
    estimate: ContactEstimate | None
    degenerate: bool

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual_torque))


@dataclass(frozen=True, eq=False)
class IterationRecord:
    index: int
    press_xy: np.ndarray
    tip_z: float
    residual_norm: float
    press_force: float
    released: bool
    degenerate: bool
    shift: np.ndarray


@dataclass(frozen=True, eq=False)
class PlacementTrace:
    outcome: PlacementOutcome
    iterations: tuple[IterationRecord, ...]
    # per iteration, rows (t, |f|, |tau|): the descent each iteration starts
    # with; a degenerate press's retry reads no rows
    descent_series: tuple[np.ndarray, ...]
    final_com: np.ndarray | None = None
    top_height: float | None = None


@dataclass(frozen=True, eq=False)
class Calibration:
    """Hover baseline and flat-press torque reference of the held object.

    All three are read-only (3,) arrays in the assumed-COM frame, from
    settled readings taken there: the hover torque and force, and the
    flat-press torque minus the hover torque. The readings carry the same
    constant sensor bias, which later subtractions cancel. Only
    ``calibrate_for_held`` builds one, after both phases have run.
    """

    hover_torque: np.ndarray
    hover_force: np.ndarray
    torque_reference: np.ndarray  # flat-press torque minus hover torque


def clamp_to_workspace(xy, limit: float) -> np.ndarray:
    return np.clip(np.asarray(xy, dtype=float), -limit, limit)


def propose_shift(estimate: ContactEstimate, config: PolicyConfig) -> np.ndarray:
    """Lateral correction: move onto the contact, biased toward flatter normals.

    Sensor force noise tilts the measured normal by a fraction of a degree
    even on level ground, so the flat-seeking term only engages once the
    tilt clears a deadband; below it the step would be a random kick.
    """
    full = estimate.tangent_offset
    if np.linalg.norm(estimate.flat_dir) > config.flat_dir_floor:
        full = full + config.step_gain * estimate.flat_dir
    return full[:2].copy()


def _to_com(lift: float, torque: np.ndarray,
            force: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sensor-origin readings, (3,) or (N, 3) torque and force, about the
    assumed COM, the grasp point ``lift`` below the sensor origin.

    The lever arm t = (0, 0, -lift) gives the torque tau + (-lift f_y,
    lift f_x, 0); the force is unchanged. These are the values and bits
    ``transform_wrench`` gives for that translation: its t x f components
    are exact products plus signed zeros, and the identity rotation adds
    only exact zero products, so the trailing + 0.0, which turns a -0.0
    into 0.0, leaves the same bits.
    """
    arm = np.empty(force.shape)
    arm[..., 0] = -lift * force[..., 1]
    arm[..., 1] = lift * force[..., 0]
    arm[..., 2] = 0.0
    return (torque + arm) + 0.0, force + 0.0


def _descent_rows(lift: float, calibration: Calibration, sensor: ForceTorqueSensor,
                  torque_rows: np.ndarray, force_rows: np.ndarray) -> np.ndarray:
    """Trace rows (t, |f|, |tau|) of a descent's true wrist-wrench rows.

    The sensor reads each row in one tick, and t is its clock after that
    tick. ``_to_com`` takes the (N, 3) readings to the assumed COM, ``lift``
    below the sensor, and the hover baseline is subtracted before the norms
    are taken.
    """
    ticks = sensor.ticks + 1 + np.arange(len(torque_rows))
    torque, force = _to_com(lift, *sensor.read_rows(torque_rows, force_rows))
    return np.column_stack([
        ticks / sensor.config.sample_rate,
        _row_norms(force - calibration.hover_force),
        _row_norms(torque - calibration.hover_torque),
    ])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    return np.sqrt(_row_dots(rows, rows))


def _settled_at_com(world: World, sensor: ForceTorqueSensor, window: ReadingWindow,
                    tip_pose, contact: ContactResult | None) -> tuple[np.ndarray, np.ndarray]:
    """Settled, averaged sensor reading at a held pose, taken to the
    assumed COM by ``_to_com``: its (3,) torque and force."""
    tau, f = sensor.settle_and_average(*world.true_wrist_wrench(tip_pose, contact), window)
    return _to_com(world.params.wrist_lift, tau, f)


def calibrate_for_held(world: World, sensor: ForceTorqueSensor, config: PolicyConfig,
                       window: ReadingWindow, calibration_xy, hover_tip_z: float,
                       ) -> Calibration:
    """Two-phase calibration for the currently held object.

    Hover in free space for the gravity baseline, then press on known-flat
    ground for the bearing-point reference. A hover reading that shows no
    hanging weight raises ValueError before the flat press starts. The
    press's stepped poses are not read, so no wrist rows are made for them.
    """
    xy = np.asarray(calibration_xy, dtype=float)
    hover_tip = np.array([xy[0], xy[1], float(hover_tip_z)])

    hover_torque, hover_force = _settled_at_com(world, sensor, window, hover_tip, None)
    if hover_force[2] >= 0.0:
        raise ValueError(
            f"hover reading shows no hanging weight (fz = {hover_force[2]:.3g} N)"
        )

    contact, tip_z, _, _ = world.descend_until_contact(
        xy, config.resistance_threshold, float(hover_tip_z)
    )
    press_tip = np.array([xy[0], xy[1], tip_z])
    flat_torque, _ = _settled_at_com(world, sensor, window, press_tip, contact)
    torque_reference = flat_torque - hover_torque
    for a in (hover_torque, hover_force, torque_reference):
        a.setflags(write=False)  # every press of the object shares them
    return Calibration(hover_torque, hover_force, torque_reference)


def press_and_estimate(world: World, sensor: ForceTorqueSensor,
                       calibration: Calibration, config: PolicyConfig,
                       window: ReadingWindow, xy, start_tip_z: float,
                       threshold: float | None = None) -> PressOutcome:
    """Descend at xy, settle a reading, and form the referenced estimate."""
    if threshold is None:
        threshold = config.resistance_threshold
    contact, tip_z, _, _ = world.descend_until_contact(xy, threshold, start_tip_z)
    return _settle_and_estimate(world, sensor, calibration, config, window, xy, contact, tip_z)


def _settle_and_estimate(world: World, sensor: ForceTorqueSensor,
                         calibration: Calibration, config: PolicyConfig,
                         window: ReadingWindow, xy, contact: ContactResult,
                         tip_z: float) -> PressOutcome:
    """Settle a reading at a descent's stop and form the referenced estimate."""
    tip = np.array([xy[0], xy[1], tip_z])
    torque, force = _settled_at_com(world, sensor, window, tip, contact)
    residual_torque = torque - calibration.hover_torque - calibration.torque_reference
    try:
        estimate = estimate_contact(residual_torque, force, calibration.hover_force,
                                    force_floor=config.force_floor)
        degenerate = False
    except DegenerateNormalForce:
        estimate = None
        degenerate = True
    return PressOutcome(
        contact=contact,
        tip_pose=tip,
        residual_torque=residual_torque,
        estimate=estimate,
        degenerate=degenerate,
    )


def run_placement(world: World, sensor: ForceTorqueSensor,
                  calibration: Calibration, config: PolicyConfig,
                  start_xy, start_tip_z: float,
                  window: ReadingWindow | None = None) -> PlacementTrace:
    """Iterate press, compare, shift until release or the iteration budget ends.

    Between presses the tip rises by raise_height above the last stop, never
    below the initial approach height, so uphill shifts cannot start inside
    the terrain as long as the first approach clears it. Each descent's rows
    reach the trace through ``_descent_rows`` at the world's ``wrist_lift``.
    """
    if window is None:
        window = ReadingWindow()
    lift = world.params.wrist_lift

    xy = clamp_to_workspace(start_xy, config.workspace_limit)
    ceiling = float(start_tip_z)
    approach_z = ceiling
    records: list[IterationRecord] = []
    series: list[np.ndarray] = []

    for index in range(config.max_iterations):
        try:
            contact, tip_z, tips, forces = world.descend_until_contact(
                xy, config.resistance_threshold, approach_z
            )
        except NoContactWithinRange as exc:
            rows = world.wrist_wrench_rows(exc.tips, exc.forces, None)
            series.append(_descent_rows(lift, calibration, sensor, *rows))
            return PlacementTrace(
                outcome=PlacementOutcome.NO_CONTACT,
                iterations=tuple(records),
                descent_series=tuple(series),
            )
        rows = world.wrist_wrench_rows(tips, forces, contact)
        series.append(_descent_rows(lift, calibration, sensor, *rows))
        press = _settle_and_estimate(world, sensor, calibration, config, window,
                                     xy, contact, tip_z)

        if press.degenerate:
            # one stronger retry before this press counts as an iteration
            retry_z = max(press.tip_pose[2] + config.raise_height, ceiling)
            press = press_and_estimate(
                world, sensor, calibration, config, window, xy, retry_z,
                threshold=config.repress_scale * config.resistance_threshold,
            )

        # a noise-floor press never justifies release, whatever its torque says
        released = (not press.degenerate
                    and press.residual_norm < config.torque_release_threshold)
        if released:
            shift = np.zeros(2)
        elif press.estimate is not None:
            shift = propose_shift(press.estimate, config)
        else:
            shift = np.zeros(2)

        records.append(IterationRecord(
            index=index,
            press_xy=xy.copy(),
            tip_z=float(press.tip_pose[2]),
            residual_norm=press.residual_norm,
            press_force=(press.estimate.press_magnitude
                         if press.estimate is not None else float("nan")),
            released=released,
            degenerate=press.degenerate,
            shift=shift,
        ))

        if released:
            outcome = world.release(press.tip_pose, press.contact)
            return PlacementTrace(
                outcome=(PlacementOutcome.RELEASED_STABLE if outcome.settled
                         else PlacementOutcome.RELEASED_TOPPLED),
                iterations=tuple(records),
                descent_series=tuple(series),
                final_com=outcome.final_com,
                top_height=outcome.top_height,
            )

        xy = clamp_to_workspace(xy + shift, config.workspace_limit)
        approach_z = max(press.tip_pose[2] + config.raise_height, ceiling)

    return PlacementTrace(
        outcome=PlacementOutcome.MAX_ITERATIONS,
        iterations=tuple(records),
        descent_series=tuple(series),
    )


@dataclass(frozen=True)
class StackPlan:
    """Where to build, how each hand-off is perturbed, and where to calibrate."""

    target_xy: tuple[float, float]
    perturbations: np.ndarray = field(default_factory=lambda: np.zeros((0, 2)))
    calibration_xy: tuple[float, float] = (0.15, -0.15)
    hover_tip_z: float = 0.1
    approach_clearance: float = 0.01

    def __post_init__(self):
        object.__setattr__(
            self, "perturbations", np.asarray(self.perturbations, dtype=float).reshape(-1, 2)
        )


@dataclass(frozen=True, eq=False)
class StackResult:
    traces: tuple[PlacementTrace, ...]
    placed: int
    success: bool


def run_stack(world: World, sensor: ForceTorqueSensor, objects, plan: StackPlan,
              config: PolicyConfig, window: ReadingWindow | None = None) -> StackResult:
    """Place objects in order, seeding each guess from the last settled pose.

    Every object gets its own hover and flat-press calibration. The approach
    height comes from the tops this run has itself released (odometry), not
    from probing the terrain. Stops at the first placement that does not end
    released and stable.
    """
    if window is None:
        window = ReadingWindow()
    objects = list(objects)
    if plan.perturbations.shape[0] < len(objects):
        raise ValueError("plan needs one perturbation row per object")

    traces: list[PlacementTrace] = []
    prev_xy = np.asarray(plan.target_xy, dtype=float)
    top = float(world.surface_height(plan.target_xy[0], plan.target_xy[1]))
    placed = 0
    for i, obj in enumerate(objects):
        if not isinstance(obj, HeldObject):
            raise TypeError("objects must be HeldObject instances")
        world.hold(obj)
        calibration = calibrate_for_held(
            world, sensor, config, window, plan.calibration_xy, plan.hover_tip_z
        )
        guess = prev_xy + plan.perturbations[i]
        start_z = top + plan.approach_clearance + obj.tip_to_bottom
        trace = run_placement(world, sensor, calibration, config, guess, start_z, window)
        traces.append(trace)
        if trace.outcome is not PlacementOutcome.RELEASED_STABLE:
            break
        placed += 1
        prev_xy = trace.final_com[:2]
        top = float(trace.top_height)
    return StackResult(
        traces=tuple(traces),
        placed=placed,
        success=placed == len(objects),
    )
