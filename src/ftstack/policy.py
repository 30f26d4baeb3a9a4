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

from .estimation import ContactEstimate, DegenerateNormalForce, estimate_contact
from .sensor import (
    CalibrationState,
    ForceTorqueSensor,
    ReadingWindow,
    calibrate_flat_reference,
    calibrate_hover,
)
from .spatial import (
    FrameId,
    RigidTransform,
    Wrench,
    transform_wrench,
    transform_wrenches,
)
from .world import ContactResult, HeldObject, NoContactWithinRange, World


class PlacementOutcome(Enum):
    RELEASED_STABLE = "released_stable"
    RELEASED_TOPPLED = "released_toppled"
    MAX_ITERATIONS = "max_iterations"
    NO_CONTACT = "no_contact"


@dataclass(frozen=True)
class PolicyConfig:
    resistance_threshold: float = 10.0      # N, press-until force
    torque_release_threshold: float = 0.05  # N*m on the torque residual
    step_gain: float = 0.5                  # flat-seeking nudge; 0 disables
    flat_dir_floor: float = 0.02            # tilt deadband (sine of the angle)
    raise_height: float = 0.02              # m lifted between presses
    force_floor: float = 1.0                # N, degenerate-press cutoff
    max_iterations: int = 10
    workspace_limit: float = 0.2            # m, symmetric xy clamp
    repress_scale: float = 1.5              # threshold factor for the retry press

    def __post_init__(self):
        if self.resistance_threshold <= 0.0 or self.torque_release_threshold <= 0.0:
            raise ValueError("thresholds must be positive")
        if self.step_gain < 0.0 or self.flat_dir_floor < 0.0:
            raise ValueError("step_gain and flat_dir_floor must be non-negative")
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        if self.raise_height < 0.0 or self.workspace_limit <= 0.0:
            raise ValueError("raise_height and workspace_limit must be sensible")
        if self.repress_scale <= 1.0:
            raise ValueError("repress_scale must exceed 1")


@dataclass(frozen=True, eq=False)
class PressOutcome:
    """One settled press: geometry, the converted reading, and the estimate."""

    contact: ContactResult
    tip_pose: np.ndarray
    reading_com: Wrench         # raw averaged reading in the assumed-COM frame
    residual: Wrench            # torque minus hover and flat reference; force raw
    estimate: ContactEstimate | None
    degenerate: bool

    @property
    def residual_norm(self) -> float:
        return float(np.linalg.norm(self.residual.torque))


@dataclass(frozen=True, eq=False)
class IterationRecord:
    index: int
    press_xy: np.ndarray
    tip_z: float
    residual_torque: np.ndarray
    residual_norm: float
    press_force: float
    released: bool
    degenerate: bool
    shift: np.ndarray
    est_offset: np.ndarray | None = None
    est_flat_dir: np.ndarray | None = None
    est_normal: np.ndarray | None = None


@dataclass(frozen=True, eq=False)
class PlacementTrace:
    outcome: PlacementOutcome
    iterations: tuple[IterationRecord, ...]
    descent_series: tuple[np.ndarray, ...]  # per press, rows (t, |f|, |tau|)
    released: bool
    settled: bool
    final_tip: np.ndarray | None = None
    final_com: np.ndarray | None = None
    top_height: float | None = None


def com_frame_transform(wrist_lift: float) -> RigidTransform:
    """Sensor origin to assumed-COM frame; the assumed COM is the gripper tip."""
    return RigidTransform.from_translation(
        (0.0, 0.0, -wrist_lift), parent=FrameId.WRIST, child=FrameId.ROCK_COM
    )


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


def _descent_rows(g_wr: RigidTransform, hover: Wrench, samples, times) -> np.ndarray:
    """Trace rows (t, |f|, |tau|) of wrist-frame descent samples.

    Each sample is taken to the assumed-COM frame and the hover baseline is
    subtracted before the norms are taken.
    """
    torque, force = transform_wrenches(g_wr, samples)
    return np.column_stack([
        np.asarray(times, dtype=float),
        _row_norms(force - hover.force),
        _row_norms(torque - hover.torque),
    ])


def _row_norms(rows: np.ndarray) -> np.ndarray:
    # a stacked dot product per row: the bits np.linalg.norm gives one vector,
    # which np.linalg.norm(axis=1) and einsum miss in the last place
    return np.sqrt((rows[:, None, :] @ rows[:, :, None])[:, 0, 0])


def settle_reading_at(world: World, sensor: ForceTorqueSensor, window: ReadingWindow,
                      tip_pose, contact: ContactResult | None) -> Wrench:
    """Settled, averaged sensor reading at a held pose, wrist frame."""
    true_w = world.true_wrist_wrench(tip_pose, contact)
    return sensor.settle_and_average(lambda: true_w, window)


def calibrate_for_held(world: World, sensor: ForceTorqueSensor, config: PolicyConfig,
                       window: ReadingWindow, calibration_xy, hover_tip_z: float,
                       ) -> CalibrationState:
    """Two-phase calibration for the currently held object.

    Hover in free space for the gravity baseline, then press on known-flat
    ground for the bearing-point reference. Readings are stored in the wrist
    frame and converted on use; both keep the same constant sensor bias,
    which later subtractions cancel.
    """
    xy = np.asarray(calibration_xy, dtype=float)
    hover_tip = np.array([xy[0], xy[1], float(hover_tip_z)])

    hover_reading = settle_reading_at(world, sensor, window, hover_tip, None)
    state = calibrate_hover(CalibrationState(), hover_reading)

    contact, tip_z = world.descend_until_contact(
        xy, config.resistance_threshold, float(hover_tip_z)
    )
    press_tip = np.array([xy[0], xy[1], tip_z])
    flat_reading = settle_reading_at(world, sensor, window, press_tip, contact)
    return calibrate_flat_reference(state, flat_reading)


def press_and_estimate(world: World, sensor: ForceTorqueSensor,
                       calibration: CalibrationState, config: PolicyConfig,
                       window: ReadingWindow, xy, start_tip_z: float,
                       threshold: float | None = None, on_step=None) -> PressOutcome:
    """Descend at xy, settle a reading, and form the referenced estimate."""
    calibration.require_complete()
    g_wr = com_frame_transform(world.params.wrist_lift)
    if threshold is None:
        threshold = config.resistance_threshold
    contact, tip_z = world.descend_until_contact(xy, threshold, start_tip_z, on_step=on_step)
    tip = np.array([xy[0], xy[1], tip_z])
    reading_com = transform_wrench(g_wr, settle_reading_at(world, sensor, window, tip, contact))

    hover_com = transform_wrench(g_wr, calibration.hover_baseline)
    flat_com = transform_wrench(g_wr, calibration.flat_reference)
    tau_ref = flat_com.torque - hover_com.torque
    residual = Wrench(
        reading_com.torque - hover_com.torque - tau_ref,
        reading_com.force,
        frame=reading_com.frame,
    )
    try:
        estimate = estimate_contact(residual, hover_com.force, force_floor=config.force_floor)
        degenerate = False
    except DegenerateNormalForce:
        estimate = None
        degenerate = True
    return PressOutcome(
        contact=contact,
        tip_pose=tip,
        reading_com=reading_com,
        residual=residual,
        estimate=estimate,
        degenerate=degenerate,
    )


def run_placement(world: World, sensor: ForceTorqueSensor,
                  calibration: CalibrationState, config: PolicyConfig,
                  start_xy, start_tip_z: float,
                  window: ReadingWindow | None = None) -> PlacementTrace:
    """Iterate press, compare, shift until release or the iteration budget ends.

    Between presses the tip rises by raise_height above the last stop, never
    below the initial approach height, so uphill shifts cannot start inside
    the terrain as long as the first approach clears it.
    """
    if window is None:
        window = ReadingWindow()
    calibration.require_complete()
    g_wr = com_frame_transform(world.params.wrist_lift)
    hover = transform_wrench(g_wr, calibration.hover_baseline)

    xy = clamp_to_workspace(start_xy, config.workspace_limit)
    ceiling = float(start_tip_z)
    approach_z = ceiling
    records: list[IterationRecord] = []
    series: list[np.ndarray] = []

    for index in range(config.max_iterations):
        samples: list[Wrench] = []
        times: list[float] = []

        def tap(true_w: Wrench) -> None:
            samples.append(sensor.sample(true_w))
            times.append(sensor.time)

        try:
            press = press_and_estimate(
                world, sensor, calibration, config, window, xy, approach_z, on_step=tap
            )
        except NoContactWithinRange:
            series.append(_descent_rows(g_wr, hover, samples, times))
            return PlacementTrace(
                outcome=PlacementOutcome.NO_CONTACT,
                iterations=tuple(records),
                descent_series=tuple(series),
                released=False,
                settled=False,
            )
        series.append(_descent_rows(g_wr, hover, samples, times))

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
            residual_torque=press.residual.torque.copy(),
            residual_norm=press.residual_norm,
            press_force=(press.estimate.press_magnitude
                         if press.estimate is not None else float("nan")),
            released=released,
            degenerate=press.degenerate,
            shift=shift,
            est_offset=(press.estimate.tangent_offset.copy()
                        if press.estimate is not None else None),
            est_flat_dir=(press.estimate.flat_dir.copy()
                          if press.estimate is not None else None),
            est_normal=(press.estimate.normal_dir.copy()
                        if press.estimate is not None else None),
        ))

        if released:
            outcome = world.release(press.tip_pose, press.contact)
            return PlacementTrace(
                outcome=(PlacementOutcome.RELEASED_STABLE if outcome.settled
                         else PlacementOutcome.RELEASED_TOPPLED),
                iterations=tuple(records),
                descent_series=tuple(series),
                released=True,
                settled=outcome.settled,
                final_tip=press.tip_pose.copy(),
                final_com=outcome.final_com,
                top_height=outcome.top_height,
            )

        xy = clamp_to_workspace(xy + shift, config.workspace_limit)
        approach_z = max(press.tip_pose[2] + config.raise_height, ceiling)

    return PlacementTrace(
        outcome=PlacementOutcome.MAX_ITERATIONS,
        iterations=tuple(records),
        descent_series=tuple(series),
        released=False,
        settled=False,
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
