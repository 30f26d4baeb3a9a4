"""Force-torque guided placement: wrench algebra, contact estimation, and a
quasi-static stacking sandbox with a press-and-shift placement policy."""

from .estimation import (
    DEFAULT_FORCE_FLOOR,
    ContactEstimate,
    DegenerateNormalForce,
    estimate_contact,
    flat_direction,
    recover_contact_offset,
    tangent_residual,
)
from .harness import (
    ScenarioFamilyError,
    angle_error_deg,
    emit_contact_plot_data,
    finger_press_check,
    run_scenario,
    sweep_offsets,
    wilson_interval,
)
from .policy import (
    Calibration,
    IterationRecord,
    PlacementOutcome,
    PlacementTrace,
    PolicyConfig,
    PressOutcome,
    StackPlan,
    StackResult,
    calibrate_for_held,
    clamp_to_workspace,
    press_and_estimate,
    propose_shift,
    run_placement,
    run_stack,
)
from .scenario import (
    FAMILIES,
    Scenario,
    ScenarioError,
    build_object,
    build_policy,
    build_sensor,
    build_window,
    build_world,
    load_scenario,
    save_scenario,
)
from .sensor import (
    ForceTorqueSensor,
    InsufficientSamples,
    ReadingWindow,
    SensorConfig,
)
from .spatial import (
    FrameId,
    FrameMismatch,
    RigidTransform,
    Wrench,
    compose,
    invert,
    tangent_projection,
    transform_twist,
    transform_wrench,
    wrench_transform_matrix,
)
from .surfaces import (
    FlatPlane,
    HeightField,
    LayeredSurface,
    Puck,
    RampPatch,
    SphericalCap,
)
from .world import (
    BottomProfile,
    ContactResult,
    Footprint,
    HeldObject,
    NoContactWithinRange,
    ReleaseOutcome,
    SimParams,
    TopProfile,
    World,
)

__version__ = "0.1.0"
