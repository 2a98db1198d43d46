"""Visual predictive control toolkit for quadrotors.

Image-based visual servoing formulated as a constrained nonlinear
optimal control problem over coupled quadrotor and bearing-vector image
dynamics, plus a ground-truth simulator and a scenario harness.
"""

from .costs import (
    Bounds,
    CostWeights,
    ReferencePoint,
    action_cost,
    clamp_input,
    dynamic_visual_weight,
    perception_cost,
    rotation_compensated_image,
    visibility_residual,
    visual_servo_cost,
)
from .dynamics import (
    CameraExtrinsics,
    CameraTwist,
    ControlInput,
    QuadVisualState,
    camera_twist,
    dynamics_jacobians,
    full_dynamics,
    homogeneous_image_dynamics,
    image_dynamics,
    quad_dynamics,
    rk4_step,
)
from .geometry import (
    AntiparallelInput,
    DegenerateProjection,
    angle_axis_between,
    bearing_N,
    bearing_from_image,
    bearing_n,
    image_from_bearing,
    quat_exp,
    quat_mul,
    quat_rotate,
    skew,
    to_homogeneous,
)
from .ocp import (
    BadReferenceLength,
    InvalidInitialState,
    OcpParams,
    OcpProblem,
    OcpSolution,
    SolveStatus,
    VisualPredictiveController,
    build_problem,
    kkt_residual,
    shift_warm_start,
    solve,
)
from .simulator import (
    DEFAULT_EXTRINSICS,
    FeatureLost,
    Landmark,
    NoiseModel,
    PlantState,
    ReferenceInfeasible,
    RunLog,
    make_reference_from_waypoint,
    observe,
    plant_step,
    run_closed_loop,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
