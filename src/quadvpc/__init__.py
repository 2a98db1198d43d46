"""Visual predictive control toolkit for quadrotors.

Image-based visual servoing formulated as a constrained nonlinear
optimal control problem over coupled quadrotor and bearing-vector image
dynamics, plus a ground-truth simulator and a scenario harness.
"""

from .costs import (
    Bounds,
    CostWeights,
    ReferencePoint,
    clamp_input,
    dynamic_visual_weight,
)
from .dynamics import (
    CameraExtrinsics,
    CameraTwist,
    ControlInput,
    QuadVisualState,
    homogeneous_image_dynamics,
)
from .geometry import (
    DegenerateProjection,
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
    VisualPredictiveController,
    build_problem,
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
