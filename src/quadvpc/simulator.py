"""Ground-truth plant, observation model, and closed-loop runner.

The plant carries the world position that the controller never sees; the
observation model turns the geometric truth into the controller's
measurement (velocity, attitude, landmark bearing, distance) with
optional noise.  Closed-loop runs substep the plant between control
ticks and record everything needed to evaluate a scenario offline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .costs import ReferencePoint
from .dynamics import (
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    _body_rates,
    _vec3,
    rk4,
)
from .geometry import (
    EPS_Z,
    EZ,
    Array,
    bearing_from_image,
    quat_conj,
    quat_exp,
    quat_from_rotmat,
    quat_identity,
    quat_mul,
    quat_normalize,
    quat_rotate,
    quat_yaw,
)

# Forward-looking camera: optical axis (camera z) along body +x,
# image x to the right (body -y), image y down (body -z).
_R_BC = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
Q_BC_FORWARD = quat_from_rotmat(_R_BC)

DEFAULT_EXTRINSICS = CameraExtrinsics(p_b_cb=np.array([0.1, 0.0, 0.0]), q_bc=Q_BC_FORWARD)

# Plant integration substep between control ticks.
PLANT_SUBSTEP = 1e-3

# Speed beyond which a run is declared diverged (crashed).
DIVERGENCE_SPEED = 30.0

DEFAULT_SENSOR_BOUNDS = (np.array([-1.0, -1.0]), np.array([1.0, 1.0]))


class FeatureLost(RuntimeError):
    """Landmark left the camera field of view or moved behind it."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


class ReferenceInfeasible(ValueError):
    """Landmark not visible from the requested waypoint pose."""


@dataclass(frozen=True)
class PlantState:
    """Ground-truth rigid-body state; position never crosses into the controller."""

    p_w: Array
    v_w: Array
    q_wb: Array

    def __post_init__(self):
        object.__setattr__(self, "p_w", _vec3(self.p_w))
        object.__setattr__(self, "v_w", _vec3(self.v_w))
        q = np.asarray(self.q_wb, dtype=np.float64).reshape(4)
        object.__setattr__(self, "q_wb", q / np.linalg.norm(q))

    def as_vector(self) -> Array:
        return np.concatenate([self.p_w, self.v_w, self.q_wb])


@dataclass(frozen=True)
class Landmark:
    p_w_lw: Array = field(default_factory=lambda: np.array([6.0, 0.0, 3.0]))
    q_wl: Array = field(default_factory=quat_identity)

    def __post_init__(self):
        object.__setattr__(self, "p_w_lw", _vec3(self.p_w_lw))
        object.__setattr__(self, "q_wl", quat_normalize(np.asarray(self.q_wl, dtype=np.float64).reshape(4)))


@dataclass(frozen=True)
class NoiseModel:
    """Measurement noise knobs; zero by default.

    ``sigma_d_rel`` stands in for the distance error of a
    perspective-n-point estimate; ``sigma_px`` perturbs the normalized
    image coordinates.
    """

    sigma_v: float = 0.0
    sigma_att: float = 0.0
    sigma_d_rel: float = 0.0
    sigma_px: float = 0.0

    def __post_init__(self):
        for name in ("sigma_v", "sigma_att", "sigma_d_rel", "sigma_px"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be nonnegative")

    @property
    def is_zero(self) -> bool:
        return self.sigma_v == self.sigma_att == self.sigma_d_rel == self.sigma_px == 0.0


def plant_step(ps: PlantState, u: ControlInput, dt: float) -> PlantState:
    """RK4 step of position, velocity and attitude; quaternion renormalized."""
    if dt <= 0.0:
        raise ValueError("dt must be positive")

    def deriv(z):  # the 10-vector as one component: fewer numpy calls than three
        return (np.concatenate([z[0][3:6], *_body_rates(z[0][6:10], u.c, u.omega_b)]),)

    (out,) = rk4(deriv, (ps.as_vector(),), dt)
    return PlantState(out[0:3], out[3:6], out[6:10] / np.linalg.norm(out[6:10]))


def camera_pose(ps: PlantState, ext: CameraExtrinsics):
    """World position and orientation of the camera frame."""
    p = ps.p_w + quat_rotate(ps.q_wb, ext.p_b_cb)
    q = quat_mul(ps.q_wb, ext.q_bc)
    return p, q


def observe(
    ps: PlantState,
    lm: Landmark,
    ext: CameraExtrinsics,
    noise: NoiseModel,
    rng: np.random.Generator,
    sensor_bounds=DEFAULT_SENSOR_BOUNDS,
) -> QuadVisualState:
    """Produce the controller measurement from the ground truth.

    Velocity and attitude are direct (optionally noisy) reads; the
    bearing comes from the projected landmark and the distance from the
    camera-to-landmark range.  Raises :class:`FeatureLost` when the
    landmark is behind the camera or projects outside the sensor bounds.
    """
    p_c, q_wc = camera_pose(ps, ext)
    r = quat_rotate(quat_conj(q_wc), lm.p_w_lw - p_c)
    if r[2] <= EPS_Z:
        raise FeatureLost("behind_camera")
    s = r[:2] / r[2]
    if noise.sigma_px > 0.0:
        s = s + rng.normal(0.0, noise.sigma_px, 2)
    smin, smax = sensor_bounds
    if np.any(s < smin) or np.any(s > smax):
        raise FeatureLost("out_of_fov")

    d = float(np.linalg.norm(r))
    if noise.sigma_d_rel > 0.0:
        d *= 1.0 + rng.normal(0.0, noise.sigma_d_rel)
    v = ps.v_w + (rng.normal(0.0, noise.sigma_v, 3) if noise.sigma_v > 0.0 else 0.0)
    q_wb = ps.q_wb
    if noise.sigma_att > 0.0:
        q_wb = quat_mul(q_wb, quat_exp(rng.normal(0.0, noise.sigma_att, 3)))
    return QuadVisualState(v_w=v, q_wb=q_wb, q_cl=bearing_from_image(s), d=max(d, 1e-3))


def make_reference_from_waypoint(
    wp: Array,
    v_ref: Array,
    heading_ref: float,
    lm: Landmark,
    ext: CameraExtrinsics,
) -> ReferencePoint:
    """Reference features of a hypothetical camera at a waypoint pose.

    The pose is the waypoint position with a level attitude at the given
    heading; the landmark projection and range become (s*, d*).
    """
    q_wb = quat_yaw(heading_ref)
    hypothetical = PlantState(p_w=wp, v_w=np.zeros(3), q_wb=q_wb)
    p_c, q_wc = camera_pose(hypothetical, ext)
    r = quat_rotate(quat_conj(q_wc), lm.p_w_lw - p_c)
    if r[2] <= EPS_Z:
        raise ReferenceInfeasible("landmark not in front of the waypoint camera")
    return ReferencePoint(
        s_star=r[:2] / r[2],
        d_star=float(np.linalg.norm(r)),
        v_star=v_ref,
        q_star=q_wb,
    )


@dataclass
class RunLog:
    """Uniform-timestep record of one closed-loop run."""

    dt: float
    seed: int
    t: Array
    p_w: Array
    v_w: Array
    q_wb: Array
    s_c: Array
    d: Array
    u: Array
    ref_s: Array
    ref_d: Array
    solve_ms: Array
    kkt: Array
    sqp_iters: Array
    slack_max: Array
    status: list
    visible: Array
    outcome: str
    fail_time: float | None = None
    fail_reason: str | None = None

    @property
    def n_ticks(self) -> int:
        return len(self.t)

    @staticmethod
    def empty(dt: float, seed: int, outcome: str, fail_reason: str | None = None) -> "RunLog":
        """Log of a run that failed before its first control tick."""
        return RunLog(
            dt=dt,
            seed=seed,
            t=np.zeros(0),
            p_w=np.zeros((0, 3)),
            v_w=np.zeros((0, 3)),
            q_wb=np.zeros((0, 4)),
            s_c=np.zeros((0, 2)),
            d=np.zeros(0),
            u=np.zeros((0, 4)),
            ref_s=np.zeros((0, 2)),
            ref_d=np.zeros(0),
            solve_ms=np.zeros(0),
            kkt=np.zeros(0),
            sqp_iters=np.zeros(0),
            slack_max=np.zeros(0),
            status=[],
            visible=np.zeros(0, dtype=bool),
            outcome=outcome,
            fail_time=0.0,
            fail_reason=fail_reason,
        )


def run_closed_loop(
    controller,
    refs_fn,
    plant0: PlantState,
    landmark: Landmark,
    ext: CameraExtrinsics,
    noise: NoiseModel,
    duration: float,
    dt: float,
    seed: int = 0,
    sensor_bounds=DEFAULT_SENSOR_BOUNDS,
) -> RunLog:
    """Fixed-rate observe / solve / actuate loop.

    The plant is substepped at ``PLANT_SUBSTEP`` between control ticks.  Terminates on
    duration, feature loss, or the divergence guard; failures are
    recorded as outcomes, never raised.
    """
    rng = np.random.default_rng(seed)
    ps = plant0
    n_ticks = int(round(duration / dt))
    n_sub = max(1, int(round(dt / PLANT_SUBSTEP)))

    rows = {key: [] for key in ("t", "p_w", "v_w", "q_wb", "s_c", "d", "u", "ref_s", "ref_d", "solve_ms", "kkt", "sqp_iters", "slack_max", "visible")}
    status: list = []
    outcome = "success"
    fail_time = None
    fail_reason = None

    for k in range(n_ticks):
        t_k = k * dt
        try:
            meas = observe(ps, landmark, ext, noise, rng, sensor_bounds)
        except FeatureLost as exc:
            outcome = "feature_lost"
            fail_time = t_k
            fail_reason = exc.reason
            break
        refs = refs_fn(t_k)
        u, sol = controller.step(meas, refs)

        rows["t"].append(t_k)
        rows["p_w"].append(ps.p_w)
        rows["v_w"].append(ps.v_w)
        rows["q_wb"].append(ps.q_wb)
        rows["s_c"].append(_project_measured(meas))
        rows["d"].append(meas.d)
        rows["u"].append(u.as_vector())
        rows["ref_s"].append(refs[0].s_star)
        rows["ref_d"].append(refs[0].d_star)
        rows["solve_ms"].append(sol.solve_ms)
        rows["kkt"].append(sol.kkt)
        rows["sqp_iters"].append(sol.sqp_iters)
        rows["slack_max"].append(sol.slack_max)
        rows["visible"].append(True)
        status.append(sol.status.value)

        for _ in range(n_sub):
            ps = plant_step(ps, u, dt / n_sub)
        if np.linalg.norm(ps.v_w) > DIVERGENCE_SPEED:
            outcome = "diverged"
            fail_time = t_k + dt
            break

    return RunLog(
        dt=dt,
        seed=seed,
        t=np.array(rows["t"]),
        p_w=np.array(rows["p_w"]).reshape(-1, 3),
        v_w=np.array(rows["v_w"]).reshape(-1, 3),
        q_wb=np.array(rows["q_wb"]).reshape(-1, 4),
        s_c=np.array(rows["s_c"]).reshape(-1, 2),
        d=np.array(rows["d"]),
        u=np.array(rows["u"]).reshape(-1, 4),
        ref_s=np.array(rows["ref_s"]).reshape(-1, 2),
        ref_d=np.array(rows["ref_d"]),
        solve_ms=np.array(rows["solve_ms"]),
        kkt=np.array(rows["kkt"]),
        sqp_iters=np.array(rows["sqp_iters"]),
        slack_max=np.array(rows["slack_max"]),
        status=status,
        visible=np.array(rows["visible"], dtype=bool),
        outcome=outcome,
        fail_time=fail_time,
        fail_reason=fail_reason,
    )


def _project_measured(meas: QuadVisualState) -> Array:
    n = quat_rotate(meas.q_cl, EZ)
    return n[:2] / n[2]
