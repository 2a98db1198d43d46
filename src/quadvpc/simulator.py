"""Ground-truth plant, observation model, and closed-loop runner.

The plant carries the world position that the controller never sees; the
observation model turns the geometric truth into the controller's
measurement (velocity, attitude, landmark bearing, distance) with
optional noise.  Closed-loop runs step the plant exactly over each
control tick and record everything needed to evaluate a scenario offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .costs import ReferencePoint
from .dynamics import (
    GRAVITY_W,
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    _rotmat_cols,
    _vec3,
    so3_integral_coeffs,
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
    """Exact step of position, velocity and attitude under ``u`` held for ``dt``.

    With thrust ``c`` along body z and body rates ``w`` constant, the
    attitude is ``q0 (x) Exp(w dt)`` and the thrust integrates in closed
    form through the SO(3) integrals ``Gamma1``, ``Gamma2`` of
    :func:`so3_integral_coeffs`:

        v = v0 + g dt + c R(q0) Gamma1 e_z
        p = p0 + v0 dt + g dt^2 / 2 + c R(q0) Gamma2 e_z

    Computed on Python floats; the quaternion is renormalized.
    """
    if dt <= 0.0:
        raise ValueError("dt must be positive")
    qw, qx, qy, qz = ps.q_wb.tolist()
    wx, wy, wz = u.omega_b.tolist()
    theta = math.sqrt(wx * wx + wy * wy + wz * wz)
    k1, k2, k3 = so3_integral_coeffs(theta, dt)
    # Gamma1 e_z and Gamma2 e_z in the body frame, from w^ e_z = (wy, -wx, 0)
    # and w^2 e_z = (wz wx, wz wy, -(wx^2 + wy^2))
    cz = -(wx * wx + wy * wy)
    half_t2 = 0.5 * dt * dt
    b1 = (k1 * wy + k2 * wz * wx, k2 * wz * wy - k1 * wx, dt + k2 * cz)
    b2 = (k2 * wy + k3 * wz * wx, k3 * wz * wy - k2 * wx, half_t2 + k3 * cz)
    r0, r1, r2 = _rotmat_cols(qw, qx, qy, qz)
    c = u.c
    v0, p0 = ps.v_w.tolist(), ps.p_w.tolist()
    v, p = [], []
    for i, g in enumerate(GRAVITY_W.tolist()):
        v.append(v0[i] + g * dt + c * (r0[i] * b1[0] + r1[i] * b1[1] + r2[i] * b1[2]))
        p.append(p0[i] + v0[i] * dt + g * half_t2 + c * (r0[i] * b2[0] + r1[i] * b2[1] + r2[i] * b2[2]))
    # Exp(w dt) = (cos(a/2), w sin(a/2) / theta), a = theta dt
    half = 0.5 * theta * dt
    s = math.sin(half) / theta if theta > 0.0 else 0.5 * dt
    ew, ex, ey, ez = math.cos(half), s * wx, s * wy, s * wz
    q = (
        qw * ew - qx * ex - qy * ey - qz * ez,
        qw * ex + qx * ew + qy * ez - qz * ey,
        qw * ey - qx * ez + qy * ew + qz * ex,
        qw * ez + qx * ey - qy * ex + qz * ew,
    )
    return PlantState(p, v, q)


def camera_pose(p_w: Array, q_wb: Array, ext: CameraExtrinsics):
    """World position and orientation of the camera frame(s) of body pose(s) ``(p_w, q_wb)``."""
    return p_w + quat_rotate(q_wb, ext.p_b_cb), quat_mul(q_wb, ext.q_bc)


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
    p_c, q_wc = camera_pose(ps.p_w, ps.q_wb, ext)
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
    heading_ref: float | Array,
    lm: Landmark,
    ext: CameraExtrinsics,
) -> ReferencePoint:
    """Reference features of hypothetical cameras at waypoint poses.

    Each pose is the waypoint position with a level attitude at the given
    heading; the landmark projection and range become (s*, d*).  ``wp``
    and ``v_ref`` ``(..., 3)`` and ``heading_ref`` ``(...)`` broadcast to
    the reference's leading shape, so one call builds a whole horizon.
    """
    q_wb = quat_yaw(heading_ref)
    q_wb = q_wb / np.sqrt(np.vecdot(q_wb, q_wb))[..., None]  # as PlantState normalises an attitude
    p_c, q_wc = camera_pose(np.asarray(wp, dtype=np.float64), q_wb, ext)
    r = quat_rotate(quat_conj(q_wc), lm.p_w_lw - p_c)
    if np.any(r[..., 2] <= EPS_Z):
        raise ReferenceInfeasible("landmark not in front of the waypoint camera")
    return ReferencePoint(
        s_star=r[..., :2] / r[..., 2:],
        d_star=np.sqrt(np.vecdot(r, r)),
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
    qp_iters: Array
    slack_max: Array
    status: list
    reason: list  # of each tick's solve: why it stopped (``OcpSolution.reason``)
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
            qp_iters=np.zeros(0),
            slack_max=np.zeros(0),
            status=[],
            reason=[],
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

    The plant takes one exact step per control tick.  Terminates on
    duration, feature loss, or the divergence guard; failures are
    recorded as outcomes, never raised.
    """
    rng = np.random.default_rng(seed)
    ps = plant0
    n_ticks = int(round(duration / dt))

    rows = {key: [] for key in ("t", "p_w", "v_w", "q_wb", "s_c", "d", "u", "ref_s", "ref_d", "solve_ms", "kkt", "sqp_iters", "qp_iters", "slack_max")}
    status: list = []
    reason: list = []
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
        ref = refs_fn(t_k)
        u, sol = controller.step(meas, ref)

        rows["t"].append(t_k)
        rows["p_w"].append(ps.p_w)
        rows["v_w"].append(ps.v_w)
        rows["q_wb"].append(ps.q_wb)
        rows["s_c"].append(_project_measured(meas))
        rows["d"].append(meas.d)
        rows["u"].append(u.as_vector())
        rows["ref_s"].append(ref.s_star[0])
        rows["ref_d"].append(ref.d_star[0])
        rows["solve_ms"].append(sol.solve_ms)
        rows["kkt"].append(sol.kkt)
        rows["sqp_iters"].append(sol.sqp_iters)
        rows["qp_iters"].append(sol.qp_iters)
        rows["slack_max"].append(sol.slack_max)
        status.append(sol.status.value)
        reason.append(sol.reason)

        ps = plant_step(ps, u, dt)
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
        qp_iters=np.array(rows["qp_iters"]),
        slack_max=np.array(rows["slack_max"]),
        status=status,
        reason=reason,
        outcome=outcome,
        fail_time=fail_time,
        fail_reason=fail_reason,
    )


def _project_measured(meas: QuadVisualState) -> Array:
    n = quat_rotate(meas.q_cl, EZ)
    return n[:2] / n[2]
