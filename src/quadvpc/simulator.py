"""Ground-truth plant, observation model, and closed-loop runner.

The plant carries the world position that the controller never sees; the
observation model turns the geometric truth into the controller's
measurement (velocity, attitude, landmark bearing, distance) with
optional noise.  Closed-loop runs step the plant exactly over each
control tick and record everything needed to evaluate a scenario offline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .costs import ReferencePoint
from .dynamics import (
    GRAVITY_W,
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    _unit_quat,
    _vec3,
    so3_integral_coeffs,
)
from .geometry import (
    EPS_Z,
    Array,
    _image_from_bearing_floats,
    _quat_normalize_floats,
    _quat_prod_floats,
    _quat_rotate_floats,
    _rotmat_cols,
    bearing_from_image,
    quat_conj,
    quat_exp,
    quat_mul,
    quat_rotate,
    quat_yaw,
)

# Forward-looking camera: optical axis (camera z) along body +x,
# image x to the right (body -y), image y down (body -z), so the
# camera-to-body rotation matrix is [[0, 0, 1], [-1, 0, 0], [0, -1, 0]].
Q_BC_FORWARD = np.array([0.5, -0.5, 0.5, -0.5])

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
        object.__setattr__(self, "q_wb", _unit_quat(self.q_wb))

    def as_vector(self) -> Array:
        return np.concatenate([self.p_w, self.v_w, self.q_wb])


@dataclass(frozen=True)
class Landmark:
    p_w_lw: Array = field(default_factory=lambda: np.array([6.0, 0.0, 3.0]))

    def __post_init__(self):
        object.__setattr__(self, "p_w_lw", _vec3(self.p_w_lw))


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
        # written so that NaN fails: it compares false
        for name in ("sigma_v", "sigma_att", "sigma_d_rel", "sigma_px"):
            if not 0.0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be nonnegative and finite")


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
    if not 0.0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
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
    landmark is behind the camera or projects outside the sensor bounds,
    a pair of ``(2,)`` image corners.  The camera pose, the landmark's
    camera-frame position and its image point are computed on Python
    floats by the ``_floats`` twins of :func:`camera_pose`'s formulas,
    bit for bit; the range is numpy's 1-D dot product, as
    ``np.linalg.norm`` takes it.
    """
    att = ps.q_wb.tolist()
    bx, by, bz = _quat_rotate_floats(att, ext.p_b_cb.tolist())
    px, py, pz = ps.p_w.tolist()
    lx, ly, lz = lm.p_w_lw.tolist()
    cw, cx, cy, cz = _quat_normalize_floats(_quat_prod_floats(att, ext.q_bc.tolist()))
    rx, ry, rz = _quat_rotate_floats((cw, -cx, -cy, -cz), (lx - (px + bx), ly - (py + by), lz - (pz + bz)))
    if rz <= EPS_Z:
        raise FeatureLost("behind_camera")
    su, sv = rx / rz, ry / rz
    if noise.sigma_px > 0.0:
        nu, nv = rng.normal(0.0, noise.sigma_px, 2).tolist()
        su, sv = su + nu, sv + nv
    (lo_u, lo_v), (hi_u, hi_v) = sensor_bounds
    if su < lo_u or sv < lo_v or su > hi_u or sv > hi_v:
        raise FeatureLost("out_of_fov")

    r = np.array([rx, ry, rz])
    d = math.sqrt(r.dot(r))
    if noise.sigma_d_rel > 0.0:
        d *= 1.0 + rng.normal(0.0, noise.sigma_d_rel)
    v = ps.v_w + (rng.normal(0.0, noise.sigma_v, 3) if noise.sigma_v > 0.0 else 0.0)
    q_wb = ps.q_wb
    if noise.sigma_att > 0.0:
        q_wb = quat_mul(q_wb, quat_exp(rng.normal(0.0, noise.sigma_att, 3)))
    return QuadVisualState(v_w=v, q_wb=q_wb, q_cl=bearing_from_image((su, sv)), d=max(d, 1e-3))


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


def _column(*shape: int):
    """A per-tick field of :class:`RunLog` whose tick entries have ``shape``."""
    return field(metadata={"tick_shape": shape})


@dataclass
class RunLog:
    """Uniform-timestep record of one closed-loop run.

    Each field made by :func:`_column` holds one entry per tick, stacked
    along the first axis; :data:`TICK_COLUMNS` lists them in order.
    """

    dt: float
    seed: int
    t: Array = _column()
    p_w: Array = _column(3)
    v_w: Array = _column(3)
    q_wb: Array = _column(4)
    s_c: Array = _column(2)
    d: Array = _column()
    u: Array = _column(4)
    ref_s: Array = _column(2)
    ref_d: Array = _column()
    solve_ms: Array = _column()
    kkt: Array = _column()
    sqp_iters: Array = _column()
    qp_iters: Array = _column()
    backtracks: Array = _column()
    slack_max: Array = _column()
    reason: list  # of each tick's solve: why it stopped (``OcpSolution.reason``)
    outcome: str
    fail_time: float | None = None
    fail_reason: str | None = None

    @property
    def n_ticks(self) -> int:
        return len(self.t)

    @property
    def status(self) -> list:
        """Each tick's ``reason`` coarsened: ``kkt`` is ``converged``, ``infeasible`` stays, any other is ``max_iters``.

        Derived, not stored; kept because the benchmark harness
        (``bench/workloads.py``) counts and hashes these values.
        """
        return ["converged" if r == "kkt" else "infeasible" if r == "infeasible" else "max_iters" for r in self.reason]

    @classmethod
    def from_ticks(cls, dt: float, seed: int, ticks: list, reason: list, outcome: str, fail_time=None, fail_reason=None):
        """Log from one tuple per tick, ordered as :data:`TICK_COLUMNS`; no tick gives empty float columns."""
        cols = list(zip(*ticks)) or [()] * len(TICK_COLUMNS)
        arrays = {name: np.array(col).reshape((-1,) + shape) for (name, shape), col in zip(TICK_COLUMNS, cols)}
        return cls(dt, seed, **arrays, reason=reason, outcome=outcome, fail_time=fail_time, fail_reason=fail_reason)


# The per-tick columns of a run log and the shape of one tick's entry, in field order.
TICK_COLUMNS = tuple((f.name, f.metadata["tick_shape"]) for f in fields(RunLog) if "tick_shape" in f.metadata)


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

    ticks: list = []
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

        ticks.append((
            t_k, ps.p_w, ps.v_w, ps.q_wb, _image_from_bearing_floats(meas.q_cl.tolist()), meas.d, u.as_vector(),
            ref.s_star[0], ref.d_star[0],
            sol.solve_ms, sol.kkt, sol.sqp_iters, sol.qp_iters, sol.backtracks, sol.slack_max,
        ))
        reason.append(sol.reason)

        ps = plant_step(ps, u, dt)
        if np.linalg.norm(ps.v_w) > DIVERGENCE_SPEED:
            outcome = "diverged"
            fail_time = t_k + dt
            break

    return RunLog.from_ticks(dt, seed, ticks, reason, outcome, fail_time, fail_reason)
