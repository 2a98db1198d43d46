"""Coupled quadrotor and landmark-bearing dynamics.

The controller state is 12-dimensional:

    x = [v_w (3), q_wb (4), q_cl (4), d (1)]

with ``v_w`` the world-frame velocity, ``q_wb`` the body attitude,
``q_cl`` the landmark bearing expressed in the camera frame and ``d`` the
camera-to-landmark distance.  Inputs are mass-normalized collective
thrust plus body rates, ``u = [c, wx, wy, wz]``.

Attitude integrates with body rates, ``dq_wb = 1/2 q_wb (x) [0, w_b]``;
the bearing integrates with its camera-frame angular velocity on the
left, ``dq_cl = 1/2 [0, w_bear] (x) q_cl``.  Both conventions are pinned
by the finite-difference oracle in the test suite: the analytic rates
must reproduce exact geometric propagation of a camera past a static
landmark.

The bearing rates of the prediction study take components on the last
axis.  The solver's kernel ``_f`` takes a sequence of components, each
a Python float (one state) or an array of one shared shape (a batch),
and returns the tuple of its derivative components; :func:`rk4`, the
one RK4 stage sequence, steps any such sequence.  Thin dataclass
wrappers provide the typed public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    EX,
    EY,
    EZ,
    Array,
    _cross,
    pure_quat,
    quat_exp,
    quat_identity,
    quat_normalize,
    quat_prod,
    quat_rotate,
    quat_to_rotmat,
    skew,
)

GRAVITY_W = np.array([0.0, 0.0, -9.81])

# Distance floor applied after integration; keeps 1/d bounded when the
# solver explores near-contact states.
D_FLOOR = 0.05

# Relative step of the central differences: the step of component i is
# FD_STEP * max(1, |z_i|).
FD_STEP = 1e-6

# Taylor coefficients of the SO(3) integrals, used for rotation angles
# |a| < 1: there the closed forms cancel (that of ``k3`` loses about
# 2.7e-15 / a^4 of its value), and 8 terms leave at most 4e-16 at |a| = 1.
_SERIES = tuple(
    tuple(1.0 / math.factorial(2 * n + j) for n in reversed(range(8))) for j in (2, 3, 4)
)

# Flat-state layout
_V = slice(0, 3)
_QWB = slice(3, 7)
_QCL = slice(7, 11)
_D = 11


def _vec3(v) -> Array:
    out = np.asarray(v, dtype=np.float64).reshape(3).copy()
    if not np.all(np.isfinite(out)):
        raise ValueError("non-finite 3-vector")
    return out


def _unit_quat(q) -> Array:
    out = np.asarray(q, dtype=np.float64).reshape(4)
    n = np.linalg.norm(out)
    if not np.isfinite(n) or n < 1e-6:
        raise ValueError("quaternion norm too far from 1 to normalize")
    return out / n


@dataclass(frozen=True)
class QuadVisualState:
    """Controller state: velocity, attitude, bearing, distance."""

    v_w: Array
    q_wb: Array
    q_cl: Array
    d: float

    def __post_init__(self):
        object.__setattr__(self, "v_w", _vec3(self.v_w))
        object.__setattr__(self, "q_wb", _unit_quat(self.q_wb))
        object.__setattr__(self, "q_cl", _unit_quat(self.q_cl))
        object.__setattr__(self, "d", float(self.d))

    def as_vector(self) -> Array:
        return np.concatenate([self.v_w, self.q_wb, self.q_cl, [self.d]])

    @staticmethod
    def from_vector(x: Array) -> "QuadVisualState":
        x = np.asarray(x, dtype=np.float64)
        return QuadVisualState(x[_V], x[_QWB], x[_QCL], float(x[_D]))


@dataclass(frozen=True)
class ControlInput:
    """Mass-normalized collective thrust (m/s^2) and body rates (rad/s)."""

    c: float
    omega_b: Array

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "omega_b", _vec3(self.omega_b))

    def as_vector(self) -> Array:
        return np.concatenate([[self.c], self.omega_b])

    @staticmethod
    def from_vector(u: Array) -> "ControlInput":
        u = np.asarray(u, dtype=np.float64)
        return ControlInput(float(u[0]), u[1:4])

    @staticmethod
    def hover() -> "ControlInput":
        return ControlInput(9.81, np.zeros(3))


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera mounting: position in body frame and camera-to-body rotation."""

    p_b_cb: Array = field(default_factory=lambda: np.zeros(3))
    q_bc: Array = field(default_factory=quat_identity)

    def __post_init__(self):
        object.__setattr__(self, "p_b_cb", _vec3(self.p_b_cb))
        object.__setattr__(self, "q_bc", _unit_quat(self.q_bc))


@dataclass(frozen=True)
class CameraTwist:
    """Linear and angular velocity expressed in the camera frame."""

    v_c: Array
    w_c: Array

    def __post_init__(self):
        object.__setattr__(self, "v_c", _vec3(self.v_c))
        object.__setattr__(self, "w_c", _vec3(self.w_c))


def _bearing_rates(q_cl: Array, d: Array, v_c: Array, w_c: Array):
    """Tangent rate ``u_mu``, quaternion rate and distance rate of the bearing.

    ``d`` carries a trailing axis of length 1 so it broadcasts against
    the 3-vectors.
    """
    n = quat_rotate(q_cl, EZ)
    t1 = quat_rotate(q_cl, EX)
    t2 = quat_rotate(q_cl, EY)
    w_eff = -w_c - _cross(n, v_c) / d
    u1 = np.sum(t1 * w_eff, axis=-1, keepdims=True)
    u2 = np.sum(t2 * w_eff, axis=-1, keepdims=True)
    dq_cl = 0.5 * quat_prod(pure_quat(u1 * t1 + u2 * t2), q_cl)
    dd = -np.sum(n * v_c, axis=-1, keepdims=True)
    return np.concatenate([u1, u2], axis=-1), dq_cl, dd


def _rotmat_cols(qw, qx, qy, qz):
    """Rotation-matrix columns of a quaternion given by its components (floats or arrays)."""
    xx, yy, zz = qx * qx, qy * qy, qz * qz
    xy, xz, yz = qx * qy, qx * qz, qy * qz
    wx, wy, wz = qw * qx, qw * qy, qw * qz
    c0 = (1 - 2 * (yy + zz), 2 * (xy + wz), 2 * (xz - wy))
    c1 = (2 * (xy - wz), 1 - 2 * (xx + zz), 2 * (yz + wx))
    c2 = (2 * (xz + wy), 2 * (yz - wx), 1 - 2 * (xx + yy))
    return c0, c1, c2


def _f(x, u, p_b_cb, r_bc) -> tuple:
    """Flat-state derivative ``dx/dt``, the one kernel of the coupled dynamics.

    ``x`` and ``u`` are sequences of the 12 state and 4 input components
    (lists, or an array's first axis), each a Python float (one state) or
    an array of one shared shape (a batch); the result is the tuple of the
    12 derivative components in the same form.  Hand-expanded quaternion
    algebra with one elementwise operation per term, so a single state
    costs plain float arithmetic and a batch the same few hundred numpy
    calls whatever its size; each batch column is bit-identical to the
    state taken alone.  ``r_bc`` is the 3x3 camera-to-body rotation.
    """
    vx, vy, vz = x[0], x[1], x[2]
    qw, qx, qy, qz = x[3], x[4], x[5], x[6]
    bw, bx, by, bz = x[7], x[8], x[9], x[10]
    d = x[11]
    c, wx_, wy_, wz_ = u[0], u[1], u[2], u[3]
    px, py, pz = p_b_cb[0], p_b_cb[1], p_b_cb[2]

    wb0, wb1, wb2 = _rotmat_cols(qw, qx, qy, qz)
    # dv = R_wb @ (0,0,c) + g
    dvx = wb2[0] * c
    dvy = wb2[1] * c
    dvz = wb2[2] * c - 9.81
    # dq_wb = 0.5 * q_wb (x) [0, w]
    dqw = 0.5 * (-qx * wx_ - qy * wy_ - qz * wz_)
    dqx = 0.5 * (qw * wx_ + qy * wz_ - qz * wy_)
    dqy = 0.5 * (qw * wy_ - qx * wz_ + qz * wx_)
    dqz = 0.5 * (qw * wz_ + qx * wy_ - qy * wx_)

    # body-frame velocity of the camera point: R_wb^T v + w x p
    vbx = wb0[0] * vx + wb0[1] * vy + wb0[2] * vz + (wy_ * pz - wz_ * py)
    vby = wb1[0] * vx + wb1[1] * vy + wb1[2] * vz + (wz_ * px - wx_ * pz)
    vbz = wb2[0] * vx + wb2[1] * vy + wb2[2] * vz + (wx_ * py - wy_ * px)
    # camera frame: R_bc^T @ (.)
    vcx = r_bc[0][0] * vbx + r_bc[1][0] * vby + r_bc[2][0] * vbz
    vcy = r_bc[0][1] * vbx + r_bc[1][1] * vby + r_bc[2][1] * vbz
    vcz = r_bc[0][2] * vbx + r_bc[1][2] * vby + r_bc[2][2] * vbz
    wcx = r_bc[0][0] * wx_ + r_bc[1][0] * wy_ + r_bc[2][0] * wz_
    wcy = r_bc[0][1] * wx_ + r_bc[1][1] * wy_ + r_bc[2][1] * wz_
    wcz = r_bc[0][2] * wx_ + r_bc[1][2] * wy_ + r_bc[2][2] * wz_

    t1, t2, n = _rotmat_cols(bw, bx, by, bz)
    # w_eff = -w_c - (n x v_c) / d
    ex = -wcx - (n[1] * vcz - n[2] * vcy) / d
    ey = -wcy - (n[2] * vcx - n[0] * vcz) / d
    ez = -wcz - (n[0] * vcy - n[1] * vcx) / d
    u1 = t1[0] * ex + t1[1] * ey + t1[2] * ez
    u2 = t2[0] * ex + t2[1] * ey + t2[2] * ez
    wbx = u1 * t1[0] + u2 * t2[0]
    wby = u1 * t1[1] + u2 * t2[1]
    wbz = u1 * t1[2] + u2 * t2[2]
    # dq_cl = 0.5 * [0, w_bear] (x) q_cl
    dbw = 0.5 * (-wbx * bx - wby * by - wbz * bz)
    dbx = 0.5 * (wbx * bw + wby * bz - wbz * by)
    dby = 0.5 * (wby * bw + wbz * bx - wbx * bz)
    dbz = 0.5 * (wbz * bw + wbx * by - wby * bx)
    dd = -(n[0] * vcx + n[1] * vcy + n[2] * vcz)

    return dvx, dvy, dvz, dqw, dqx, dqy, dqz, dbw, dbx, dby, dbz, dd


def rk4(f, x, dt: float) -> list:
    """Classical 4th-order Runge-Kutta step of ``dx/dt = f(x)``.

    ``x`` and ``f(x)`` are sequences of components, floats or arrays; each
    component is combined elementwise with its own derivatives.
    """
    h = 0.5 * dt
    k1 = f(x)
    k2 = f([a + h * k for a, k in zip(x, k1)])
    k3 = f([a + h * k for a, k in zip(x, k2)])
    k4 = f([a + dt * k for a, k in zip(x, k3)])
    s = dt / 6.0
    return [a + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _rk4(x, u, dt: float, p_b_cb, r_bc) -> tuple:
    """RK4 step of :func:`_f`; quaternions renormalized, d floored.

    12 floats in and out; or a ``(12, ...)`` array in, stepped as one stacked
    component (not 12: fewer numpy calls), and 12 arrays out.
    """
    if isinstance(x, np.ndarray):
        (out,) = rk4(lambda z: (np.array(_f(z[0], u, p_b_cb, r_bc)),), (x,), dt)
        sqrt, floor = np.sqrt, np.maximum
    else:
        out = rk4(lambda z: _f(z, u, p_b_cb, r_bc), x, dt)
        sqrt, floor = math.sqrt, max
    v0, v1, v2, qw, qx, qy, qz, bw, bx, by, bz, d = out
    nq = sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    nb = sqrt(bw * bw + bx * bx + by * by + bz * bz)
    return v0, v1, v2, qw / nq, qx / nq, qy / nq, qz / nq, bw / nb, bx / nb, by / nb, bz / nb, floor(d, D_FLOOR)


def _rk4_flat(x: Array, u: Array, dt: float, p_b_cb: Array, q_bc: Array) -> Array:
    """Row-major adapter of :func:`_rk4`: ``x`` is ``(M, 12)``, ``u`` is ``(M, 4)``."""
    return np.array(_rk4(x.T, u.T, dt, p_b_cb, quat_to_rotmat(q_bc))).T


def fd_jacobian_batch(fun, z: Array) -> Array:
    """Central-difference Jacobians of a batched map.

    ``fun`` maps ``(M, n) -> (M, m)`` row by row; returns ``(B, m, n)``.
    Step sizes scale per component as ``FD_STEP * max(1, |z_i|)``.
    ``fun`` is called once, on all ``2 B n`` perturbed points: the ``+``
    steps then the ``-`` steps, each ordered by batch row, then by
    component.
    """
    z = np.atleast_2d(np.asarray(z, dtype=np.float64))
    b, n = z.shape
    steps = FD_STEP * np.maximum(1.0, np.abs(z))
    pert = np.eye(n)[None, :, :] * steps[:, :, None]  # (B, n, n), row j = e_j * step_j
    zz = z[:, None, :] + np.stack([pert, -pert])  # (2, B, n, n)
    f = fun(zz.reshape(2 * b * n, n)).reshape(2, b, n, -1)
    return (f[0] - f[1]).swapaxes(1, 2) / (2.0 * steps[:, None, :])


def rk4_jacobians(x: Array, u: Array, dt: float, ext: CameraExtrinsics):
    """Batched Jacobians of the discrete RK4 map for shooting intervals.

    ``x`` is ``(K, 12)``, ``u`` is ``(K, 4)``; returns ``(K, 12, 12)``
    and ``(K, 12, 4)``.
    """
    z = np.concatenate([np.atleast_2d(x), np.atleast_2d(u)], axis=1)

    def fun(zz):
        return _rk4_flat(zz[:, :12], zz[:, 12:], dt, ext.p_b_cb, ext.q_bc)

    jac = fd_jacobian_batch(fun, z)
    return jac[:, :, :12], jac[:, :, 12:]


def homogeneous_image_dynamics(s: Array, z_depth: float, twist: CameraTwist):
    """Classical point-feature image dynamics in homogeneous coordinates.

    State is ``(u, v)`` plus depth ``Z``; derived from the static-point
    kinematics ``P_dot = -v_c - w_c x P`` with ``P = Z (u, v, 1)``.
    Serves as the comparison baseline for the bearing parametrization.
    """
    u, v = float(s[0]), float(s[1])
    vx, vy, vz = twist.v_c
    wx, wy, wz = twist.w_c
    du = -vx / z_depth + u * vz / z_depth + u * v * wx - (1.0 + u * u) * wy + v * wz
    dv = -vy / z_depth + v * vz / z_depth + (1.0 + v * v) * wx - u * v * wy - u * wz
    dz = -vz - z_depth * (wx * v - wy * u)
    return np.array([du, dv]), dz


def so3_integral_coeffs(theta: float, t: float) -> tuple:
    """Coefficients of the SO(3) left Jacobian and its time integral.

    For a rate ``w`` of norm ``theta`` held for time ``t`` (``a = theta t``),

        Gamma1 = int_0^t Exp(w^ s) ds      = t I      + k1 w^ + k2 w^2
        Gamma2 = int_0^t Gamma1(s) ds      = t^2/2 I  + k2 w^ + k3 w^2

    with ``k1 = (1 - cos a) / theta^2``, ``k2 = (a - sin a) / theta^3`` and
    ``k3 = (a^2/2 + cos a - 1) / theta^4``; returns ``(k1, k2, k3)`` as
    floats.  Below ``|a| = 1`` each is its Taylor series, so the result is
    accurate and smooth down to ``theta = 0``.
    """
    a = theta * t
    x = a * a
    if x < 1.0:
        f1, f2, f3 = (_horner(coeffs, -x) for coeffs in _SERIES)
        t2 = t * t
        return t2 * f1, t2 * t * f2, t2 * t2 * f3
    c, s = math.cos(a), math.sin(a)
    th2 = theta * theta
    return (1.0 - c) / th2, (a - s) / (th2 * theta), (0.5 * x + c - 1.0) / (th2 * th2)


def _horner(coeffs, x: float) -> float:
    acc = 0.0
    for c in coeffs:
        acc = acc * x + c
    return acc


def propagate_camera_pose(p_wc: Array, q_wc: Array, v_c: Array, w_c: Array, t: float):
    """Exact pose after time ``t`` under a constant camera-frame twist.

    Closed-form screw motion: the displacement integrates the rotating
    velocity through the SE(3) left Jacobian.  Used as ground truth by
    the prediction study and the finite-difference oracles.
    """
    p_wc = np.asarray(p_wc, dtype=np.float64)
    q_wc = np.asarray(q_wc, dtype=np.float64)
    v_c = np.asarray(v_c, dtype=np.float64)
    w_c = np.asarray(w_c, dtype=np.float64)

    k1, k2, _ = so3_integral_coeffs(float(np.linalg.norm(w_c)), t)
    wx = skew(w_c)
    vmat = t * np.eye(3) + k1 * wx + k2 * (wx @ wx)
    q_new = quat_normalize(quat_prod(q_wc, quat_exp(w_c * t)))
    p_new = p_wc + quat_rotate(q_wc, vmat @ v_c)
    return p_new, q_new
