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
by the finite-difference oracle in the test suite: the rates of the
kernel's bearing block :func:`_bearing_f` must reproduce exact
geometric propagation of a camera past a static landmark.

The solver's kernel ``_f`` takes a sequence of components, each a
Python float (one state) or an array of one shared shape (a batch), and
returns the tuple of its derivative components; its bearing block is
the one bearing model, which the prediction study also steps.
:func:`rk4`, the one RK4 stage sequence, steps any such sequence and
can record its stage derivatives; the solver's step :func:`_rk4` runs
it on floats.  The derivatives are exact: :func:`_f_jacobian`
differentiates the kernel in matrix form, with the rotation matrix and
the quaternion products as constant tensors taken from the kernel's own
code, and :func:`rk4_jacobians` carries it through the recorded stages
of a step, its renormalisation and its distance floor.  Thin dataclass
wrappers provide the typed public surface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    Array,
    _cross,
    _rotmat_cols,
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

# Taylor coefficients of the SO(3) integrals, used for rotation angles
# |a| < 1: there the closed forms cancel (that of ``k3`` loses about
# 2.7e-15 / a^4 of its value), and 8 terms leave at most 4e-16 at |a| = 1.
_SERIES = tuple(
    tuple(1.0 / math.factorial(2 * n + j) for n in reversed(range(8))) for j in (2, 3, 4)
)


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


@dataclass(frozen=True)
class ControlInput:
    """Mass-normalized collective thrust (m/s^2) and body rates (rad/s)."""

    c: float
    omega_b: Array

    def __post_init__(self):
        object.__setattr__(self, "c", float(self.c))
        if not math.isfinite(self.c):
            raise ValueError("thrust c must be finite")
        object.__setattr__(self, "omega_b", _vec3(self.omega_b))

    def as_vector(self) -> Array:
        return np.concatenate([[self.c], self.omega_b])

    @staticmethod
    def hover() -> "ControlInput":
        return ControlInput(9.81, np.zeros(3))


@dataclass(frozen=True)
class CameraExtrinsics:
    """Camera mounting: position in body frame and camera-to-body rotation.

    ``r_bc``, the rotation matrix of ``q_bc``, is computed once here; it is
    an attribute, not a field, so configs neither hold nor set it.
    """

    p_b_cb: Array = field(default_factory=lambda: np.zeros(3))
    q_bc: Array = field(default_factory=quat_identity)

    def __post_init__(self):
        object.__setattr__(self, "p_b_cb", _vec3(self.p_b_cb))
        object.__setattr__(self, "q_bc", _unit_quat(self.q_bc))
        object.__setattr__(self, "r_bc", quat_to_rotmat(self.q_bc))


@dataclass(frozen=True)
class CameraTwist:
    """Linear and angular velocity expressed in the camera frame."""

    v_c: Array
    w_c: Array

    def __post_init__(self):
        object.__setattr__(self, "v_c", _vec3(self.v_c))
        object.__setattr__(self, "w_c", _vec3(self.w_c))


def _product_tensors():
    """The kernel's quaternion products and rotation matrix as constant tensors.

    Each is built by one call of the code it differentiates, on basis
    quaternions, and laid out so that a matmul with quaternions
    ``(..., 4)`` gives the matrices of :func:`_quat_lmat`,
    :func:`_quat_rmat` and :func:`_rotmat_jacobian`.  The rotation matrix
    is ``R(q) = I + B(q, q)`` with ``B`` symmetric, so its derivative
    along ``e_i`` at ``q`` is ``2 B(e_i, q)``, which is
    ``sum_j q_j (R(e_i + e_j) - R(e_i - e_j)) / 2``.
    """
    eye = np.eye(4)
    ham = quat_prod(eye[:, None], eye[None, :])  # [i, j, a]: (e_i (x) e_j)[a]
    sums = np.stack([eye[:, None] + eye[None, :], eye[:, None] - eye[None, :]])  # [sign, i, j, component]
    cols = np.array(_rotmat_cols(*np.moveaxis(sums, -1, 0)))  # [column, row, sign, i, j]
    d_rot = 0.5 * (cols[:, :, 0] - cols[:, :, 1])
    return (
        ham.transpose(0, 2, 1).reshape(4, 16),
        ham.transpose(1, 2, 0).reshape(4, 16),
        d_rot.transpose(3, 1, 0, 2).reshape(4, 36),
    )


_QL, _QR, _DR = _product_tensors()


def _input_terms(u, p_b_cb, r_bc) -> tuple:
    """The terms of :func:`_f` that depend only on the input and the camera mounting.

    The input ``c, w``, the lever-arm rate ``w x p_b_cb``, the camera's
    angular rate ``R_bc^T w`` and the nine entries of ``R_bc``, row by
    row, in the form of :func:`_f`'s components.  They hold over an RK4
    interval, so :func:`_rk4` computes them once for its four stages.
    """
    c, wx, wy, wz = u
    px, py, pz = p_b_cb
    (r00, r01, r02), (r10, r11, r12), (r20, r21, r22) = r_bc
    wpx, wpy, wpz = wy * pz - wz * py, wz * px - wx * pz, wx * py - wy * px
    wcx = r00 * wx + r10 * wy + r20 * wz
    wcy = r01 * wx + r11 * wy + r21 * wz
    wcz = r02 * wx + r12 * wy + r22 * wz
    return c, wx, wy, wz, wpx, wpy, wpz, wcx, wcy, wcz, r00, r01, r02, r10, r11, r12, r20, r21, r22


def _f(x, terms) -> tuple:
    """Flat-state derivative ``dx/dt``, the one kernel of the coupled dynamics.

    ``x`` is a sequence of the 12 state components (a list, or an array's
    first axis), each a Python float (one state) or an array of one shared
    shape (a batch), and ``terms`` the :func:`_input_terms` of the input
    in the same form; the result is the tuple of the 12 derivative
    components.  Hand-expanded quaternion algebra with one elementwise
    operation per term, so a single state costs plain float arithmetic
    and a batch the same few hundred numpy calls whatever its size; each
    batch column is bit-identical to the state taken alone.
    """
    vx, vy, vz, qw, qx, qy, qz, bw, bx, by, bz, d = x
    c, wx_, wy_, wz_, wpx, wpy, wpz, wcx, wcy, wcz, r00, r01, r02, r10, r11, r12, r20, r21, r22 = terms

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
    vbx = wb0[0] * vx + wb0[1] * vy + wb0[2] * vz + wpx
    vby = wb1[0] * vx + wb1[1] * vy + wb1[2] * vz + wpy
    vbz = wb2[0] * vx + wb2[1] * vy + wb2[2] * vz + wpz
    # camera frame: R_bc^T @ (.); the angular rate w_c = R_bc^T w is a term of the input
    vcx = r00 * vbx + r10 * vby + r20 * vbz
    vcy = r01 * vbx + r11 * vby + r21 * vbz
    vcz = r02 * vbx + r12 * vby + r22 * vbz

    dbw, dbx, dby, dbz, dd = _bearing_f(bw, bx, by, bz, d, vcx, vcy, vcz, wcx, wcy, wcz)
    return dvx, dvy, dvz, dqw, dqx, dqy, dqz, dbw, dbx, dby, dbz, dd


def _bearing_f(bw, bx, by, bz, d, vcx, vcy, vcz, wcx, wcy, wcz) -> tuple:
    """Bearing block of :func:`_f`: ``dq_cl`` and ``dd`` under the camera twist ``v_c, w_c``.

    The bearing moves with ``w_bear = T T^T w_eff``, the part of
    ``w_eff = -w_c - (n x v_c) / d`` in the tangent plane ``T = (t1, t2)``
    of ``n``, and ``dd = -n . v_c`` never reads ``d``.  Components as in
    :func:`_f`: floats or arrays of one shape.  The prediction study
    steps it alone.
    """
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
    return dbw, dbx, dby, dbz, dd


def rk4(f, x, dt: float, stages: list | None = None) -> list:
    """Classical 4th-order Runge-Kutta step of ``dx/dt = f(x)``.

    ``x`` and ``f(x)`` are sequences of components, floats or arrays; each
    component is combined elementwise with its own derivatives.  When
    ``stages`` is given, the components of the four stage derivatives are
    appended to it flat, ``k1`` to ``k4``, each in the order of ``x``.
    """
    h = 0.5 * dt
    k1 = f(x)
    k2 = f([a + h * k for a, k in zip(x, k1)])
    k3 = f([a + h * k for a, k in zip(x, k2)])
    k4 = f([a + dt * k for a, k in zip(x, k3)])
    if stages is not None:
        stages += k1
        stages += k2
        stages += k3
        stages += k4
    s = dt / 6.0
    return [a + s * (b1 + 2.0 * b2 + 2.0 * b3 + b4) for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]


def _rk4(x, u, dt: float, p_b_cb, r_bc, stages: list | None = None) -> tuple:
    """RK4 step of :func:`_f` on floats; quaternions renormalized, d floored.

    12 floats in and out, the 48 floats of the four stage derivatives
    appended to ``stages`` when it is given (the record of :func:`rk4`).
    The input's terms are computed once for the four stages.  A zero
    distance or quaternion norm raises ZeroDivisionError.
    """
    terms = _input_terms(u, p_b_cb, r_bc)
    v0, v1, v2, qw, qx, qy, qz, bw, bx, by, bz, d = rk4(lambda z: _f(z, terms), x, dt, stages)
    nq = math.sqrt(qw * qw + qx * qx + qy * qy + qz * qz)
    nb = math.sqrt(bw * bw + bx * bx + by * by + bz * bz)
    return v0, v1, v2, qw / nq, qx / nq, qy / nq, qz / nq, bw / nb, bx / nb, by / nb, bz / nb, max(d, D_FLOOR)


def _quat_lmat(p: Array) -> Array:
    """Left-multiplication matrices, ``p (x) q == _quat_lmat(p) @ q``, over leading axes."""
    return (p @ _QL).reshape(np.shape(p)[:-1] + (4, 4))


def _quat_rmat(q: Array) -> Array:
    """Right-multiplication matrices, ``p (x) q == _quat_rmat(q) @ p``, over leading axes."""
    return (q @ _QR).reshape(np.shape(q)[:-1] + (4, 4))


def _rotmat_jacobian(q: Array) -> Array:
    """``dR/dq`` of :func:`_rotmat_cols` at raw quaternions ``q (..., 4)``: ``(..., 3, 3, 4)``, row, column, q."""
    return (q @ _DR).reshape(np.shape(q)[:-1] + (3, 3, 4))


def _normalize_jacobian(p: Array) -> Array:
    """Jacobians ``(I - p^ p^T) / |p|`` of ``p / |p|`` over the last axis of ``p``."""
    norm = np.sqrt(np.sum(p * p, axis=-1))[..., None]
    unit = p / norm
    return (np.eye(p.shape[-1]) - unit[..., :, None] * unit[..., None, :]) / norm[..., None]


def _f_jacobian(x: Array, u: Array, p_b_cb: Array, r_bc: Array) -> Array:
    """Jacobians of :func:`_f` in ``[x, u]`` at the rows of ``x (M, 12)`` and ``u (M, 4)``: ``(M, 12, 16)``.

    The exact derivative of the kernel, with its quaternions taken raw,
    not unit, as the RK4 stage points hold them.  Rotation matrices and
    their derivatives come from :func:`_rotmat_cols`, products with a
    quaternion from the Hamilton-product matrices.
    """
    m = len(x)
    v, q, b, d = x[:, 0:3], x[:, 3:7], x[:, 7:11], x[:, 11:12]
    c, w = u[:, 0], u[:, 1:4]
    dr_wb, dr_cl = _rotmat_jacobian(q), _rotmat_jacobian(b)
    # R(q) - I is quadratic in q, so R(q) = I + (dR/dq) q / 2
    r_wb = np.eye(3) + 0.5 * np.einsum("mrci,mi->mrc", dr_wb, q)
    r_cl = np.eye(3) + 0.5 * np.einsum("mrci,mi->mrc", dr_cl, b)
    jac = np.zeros((m, 12, 16))
    # dv = R_wb e_z c + g
    jac[:, 0:3, 3:7] = c[:, None, None] * dr_wb[:, :, 2]
    jac[:, 0:3, 12] = r_wb[:, :, 2]
    # dq_wb = 1/2 q_wb (x) [0, w]
    jac[:, 3:7, 3:7] = 0.5 * _quat_rmat(pure_quat(w))
    jac[:, 3:7, 13:16] = 0.5 * _quat_lmat(q)[:, :, 1:]

    # camera twist v_c = R_bc^T (R_wb^T v + w x p), w_c = R_bc^T w, and
    # their tangents in [x, u]
    v_c = (np.einsum("mrc,mr->mc", r_wb, v) + _cross(w, p_b_cb)) @ r_bc
    w_c = w @ r_bc
    t_vb = np.zeros((m, 3, 16))
    t_vb[:, :, 0:3] = r_wb.transpose(0, 2, 1)
    t_vb[:, :, 3:7] = np.einsum("mrci,mr->mci", dr_wb, v)
    t_vb[:, :, 13:16] = -skew(p_b_cb)
    t_vc = r_bc.T @ t_vb
    t_wc = np.zeros((3, 16))
    t_wc[:, 13:16] = r_bc.T

    n = r_cl[:, :, 2]
    t_n = np.zeros((m, 3, 16))
    t_n[:, :, 7:11] = dr_cl[:, :, 2]
    # w_eff = -w_c - (n x v_c) / d
    n_x_vc = _cross(n, v_c)
    e = -w_c - n_x_vc / d
    t_e = (skew(v_c) @ t_n - skew(n) @ t_vc) / d[:, :, None] - t_wc
    t_e[:, :, 11] += n_x_vc / (d * d)
    # w_bear = T T^T w_eff with the tangent basis T = (t1, t2), which moves with q_cl
    tan, dtan = r_cl[:, :, :2], dr_cl[:, :, :2]
    u_mu = np.einsum("mrc,mr->mc", tan, e)
    w_bear = np.einsum("mrc,mc->mr", tan, u_mu)
    t_w = tan @ (tan.transpose(0, 2, 1) @ t_e)
    t_w[:, :, 7:11] += np.einsum("mrci,mc->mri", dtan, u_mu) + tan @ np.einsum("mrci,mr->mci", dtan, e)
    # dq_cl = 1/2 [0, w_bear] (x) q_cl
    jac[:, 7:11] = 0.5 * _quat_rmat(b)[:, :, 1:] @ t_w
    jac[:, 7:11, 7:11] += 0.5 * _quat_lmat(pure_quat(w_bear))
    # dd = -n . v_c
    jac[:, 11] = -np.einsum("mr,mrj->mj", n, t_vc) - np.einsum("mr,mrj->mj", v_c, t_n)
    return jac


def rk4_jacobians(x: Array, u: Array, stages, dt: float, ext: CameraExtrinsics):
    """Exact Jacobians of the discrete RK4 map :func:`_rk4` for shooting intervals.

    ``x`` is ``(K, 12)``, ``u`` is ``(K, 4)`` and ``stages`` the four stage
    derivatives of each step as :func:`rk4` records them: a flat sequence
    of ``48 K`` floats, step by step; returns ``(K, 12, 12)`` and
    ``(K, 12, 4)``.
    One tangent pass: :func:`_f_jacobian` at all ``4K`` stage points, the
    chain through the stages, then the renormalisation's projections.  The
    distance row is zero where the floor clamps the step.
    """
    x, u = np.atleast_2d(x), np.atleast_2d(u)
    kk = len(x)
    k = np.fromiter(stages, np.float64, 48 * kk).reshape(kk, 4, 12)
    h = 0.5 * dt
    points = np.stack([x, x + h * k[:, 0], x + h * k[:, 1], x + dt * k[:, 2]], axis=1)
    jac = _f_jacobian(points.reshape(4 * kk, 12), np.repeat(u, 4, axis=0), ext.p_b_cb, ext.r_bc)
    jac = jac.reshape(kk, 4, 12, 16)
    # stage s is f at x + c k_{s-1}, so dk_s = J_s + c A_s dk_{s-1}
    dk = total = jac[:, 0]
    for s, c, weight in ((1, h, 2.0), (2, h, 2.0), (3, dt, 1.0)):
        dk = jac[:, s] + c * (jac[:, s, :, :12] @ dk)
        total = total + weight * dk
    step = (dt / 6.0) * total
    step[:, :, :12] += np.eye(12)
    out = x + (dt / 6.0) * (k[:, 0] + 2.0 * k[:, 1] + 2.0 * k[:, 2] + k[:, 3])
    quats = _normalize_jacobian(out[:, 3:11].reshape(kk, 2, 4))
    step[:, 3:11] = (quats @ step[:, 3:11].reshape(kk, 2, 4, 16)).reshape(kk, 8, 16)
    step[out[:, 11] < D_FLOOR, 11] = 0.0
    return step[:, :, :12], step[:, :, 12:]


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
