"""Shared fixtures and independently coded oracles.

The matrix oracles here deliberately avoid the package's own quaternion
helpers: rotations go through explicitly assembled 3x3 matrices so the
library code is checked against a second, independent formulation.

The second copy of the coupled dynamics lives here, not in the package:
``quad_dynamics``, ``camera_twist`` and ``image_dynamics`` compose the
rates through the broadcasting quaternion helpers, and
``composed_dynamics`` builds from them a second formulation of the
solver's hand-expanded kernel ``dynamics._f``.  ``image_dynamics`` calls
the package's ``dynamics._bearing_rates``, which the prediction study
runs, so its tests check that code.  ``full_dynamics`` and
``f_jacobians`` evaluate the solver's kernel and its exact Jacobian
``dynamics._f_jacobian`` on typed states, ``rk4_flat_step`` is one row
of the solver's RK4 step ``dynamics._rk4_flat``, and ``rk4_stages``
records the stage derivatives of the float-path steps as the solver's
rollout does.

The package computes no finite difference: ``fd_jacobian_batch``, with
its relative step ``FD_STEP``, is the batched central-difference oracle
that the exact derivatives are checked against.

``stage_block`` is not an oracle: it exposes one objective of the
solver's own stage residuals so the cost tests check the code that runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.costs import ReferencePoint
from quadvpc.dynamics import (
    GRAVITY_W,
    CameraTwist,
    ControlInput,
    _bearing_rates,
    _f,
    _f_jacobian,
    _rk4,
    _rk4_flat,
)
from quadvpc.ocp import _stage_jacobians, _stage_outputs


def rotmat_oracle(q) -> np.ndarray:
    """Rotation matrix of a [w,x,y,z] quaternion, written out directly."""
    w, x, y, z = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def quat_oracle_from_axis_angle(axis, angle) -> np.ndarray:
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def quat_oracle_from_rotmat(r) -> np.ndarray:
    """Trace-based matrix-to-quaternion conversion (assumes w not tiny)."""
    w = 0.5 * np.sqrt(max(1.0 + np.trace(r), 0.0))
    if w < 1e-6:
        raise ValueError("oracle conversion needs |angle| < ~pi")
    return np.array(
        [w, (r[2, 1] - r[1, 2]) / (4 * w), (r[0, 2] - r[2, 0]) / (4 * w), (r[1, 0] - r[0, 1]) / (4 * w)]
    )


def random_quat(rng, n=None) -> np.ndarray:
    """Random rotations by normalizing 4D gaussians (fine for testing)."""
    shape = (4,) if n is None else (n, 4)
    q = rng.normal(size=shape)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def fd_gradient(fun, x, h=1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fun(xp) - fun(xm)) / (2 * step)
    return g


# Relative step of the batched central differences: the step of component i
# is FD_STEP * max(1, |z_i|).
FD_STEP = 1e-6


def fd_jacobian_batch(fun, z) -> np.ndarray:
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


def fd_jacobian(fun, x, h=1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector function (test-side oracle)."""
    x = np.asarray(x, float)
    cols = []
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * step))
    return np.stack(cols, axis=-1)


def rotations_close(q1, q2, tol=1e-9):
    """Double-cover aware rotation equality: |<q1, q2>| >= 1 - tol."""
    dot = np.abs(np.sum(np.asarray(q1) * np.asarray(q2), axis=-1))
    return dot >= 1.0 - tol


def bearing_N(q) -> np.ndarray:
    """3x2 tangent basis of a bearing: columns are q @ e_x and q @ e_y."""
    return np.stack([g.quat_rotate(q, g.EX), g.quat_rotate(q, g.EY)], axis=-1)


def quad_dynamics(v_w, q_wb, u: ControlInput):
    """Velocity and attitude rates of the quadrotor.

    ``dv_w = q_wb @ (0,0,c) + g_w`` and the body-rate quaternion
    kinematics.  Thrust and gravity only; no drag, no rotor dynamics.
    """
    dv = g.quat_rotate(q_wb, u.c * g.EZ) + GRAVITY_W
    dq_wb = 0.5 * g.quat_prod(q_wb, g.pure_quat(u.omega_b))
    return dv, dq_wb


def camera_twist(v_w, omega_b, q_wb, ext) -> CameraTwist:
    """Map body velocity/rates into the camera frame, with lever arm."""
    omega_b = np.asarray(omega_b, dtype=np.float64)
    q_cb = g.quat_conj(ext.q_bc)
    v_b = g.quat_rotate(g.quat_conj(q_wb), v_w) + g._cross(omega_b, ext.p_b_cb)
    return CameraTwist(g.quat_rotate(q_cb, v_b), g.quat_rotate(q_cb, omega_b))


def image_dynamics(q_cl, d: float, twist: CameraTwist):
    """Bearing and distance rates under a camera twist, by ``_bearing_rates``.

    Returns ``(u_mu, dd)`` with ``u_mu`` the 2D tangent-space angular
    rate of the bearing, i.e. the camera-frame angular velocity of the
    bearing projected onto its tangent basis; the quaternion rate is
    ``dq_cl = 1/2 [0, N(q_cl) u_mu] (x) q_cl``.
    """
    u_mu, _, dd = _bearing_rates(q_cl, np.array([d], dtype=np.float64), twist.v_c, twist.w_c)
    return u_mu, float(dd[0])


def full_dynamics(x, u, ext) -> np.ndarray:
    """``dx/dt`` of the solver's kernel ``_f`` as a flat 12-vector."""
    return np.array(_f(x.as_vector(), u.as_vector(), ext.p_b_cb, g.quat_to_rotmat(ext.q_bc)))


def f_jacobians(x, u, ext):
    """Jacobians (A, B) of ``_f`` by the solver's exact ``_f_jacobian``.

    Quaternions are treated as raw 4-vectors.
    """
    z = np.concatenate([x.as_vector(), u.as_vector()])[None, :]
    jac = _f_jacobian(z[:, :12], z[:, 12:], ext.p_b_cb, g.quat_to_rotmat(ext.q_bc))[0]
    return jac[:, :12], jac[:, 12:]


def rk4_flat_step(x, u, dt, ext) -> np.ndarray:
    """One ``dynamics._rk4_flat`` step of one flat state under one flat input."""
    return _rk4_flat(np.atleast_2d(x), np.atleast_2d(u), dt, ext.p_b_cb, ext.q_bc)[0]


def rk4_stages(x, u, dt, ext) -> np.ndarray:
    """The stage derivatives ``(K, 4, 12)`` of one ``_rk4`` step from each row of ``x (K, 12)`` under ``u (K, 4)``.

    The steps run on Python floats and record their stages, as the
    solver's rollout does; on the states of a rollout the result equals
    the stages it recorded.
    """
    x, u = np.atleast_2d(x), np.atleast_2d(u)
    p_b_cb, r_bc = ext.p_b_cb.tolist(), g.quat_to_rotmat(ext.q_bc).tolist()
    stages = []
    for xk, uk in zip(x.tolist(), u.tolist()):
        _rk4(xk, uk, float(dt), p_b_cb, r_bc, stages)
    return np.array(stages).reshape(len(x), 4, 12)


def composed_dynamics(z, ext) -> np.ndarray:
    """Flat derivative of ``z = [x (12), u (4)]`` composed from the rate
    functions above on the raw vector (quaternions are not renormalized).

    A second formulation of the coupled dynamics, through the broadcasting
    quaternion helpers instead of the solver's hand-expanded kernel.
    """
    v_w, q_wb, q_cl, d = z[0:3], z[3:7], z[7:11], z[11]
    u = ControlInput(z[12], z[13:16])
    dv, dq_wb = quad_dynamics(v_w, q_wb, u)
    u_mu, dd = image_dynamics(q_cl, d, camera_twist(v_w, u.omega_b, q_wb, ext))
    w_bear = u_mu[0] * g.quat_rotate(q_cl, g.EX) + u_mu[1] * g.quat_rotate(q_cl, g.EY)
    dq_cl = 0.5 * g.quat_prod(g.pure_quat(w_bear), q_cl)
    return np.concatenate([dv, dq_wb, dq_cl, [dd]])


# residual columns of each objective in ocp._stage_outputs
STAGE_BLOCKS = {"visual_servo": slice(0, 3), "perception": slice(3, 5), "action": slice(5, 12)}


def _stage_node(x, ref, q_bc):
    x = np.asarray(x.as_vector() if hasattr(x, "as_vector") else x, dtype=float)
    if ref is None:  # the perception block does not read the reference
        ref = ReferencePoint(np.zeros(2), 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    q_bc = np.array([1.0, 0.0, 0.0, 0.0]) if q_bc is None else q_bc
    # the solver's batch of one node: leading shape (1,)
    return x[None, :], ReferencePoint(ref.s_star, np.reshape(ref.d_star, 1), ref.v_star, ref.q_star), q_bc


def stage_block(x, ref, w, block, q_bc=None):
    """One node's objective through the solver's own residuals, at dt = 1.

    Evaluates ``ocp._stage_outputs`` on the raw flat state (quaternions
    are not renormalized) and returns ``(cost, r, n)``: the sum of
    squares of the ``block`` residuals, those residuals, and the node's
    unit bearing.
    """
    x, ref, q_bc = _stage_node(x, ref, q_bc)
    res, n_c = _stage_outputs(x, ref, w, q_bc, 1.0)
    r = res[0, STAGE_BLOCKS[block]]
    return float(np.sum(r * r)), r, n_c[0]


def stage_block_gradient(x, ref, w, block, q_bc=None):
    """The solver's gradient of ``stage_block``: ``2 J[block]^T r[block]``,
    with ``J`` from ``ocp._stage_jacobians``."""
    x, ref, q_bc = _stage_node(x, ref, q_bc)
    res, _ = _stage_outputs(x, ref, w, q_bc, 1.0)
    j_res, _ = _stage_jacobians(x, ref, w, q_bc, 1.0)
    cols = STAGE_BLOCKS[block]
    return 2.0 * j_res[0, cols].T @ res[0, cols]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def gate_flight_qps():
    """Every step QP of the first 12 ticks of the five default gate flights.

    Ticks 2-10 of a gate flight take the most projected-Newton steps.
    Captured from the solver's own calls, pose by pose and tick by tick,
    each entry is ``(args, result)``: the dict of ``_solve_step_qp``
    arguments and the tuple it returned.
    """
    import inspect

    from quadvpc import ocp
    from quadvpc.config import default_config
    from quadvpc.scenarios import scenario_gate_reaching

    cfg = default_config("gate_reaching")
    cfg.duration = 12 * cfg.ocp.dt
    solve_qp = ocp._solve_step_qp
    calls = []

    def spy(*args):
        result = solve_qp(*args)
        calls.append((dict(inspect.signature(solve_qp).bind(*args).arguments), result))
        return result

    ocp._solve_step_qp = spy
    try:
        scenario_gate_reaching(cfg)
    finally:
        ocp._solve_step_qp = solve_qp
    return calls


@pytest.fixture(scope="session")
def gate_tail_qp(gate_flight_qps):
    """The step QP of tick 4 at the first gate pose.

    A real instance from the tail of the gate-reaching solves, with every
    visibility row in the model: a dict of ``_solve_step_qp`` arguments
    without the starting multipliers ``lam``.
    """
    qp = dict(gate_flight_qps[4][0])
    del qp["lam"]
    return qp
