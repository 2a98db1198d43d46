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
``dynamics._f_jacobian`` on typed states.  ``rk4_flat`` steps the rows
of a batch by the array path of the solver's RK4 step ``dynamics._rk4``
(the path its rollout falls back to after a division by zero),
``rk4_flat_step`` is one such row, and ``rk4_stages`` records the stage
derivatives of the float-path steps as the solver's rollout does.

The package computes no finite difference: ``fd_jacobian_batch``, with
its relative step ``FD_STEP``, is the batched central-difference oracle
that the exact derivatives are checked against.

``stage_block`` is not an oracle: it exposes one objective of the
solver's own stage residuals so the cost tests check the code that runs.
``take_reference`` picks nodes of a horizon reference without
renormalising it, so a batch of nodes can be compared with each node
alone bit for bit.  ``uncompensated_stage_outputs`` and
``uncompensated_stage_jacobians`` are the solver's stage residuals
without rotation compensation, for the check that compensation matters.
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


def rk4_flat(x, u, dt, p_b_cb, q_bc) -> np.ndarray:
    """RK4 steps of the rows of ``x (M, 12)`` under ``u (M, 4)`` by the array path of ``dynamics._rk4``."""
    return np.array(_rk4(x.T, u.T, dt, p_b_cb, g.quat_to_rotmat(q_bc))).T


def rk4_flat_step(x, u, dt, ext) -> np.ndarray:
    """One :func:`rk4_flat` step of one flat state under one flat input."""
    return rk4_flat(np.atleast_2d(x), np.atleast_2d(u), dt, ext.p_b_cb, ext.q_bc)[0]


def rk4_stages(x, u, dt, ext) -> list:
    """The stage derivatives of one ``_rk4`` step from each row of ``x (K, 12)`` under ``u (K, 4)``.

    The steps run on Python floats and record their stages, as the
    solver's rollout does: a flat list of ``48 K`` floats.  On the states
    of a rollout the result equals the stages it recorded.
    """
    x, u = np.atleast_2d(x), np.atleast_2d(u)
    p_b_cb, r_bc = ext.p_b_cb.tolist(), g.quat_to_rotmat(ext.q_bc).tolist()
    stages = []
    for xk, uk in zip(x.tolist(), u.tolist()):
        _rk4(xk, uk, float(dt), p_b_cb, r_bc, stages)
    return stages


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


def take_reference(ref, index) -> ReferencePoint:
    """The nodes ``index`` of a horizon reference, bit for bit.

    Skips ``ReferencePoint.__post_init__``: the reference was checked and
    normalised when it was built, and normalising a unit ``q_star`` again
    would change its bits.
    """
    out = object.__new__(ReferencePoint)
    for name in ("s_star", "d_star", "v_star", "q_star"):
        object.__setattr__(out, name, np.take(getattr(ref, name), index, axis=0))
    return out


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


def uncompensated_stage_outputs(x, ref, w, q_bc, dt):
    """``ocp._stage_outputs`` with the image error read on the plain bearing.

    Columns ``0:2`` compare the bearing ``n_c`` itself with the target
    bearing ``n*``, not the bearing compensated by the attitude's
    deviation from the reference; the other columns are the package's.
    """
    res, n_c = _stage_outputs(x, ref, w, q_bc, dt)
    n_star = ref.s_star / np.sqrt(1.0 + np.sum(ref.s_star * ref.s_star, axis=-1, keepdims=True))
    res[:, 0:2] = np.sqrt(w.q_s) * (n_c[:, :2] - n_star) * np.sqrt(dt)
    return res, n_c


def uncompensated_stage_jacobians(x, ref, w, q_bc, dt):
    """The Jacobians of :func:`uncompensated_stage_outputs`.

    Columns ``0:2`` no longer read ``q_wb``; in the ``q_cl`` block they are
    ``sqrt(q_s dt) dR(q_cl)[:2, 2]``, the first two rows of the bearing's
    Jacobian.
    """
    j_res, j_n = _stage_jacobians(x, ref, w, q_bc, dt)
    j_res[:, 0:2, 3:7] = 0.0
    j_res[:, 0:2, 7:11] = np.sqrt(w.q_s)[:, None] * np.sqrt(dt) * j_n[:, :2, 7:11]
    return j_res, j_n


def reference_active_set_solve(h_mat, g_vec, lb, ub, vis_rows, vis_base, z, grad, f, rho):
    """``ocp._active_set_solve`` before its KKT matrix was assembled without ``np.block``."""
    lam = np.where(f >= rho, rho, 0.0)
    z = np.clip(z - grad, lb, ub)
    free = (z > lb) & (z < ub)
    z[free] = 0.0
    curved = (f > 0.0) & (f < rho)
    rows = vis_rows[curved][:, free]
    n_k = len(rows)
    kkt = np.block([[h_mat[free][:, free], rows.T], [rows, np.zeros((n_k, n_k))]])
    rhs = -np.concatenate([(h_mat @ z + g_vec + lam @ vis_rows)[free], (vis_rows @ z + vis_base)[curved]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    z[free] = sol[: len(sol) - n_k]
    lam[curved] = sol[len(sol) - n_k :]
    return z, lam


def reference_solve_step_qp(h_mat, g_vec, lb, ub, vis_rows, vis_base, lam, rho, tol, max_iter):
    """``ocp._solve_step_qp`` before its projected-Newton step was made leaner.

    The same augmented-Lagrangian passes, projected-Newton steps, batched
    trials and finishing solves, with numpy's function wrappers, the
    curved Hessian formed at every step and the free set gathered by
    boolean masks.  It calls :func:`reference_active_set_solve`.
    """
    mu = rho
    alphas = 0.5 ** np.arange(30)
    steps = 0
    last = np.inf
    z = np.clip(np.zeros_like(g_vec), lb, ub)
    grad_q = h_mat @ z + g_vec
    t = vis_rows @ z + vis_base
    for _outer in range(12):
        z_pass = z
        f = lam + mu * t
        fc = np.clip(f, 0.0, rho)
        pen = np.sum(fc * (2.0 * f - fc))
        for _inner in range(max_iter):
            grad = grad_q + fc @ vis_rows
            pg = np.max(np.abs(z - np.clip(z - grad, lb, ub)))
            if pg < tol:
                break
            curved = vis_rows[(f > 0.0) & (f < rho)]
            h_eff = h_mat + mu * curved.T @ curved if len(curved) else h_mat
            # inputs within eps of a bound they are pushed against move onto
            # it and leave the Newton system; an input left free there can
            # only creep toward the bound by short, rejected-then-halved steps
            eps = min(pg, 1e-6)
            at_lb = (z <= lb + eps) & (grad > 0.0)
            at_ub = (z >= ub - eps) & (grad < 0.0)
            free = ~(at_lb | at_ub)
            dz = np.where(at_lb, lb - z, np.where(at_ub, ub - z, 0.0))
            if np.any(free):
                try:
                    dz[free] = -np.linalg.solve(h_eff[free][:, free], grad[free])
                except np.linalg.LinAlgError:
                    dz[free] = -grad[free]
            steps += 1
            # backtracking: all 30 trials in one batch, each scored by its
            # change of the objective from z, which keeps small decreases
            # above roundoff.  The Newton step overshoots the box and the
            # row kinks, so a shorter trial often decreases the objective
            # more than the longest decreasing one: the trial of lowest
            # score is taken, if that score is negative.  A NaN score (an
            # overflow, inf - inf) is never taken; a -inf one, a decrease
            # beyond the float range, can be
            z_t = np.clip(z + alphas[:, None] * dz, lb, ub)
            moves = z_t - z
            h_moves = moves @ h_mat
            f_t = f + mu * (moves @ vis_rows.T)
            fc_t = np.clip(f_t, 0.0, rho)
            pen_t = np.sum(fc_t * (2.0 * f_t - fc_t), axis=1)
            delta = moves @ grad_q + 0.5 * np.sum(moves * h_moves, axis=1) + (pen_t - pen) / (2.0 * mu)
            delta = np.where(delta < 0.0, delta, np.inf)
            best = int(np.argmin(delta))
            if delta[best] == np.inf:
                break
            # the taken trial's products carry to the next step
            z, f, fc, pen = z_t[best], f_t[best], fc_t[best], pen_t[best]
            grad_q = grad_q + h_moves[best]
        t = vis_rows @ z + vis_base
        f = lam + mu * t
        new = np.clip(f, 0.0, rho)
        if z is not z_pass and np.any((f > 0.0) & (f < rho)):
            cand = reference_active_set_solve(h_mat, g_vec, lb, ub, vis_rows, vis_base, z, grad_q + new @ vis_rows, f, rho)
            if cand is not None:
                z_c, lam_c = cand
                t_c = vis_rows @ z_c + vis_base
                grad_c = h_mat @ z_c + g_vec + lam_c @ vis_rows
                # the slack's optimality: t <= 0 at multiplier 0, t >= 0 at rho, t = 0 between
                slack_ok = np.where(lam_c == 0.0, t_c <= 0.0, np.where(lam_c == rho, t_c >= 0.0, np.abs(t_c) < tol))
                if (
                    np.all((z_c >= lb) & (z_c <= ub))
                    and np.all((lam_c >= 0.0) & (lam_c <= rho) & slack_ok)
                    and np.max(np.abs(z_c - np.clip(z_c - grad_c, lb, ub))) < tol
                ):
                    z, lam, t = z_c, lam_c, t_c
                    break
        change = np.max(np.abs(new - lam), initial=0.0)
        lam = new
        residual = change / mu  # how far the moved bounds are from holding
        # a pass that left z where it was, with the bounds held to within
        # tol, would only repeat the same update
        if change < 1e-8 or (z is z_pass and residual < tol):
            break
        # twelve passes reach 1e-8 from rho if each cuts the change tenfold;
        # rows that stay violated progress slower at this weight; beyond the
        # cap the Newton matrix is too ill-conditioned for an accurate solve
        if residual > 0.1 * last:
            mu = min(10.0 * mu, 1e6 * rho)
        last = residual
    slack = np.maximum(0.0, t)
    return z, lam, slack, float(np.sum(slack)), steps


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def capture_step_qps(run) -> list:
    """Every ``_solve_step_qp`` call of ``run()``, in order.

    Captured from the solver's own calls, each entry is ``(args, result)``:
    the dict of ``_solve_step_qp`` arguments and the tuple it returned.
    """
    import inspect

    from quadvpc import ocp

    solve_qp = ocp._solve_step_qp
    calls = []

    def spy(*args):
        result = solve_qp(*args)
        calls.append((dict(inspect.signature(solve_qp).bind(*args).arguments), result))
        return result

    ocp._solve_step_qp = spy
    try:
        run()
    finally:
        ocp._solve_step_qp = solve_qp
    return calls


@pytest.fixture(scope="session")
def gate_flight_qps():
    """Every step QP of the first 12 ticks of the five default gate flights.

    Ticks 2-10 of a gate flight take the most projected-Newton steps.
    Captured pose by pose and tick by tick by :func:`capture_step_qps`.
    """
    from quadvpc.config import default_config
    from quadvpc.scenarios import scenario_gate_reaching

    cfg = default_config("gate_reaching")
    cfg.duration = 12 * cfg.ocp.dt
    return capture_step_qps(lambda: scenario_gate_reaching(cfg))


@pytest.fixture(scope="session")
def oracle_flight_qps():
    """Every step QP of a 1.5 s default gate flight from pose 0 and of the
    quarter circle at 9 m/s, by :func:`capture_step_qps`."""
    from quadvpc.config import default_config
    from quadvpc.scenarios import GATE_POSES, scenario_gate_reaching, scenario_quarter_circle

    gate = default_config("gate_reaching")
    gate.duration = 1.5
    track = default_config("quarter_circle")
    return capture_step_qps(lambda: scenario_gate_reaching(gate, poses=GATE_POSES[:1])) + capture_step_qps(
        lambda: scenario_quarter_circle(track, 9.0)
    )


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
