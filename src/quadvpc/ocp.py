"""Multiple-shooting transcription and SQP solver for the servoing OCP.

The horizon is discretized into N RK4 shooting intervals with per-node
state variables.  Each SQP iteration linearizes the shooting map,
condenses the state deviations onto the input moves, builds a
Gauss-Newton quadratic model of the stage costs, and solves a
box-constrained QP with L1-penalized slacks on the visibility bounds.
Steps are globalized by an Armijo line search on an L1 merit function.

Input boxes are handled by clamping/projection and are never violated in
a returned solution.  Returned state trajectories are re-rolled from the
initial state with the final inputs, so the shooting equalities hold by
construction.  Everything is deterministic for fixed inputs and
iteration budgets.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import costs as _costs
from .costs import Bounds, CostWeights, ReferencePoint, clamp_input
from .dynamics import (
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    _rk4,
    _rk4_flat,
    fd_jacobian_batch,
    rk4_jacobians,
)
from .geometry import (
    EZ,
    Array,
    project_guarded,
    quat_conj,
    quat_normalize,
    quat_prod,
    quat_rotate,
    quat_to_rotmat,
)

NX = 12
NU = 4


class BadReferenceLength(ValueError):
    """Reference does not have leading shape (horizon + 1,)."""


class InvalidInitialState(ValueError):
    """Initial state violates d > 0 or finiteness."""


class SolveStatus(enum.Enum):
    CONVERGED = "converged"
    MAX_ITERS = "max_iters"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class OcpParams:
    """Horizon, timing, and solver knobs."""

    horizon: int = 20
    dt: float = 0.05
    max_sqp_iters: int = 5
    qp_tol: float = 1e-8
    slack_weight: float = 200.0
    sqp_tol: float = 1e-6
    reg: float = 1e-6
    qp_max_iter: int = 60
    # the enforced visibility box is shrunk by this margin so the real
    # trajectory has headroom between shooting nodes
    constraint_margin: float = 0.05

    def __post_init__(self):
        if self.horizon < 1 or self.dt <= 0.0 or self.max_sqp_iters < 1:
            raise ValueError("horizon >= 1, dt > 0 and max_sqp_iters >= 1 required")
        if self.qp_tol <= 0.0 or self.qp_max_iter < 1:
            raise ValueError("qp_tol > 0 and qp_max_iter >= 1 required")


@dataclass(frozen=True)
class OcpProblem:
    """One receding-horizon NLP instance."""

    x0: QuadVisualState
    ref: ReferencePoint  # leading shape (N+1,)
    weights: CostWeights
    bounds: Bounds
    extrinsics: CameraExtrinsics
    params: OcpParams


@dataclass
class OcpSolution:
    """Decision-variable trajectory plus convergence diagnostics."""

    inputs: Array  # (N, 4)
    states: Array  # (N+1, 12)
    cost: float
    kkt: float
    sqp_iters: int
    status: SolveStatus
    slack_max: float = 0.0
    iter_merits: list = field(default_factory=list)
    qp_iters: int = 0
    solve_ms: float = 0.0
    params: OcpParams | None = None
    extrinsics: CameraExtrinsics | None = None

    def input_at(self, k: int) -> ControlInput:
        return ControlInput.from_vector(self.inputs[k])

    def state_at(self, k: int) -> QuadVisualState:
        return QuadVisualState.from_vector(self.states[k])


def build_problem(
    x0: QuadVisualState,
    ref: ReferencePoint,
    weights: CostWeights,
    bounds: Bounds,
    extrinsics: CameraExtrinsics,
    params: OcpParams,
) -> OcpProblem:
    """Validate and assemble a problem instance.

    The dynamic visual weight is applied here, once per solve, from the
    measured distance of the initial state.
    """
    if ref.d_star.shape != (params.horizon + 1,):
        raise BadReferenceLength(f"expected a reference of leading shape ({params.horizon + 1},), got {ref.d_star.shape}")
    if not np.isfinite(x0.d) or x0.d <= 0.0 or not np.all(np.isfinite(x0.as_vector())):
        raise InvalidInitialState("initial state needs d > 0 and finite components")
    w_eff = replace(weights, q_s=_costs.dynamic_visual_weight(x0.d, weights.q_s))
    return OcpProblem(x0, ref, w_eff, bounds, extrinsics, params)


def _stage_outputs(x: Array, ref: ReferencePoint, w: CostWeights, q_bc: Array, dt: float):
    """Batched stage residuals and image coordinates.

    This is the one definition of the three objectives.  ``x`` is
    ``(M, 12)`` with one row per horizon node (possibly tiled for finite
    differencing), and ``ref`` has leading shape ``(M,)`` or ``()``.
    Returns the sqrt-weighted residual vector ``(M, 12)`` whose squared
    norm is the stage cost times dt, the uncompensated image coordinate
    ``(M, 2)``, and its validity mask.  The residual columns are, in
    blocks:

    - ``0:2`` rotation-compensated image error and ``2`` distance error
      (visual servoing);
    - ``3:5`` uncompensated image coordinate (perception);
    - ``5:8`` velocity error and ``8:12`` sign-aligned attitude error
      (action).

    Degenerate projections contribute the penalty-ceiling cost through
    constant residual entries.
    """
    v_w = x[:, 0:3]
    q_wb = x[:, 3:7]
    q_cl = x[:, 7:11]
    d = x[:, 11]

    sdt = np.sqrt(dt)
    fill = np.sqrt(_costs.PENALTY_CEILING * dt / 2.0)

    # visual servoing: compensate by the attitude deviation from the reference
    q_rel = quat_normalize(quat_prod(quat_conj(ref.q_star), q_wb))
    q_comp = quat_normalize(
        quat_prod(quat_prod(quat_conj(q_bc), quat_prod(q_rel, q_bc)), q_cl)
    )
    s_comp, ok_comp = project_guarded(quat_rotate(q_comp, EZ))
    r_img = np.sqrt(w.q_s) * (s_comp - ref.s_star) * sdt
    r_img = np.where(ok_comp[:, None], r_img, fill)
    r_dist = (np.sqrt(w.q_d) * (d - ref.d_star) * sdt)[:, None]

    # perception
    s_c, ok_c = project_guarded(quat_rotate(q_cl, EZ))
    r_per = np.sqrt(w.q_p) * s_c * sdt
    r_per = np.where(ok_c[:, None], r_per, fill)

    # action
    sgn = np.where(np.sum(q_wb * ref.q_star, axis=-1) >= 0.0, 1.0, -1.0)[:, None]
    r_vel = np.sqrt(w.q_v) * (v_w - ref.v_star) * sdt
    r_att = np.sqrt(w.q_q) * (sgn * q_wb - ref.q_star) * sdt

    res = np.concatenate([r_img, r_dist, r_per, r_vel, r_att], axis=1)
    return res, s_c, ok_c


def _stage_jacobians(x: Array, ref: ReferencePoint, w: CostWeights, q_bc: Array, dt: float, h: float = 1e-6):
    """FD Jacobians of residuals and image coordinates per node; ``ref`` is ``(M,)``."""
    # one reference row per perturbed point: (+/- step, node, component),
    # taken as it is, since normalising a unit quaternion again moves its bits
    ref_tiled = ref._take(np.tile(np.repeat(np.arange(len(x)), NX), 2))

    def fun(z):
        res, s_c, _ = _stage_outputs(z, ref_tiled, w, q_bc, dt)
        return np.concatenate([res, s_c], axis=1)

    jac = fd_jacobian_batch(fun, x, h)
    return jac[:, :12], jac[:, 12:]


def _rollout(x0: Array, u: Array, dt: float, ext: CameraExtrinsics) -> Array:
    """States of the inputs ``u`` stepped from ``x0`` by :func:`_rk4`.

    The steps run on Python floats; numpy scalars would cost several times
    more per operation.  After a float division by zero the rest is stepped
    on arrays, whose inf/NaN equal the batched kernel's.
    """
    r_bc = quat_to_rotmat(ext.q_bc)
    floats = (float(dt), ext.p_b_cb.tolist(), r_bc.tolist())
    states = [np.asarray(x0, dtype=np.float64).tolist()]
    try:
        for uk in u.tolist():
            states.append(_rk4(states[-1], uk, *floats))
    except ZeroDivisionError:
        for uk in u[len(states) - 1 :]:
            states.append(_rk4(np.array(states[-1]), uk, dt, ext.p_b_cb, r_bc))
    return np.array(states)


def _hinge(s: Array, ok: Array, s_min: Array, s_max: Array) -> Array:
    """Per-node visibility violation, (M,) nonnegative."""
    low = np.maximum(0.0, s_min - s)
    high = np.maximum(0.0, s - s_max)
    v = np.sum(low + high, axis=-1)
    # behind-camera nodes are repelled through the cost ceiling instead
    return np.where(ok, v, 0.0)


def _solve_step_qp(h_mat, g_vec, lb, ub, vis_rows, vis_base, vis_lo, vis_hi, rho, tol, max_iter):
    """Box QP with L1-penalized slacks on the linear visibility rows.

    Slacks are eliminated analytically (the optimal L1 slack is the
    hinge violation) and the resulting piecewise-quadratic problem is
    solved by an augmented Lagrangian whose row multipliers are capped
    at the penalty weight, which reproduces the exact L1 penalty.  Each
    inner minimization is a smooth box QP handled by projected Newton;
    with no rows it is the whole problem and one outer pass solves it.

    Returns (step, row multipliers lo/hi, slack values, violation sum).
    """
    n_rows = len(vis_rows)

    def hinge(y):
        return np.maximum(0.0, vis_lo - y) + np.maximum(0.0, y - vis_hi)

    mu = 10.0 * rho
    lam_lo = np.zeros(n_rows)
    lam_hi = np.zeros(n_rows)
    z = np.clip(np.zeros_like(g_vec), lb, ub)
    for _outer in range(12):
        # inner smooth problem: multipliers shift the hinge into a C1 penalty
        for _inner in range(max_iter):
            y = vis_rows @ z + vis_base
            f_lo = lam_lo + mu * (vis_lo - y)
            f_hi = lam_hi + mu * (y - vis_hi)
            a_lo = f_lo > 0.0
            a_hi = f_hi > 0.0
            grad = h_mat @ z + g_vec - vis_rows.T @ (f_lo * a_lo) + vis_rows.T @ (f_hi * a_hi)
            pg = np.max(np.abs(z - np.clip(z - grad, lb, ub)))
            if pg < tol:
                break
            rows_act = vis_rows[a_lo | a_hi]
            h_eff = h_mat + mu * rows_act.T @ rows_act if len(rows_act) else h_mat
            eps = 1e-12
            fixed = ((z <= lb + eps) & (grad > 0.0)) | ((z >= ub - eps) & (grad < 0.0))
            free = ~fixed
            if not np.any(free):
                break
            dz = np.zeros_like(z)
            try:
                dz[free] = -np.linalg.solve(h_eff[np.ix_(free, free)], grad[free])
            except np.linalg.LinAlgError:
                dz[free] = -grad[free]

            def pen_obj(v):
                yv = vis_rows @ v + vis_base
                lo_t = np.maximum(0.0, lam_lo + mu * (vis_lo - yv))
                hi_t = np.maximum(0.0, lam_hi + mu * (yv - vis_hi))
                phr = float(np.sum(lo_t**2 - lam_lo**2) + np.sum(hi_t**2 - lam_hi**2)) / (2.0 * mu)
                return 0.5 * float(v @ h_mat @ v) + float(g_vec @ v) + phr

            f0 = pen_obj(z)
            alpha = 1.0
            improved = False
            for _ in range(30):
                z_t = np.clip(z + alpha * dz, lb, ub)
                if pen_obj(z_t) < f0 - 1e-15:
                    z = z_t
                    improved = True
                    break
                alpha *= 0.5
            if not improved:
                break
        y = vis_rows @ z + vis_base
        new_lo = np.clip(lam_lo + mu * (vis_lo - y), 0.0, rho)
        new_hi = np.clip(lam_hi + mu * (y - vis_hi), 0.0, rho)
        if np.max(np.abs(new_lo - lam_lo), initial=0.0) < 1e-8 and np.max(np.abs(new_hi - lam_hi), initial=0.0) < 1e-8:
            lam_lo, lam_hi = new_lo, new_hi
            break
        lam_lo, lam_hi = new_lo, new_hi
    slack = hinge(vis_rows @ z + vis_base)
    return z, lam_lo, lam_hi, slack, float(np.sum(slack))


_HOVER_U = np.array([9.81, 0.0, 0.0, 0.0])


class _Workspace:
    """Evaluation of one feasible iterate: rolled-out states and their stage outputs."""

    __slots__ = ("x", "outputs", "cost", "viol_sum", "viol_max", "merit", "finite")

    def __init__(self, u, problem):
        p = problem.params
        ext = problem.extrinsics
        self.x = _rollout(problem.x0.as_vector(), u, p.dt, ext)
        self.outputs = res, s_c, ok = _stage_outputs(self.x, problem.ref, problem.weights, ext.q_bc, p.dt)
        du = u - _HOVER_U
        self.cost = float(np.sum(res**2)) + p.dt * float(np.sum(du * du * problem.weights.q_u))
        m = p.constraint_margin
        viol = _hinge(s_c, ok, problem.bounds.s_min + m, problem.bounds.s_max - m)
        self.viol_sum = float(np.sum(viol[1:]))
        self.viol_max = float(np.max(viol[1:], initial=0.0))
        self.merit = self.cost + p.slack_weight * self.viol_sum
        self.finite = bool(np.isfinite(self.merit)) and bool(np.all(np.isfinite(self.x)))


@dataclass
class _Model:
    """Condensed Gauss-Newton model of one iterate."""

    h: Array
    g: Array
    vis_rows: Array
    vis_base: Array
    vis_lo: Array
    vis_hi: Array
    s_c: Array
    ok: Array
    defects: Array


def _reduced_model(x, u, problem, outputs, defects=None):
    """Condensed Gauss-Newton model at (X, U).

    ``outputs`` are the ``_stage_outputs`` of ``x``.  The visibility
    linearization of node k >= 1 becomes one pair of rows
    ``vis_base + vis_rows @ dU`` between ``vis_lo`` and ``vis_hi``; nodes
    whose projection is degenerate contribute no rows.  The shooting
    defects default to zero, as they are exactly on rolled-out iterates.
    """
    p = problem.params
    n = p.horizon
    ext = problem.extrinsics

    a_k, b_k = rk4_jacobians(x[:-1], u, p.dt, ext)
    j_res, j_s = _stage_jacobians(x, problem.ref, problem.weights, ext.q_bc, p.dt)
    res, s_c, ok = outputs
    if defects is None:
        defects = np.zeros((n, NX))

    big_m = np.zeros((n, NX, n * NU))
    small_m = np.zeros((n, NX))
    big_m[0][:, :NU] = b_k[0]
    small_m[0] = defects[0]
    for k in range(1, n):
        big_m[k] = a_k[k] @ big_m[k - 1]
        big_m[k][:, k * NU : (k + 1) * NU] += b_k[k]
        small_m[k] = a_k[k] @ small_m[k - 1] + defects[k]

    h_mat = p.reg * np.eye(n * NU)
    g_vec = np.zeros(n * NU)
    for k in range(1, n + 1):
        jm = j_res[k] @ big_m[k - 1]
        rbar = res[k] + j_res[k] @ small_m[k - 1]
        h_mat += 2.0 * jm.T @ jm
        g_vec += 2.0 * jm.T @ rbar
    # input regularization around hover (diagonal in the inputs)
    qu = np.tile(problem.weights.q_u, n)
    h_mat[np.diag_indices_from(h_mat)] += 2.0 * p.dt * qu
    g_vec += 2.0 * p.dt * qu * (u.ravel() - np.tile(_HOVER_U, n))

    s_rows = np.einsum("kij,kjl->kil", j_s[1:], big_m)  # (n, 2, n*NU)
    s_off = np.einsum("kij,kj->ki", j_s[1:], small_m)  # (n, 2)

    b = problem.bounds
    margin = p.constraint_margin
    vis_rows = []
    vis_base = []
    vis_lo = []
    vis_hi = []
    for k in range(1, n + 1):
        if not ok[k]:
            continue
        for j in range(2):
            vis_rows.append(s_rows[k - 1, j])
            vis_base.append(s_c[k, j] + s_off[k - 1, j])
            vis_lo.append(b.s_min[j] + margin)
            vis_hi.append(b.s_max[j] - margin)
    return _Model(
        h=h_mat,
        g=g_vec,
        vis_rows=np.array(vis_rows).reshape(-1, n * NU),
        vis_base=np.array(vis_base),
        vis_lo=np.array(vis_lo),
        vis_hi=np.array(vis_hi),
        s_c=s_c,
        ok=ok,
        defects=defects,
    )


def _kkt_from_model(u_flat, model, problem, lam_lo, lam_hi):
    """Max-norm KKT residual of the condensed problem at the iterate.

    Stationarity uses the visibility-row multipliers from the step QP;
    feasibility combines the shooting defects with the visibility
    violation beyond its slacks.
    """
    b = problem.bounds
    n = problem.params.horizon
    g_total = model.g.copy()
    if len(model.vis_rows):
        g_total += model.vis_rows.T @ (lam_hi - lam_lo)
    lb = np.tile(b.input_lower(), n)
    ub = np.tile(b.input_upper(), n)
    stat = float(np.max(np.abs(u_flat - np.clip(u_flat - g_total, lb, ub))))
    m = problem.params.constraint_margin
    viol = _hinge(model.s_c, model.ok, b.s_min + m, b.s_max - m)
    d_inf = float(np.max(np.abs(model.defects))) if model.defects.size else 0.0
    return max(stat, d_inf, float(np.max(viol[1:], initial=0.0)))


def solve(problem: OcpProblem, warm: OcpSolution | None = None) -> OcpSolution:
    """SQP solve of the transcribed NLP, warm-startable.

    Iterates stay on the shooting manifold: every input trajectory is
    rolled out from x0, so the shooting equalities hold exactly at each
    iterate and the merit function is the true discretized cost plus the
    L1 visibility penalty.  Cold starts use hover inputs.  The best
    iterate by merit is returned.
    """
    p = problem.params
    n = p.horizon
    b = problem.bounds
    ext = problem.extrinsics

    lb = np.tile(b.input_lower(), n)
    ub = np.tile(b.input_upper(), n)

    if warm is not None and warm.inputs.shape == (n, NU):
        u = np.clip(warm.inputs.copy(), lb.reshape(n, NU), ub.reshape(n, NU))
    else:
        u = np.tile(ControlInput.hover().as_vector(), (n, 1))

    ws = _Workspace(u, problem)
    merits = [ws.merit]
    best_u, best_ws = u, ws
    status = SolveStatus.MAX_ITERS
    qp_passes = 0
    iters_done = 0
    kkt_of_u: tuple | None = None  # (u snapshot, kkt value)

    if not ws.finite:
        return _infeasible_solution(u, ws, merits, 0, problem)

    # infinity-norm trust region on the input step; thrust moves 3x faster
    tr_scale = np.tile([3.0, 1.0, 1.0, 1.0], n)
    tr_radius = 1.0
    tiny_steps = 0

    for _ in range(p.max_sqp_iters):
        iters_done += 1
        model = _reduced_model(ws.x, u, problem, ws.outputs)

        lb_step = np.maximum(lb - u.ravel(), -tr_radius * tr_scale)
        ub_step = np.minimum(ub - u.ravel(), tr_radius * tr_scale)
        du, lam_lo, lam_hi, _, lin_viol = _solve_step_qp(
            model.h, model.g, lb_step, ub_step,
            model.vis_rows, model.vis_base, model.vis_lo, model.vis_hi,
            p.slack_weight, p.qp_tol, p.qp_max_iter,
        )
        qp_passes += 1
        if not np.all(np.isfinite(du)):
            status = SolveStatus.INFEASIBLE
            break

        kkt_val = _kkt_from_model(u.ravel(), model, problem, lam_lo, lam_hi)
        kkt_of_u = (u.copy(), kkt_val)
        if kkt_val < p.sqp_tol or np.max(np.abs(du)) < 1e-9:
            status = SolveStatus.CONVERGED
            break

        pred = -(float(model.g @ du) + 0.5 * float(du @ model.h @ du)) + p.slack_weight * (ws.viol_sum - lin_viol)
        descent = float(model.g @ du) - p.slack_weight * (ws.viol_sum - lin_viol)
        if descent > -1e-12 or pred <= 1e-14:
            if tr_radius <= 1e-4:
                status = SolveStatus.CONVERGED
                break
            tr_radius *= 0.25
            continue

        accepted = False
        alpha = 1.0
        used_alpha = 1.0
        for _ls in range(12):
            u_t = np.clip(u + alpha * du.reshape(n, NU), lb.reshape(n, NU), ub.reshape(n, NU))
            ws_t = _Workspace(u_t, problem)
            if ws_t.finite and ws_t.merit <= ws.merit + 1e-4 * alpha * descent:
                actual = ws.merit - ws_t.merit
                u, ws = u_t, ws_t
                accepted = True
                used_alpha = alpha
                break
            alpha *= 0.5
        if not accepted:
            if tr_radius <= 1e-4:
                break
            tr_radius *= 0.25
            continue
        merits.append(ws.merit)
        if ws.merit < best_ws.merit:
            best_u, best_ws = u, ws
        # adapt the trust region to how well the model predicted the step
        if used_alpha >= 1.0 and actual > 0.5 * pred:
            tr_radius = min(tr_radius * 2.0, 4.0)
        elif used_alpha < 0.25:
            tr_radius = max(tr_radius * 0.5, 1e-4)
        if actual < 1e-8 * (1.0 + abs(ws.merit)):
            tiny_steps += 1
            if tiny_steps >= 2:
                break
        else:
            tiny_steps = 0

    if ws.finite and ws.merit < best_ws.merit:
        best_u, best_ws = u, ws

    if not best_ws.finite or not np.all(np.isfinite(best_u)) or status is SolveStatus.INFEASIBLE:
        return _infeasible_solution(best_u, best_ws, merits, iters_done, problem)

    if kkt_of_u is not None and np.array_equal(kkt_of_u[0], best_u):
        kkt_out = kkt_of_u[1]
    else:
        kkt_out = kkt_residual_arrays(problem, best_ws.x, best_u)
    return OcpSolution(
        inputs=best_u,
        states=best_ws.x,
        cost=best_ws.cost,
        kkt=kkt_out,
        sqp_iters=iters_done,
        status=status,
        slack_max=best_ws.viol_max,
        iter_merits=merits,
        qp_iters=qp_passes,
        params=p,
        extrinsics=ext,
    )


def _infeasible_solution(u, ws, merits, iters_done, problem) -> OcpSolution:
    return OcpSolution(
        inputs=u,
        states=ws.x,
        cost=ws.cost,
        kkt=float("inf"),
        sqp_iters=iters_done,
        status=SolveStatus.INFEASIBLE,
        iter_merits=merits,
        params=problem.params,
        extrinsics=problem.extrinsics,
    )


def kkt_residual_arrays(problem: OcpProblem, x: Array, u: Array) -> float:
    """KKT residual of an (X, U) pair on the transcribed NLP.

    Visibility multipliers are estimated by one step QP at the point, so
    active-but-feasible bounds do not inflate the stationarity term.
    """
    p = problem.params
    n = p.horizon
    ext = problem.extrinsics
    defects = _rk4_flat(x[:-1], u, p.dt, ext.p_b_cb, ext.q_bc) - x[1:]
    outputs = _stage_outputs(x, problem.ref, problem.weights, ext.q_bc, p.dt)
    model = _reduced_model(x, u, problem, outputs, defects)
    lb = np.tile(problem.bounds.input_lower(), n) - u.ravel()
    ub = np.tile(problem.bounds.input_upper(), n) - u.ravel()
    _, lam_lo, lam_hi, _, _ = _solve_step_qp(
        model.h, model.g, lb, ub,
        model.vis_rows, model.vis_base, model.vis_lo, model.vis_hi,
        p.slack_weight, p.qp_tol, p.qp_max_iter,
    )
    return _kkt_from_model(u.ravel(), model, problem, lam_lo, lam_hi)


def kkt_residual(problem: OcpProblem, solution: OcpSolution) -> float:
    """Max-norm of stationarity plus feasibility residuals."""
    return kkt_residual_arrays(problem, solution.states, solution.inputs)


def solution_cost(problem: OcpProblem, x: Array, u: Array) -> float:
    """Discretized objective of a trajectory (stage cost times dt)."""
    res, _, _ = _stage_outputs(
        np.atleast_2d(x), problem.ref, problem.weights, problem.extrinsics.q_bc, problem.params.dt
    )
    du = np.atleast_2d(u) - _HOVER_U
    return float(np.sum(res**2)) + problem.params.dt * float(np.sum(du * du * problem.weights.q_u))


def shift_warm_start(prev: OcpSolution) -> OcpSolution:
    """Receding-horizon shift: drop the executed input, duplicate the last.

    States are the previous ones from the second node on, plus one step
    with the duplicated input, so the shooting equalities still hold.
    """
    if prev.inputs.shape[0] < 2:
        raise ValueError("shift needs at least 2 inputs")
    inputs = np.vstack([prev.inputs[1:], prev.inputs[-1:]])
    last = _rollout(prev.states[-1], prev.inputs[-1:], prev.params.dt, prev.extrinsics)[1:]
    states = np.vstack([prev.states[1:], last])
    return OcpSolution(
        inputs=inputs,
        states=states,
        cost=float("nan"),
        kkt=float("nan"),
        sqp_iters=0,
        status=prev.status,
        params=prev.params,
        extrinsics=prev.extrinsics,
    )


class VisualPredictiveController:
    """Receding-horizon wrapper owning the warm start and failsafe queue.

    One instance drives one control loop; distinct instances may run
    concurrently.  On an infeasible solve the controller falls back to
    the previous cycle's queued inputs, then to hover.
    """

    def __init__(self, weights: CostWeights, bounds: Bounds, extrinsics: CameraExtrinsics, params: OcpParams):
        self.weights = weights
        self.bounds = bounds
        self.extrinsics = extrinsics
        self.params = params
        self._prev: OcpSolution | None = None
        self._queue: list[Array] = []

    def reset(self) -> None:
        self._prev = None
        self._queue = []

    def step(self, measurement: QuadVisualState, ref: ReferencePoint) -> tuple[ControlInput, OcpSolution]:
        """Build, solve, and return the first (clamped) input."""
        problem = build_problem(measurement, ref, self.weights, self.bounds, self.extrinsics, self.params)
        warm = shift_warm_start(self._prev) if self._prev is not None else None
        t0 = time.perf_counter()
        sol = solve(problem, warm)
        sol.solve_ms = (time.perf_counter() - t0) * 1e3
        if sol.status is SolveStatus.INFEASIBLE:
            if self._queue:
                u = ControlInput.from_vector(self._queue.pop(0))
            else:
                u = ControlInput.hover()
            return clamp_input(u, self.bounds), sol
        self._prev = sol
        self._queue = [sol.inputs[k].copy() for k in range(1, sol.inputs.shape[0])]
        return clamp_input(ControlInput.from_vector(sol.inputs[0]), self.bounds), sol
