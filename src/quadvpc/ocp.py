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
    kkt: float  # of the last linearised iterate; ``kkt_at_inputs`` says whether that is ``inputs``
    sqp_iters: int
    status: SolveStatus
    slack_max: float = 0.0
    iter_merits: list = field(default_factory=list)
    qp_iters: int = 0  # projected-Newton steps of the step QPs, summed over the solve
    kkt_at_inputs: bool = False
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


def _stage_jacobians(x: Array, ref: ReferencePoint, w: CostWeights, q_bc: Array, dt: float):
    """FD Jacobians of residuals and image coordinates per node; ``ref`` is ``(M,)``."""
    # one reference row per perturbed point: (+/- step, node, component),
    # taken as it is, since normalising a unit quaternion again moves its bits
    ref_tiled = ref._take(np.tile(np.repeat(np.arange(len(x)), NX), 2))

    def fun(z):
        res, s_c, _ = _stage_outputs(z, ref_tiled, w, q_bc, dt)
        return np.concatenate([res, s_c], axis=1)

    jac = fd_jacobian_batch(fun, x)
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


def _solve_step_qp(h_mat, g_vec, lb, ub, vis_rows, vis_base, vis_lo, vis_hi, lam_lo, lam_hi, rho, tol, max_iter):
    """Box QP with L1-penalized slacks on the linear visibility rows.

    Each row bound ``t = lo - y <= 0`` or ``t = y - hi <= 0`` gets a slack
    of price ``rho``.  An augmented Lagrangian over the bounds, with the
    slacks eliminated in closed form, leaves a smooth box problem per
    outer pass: its penalty ``fc (2 f - fc) / (2 mu)``, with
    ``f = lam + mu t`` and ``fc = clip(f, 0, rho)``, is quadratic while
    ``0 < f < rho`` and linear of slope ``rho`` beyond, where the slack
    takes up the violation.  The multipliers ``clip(f, 0, rho)`` then
    converge to those of the exact L1 penalty from any start in
    ``[0, rho]``; ``lam_lo``/``lam_hi`` are that start, so a caller can
    pass those of a QP with the same rows.  ``mu`` starts at ``10 rho``
    and grows tenfold, up to ``1e6 rho``, after a pass that cuts the
    change of the multipliers less than tenfold.  Each inner problem is
    solved by projected Newton; its backtracking search scores all 30
    trial steps in one batch.  With no rows the first outer pass solves
    the whole problem.

    Returns (step, row multipliers lo/hi, slack values, violation sum,
    projected-Newton steps).
    """
    n_rows = len(vis_rows)
    rows = np.vstack([-vis_rows, vis_rows])  # t = rows @ z + off, lower bounds first
    off = np.concatenate([vis_lo - vis_base, vis_base - vis_hi])
    lam = np.concatenate([lam_lo, lam_hi])
    mu = 10.0 * rho
    alphas = 0.5 ** np.arange(30)
    steps = 0
    last = np.inf
    z = np.clip(np.zeros_like(g_vec), lb, ub)
    for _outer in range(12):
        z_pass = z
        for _inner in range(max_iter):
            f = lam + mu * (rows @ z + off)
            fc = np.clip(f, 0.0, rho)
            grad_q = h_mat @ z + g_vec
            grad = grad_q + fc @ rows
            pg = np.max(np.abs(z - np.clip(z - grad, lb, ub)))
            if pg < tol:
                break
            curved = rows[(f > 0.0) & (f < rho)]
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
                    dz[free] = -np.linalg.solve(h_eff[np.ix_(free, free)], grad[free])
                except np.linalg.LinAlgError:
                    dz[free] = -grad[free]
            steps += 1
            # backtracking: all 30 trials in one batch, each scored by its
            # change of the objective from z, which keeps small decreases
            # above roundoff; the longest step that decreases it is taken
            z_t = np.clip(z + alphas[:, None] * dz, lb, ub)
            moves = z_t - z
            dy = moves @ vis_rows.T
            f_t = f + mu * np.hstack([-dy, dy])
            fc_t = np.clip(f_t, 0.0, rho)
            pen_t = np.sum(fc_t * (2.0 * f_t - fc_t), axis=1)
            pen = np.sum(fc * (2.0 * f - fc))
            delta = moves @ grad_q + 0.5 * np.sum(moves * (moves @ h_mat), axis=1) + (pen_t - pen) / (2.0 * mu)
            better = np.flatnonzero(delta < 0.0)
            if not len(better):
                break
            z = z_t[better[0]]
        new = np.clip(lam + mu * (rows @ z + off), 0.0, rho)
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
    t = np.maximum(0.0, rows @ z + off)
    slack = t[:n_rows] + t[n_rows:]
    return z, lam[:n_rows], lam[n_rows:], slack, float(np.sum(slack)), steps


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


def _reduced_model(x, u, problem, outputs):
    """Condensed Gauss-Newton model at the rolled-out iterate (X, U).

    ``outputs`` are the ``_stage_outputs`` of ``x``.  The shooting defects
    are exactly zero on a rollout, so the state deviations are the input
    moves mapped through the linearised RK4 map alone.  The visibility
    linearization of node k >= 1 becomes one pair of rows
    ``vis_base + vis_rows @ dU`` between ``vis_lo`` and ``vis_hi``; nodes
    whose projection is degenerate contribute no rows.
    """
    p = problem.params
    n = p.horizon
    ext = problem.extrinsics

    a_k, b_k = rk4_jacobians(x[:-1], u, p.dt, ext)
    j_res, j_s = _stage_jacobians(x, problem.ref, problem.weights, ext.q_bc, p.dt)
    res, s_c, ok = outputs

    big_m = np.zeros((n, NX, n * NU))
    big_m[0][:, :NU] = b_k[0]
    for k in range(1, n):
        big_m[k] = a_k[k] @ big_m[k - 1]
        big_m[k][:, k * NU : (k + 1) * NU] += b_k[k]

    h_mat = p.reg * np.eye(n * NU)
    g_vec = np.zeros(n * NU)
    for k in range(1, n + 1):
        jm = j_res[k] @ big_m[k - 1]
        h_mat += 2.0 * jm.T @ jm
        g_vec += 2.0 * jm.T @ res[k]
    # input regularization around hover (diagonal in the inputs)
    qu = np.tile(problem.weights.q_u, n)
    h_mat[np.diag_indices_from(h_mat)] += 2.0 * p.dt * qu
    g_vec += 2.0 * p.dt * qu * (u.ravel() - np.tile(_HOVER_U, n))

    s_rows = np.einsum("kij,kjl->kil", j_s[1:], big_m)  # (n, 2, n*NU)

    # the rows of the nodes k >= 1 that project, node by node, u before v
    b = problem.bounds
    margin = p.constraint_margin
    count = int(np.count_nonzero(ok[1:]))
    return _Model(
        h=h_mat,
        g=g_vec,
        vis_rows=s_rows[ok[1:]].reshape(-1, n * NU),
        vis_base=s_c[1:][ok[1:]].ravel(),
        vis_lo=np.tile(b.s_min + margin, count),
        vis_hi=np.tile(b.s_max - margin, count),
        s_c=s_c,
        ok=ok,
    )


def _kkt_from_model(u_flat, model, problem, lam_lo, lam_hi):
    """Max-norm KKT residual of the condensed problem at the iterate.

    Stationarity uses the visibility-row multipliers from the step QP;
    feasibility is the visibility violation at the iterate.
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
    return max(stat, float(np.max(viol[1:], initial=0.0)))


def solve(problem: OcpProblem, warm: OcpSolution | None = None) -> OcpSolution:
    """SQP solve of the transcribed NLP, warm-startable.

    Iterates stay on the shooting manifold: every input trajectory is
    rolled out from x0, so the shooting equalities hold exactly at each
    iterate and the merit function is the true discretized cost plus the
    L1 visibility penalty.  Cold starts use hover inputs, and so does a
    warm start whose rollout is not finite.  The best iterate by merit is
    returned, with the KKT residual of the last iterate the solver
    linearised: the returned inputs when the solve ends without an
    accepted step after that linearisation.
    """
    p = problem.params
    n = p.horizon
    b = problem.bounds
    ext = problem.extrinsics

    lb = np.tile(b.input_lower(), n)
    ub = np.tile(b.input_upper(), n)

    starts = [np.tile(ControlInput.hover().as_vector(), (n, 1))]
    if warm is not None and warm.inputs.shape == (n, NU):
        # a warm start whose rollout is not finite restarts once from hover
        starts.insert(0, np.clip(warm.inputs, lb.reshape(n, NU), ub.reshape(n, NU)))
    for u in starts:
        ws = _Workspace(u, problem)
        if ws.finite:
            break
    merits = [ws.merit]
    best_u, best_ws = u, ws
    status = SolveStatus.MAX_ITERS
    qp_steps = 0
    iters_done = 0
    prev_ok, lam_lo, lam_hi = None, None, None  # the previous model's rows and their multipliers
    kkt_u, kkt_out = None, float("inf")  # the last linearised iterate and its KKT residual

    if not ws.finite:
        return _infeasible_solution(u, ws, merits, 0, problem)

    # infinity-norm trust region on the input step; thrust moves 3x faster
    tr_scale = np.tile([3.0, 1.0, 1.0, 1.0], n)
    tr_radius = 1.0
    tiny_steps = 0

    for _ in range(p.max_sqp_iters):
        iters_done += 1
        model = _reduced_model(ws.x, u, problem, ws.outputs)
        # the same nodes give the same rows, so the last multipliers start the QP
        if prev_ok is None or not np.array_equal(model.ok, prev_ok):
            lam_lo = lam_hi = np.zeros(len(model.vis_rows))
        prev_ok = model.ok

        lb_step = np.maximum(lb - u.ravel(), -tr_radius * tr_scale)
        ub_step = np.minimum(ub - u.ravel(), tr_radius * tr_scale)
        du, lam_lo, lam_hi, _, lin_viol, steps = _solve_step_qp(
            model.h, model.g, lb_step, ub_step,
            model.vis_rows, model.vis_base, model.vis_lo, model.vis_hi, lam_lo, lam_hi,
            p.slack_weight, p.qp_tol, p.qp_max_iter,
        )
        qp_steps += steps
        if not np.all(np.isfinite(du)):
            status = SolveStatus.INFEASIBLE
            break

        kkt_u, kkt_out = u, _kkt_from_model(u.ravel(), model, problem, lam_lo, lam_hi)
        if kkt_out < p.sqp_tol or np.max(np.abs(du)) < 1e-9:
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

    return OcpSolution(
        inputs=best_u,
        states=best_ws.x,
        cost=best_ws.cost,
        kkt=kkt_out,
        sqp_iters=iters_done,
        status=status,
        slack_max=best_ws.viol_max,
        iter_merits=merits,
        qp_iters=qp_steps,
        kkt_at_inputs=kkt_u is best_u,
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
