"""Multiple-shooting transcription and SQP solver for the servoing OCP.

The horizon is discretized into N RK4 shooting intervals with per-node
state variables.  Each SQP iteration linearizes the shooting map,
condenses the state deviations onto the input moves, builds a
Gauss-Newton quadratic model of the stage costs, and solves a
box-constrained QP with L1-penalized slacks on the visibility rows.
That QP finds its active sets by projected Newton inside an augmented
Lagrangian and ends on one exact solve on those sets, returned only
when it passes the exact L1-penalty KKT test.
Every derivative is exact: the RK4 Jacobians are one tangent pass over
the stage derivatives that the rollout recorded, the stage Jacobians are
in closed form, and the condensed Hessian and gradient are one product
of the stacked residual Jacobians.
The QP's box is the input box intersected with a constant step box, and
an Armijo line search on an L1 merit function is the one globalisation.

The default budget is one SQP iteration, a real-time iteration (Diehl,
Bock & Schloeder, 2005): each control tick warm-starts from the shifted
plan, builds one Gauss-Newton model at its rollout from the measured
initial state, solves one step QP and takes one Armijo-checked step.
Larger budgets iterate the same step towards a KKT point.  Before its
step QP each iterate is tested for a KKT point with zero row
multipliers, which needs only the condensed gradient and the iterate's
own violation; one that passes ends the solve, and its model never
forms the Hessian or the rows.  So a tick whose warm start has
converged, as every hover tick does, runs no QP.

The objectives and the visibility constraint read the feature's unit
bearing ``n``, never the image coordinate ``n_xy / n_z``, so nothing
divides by depth.  Visibility is the linear cone ``cone @ n <= 0``,
``(s_min + m) n_z <= n_xy <= (s_max - m) n_z``: for ``n_z > 0`` it is the
image box shrunk by the margin ``m``, and it excludes ``n_z <= 0`` by
itself.  Every node k >= 1 therefore contributes the same four one-sided
rows to every model, and the step QP's row multipliers are carried from
one SQP iteration to the next.

Input boxes are handled by clamping/projection and are never violated in
a returned solution.  Returned state trajectories are re-rolled from the
initial state with the final inputs, so the shooting equalities hold by
construction.  Everything is deterministic for fixed inputs and
iteration budgets.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from numbers import Integral

import numpy as np

from . import costs as _costs
from .costs import Bounds, CostWeights, ReferencePoint, clamp_input
from .dynamics import (
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    _normalize_jacobian,
    _quat_lmat,
    _quat_rmat,
    _rk4,
    _rotmat_jacobian,
    rk4_jacobians,
)
from .geometry import (
    EZ,
    Array,
    quat_conj,
    quat_normalize,
    quat_prod,
    quat_rotate,
)

NX = 12
NU = 4


class BadReferenceLength(ValueError):
    """Reference does not have leading shape (horizon + 1,)."""


class InvalidInitialState(ValueError):
    """Initial state violates d > 0 or finiteness."""


@dataclass(frozen=True)
class OcpParams:
    """Horizon, timing, SQP budget and tolerance, and the visibility margin."""

    horizon: int = 20
    dt: float = 0.05
    max_sqp_iters: int = 1
    sqp_tol: float = 1e-6
    # the enforced visibility box is shrunk by this margin so the real
    # trajectory has headroom between shooting nodes
    constraint_margin: float = 0.05

    def __post_init__(self):
        # written so that NaN fails every test: it compares false
        if not (isinstance(self.horizon, Integral) and isinstance(self.max_sqp_iters, Integral)):
            raise ValueError("horizon and max_sqp_iters must be integers")
        if not (self.horizon >= 1 and 0.0 < self.dt < np.inf and self.max_sqp_iters >= 1):
            raise ValueError("horizon >= 1, finite dt > 0 and max_sqp_iters >= 1 required")
        if not (0.0 < self.sqp_tol < np.inf and 0.0 <= self.constraint_margin < np.inf):
            raise ValueError("finite sqp_tol > 0 and constraint_margin >= 0 required")


def _cone(problem) -> Array:
    """The ``(4, 3)`` visibility cone: ``cone @ n <= 0`` on a unit bearing.

    Its rows are ``(s_min + m) n_z - n_xy <= 0`` then
    ``n_xy - (s_max - m) n_z <= 0``, ``u`` before ``v``, with the margin
    ``m``.  For ``n_z > 0`` they hold iff ``n_xy / n_z`` lies in the shrunk
    image box; no bearing with ``n_z <= 0`` satisfies all four.
    ``problem`` needs only ``params`` and ``bounds``.
    """
    m = problem.params.constraint_margin
    lo = problem.bounds.s_min + m
    hi = problem.bounds.s_max - m
    return np.array([[-1.0, 0.0, lo[0]], [0.0, -1.0, lo[1]], [1.0, 0.0, -hi[0]], [0.0, 1.0, -hi[1]]])


@dataclass(frozen=True)
class OcpProblem:
    """One receding-horizon NLP instance.

    ``cone`` is :func:`_cone` of the instance, built on first use, so
    once per solve.
    """

    x0: QuadVisualState
    ref: ReferencePoint  # leading shape (N+1,)
    weights: CostWeights
    bounds: Bounds
    extrinsics: CameraExtrinsics
    params: OcpParams

    cone = cached_property(_cone)


@dataclass
class OcpSolution:
    """One solve: its inputs, their rolled-out states and why it stopped."""

    inputs: Array  # (N, 4)
    states: Array  # (N+1, 12)
    cost: float
    kkt: float  # of the last linearised iterate; ``kkt_at_inputs`` says whether that is ``inputs``
    sqp_iters: int
    # why ``solve`` stopped: ``kkt`` (converged), ``no_descent``,
    # ``line_search_failed``, ``tiny_steps``, ``budget`` or ``infeasible``
    reason: str
    slack_max: float = 0.0
    iter_merits: list = field(default_factory=list)
    qp_iters: int = 0  # projected-Newton steps of the step QPs, summed over the solve; 0 when none ran
    backtracks: int = 0  # rejected line-search trials, summed over the solve
    kkt_at_inputs: bool = False
    solve_ms: float = 0.0


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
    measured distance of the initial state.  A constraint margin that
    leaves no image box, ``s_min + m >= s_max - m`` on an axis, is
    rejected: no bearing would satisfy the cone.
    """
    m = params.constraint_margin
    if np.any(bounds.s_min + m >= bounds.s_max - m):
        raise ValueError(f"constraint_margin {m} leaves an empty visibility cone: s_min + m >= s_max - m")
    if ref.d_star.shape != (params.horizon + 1,):
        raise BadReferenceLength(f"expected a reference of leading shape ({params.horizon + 1},), got {ref.d_star.shape}")
    if not np.isfinite(x0.d) or x0.d <= 0.0 or not np.all(np.isfinite(x0.as_vector())):
        raise InvalidInitialState("initial state needs d > 0 and finite components")
    # the scale is in [1, D_CAP^2], so the scaled q_s stays nonnegative and finite
    w_eff = weights.with_q_s(_costs.dynamic_visual_weight(x0.d, weights.q_s))
    return OcpProblem(x0, ref, w_eff, bounds, extrinsics, params)


def _stage_outputs(x: Array, ref: ReferencePoint, w: CostWeights, q_bc: Array, dt: float):
    """Batched stage residuals and unit bearings.

    This is the one definition of the three objectives.  ``x`` is
    ``(M, 12)`` with one row per horizon node, and ``ref`` has leading
    shape ``(M,)`` or ``()``.
    Returns the sqrt-weighted residual vector ``(M, 12)`` whose squared
    norm is the stage cost times dt, the unit bearing ``n_c (M, 3)``
    that the visibility cone constrains, and the intermediates that
    :func:`_stage_jacobians` reads at the same states: the raw relative
    attitude ``rel``, the sandwiched ``inner``, the raw compensated
    bearing ``comp`` and its normalisation, and the attitude sign
    ``(M,)``.  The residual columns are, in blocks:

    - ``0:2`` the ``xy`` error of the rotation-compensated bearing from the
      target bearing ``n* = (s*, 1) / |(s*, 1)|`` and ``2`` distance error
      (visual servoing);
    - ``3:5`` the ``xy`` of the bearing, zero on the optical axis
      (perception);
    - ``5:8`` velocity error and ``8:12`` sign-aligned attitude error
      (action).

    Every entry is defined on the whole bearing sphere.
    """
    v_w = x[:, 0:3]
    q_wb = x[:, 3:7]
    q_cl = x[:, 7:11]
    d = x[:, 11]

    sdt = np.sqrt(dt)
    root = w.roots

    # visual servoing: compensate by the attitude deviation from the reference,
    # q_comp = normalize(conj(q_bc) (x) normalize(rel) (x) q_bc (x) q_cl)
    rel = quat_prod(ref.q_star_conj, q_wb)
    inner = quat_prod(_camera_sandwich(q_bc.tobytes())[0], quat_prod(quat_normalize(rel), q_bc))
    comp = quat_prod(inner, q_cl)
    q_comp = quat_normalize(comp)
    r_img = root["q_s"] * (quat_rotate(q_comp, EZ)[:, :2] - ref.n_star_xy) * sdt
    r_dist = (root["q_d"] * (d - ref.d_star) * sdt)[:, None]

    # perception
    n_c = quat_rotate(q_cl, EZ)
    r_per = root["q_p"] * n_c[:, :2] * sdt

    # action
    sgn = np.where(np.sum(q_wb * ref.q_star, axis=-1) >= 0.0, 1.0, -1.0)
    r_vel = root["q_v"] * (v_w - ref.v_star) * sdt
    r_att = root["q_q"] * (sgn[:, None] * q_wb - ref.q_star) * sdt

    res = np.concatenate([r_img, r_dist, r_per, r_vel, r_att], axis=1)
    return res, n_c, (rel, inner, comp, q_comp, sgn)


@lru_cache(maxsize=8)
def _camera_sandwich(q_bc: bytes):
    """``conj(q_bc)`` and the sandwich matrix ``L(conj q_bc) R(q_bc)``, read-only, once per rotation.

    Keyed by the bytes of the float64 camera-to-body quaternion ``q_bc``,
    so a signed zero is its own rotation.
    """
    q = np.frombuffer(q_bc)
    q_cb = quat_conj(q)
    sandwich = _quat_lmat(q_cb) @ _quat_rmat(q)
    q_cb.flags.writeable = sandwich.flags.writeable = False
    return q_cb, sandwich


def _stage_jacobians(x: Array, ref: ReferencePoint, w: CostWeights, q_bc: Array, dt: float, parts: tuple):
    """Jacobians of the residuals and bearings of :func:`_stage_outputs` per node.

    ``(M, 12, 12)`` and ``(M, 3, 12)``, in closed form: each quaternion
    product is a left- or right-multiplication matrix, each
    ``quat_normalize`` its projection, and a bearing ``R(q) e_z`` the third
    column of ``dR/dq``.  The attitude sign is held constant.  ``parts``
    are the intermediates that :func:`_stage_outputs` returned for the
    same ``x``, so the quaternion products are not taken again.
    """
    m = len(x)
    q_cl = x[:, 7:11]
    rel, inner, comp, q_comp, sgn = parts
    sdt = np.sqrt(dt)
    root = w.roots
    q_ref = ref.q_star_conj
    d_comp = _normalize_jacobian(comp)
    d_img = root["q_s"][:, None] * sdt * _rotmat_jacobian(q_comp)[:, :2, 2]
    d_n = _rotmat_jacobian(q_cl)[:, :, 2]
    sandwich = _camera_sandwich(q_bc.tobytes())[1]

    j_res = np.zeros((m, 12, 12))
    j_res[:, 0:2, 3:7] = d_img @ d_comp @ _quat_rmat(q_cl) @ sandwich @ _normalize_jacobian(rel) @ _quat_lmat(q_ref)
    j_res[:, 0:2, 7:11] = d_img @ d_comp @ _quat_lmat(inner)
    j_res[:, 2, 11] = root["q_d"] * sdt
    j_res[:, 3:5, 7:11] = root["q_p"][:, None] * sdt * d_n[:, :2]
    j_res[:, 5:8, 0:3] = w.root_diags["q_v"] * sdt
    j_res[:, 8:12, 3:7] = sgn[:, None, None] * (w.root_diags["q_q"] * sdt)
    j_n = np.zeros((m, 3, 12))
    j_n[:, :, 7:11] = d_n
    return j_res, j_n


def _rollout(x0: Array, u: Array, dt: float, ext: CameraExtrinsics, stages: list | None = None) -> Array:
    """States of the inputs ``u`` stepped from ``x0`` by :func:`_rk4`.

    The steps run on Python floats; numpy scalars would cost several times
    more per operation.  Their stage derivatives are appended to ``stages``
    when it is given, flat: 48 floats a step, ``k1`` to ``k4`` in state
    order, as :func:`rk4_jacobians` reads them.  A step that divides by
    zero and every node after it are NaN; the stages are then incomplete.
    """
    floats = (float(dt), ext.p_b_cb.tolist(), ext.r_bc.tolist())
    states = [np.asarray(x0, dtype=np.float64).tolist()]
    try:
        for uk in u.tolist():
            states.append(_rk4(states[-1], uk, *floats, stages))
    except ZeroDivisionError:
        states += [[float("nan")] * 12] * (len(u) + 1 - len(states))
    return np.array(states)


def _hinge(n: Array, cone: Array) -> Array:
    """Per-node violation of the visibility cone by the bearings ``n``, (M,) nonnegative."""
    return np.maximum(0.0, n @ cone.T).sum(-1)


def _active_set_solve(h_mat, g_vec, lb, ub, vis_rows, vis_base, z, grad, f, rho):
    """One exact solve of the step QP on the sets that an augmented-Lagrangian pass found.

    ``z`` is the pass's point, ``grad`` its gradient and ``f = lam + mu t``
    its rows' shifted values.  Rows with ``0 < f < rho`` (curved) are
    held at ``t = 0``, rows with ``f >= rho`` (saturated) carry the
    multiplier ``rho`` and the others none, and each input that the
    projection ``clip(z - grad, lb, ub)`` puts on a bound is fixed there.
    The free inputs F and the curved rows' multipliers solve the
    equality-constrained KKT system ``[[H_FF, V_KFᵀ], [V_KF, 0]]``
    (solution polishing, Stellato et al., OSQP, 2020).  Returns the
    candidate ``(z, lam)``, or None when that system is singular; the
    caller tests it.
    """
    lam = np.where(f >= rho, rho, 0.0)
    z = (z - grad).clip(lb, ub)
    free = (z > lb) & (z < ub)
    z[free] = 0.0
    curved = (f > 0.0) & (f < rho)
    idx = np.flatnonzero(free)
    rows = vis_rows[curved].take(idx, 1)
    n_f, n_k = len(idx), len(rows)
    kkt = np.zeros((n_f + n_k, n_f + n_k))
    kkt[:n_f, :n_f] = h_mat.take(idx, 0).take(idx, 1)
    kkt[:n_f, n_f:] = rows.T
    kkt[n_f:, :n_f] = rows
    rhs = -np.concatenate([(h_mat @ z + g_vec + lam @ vis_rows)[free], (vis_rows @ z + vis_base)[curved]])
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        return None
    z[free] = sol[:n_f]
    lam[curved] = sol[n_f:]
    return z, lam


def _solve_step_qp(h_mat, g_vec, lb, ub, vis_rows, vis_base, lam, rho, tol, max_iter):
    """Box QP with L1-penalized slacks on one-sided linear rows.

    Each row ``t = vis_rows @ z + vis_base <= 0`` gets a slack of price
    ``rho``.  An augmented Lagrangian over the rows, with the slacks
    eliminated in closed form, leaves a smooth box problem per outer
    pass: its penalty ``fc (2 f - fc) / (2 mu)``, with ``f = lam + mu t``
    and ``fc = clip(f, 0, rho)``, is quadratic while ``0 < f < rho`` (the
    row is curved) and linear of slope ``rho`` beyond, where the slack
    takes up the violation.  The multipliers ``clip(f, 0, rho)`` then
    converge to those of the exact L1 penalty from any start ``lam`` in
    ``[0, rho]``, so a caller can pass those of a QP with the same rows.
    Each inner problem is solved by projected Newton (Bertsekas, 1982).
    Its Hessian ``h_mat + mu VᵀV`` over the curved rows ``V`` is formed
    again only when ``mu`` or the curved set changes; the steps of a
    pass mostly keep both.
    Its search scores all 30 trials ``alpha = 2^-i`` along the projected
    Newton step in one batch and takes the one that lowers the objective
    most; the taken trial's products (rows, penalty, gradient) carry to
    the next step.  With no rows the first outer pass solves the whole
    problem.

    The passes only have to find the sets.  After each pass that moved
    ``z`` while some rows are curved, :func:`_active_set_solve` solves
    the QP exactly on the sets the pass ended on.  Its candidate
    ``(z, lam)`` is returned if it meets the exact L1-penalty KKT
    conditions: ``z`` inside the box, ``lam`` in ``[0, rho]``, ``t <= 0``
    on the rows with ``lam = 0``, ``t >= 0`` on those with ``lam = rho``,
    ``|t| < tol`` on the others and the projected gradient of
    ``h z + g + lamᵀ vis_rows`` below ``tol``.  The Hessian is positive
    definite, so these certify the optimum however the candidate was
    found.  A candidate that fails them is dropped and the passes go
    on.  So ``mu`` starts at ``rho``, where the sets settle in fewer
    Newton steps than at a larger weight, and grows tenfold, up to
    ``1e6 rho``, after a pass that cuts the change of the multipliers
    less than tenfold.

    Returns (step, row multipliers, slack values, violation sum,
    projected-Newton steps).  The finishing solves are not counted as
    steps.
    """
    mu = rho
    alphas = (0.5 ** np.arange(30))[:, None]
    rows_t = np.ascontiguousarray(vis_rows.T)
    steps = 0
    last = np.inf
    h_key = None  # (mu, curved set) of h_eff
    z = np.zeros_like(g_vec).clip(lb, ub)
    grad_q = h_mat @ z + g_vec
    t = vis_rows @ z + vis_base
    for _outer in range(12):
        z_pass = z
        f = lam + mu * t
        fc = f.clip(0.0, rho)
        pen = (fc * (2.0 * f - fc)).sum()
        for _inner in range(max_iter):
            grad = grad_q + fc @ vis_rows
            pg = abs(z - (z - grad).clip(lb, ub)).max()
            if pg < tol:
                break
            mask = (f > 0.0) & (f < rho)
            key = (mu, mask.tobytes())
            if key != h_key:
                curved = vis_rows[mask]
                h_eff = h_mat + mu * curved.T @ curved if len(curved) else h_mat
                h_key = key
            # inputs within eps of a bound they are pushed against move onto
            # it and leave the Newton system; an input left free there can
            # only creep toward the bound by short, rejected-then-halved steps
            eps = min(pg, 1e-6)
            at_lb = (z <= lb + eps) & (grad > 0.0)
            at_ub = (z >= ub - eps) & (grad < 0.0)
            free = ~(at_lb | at_ub)
            dz = np.where(at_lb, lb - z, np.where(at_ub, ub - z, 0.0))
            idx = np.flatnonzero(free)
            if len(idx):
                try:
                    dz[idx] = -np.linalg.solve(h_eff.take(idx, 0).take(idx, 1), grad[idx])
                except np.linalg.LinAlgError:
                    dz[idx] = -grad[idx]
            steps += 1
            # backtracking: all 30 trials in one batch, each scored by its
            # change of the objective from z, which keeps small decreases
            # above roundoff.  The Newton step overshoots the box and the
            # row kinks, so a shorter trial often decreases the objective
            # more than the longest decreasing one: the trial of lowest
            # score is taken, if that score is negative.  A NaN score (an
            # overflow, inf - inf) is never taken; a -inf one, a decrease
            # beyond the float range, can be
            z_t = (z + alphas * dz).clip(lb, ub)
            moves = z_t - z
            h_moves = moves @ h_mat
            f_t = f + mu * (moves @ rows_t)
            fc_t = f_t.clip(0.0, rho)
            pen_t = (fc_t * (2.0 * f_t - fc_t)).sum(1)
            delta = moves @ grad_q + 0.5 * (moves * h_moves).sum(1) + (pen_t - pen) / (2.0 * mu)
            delta = np.where(delta < 0.0, delta, np.inf)
            best = int(delta.argmin())
            if delta[best] == np.inf:
                break
            # the taken trial's products carry to the next step
            z, f, fc, pen = z_t[best], f_t[best], fc_t[best], pen_t[best]
            grad_q = grad_q + h_moves[best]
        t = vis_rows @ z + vis_base
        f = lam + mu * t
        new = f.clip(0.0, rho)
        if z is not z_pass and ((f > 0.0) & (f < rho)).any():
            cand = _active_set_solve(h_mat, g_vec, lb, ub, vis_rows, vis_base, z, grad_q + new @ vis_rows, f, rho)
            if cand is not None:
                z_c, lam_c = cand
                t_c = vis_rows @ z_c + vis_base
                grad_c = h_mat @ z_c + g_vec + lam_c @ vis_rows
                # the slack's optimality: t <= 0 at multiplier 0, t >= 0 at rho, t = 0 between
                slack_ok = np.where(lam_c == 0.0, t_c <= 0.0, np.where(lam_c == rho, t_c >= 0.0, abs(t_c) < tol))
                if (
                    ((z_c >= lb) & (z_c <= ub)).all()
                    and ((lam_c >= 0.0) & (lam_c <= rho) & slack_ok).all()
                    and abs(z_c - (z_c - grad_c).clip(lb, ub)).max() < tol
                ):
                    z, lam, t = z_c, lam_c, t_c
                    break
        change = abs(new - lam).max(initial=0.0)
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
    return z, lam, slack, float(slack.sum()), steps


_HOVER_U = ControlInput.hover().as_vector()
# the constant step box of one node in the infinity norm; thrust moves 3x faster
_STEP_BOX = np.array([3.0, 1.0, 1.0, 1.0])
# the step QP's stationarity tolerance and its cap on projected-Newton steps
_QP_TOL = 1e-8
_QP_MAX_ITER = 60
# the L1 price of a unit of visibility violation, in the merit and the step QP
_SLACK_WEIGHT = 200.0
# added to the condensed Hessian's diagonal
_REG = 1e-6


class _Workspace:
    """Evaluation of one feasible iterate: rolled-out states, their RK4 stages and stage outputs.

    A rollout that divided by zero holds NaN from that step on, so the
    stages of a finite one are complete; a non-finite one is rejected
    without reading its states.
    """

    __slots__ = ("x", "stages", "outputs", "cost", "viol_sum", "viol_max", "merit", "finite")

    def __init__(self, u, problem):
        p = problem.params
        ext = problem.extrinsics
        self.stages = []
        self.x = _rollout(problem.x0.as_vector(), u, p.dt, ext, self.stages)
        self.outputs = None
        self.cost = self.viol_sum = self.viol_max = self.merit = float("nan")
        self.finite = bool(np.isfinite(self.x).all())
        if not self.finite:  # a diverged rollout is rejected unevaluated
            return
        self.outputs = res, n_c, _ = _stage_outputs(self.x, problem.ref, problem.weights, ext.q_bc, p.dt)
        du = u - _HOVER_U
        self.cost = float((res**2).sum()) + p.dt * float((du * du * problem.weights.q_u).sum())
        viol = _hinge(n_c[1:], problem.cone)
        self.viol_sum = float(viol.sum())
        self.viol_max = float(viol.max(initial=0.0))
        self.merit = self.cost + _SLACK_WEIGHT * self.viol_sum
        self.finite = bool(np.isfinite(self.merit))


@dataclass
class _Model:
    """Condensed Gauss-Newton model of one iterate.

    The gradient ``g`` and the rows' values ``vis_base`` are built with
    the model.  The Hessian ``h``, the Gram product of the stacked
    residual Jacobians ``jm`` plus the diagonal ``h_diag`` of one node,
    and the visibility rows ``vis_rows``, the cone of the bearing
    Jacobians ``dn`` through ``big_m``, are built on first use: an
    iterate that passes the KKT test before its step QP reads neither.
    """

    g: Array
    vis_base: Array
    jm: Array  # (12N, 4N) residuals of nodes 1..N in the input moves
    h_diag: Array  # (4,) added to each node's inputs on the diagonal of h
    big_m: Array  # (N, 12, 4N) deviations of nodes 1..N in the input moves
    dn: Array  # (N, 3, 12) bearing Jacobians of nodes 1..N
    cone: Array

    @cached_property
    def h(self) -> Array:
        h_mat = 2.0 * (self.jm.T @ self.jm)
        # splitting the strided diagonal into (N, 4) keeps it a view of h_mat
        diag = h_mat.reshape(-1)[:: len(h_mat) + 1].reshape(-1, NU)
        diag += self.h_diag
        return h_mat

    @cached_property
    def vis_rows(self) -> Array:
        return ((self.cone @ self.dn) @ self.big_m).reshape(-1, self.big_m.shape[-1])


def _reduced_model(x, u, problem, outputs, stages):
    """Condensed Gauss-Newton model at the rolled-out iterate (X, U).

    ``outputs`` are the ``_stage_outputs`` of ``x`` and ``stages`` the RK4
    stage derivatives of its rollout, as ``_rollout`` records them.  The
    shooting defects are exactly zero on a rollout, so the state
    deviations are the input moves mapped through the linearised RK4 map
    alone.  The visibility
    cone of node k >= 1 becomes four one-sided rows
    ``vis_base + vis_rows @ dU <= 0``, for every node: ``4N`` rows in all.
    The model forms its Hessian and rows when they are first read.
    """
    p = problem.params
    n = p.horizon
    ext = problem.extrinsics

    res, n_c, parts = outputs
    a_k, b_k = rk4_jacobians(x[:-1], u, stages, p.dt, ext)
    j_res, j_n = _stage_jacobians(x, problem.ref, problem.weights, ext.q_bc, p.dt, parts)

    # big_m[k] maps the input moves to the deviation of node k+1; its
    # columns of inputs k+1.. are zero, so each product skips them
    big_m = np.zeros((n, NX, n * NU))
    big_m[0, :, :NU] = b_k[0]
    for k in range(1, n):
        np.matmul(a_k[k], big_m[k - 1, :, : k * NU], out=big_m[k, :, : k * NU])
        big_m[k, :, k * NU : (k + 1) * NU] += b_k[k]

    # residuals of nodes 1..N in the input moves, stacked
    jm = (j_res[1:] @ big_m).reshape(-1, n * NU)
    g_vec = 2.0 * (jm.T @ res[1:].ravel())
    # input regularization around hover, diagonal in the inputs
    qu = problem.weights.q_u
    g_vec += (2.0 * p.dt * qu * (u - _HOVER_U)).ravel()

    cone = problem.cone
    return _Model(
        g=g_vec,
        vis_base=(n_c[1:] @ cone.T).ravel(),
        jm=jm,
        h_diag=_REG + 2.0 * p.dt * qu,
        big_m=big_m,
        dn=j_n[1:],
        cone=cone,
    )


def _kkt_from_model(u, model, lam, viol_max, lo, hi):
    """Max-norm KKT residual of the condensed problem at the iterate ``u (N, 4)``.

    Stationarity uses the visibility-row multipliers ``lam`` of the step
    QP, or zero multipliers when ``lam`` is None, and the input box
    ``[lo, hi]`` of one node; feasibility is the iterate's largest
    visibility violation of a node, ``viol_max``.  With zero multipliers
    complementarity holds trivially, so a residual below tolerance then
    certifies a KKT point without the model's rows.
    """
    g_total = model.g if lam is None else model.g + model.vis_rows.T @ lam
    stat = float(abs(u - (u - g_total.reshape(u.shape)).clip(lo, hi)).max())
    return max(stat, viol_max)


def solve(problem: OcpProblem, warm: Array | None = None) -> OcpSolution:
    """SQP solve of the transcribed NLP, warm-startable from ``(N, 4)`` inputs.

    Iterates stay on the shooting manifold: every input trajectory is
    rolled out from x0, so the shooting equalities hold exactly at each
    iterate and the merit function is the true discretized cost plus the
    L1 visibility penalty.  Cold starts use hover inputs clipped to the
    input box, and so does a warm start whose rollout is not finite; a
    warm start of another shape is ignored.  Each step QP is boxed by the
    input box intersected with one constant step box, and the Armijo line
    search on the merit is the one globalisation.  An accepted step never
    raises the merit, so the last accepted iterate is returned, with the
    KKT residual of the last iterate the solver linearised: the returned
    inputs when no step was accepted after that linearisation.  The solve
    is ``converged`` only when that KKT residual is below ``sqp_tol``; it
    stops early, as ``max_iters``, on a step that does not descend, a line
    search that fails, or two tiny decreases in a row.  Each linearised
    iterate is first tested with zero row multipliers, and one below
    ``sqp_tol`` is converged without a step QP; otherwise the test is
    repeated with the multipliers of its step QP.  ``reason`` names the
    exit, one per stop: ``kkt``, ``no_descent``,
    ``line_search_failed``, ``tiny_steps``, ``budget`` (the loop ran out)
    or ``infeasible``: no start with a finite rollout, or a step QP that
    returned a non-finite step.  An infeasible solve reports ``kkt = inf``
    and the last finite iterate, if any.  The default budget of one
    iteration makes each solve one Gauss-Newton step from the warm start.
    """
    p = problem.params
    n = p.horizon
    b = problem.bounds

    # the input box of one node, broadcast over the (N, 4) plan
    lo, hi = b.input_lower(), b.input_upper()

    ws = None
    if warm is not None and warm.shape == (n, NU):
        u = warm.clip(lo, hi)
        ws = _Workspace(u, problem)
    if ws is None or not ws.finite:
        # a cold start, or a warm start whose rollout is not finite, starts once from hover in the box
        u = np.tile(_HOVER_U.clip(lo, hi), (n, 1))
        ws = _Workspace(u, problem)
    merits = [ws.merit]

    qp_steps = 0
    iters_done = 0
    backtracks = 0
    reason = "budget" if ws.finite else "infeasible"
    lam = np.zeros(4 * n)  # multipliers of the visibility rows, the same rows in every model
    kkt_out, kkt_at_inputs = float("inf"), False
    tiny_steps = 0

    while reason == "budget" and iters_done < p.max_sqp_iters:
        iters_done += 1
        model = _reduced_model(ws.x, u, problem, ws.outputs, ws.stages)
        # a warm start is often a KKT point already: the test with zero row
        # multipliers needs neither the Hessian nor the rows, and the
        # multipliers of an earlier model may sit on rows now inactive
        kkt_zero = _kkt_from_model(u, model, None, ws.viol_max, lo, hi)
        if kkt_zero < p.sqp_tol:
            reason, kkt_out, kkt_at_inputs = "kkt", kkt_zero, True
            break
        lb_step = np.maximum(lo - u, -_STEP_BOX).ravel()
        ub_step = np.minimum(hi - u, _STEP_BOX).ravel()
        # the last QP's multipliers start this one
        du, lam, _, lin_viol, steps = _solve_step_qp(
            model.h, model.g, lb_step, ub_step, model.vis_rows, model.vis_base, lam,
            _SLACK_WEIGHT, _QP_TOL, _QP_MAX_ITER,
        )
        qp_steps += steps
        if not np.isfinite(du).all():
            reason, kkt_out = "infeasible", float("inf")
            break

        kkt_out = _kkt_from_model(u, model, lam, ws.viol_max, lo, hi)
        kkt_at_inputs = True
        if kkt_out < p.sqp_tol:
            reason = "kkt"
            break
        descent = float(model.g @ du) - _SLACK_WEIGHT * (ws.viol_sum - lin_viol)
        if descent > -1e-12:
            reason = "no_descent"
            break

        alpha = 1.0
        for _ls in range(12):
            u_t = (u + alpha * du.reshape(n, NU)).clip(lo, hi)
            ws_t = _Workspace(u_t, problem)
            if ws_t.finite and ws_t.merit <= ws.merit + 1e-4 * alpha * descent:
                break
            alpha *= 0.5
            backtracks += 1
        else:
            reason = "line_search_failed"
            break
        actual = ws.merit - ws_t.merit
        u, ws, kkt_at_inputs = u_t, ws_t, False
        merits.append(ws.merit)
        if actual < 1e-8 * (1.0 + abs(ws.merit)):
            tiny_steps += 1
            if tiny_steps >= 2:
                reason = "tiny_steps"
                break
        else:
            tiny_steps = 0

    return OcpSolution(
        inputs=u,
        states=ws.x,
        cost=ws.cost,
        kkt=kkt_out,
        sqp_iters=iters_done,
        reason=reason,
        slack_max=ws.viol_max,
        iter_merits=merits,
        qp_iters=qp_steps,
        backtracks=backtracks,
        kkt_at_inputs=kkt_at_inputs,
    )


def shift_warm_start(plan: Array, n: int) -> Array:
    """Receding-horizon shift: the plan's unexecuted inputs, padded to ``n`` rows by repeating the last."""
    out = np.empty((n, NU))
    out[: len(plan)] = plan
    out[len(plan) :] = plan[-1]
    return out


class VisualPredictiveController:
    """Receding-horizon wrapper owning the plan.

    The plan is one ``(k, 4)`` array: the inputs of the last feasible
    solve that have not been applied.  Each tick warm-starts from the
    plan padded to the horizon by :func:`shift_warm_start`, or cold-starts
    once it is empty.  A feasible solve applies its first input and its
    others become the plan.  An infeasible one applies the plan's first
    input and drops it, or hover once the plan is empty.  One instance
    drives one control loop; distinct instances may run concurrently.
    """

    def __init__(self, weights: CostWeights, bounds: Bounds, extrinsics: CameraExtrinsics, params: OcpParams):
        self.weights = weights
        self.bounds = bounds
        self.extrinsics = extrinsics
        self.params = params
        self._plan = np.zeros((0, NU))

    def step(self, measurement: QuadVisualState, ref: ReferencePoint) -> tuple[ControlInput, OcpSolution]:
        """Build and solve one tick's problem; return the input to apply, clamped, and the solve."""
        problem = build_problem(measurement, ref, self.weights, self.bounds, self.extrinsics, self.params)
        warm = shift_warm_start(self._plan, self.params.horizon) if len(self._plan) else None
        t0 = time.perf_counter()
        sol = solve(problem, warm)
        sol.solve_ms = (time.perf_counter() - t0) * 1e3
        if sol.reason == "infeasible":
            u = self._plan[0] if len(self._plan) else _HOVER_U
            self._plan = self._plan[1:]
        else:
            u, self._plan = sol.inputs[0], sol.inputs[1:]
        return clamp_input(u, self.bounds), sol
