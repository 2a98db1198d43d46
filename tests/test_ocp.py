import itertools

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.costs import Bounds, CostWeights, ReferencePoint
from quadvpc.dynamics import ControlInput, QuadVisualState, _rk4_flat, rk4_step
from quadvpc.ocp import (
    BadReferenceLength,
    InvalidInitialState,
    OcpParams,
    SolveStatus,
    VisualPredictiveController,
    _reduced_model,
    _solve_step_qp,
    _stage_jacobians,
    _stage_outputs,
    build_problem,
    kkt_residual,
    kkt_residual_arrays,
    shift_warm_start,
    solution_cost,
    solve,
)
from quadvpc.simulator import DEFAULT_EXTRINSICS

from conftest import random_quat


def constant_ref(d, nodes=21):
    """A centred, level reference at distance ``d`` for ``nodes`` horizon nodes."""
    return ReferencePoint(np.zeros(2), np.full(nodes, d), np.zeros(3), g.quat_identity())


def hover_setup(d=1.9, horizon=20, **param_kw):
    x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), d)
    ref = constant_ref(d, horizon + 1)
    params = OcpParams(horizon=horizon, **param_kw)
    problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    return x0, ref, problem


def gate_setup(horizon=20, **param_kw):
    # start 8 m from the landmark, target 2 m in front of it
    x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 8.0)
    ref = constant_ref(2.0, horizon + 1)
    params = OcpParams(horizon=horizon, **param_kw)
    problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    return x0, ref, problem


class TestBuildProblem:
    def test_builds_with_matching_refs(self):
        _, _, problem = hover_setup()
        assert problem.params.horizon == 20
        assert problem.ref.d_star.shape == (21,)
        assert problem.ref.s_star.shape == (21, 2)

    def test_reference_length_mismatch(self):
        # a horizon of N = 20 needs one reference row per node, 21 in all
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        for lead in [(), (20,), (22,), (21, 1)]:
            ref = ReferencePoint(np.zeros(2), np.full(lead, 2.0), np.zeros(3), g.quat_identity())
            with pytest.raises(BadReferenceLength):
                build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams(horizon=20))

    def test_invalid_initial_distance(self):
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        object.__setattr__(x0, "d", -1.0)
        with pytest.raises(InvalidInitialState):
            build_problem(x0, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())

    def test_dynamic_weight_applied_once(self):
        _, _, problem = hover_setup(d=3.0)
        assert np.allclose(problem.weights.q_s, CostWeights().q_s * 9.0)


class TestOcpParams:
    @pytest.mark.parametrize("kw", [{"qp_tol": 0.0}, {"qp_tol": -1e-8}, {"qp_max_iter": 0}, {"qp_max_iter": -1}])
    def test_rejects_invalid_qp_settings(self, kw):
        with pytest.raises(ValueError):
            OcpParams(**kw)


class TestStageJacobians:
    def test_reference_tiling(self, rng):
        # every node of a batch is linearised about its own reference
        n = 21
        x = np.column_stack([
            rng.uniform(-3, 3, (n, 3)),
            random_quat(rng, n),
            np.array([g.bearing_from_image(s) for s in rng.uniform(-0.8, 0.8, (n, 2))]),
            rng.uniform(1.0, 8.0, n),
        ])
        ref = ReferencePoint(rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1, 8, n), rng.uniform(-2, 2, (n, 3)), random_quat(rng, n))
        w, q_bc, dt = CostWeights(), DEFAULT_EXTRINSICS.q_bc, 0.05
        j_res, j_s = _stage_jacobians(x, ref, w, q_bc, dt)
        for k in range(n):
            j_res_k, j_s_k = _stage_jacobians(x[k : k + 1], ref._take([k]), w, q_bc, dt)
            assert np.array_equal(j_res[k], j_res_k[0])
            assert np.array_equal(j_s[k], j_s_k[0])


class TestHoverSolve:
    def test_equilibrium_inputs(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.sqp_iters <= 5
        assert abs(sol.inputs[0, 0] - 9.81) < 0.1
        assert np.all(np.abs(sol.inputs[:, 1:]) < 0.01)

    def test_kkt_small(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.kkt < 1e-4

    def test_kkt_at_inputs(self):
        # a converged solve returns the iterate it linearised last
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.status is SolveStatus.CONVERGED
        assert sol.kkt_at_inputs

    def test_zero_slack(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.slack_max == 0.0

    def test_inputs_in_box_exactly(self):
        _, _, problem = gate_setup(max_sqp_iters=10)
        sol = solve(problem)
        b = problem.bounds
        assert np.all(sol.inputs[:, 0] >= b.c_min) and np.all(sol.inputs[:, 0] <= b.c_max)
        assert np.all(sol.inputs[:, 1:] >= b.omega_min) and np.all(sol.inputs[:, 1:] <= b.omega_max)


class TestSolveProperties:
    def test_merit_non_increasing(self):
        _, _, problem = gate_setup(max_sqp_iters=25)
        sol = solve(problem)
        merits = np.array(sol.iter_merits)
        assert np.all(np.diff(merits) <= 1e-12)

    def test_shooting_consistency(self):
        _, _, problem = gate_setup(max_sqp_iters=10)
        sol = solve(problem)
        for k in range(problem.params.horizon):
            step = rk4_step(
                sol.state_at(k), sol.input_at(k), problem.params.dt, problem.extrinsics
            ).as_vector()
            assert np.max(np.abs(step - sol.states[k + 1])) < 1e-8

    def test_solve_reduces_cost(self):
        _, _, problem = gate_setup(max_sqp_iters=25)
        cold = np.tile(ControlInput.hover().as_vector(), (20, 1))
        from quadvpc.ocp import _rollout

        x_cold = _rollout(problem.x0.as_vector(), cold, problem.params.dt, problem.extrinsics)
        sol = solve(problem)
        assert sol.cost < solution_cost(problem, x_cold, cold) - 1.0

    def test_deterministic(self):
        _, _, p1 = gate_setup(max_sqp_iters=5)
        _, _, p2 = gate_setup(max_sqp_iters=5)
        s1, s2 = solve(p1), solve(p2)
        assert np.array_equal(s1.inputs, s2.inputs)
        assert np.array_equal(s1.states, s2.states)
        assert s1.cost == s2.cost


class TestKktResidual:
    def test_perturbed_solution_is_worse(self, rng):
        _, _, problem = hover_setup()
        sol = solve(problem)
        base = kkt_residual(problem, sol)
        perturbed = sol
        perturbed.inputs = sol.inputs + rng.normal(0, 0.2, sol.inputs.shape)
        perturbed.states = sol.states + rng.normal(0, 0.05, sol.states.shape)
        assert kkt_residual(problem, perturbed) > base + 1e-3

    def test_feasible_rollout_zero_dynamics_component(self, rng):
        # a rollout trajectory has exact shooting, so only stationarity
        # remains: the solver linearises the very map its rollout steps
        _, _, problem = gate_setup()
        from quadvpc.ocp import _Workspace

        ext = problem.extrinsics
        hover = np.tile(ControlInput.hover().as_vector(), (20, 1))
        inputs = [hover, solve(problem).inputs]
        inputs += [hover + rng.normal(0.0, [2.0, 0.5, 0.5, 0.5], (20, 4)) for _ in range(3)]
        for u in inputs:
            x = _Workspace(u, problem).x
            defects = _rk4_flat(x[:-1], u, problem.params.dt, ext.p_b_cb, ext.q_bc) - x[1:]
            assert np.array_equal(defects, np.zeros_like(defects))

    def test_off_manifold_reports_defect(self):
        # kkt_residual_arrays takes any (X, U), so it computes the defects
        # that solve's own models skip: one node moved off the rollout
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.kkt < 1e-9
        x = sol.states.copy()
        x[5, 11] += 0.3
        assert kkt_residual_arrays(problem, x, sol.inputs) == pytest.approx(0.3, abs=1e-12)


class TestKktReport:
    # solve builds one model per SQP iteration and reports the KKT value of
    # the last iterate it linearised, instead of building one more model
    # for the returned inputs
    @staticmethod
    def count_calls(monkeypatch, run):
        import quadvpc.ocp as ocp

        calls = {"models": 0, "kkt_residual_arrays": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)

            return spy

        monkeypatch.setattr(ocp, "_reduced_model", counted("models", ocp._reduced_model))
        monkeypatch.setattr(ocp, "kkt_residual_arrays", counted("kkt_residual_arrays", ocp.kkt_residual_arrays))
        out = run()
        monkeypatch.undo()
        return out, calls

    def test_gate_solve_ends_on_accepted_step(self, monkeypatch):
        _, _, problem = gate_setup(max_sqp_iters=5)
        sol, calls = self.count_calls(monkeypatch, lambda: solve(problem))
        assert calls == {"models": sol.sqp_iters, "kkt_residual_arrays": 0}
        # every iteration accepted a step, so the last linearised iterate is
        # the one before the returned inputs
        assert len(sol.iter_merits) == sol.sqp_iters + 1
        assert not sol.kkt_at_inputs

    def test_fast_tracking_models(self, monkeypatch):
        from quadvpc.config import default_config
        from quadvpc.scenarios import scenario_quarter_circle

        cfg = default_config("quarter_circle")
        cfg.duration = 1.0
        result, calls = self.count_calls(monkeypatch, lambda: scenario_quarter_circle(cfg, 9.0))
        log = result["log"]
        assert log.n_ticks == 20 and "infeasible" not in log.status
        assert calls == {"models": int(np.sum(log.sqp_iters)), "kkt_residual_arrays": 0}


class TestSkippedDefects:
    # solve builds its models without recomputing the shooting defects or
    # the stage outputs: on its own iterates the defects are exactly zero
    # and the outputs are those its workspace evaluated, so the models equal
    # the ones built with the batched RK4's defects and fresh outputs
    @staticmethod
    def solver_models(monkeypatch, run):
        import quadvpc.ocp as ocp

        seen = []
        build = ocp._reduced_model

        def spy(x, u, problem, outputs, *defects):
            model = build(x, u, problem, outputs, *defects)
            if not defects:
                seen.append((x.copy(), u.copy(), problem, model))
            return model

        monkeypatch.setattr(ocp, "_reduced_model", spy)
        run()
        monkeypatch.undo()
        assert seen
        return seen

    @staticmethod
    def check(models):
        for x, u, problem, built in models:
            ext = problem.extrinsics
            defects = _rk4_flat(x[:-1], u, problem.params.dt, ext.p_b_cb, ext.q_bc) - x[1:]
            outputs = _stage_outputs(x, problem.ref, problem.weights, ext.q_bc, problem.params.dt)
            fresh = _reduced_model(x, u, problem, outputs)
            full = _reduced_model(x, u, problem, outputs, defects)
            assert len(built.vis_rows) > 0
            for name in ("h", "g", "vis_rows", "vis_base", "s_c", "ok"):
                assert np.array_equal(getattr(built, name), getattr(fresh, name))
                assert np.array_equal(getattr(built, name), getattr(full, name))

    def test_gate_iterates(self, monkeypatch):
        _, _, problem = gate_setup(max_sqp_iters=8)
        self.check(self.solver_models(monkeypatch, lambda: solve(problem)))

    def test_fast_tracking_iterates(self, monkeypatch):
        from quadvpc.config import default_config
        from quadvpc.scenarios import scenario_quarter_circle

        cfg = default_config("quarter_circle")
        cfg.duration = 1.0
        self.check(self.solver_models(monkeypatch, lambda: scenario_quarter_circle(cfg, 9.0)))


def box_qp_oracle(h_mat, g_vec, lb, ub, tol=1e-9):
    """Brute force over every lower / free / upper active set.

    Each set fixes its bounded components and solves the free block of
    the stationarity equations; the best point that is inside the box
    and has bound multipliers of the right sign is the minimizer.
    """
    n = len(g_vec)
    best, best_obj = None, np.inf
    for code in itertools.product((-1, 0, 1), repeat=n):
        code = np.array(code)
        z = np.where(code < 0, lb, np.where(code > 0, ub, 0.0))
        free = code == 0
        if np.any(free):
            rhs = -(g_vec[free] + h_mat[np.ix_(free, ~free)] @ z[~free])
            z[free] = np.linalg.solve(h_mat[np.ix_(free, free)], rhs)
        grad = h_mat @ z + g_vec
        if np.any(z < lb - tol) or np.any(z > ub + tol):
            continue
        if np.any(grad[code < 0] < -tol) or np.any(grad[code > 0] > tol):
            continue
        obj = 0.5 * z @ h_mat @ z + g_vec @ z
        if obj < best_obj:
            best, best_obj = z, obj
    return best


class TestStepQpWithoutRows:
    def test_matches_active_set_oracle(self, rng):
        # with no visibility rows the step QP is a plain box QP
        n_active = 0
        for _ in range(200):
            n = int(rng.integers(1, 5))
            a = rng.normal(size=(n, n))
            h_mat = a @ a.T + 0.5 * np.eye(n)
            g_vec = rng.normal(0.0, 3.0, n)
            lb = -rng.uniform(0.1, 1.0, n)
            ub = rng.uniform(0.1, 1.0, n)
            none = np.zeros(0)
            z, lam_lo, lam_hi, slack, viol, _ = _solve_step_qp(
                h_mat, g_vec, lb, ub, np.zeros((0, n)), none, none, none, none, none, 200.0, 1e-10, 60
            )
            want = box_qp_oracle(h_mat, g_vec, lb, ub)
            assert np.max(np.abs(z - want)) < 1e-8
            assert lam_lo.shape == lam_hi.shape == slack.shape == (0,)
            assert viol == 0.0
            n_active += int(np.any((want == lb) | (want == ub)))
        assert n_active > 50


def l1_objective(z, h_mat, g_vec, vis_rows, vis_base, vis_lo, vis_hi, rho, **_):
    """The exact L1-penalty objective the step QP minimizes."""
    y = vis_rows @ z + vis_base
    hinge = np.maximum(0.0, vis_lo - y) + np.maximum(0.0, y - vis_hi)
    return 0.5 * z @ h_mat @ z + g_vec @ z + rho * np.sum(hinge)


def l1_qp_oracle(h_mat, g_vec, lb, ub, vis_rows, vis_base, vis_lo, vis_hi, rho):
    """Brute force over every piece of the L1-penalty objective.

    Each input sits at lb, is free or sits at ub; each row lies below lo,
    on lo, inside, on hi or above hi.  On a piece the objective is one
    quadratic: a row beyond a bound adds its slope ``rho``, a row on a
    bound adds an equality.  The stationary point of every piece that is
    inside the box is a candidate, and the minimizer is among them, so
    the best candidate by the exact objective is the optimum.
    """
    n = len(g_vec)
    obj = dict(h_mat=h_mat, g_vec=g_vec, vis_rows=vis_rows, vis_base=vis_base, vis_lo=vis_lo, vis_hi=vis_hi, rho=rho)
    best, best_obj = None, np.inf
    for inputs in itertools.product((-1, 0, 1), repeat=n):
        for rows in itertools.product(("below", "lo", "inside", "hi", "above"), repeat=len(vis_base)):
            lin = g_vec.copy()
            eq_a = [np.eye(n)[i] for i in range(n) if inputs[i]]
            eq_b = [lb[i] if inputs[i] < 0 else ub[i] for i in range(n) if inputs[i]]
            for a, base, lo, hi, where in zip(vis_rows, vis_base, vis_lo, vis_hi, rows):
                if where in ("below", "above"):
                    lin = lin + (rho if where == "above" else -rho) * a
                elif where in ("lo", "hi"):
                    eq_a.append(a)
                    eq_b.append((lo if where == "lo" else hi) - base)
            k = len(eq_a)
            if k > n:
                continue
            e = np.array(eq_a).reshape(k, n)
            kkt = np.block([[h_mat, e.T], [e, np.zeros((k, k))]])
            try:
                z = np.linalg.solve(kkt, np.concatenate([-lin, eq_b]))[:n]
            except np.linalg.LinAlgError:
                continue
            if np.any(z < lb - 1e-12) or np.any(z > ub + 1e-12):
                continue
            z = np.clip(z, lb, ub)
            f = l1_objective(z, **obj)
            if f < best_obj:
                best, best_obj = z, f
    return best, best_obj


class TestStepQpWithRows:
    def test_matches_piecewise_oracle(self, rng):
        # from zero multipliers and from any start in [0, rho] the step QP
        # reaches the exact L1-penalty optimum, so a warm start cannot
        # change the answer; rows may be infeasible inside the box
        rho = 200.0
        n_active = 0
        for _ in range(200):
            n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
            a = rng.normal(size=(n, n))
            qp = dict(
                h_mat=a @ a.T + 0.5 * np.eye(n),
                g_vec=rng.normal(0.0, 3.0, n),
                lb=-rng.uniform(0.1, 1.0, n),
                ub=rng.uniform(0.1, 1.0, n),
                vis_rows=rng.normal(size=(m, n)),
                vis_base=rng.normal(0.0, 1.0, m),
                vis_lo=-rng.uniform(0.0, 1.0, m),
                vis_hi=rng.uniform(0.0, 1.0, m),
                rho=rho,
            )
            want, f_want = l1_qp_oracle(**qp)
            for lam_lo, lam_hi in [(np.zeros(m), np.zeros(m)), (rng.uniform(0.0, rho, m), rng.uniform(0.0, rho, m))]:
                z, _, _, slack, viol, _ = _solve_step_qp(**qp, lam_lo=lam_lo, lam_hi=lam_hi, tol=1e-10, max_iter=60)
                assert np.all(z >= qp["lb"]) and np.all(z <= qp["ub"])
                assert abs(l1_objective(z, **qp) - f_want) <= 1e-8 * max(1.0, abs(f_want))
                assert viol == pytest.approx(np.sum(slack))
            y = qp["vis_rows"] @ want + qp["vis_base"]
            n_active += int(np.any((y <= qp["vis_lo"] + 1e-9) | (y >= qp["vis_hi"] - 1e-9)))
        assert n_active > 50

    def test_penalty_weight_stops_at_cap(self, monkeypatch):
        # row 1 cannot hold in the box and pushes z down at slope 3 rho; row
        # 0 has its kink at z = -0.2, 1e-7 above lb, so each pass moves its
        # multiplier by only mu * 3e-7 and the weight must grow to the cap
        rho = 200.0
        qp = dict(
            h_mat=np.array([[1.0]]),
            g_vec=np.array([-2.0]),
            lb=np.array([-0.2 - 1e-7]),
            ub=np.array([1.0]),
            vis_rows=np.array([[-3.0], [3.0]]),
            vis_base=np.array([0.0, 2.0]),
            vis_lo=np.array([-10.0, -10.0]),
            vis_hi=np.array([0.6, 0.5]),
            rho=rho,
        )
        _, f_want = l1_qp_oracle(**qp)
        largest = []
        solve = np.linalg.solve

        def spy(a, b):
            largest.append(np.max(np.abs(a)))
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", spy)
        z, _, lam_hi, _, _, _ = _solve_step_qp(**qp, lam_lo=np.zeros(2), lam_hi=np.zeros(2), tol=1e-10, max_iter=60)
        cap = 1.0 + 1e6 * rho * 9.0  # h + mu a a^T with mu at its cap
        assert cap * (1.0 - 1e-12) <= max(largest) <= cap * (1.0 + 1e-12)
        assert abs(l1_objective(z, **qp) - f_want) <= 1e-8 * max(1.0, abs(f_want))
        # stationarity at the kink: h z + g + 3 lam_hi[1] - 3 lam_hi[0] = 0
        assert lam_hi == pytest.approx([(3.0 * rho - 2.2) / 3.0, rho], rel=1e-8)

    def test_input_near_bound_leaves_newton_system(self):
        # input 2 approaches its lower bound by ever shorter steps while the
        # projected gradient stays near 0.94; unless it is held once within
        # 1e-6 of that bound, the search stalls 10.8 above the optimum
        qp = dict(
            h_mat=np.array([[5.843, -3.0291, 3.4493], [-3.0291, 6.7973, -0.3463], [3.4493, -0.3463, 3.5925]]),
            g_vec=np.array([2.0047, -5.0266, 0.4264]),
            lb=np.array([-0.9939, -0.5598, -0.832]),
            ub=np.array([0.2206, 0.9205, 0.1098]),
            vis_rows=np.array([[0.2693, 0.0946, -0.9504], [-0.691, -0.1719, -1.0421]]),
            vis_base=np.array([-0.278, -1.6678]),
            vis_lo=np.array([-0.2965, -0.7754]),
            vis_hi=np.array([0.7164, 0.2935]),
            rho=200.0,
        )
        _, f_want = l1_qp_oracle(**qp)
        z = _solve_step_qp(**qp, lam_lo=np.zeros(2), lam_hi=np.zeros(2), tol=1e-10, max_iter=60)[0]
        assert abs(l1_objective(z, **qp) - f_want) <= 1e-8 * max(1.0, abs(f_want))

    def test_gate_tail_instance(self, gate_tail_qp):
        # the first model of the first gate pose, with all 40 rows
        qp = gate_tail_qp
        assert qp["vis_rows"].shape == (40, 80)
        zeros = np.zeros(40)
        runs = [_solve_step_qp(**qp, lam_lo=zeros, lam_hi=zeros) for _ in range(2)]
        z = runs[0][0]
        assert np.all(np.isfinite(z))
        assert np.all(z >= qp["lb"]) and np.all(z <= qp["ub"])
        assert l1_objective(z, **qp) <= l1_objective(np.clip(np.zeros(80), qp["lb"], qp["ub"]), **qp)
        for a, b in zip(*runs):
            assert np.array_equal(a, b)


class TestShiftWarmStart:
    def test_constant_inputs_unchanged(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        shifted = shift_warm_start(sol)
        assert np.allclose(shifted.inputs, sol.inputs)

    def test_shift_indexing(self):
        _, _, problem = gate_setup(max_sqp_iters=8)
        sol = solve(problem)
        shifted = shift_warm_start(sol)
        assert np.array_equal(shifted.inputs[:-1], sol.inputs[1:])
        assert np.array_equal(shifted.inputs[-1], sol.inputs[-1])

    def test_rerolled_states_consistent(self):
        _, _, problem = gate_setup(max_sqp_iters=8)
        sol = solve(problem)
        shifted = shift_warm_start(sol)
        assert np.array_equal(shifted.states[0], sol.states[1])
        assert np.array_equal(shifted.states[:-1], sol.states[1:])
        for k in range(problem.params.horizon):
            step = rk4_step(
                shifted.state_at(k), shifted.input_at(k), problem.params.dt, problem.extrinsics
            ).as_vector()
            assert np.max(np.abs(step - shifted.states[k + 1])) < 1e-12


class TestController:
    def controller(self):
        return VisualPredictiveController(CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())

    def hover_measurement(self):
        return QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 1.9)

    def hover_ref(self):
        return constant_ref(1.9)

    def test_near_hover_input_at_equilibrium(self):
        u, sol = self.controller().step(self.hover_measurement(), self.hover_ref())
        assert abs(u.c - 9.81) < 0.1
        assert np.linalg.norm(u.omega_b) < 0.01

    def test_warm_start_stability(self):
        ctrl = self.controller()
        u1, _ = ctrl.step(self.hover_measurement(), self.hover_ref())
        u2, _ = ctrl.step(self.hover_measurement(), self.hover_ref())
        assert np.max(np.abs(u1.as_vector() - u2.as_vector())) < 1e-6

    def test_bitwise_determinism(self):
        meas = QuadVisualState([0.3, -0.1, 0.0], g.quat_yaw(0.1), g.bearing_from_image([0.2, 0.05]), 5.0)
        ref = constant_ref(2.0)
        c1, c2 = self.controller(), self.controller()
        for _ in range(3):
            u1, s1 = c1.step(meas, ref)
            u2, s2 = c2.step(meas, ref)
            assert np.array_equal(u1.as_vector(), u2.as_vector())
            assert np.array_equal(s1.inputs, s2.inputs)

    def test_failsafe_uses_queue_then_hover(self, monkeypatch):
        ctrl = self.controller()
        meas, ref = self.hover_measurement(), self.hover_ref()
        u_good, sol_good = ctrl.step(meas, ref)
        assert sol_good.status is not SolveStatus.INFEASIBLE
        queued = [q.copy() for q in ctrl._queue]

        import quadvpc.ocp as ocp_mod

        def fake_solve(problem, warm=None):
            from quadvpc.ocp import _Workspace, _infeasible_solution

            u = np.tile(ControlInput.hover().as_vector(), (problem.params.horizon, 1))
            return _infeasible_solution(u, _Workspace(u, problem), [], 1, problem)

        monkeypatch.setattr(ocp_mod, "solve", fake_solve)
        u_fb, sol_fb = ctrl.step(meas, ref)
        assert sol_fb.status is SolveStatus.INFEASIBLE
        assert np.allclose(u_fb.as_vector(), queued[0])
        ctrl._queue = []
        u_hover, _ = ctrl.step(meas, ref)
        assert u_hover.c == pytest.approx(9.81)
        assert np.allclose(u_hover.omega_b, 0)


class TestSmallInstanceOptimality:
    def test_solver_beats_random_multistart(self, rng):
        # N = 3 instance: the solver objective must not be worse than the
        # best of a dense random sample over the input box (rolled out)
        horizon = 3
        x0 = QuadVisualState([0.2, 0.1, -0.1], g.quat_identity(), g.bearing_from_image([0.05, -0.1]), 3.0)
        params = OcpParams(horizon=horizon, max_sqp_iters=60, sqp_tol=1e-8)
        problem = build_problem(x0, constant_ref(2.5, horizon + 1), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        sol = solve(problem)

        from quadvpc.ocp import _rollout

        lo = problem.bounds.input_lower()
        hi = problem.bounds.input_upper()
        n_samples = 2000
        best = np.inf
        samples = rng.uniform(lo, hi, size=(n_samples, horizon, 4))
        for u in samples:
            x = _rollout(x0.as_vector(), u, params.dt, DEFAULT_EXTRINSICS)
            best = min(best, solution_cost(problem, x, u))
        assert sol.cost <= best + 1e-3
