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
    _RefArrays,
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


def hover_setup(d=1.9, horizon=20, **param_kw):
    x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), d)
    ref = ReferencePoint(np.zeros(2), d, np.zeros(3), g.quat_identity())
    params = OcpParams(horizon=horizon, **param_kw)
    problem = build_problem(x0, [ref] * (horizon + 1), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    return x0, ref, problem


def gate_setup(horizon=20, **param_kw):
    # start 8 m from the landmark, target 2 m in front of it
    x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 8.0)
    ref = ReferencePoint(np.zeros(2), 2.0, np.zeros(3), g.quat_identity())
    params = OcpParams(horizon=horizon, **param_kw)
    problem = build_problem(x0, [ref] * (horizon + 1), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    return x0, ref, problem


class TestBuildProblem:
    def test_builds_with_matching_refs(self):
        _, _, problem = hover_setup()
        assert problem.params.horizon == 20
        assert len(problem.refs) == 21

    def test_reference_length_mismatch(self):
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        ref = ReferencePoint(np.zeros(2), 2.0, np.zeros(3), g.quat_identity())
        with pytest.raises(BadReferenceLength):
            build_problem(x0, [ref] * 5, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams(horizon=20))

    def test_invalid_initial_distance(self):
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        object.__setattr__(x0, "d", -1.0)
        ref = ReferencePoint(np.zeros(2), 2.0, np.zeros(3), g.quat_identity())
        with pytest.raises(InvalidInitialState):
            build_problem(x0, [ref] * 21, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())

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
        refs = [
            ReferencePoint(rng.uniform(-0.5, 0.5, 2), rng.uniform(1, 8), rng.uniform(-2, 2, 3), random_quat(rng))
            for _ in range(n)
        ]
        w, q_bc, dt = CostWeights(), DEFAULT_EXTRINSICS.q_bc, 0.05
        j_res, j_s = _stage_jacobians(x, _RefArrays.stack(refs), w, q_bc, dt)
        for k in range(n):
            j_res_k, j_s_k = _stage_jacobians(x[k : k + 1], _RefArrays.stack(refs[k : k + 1]), w, q_bc, dt)
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
            outputs = _stage_outputs(x, problem.ref_arrays, problem.weights, ext.q_bc, problem.params.dt)
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
            z, lam_lo, lam_hi, slack, viol = _solve_step_qp(
                h_mat, g_vec, lb, ub, np.zeros((0, n)), np.zeros(0), np.zeros(0), np.zeros(0), 200.0, 1e-10, 60
            )
            want = box_qp_oracle(h_mat, g_vec, lb, ub)
            assert np.max(np.abs(z - want)) < 1e-8
            assert lam_lo.shape == lam_hi.shape == slack.shape == (0,)
            assert viol == 0.0
            n_active += int(np.any((want == lb) | (want == ub)))
        assert n_active > 50


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

    def hover_refs(self):
        return [ReferencePoint(np.zeros(2), 1.9, np.zeros(3), g.quat_identity())] * 21

    def test_near_hover_input_at_equilibrium(self):
        u, sol = self.controller().step(self.hover_measurement(), self.hover_refs())
        assert abs(u.c - 9.81) < 0.1
        assert np.linalg.norm(u.omega_b) < 0.01

    def test_warm_start_stability(self):
        ctrl = self.controller()
        u1, _ = ctrl.step(self.hover_measurement(), self.hover_refs())
        u2, _ = ctrl.step(self.hover_measurement(), self.hover_refs())
        assert np.max(np.abs(u1.as_vector() - u2.as_vector())) < 1e-6

    def test_bitwise_determinism(self):
        meas = QuadVisualState([0.3, -0.1, 0.0], g.quat_yaw(0.1), g.bearing_from_image([0.2, 0.05]), 5.0)
        refs = [ReferencePoint(np.zeros(2), 2.0, np.zeros(3), g.quat_identity())] * 21
        c1, c2 = self.controller(), self.controller()
        for _ in range(3):
            u1, s1 = c1.step(meas, refs)
            u2, s2 = c2.step(meas, refs)
            assert np.array_equal(u1.as_vector(), u2.as_vector())
            assert np.array_equal(s1.inputs, s2.inputs)

    def test_failsafe_uses_queue_then_hover(self, monkeypatch):
        ctrl = self.controller()
        meas, refs = self.hover_measurement(), self.hover_refs()
        u_good, sol_good = ctrl.step(meas, refs)
        assert sol_good.status is not SolveStatus.INFEASIBLE
        queued = [q.copy() for q in ctrl._queue]

        import quadvpc.ocp as ocp_mod

        def fake_solve(problem, warm=None):
            from quadvpc.ocp import _Workspace, _infeasible_solution

            u = np.tile(ControlInput.hover().as_vector(), (problem.params.horizon, 1))
            return _infeasible_solution(u, _Workspace(u, problem), [], 1, problem)

        monkeypatch.setattr(ocp_mod, "solve", fake_solve)
        u_fb, sol_fb = ctrl.step(meas, refs)
        assert sol_fb.status is SolveStatus.INFEASIBLE
        assert np.allclose(u_fb.as_vector(), queued[0])
        ctrl._queue = []
        u_hover, _ = ctrl.step(meas, refs)
        assert u_hover.c == pytest.approx(9.81)
        assert np.allclose(u_hover.omega_b, 0)


class TestSmallInstanceOptimality:
    def test_solver_beats_random_multistart(self, rng):
        # N = 3 instance: the solver objective must not be worse than the
        # best of a dense random sample over the input box (rolled out)
        horizon = 3
        x0 = QuadVisualState([0.2, 0.1, -0.1], g.quat_identity(), g.bearing_from_image([0.05, -0.1]), 3.0)
        ref = ReferencePoint(np.zeros(2), 2.5, np.zeros(3), g.quat_identity())
        params = OcpParams(horizon=horizon, max_sqp_iters=60, sqp_tol=1e-8)
        problem = build_problem(x0, [ref] * (horizon + 1), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
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
