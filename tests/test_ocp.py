import itertools
import warnings

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc import ocp
from quadvpc.config import default_config
from quadvpc.costs import Bounds, CostWeights, ReferencePoint
from quadvpc.dynamics import ControlInput, QuadVisualState, rk4_jacobians
from quadvpc.ocp import (
    BadReferenceLength,
    InvalidInitialState,
    OcpParams,
    OcpSolution,
    VisualPredictiveController,
    _cone,
    _hinge,
    _reduced_model,
    _rollout,
    _solve_step_qp,
    _stage_outputs,
    _Workspace,
    build_problem,
    shift_warm_start,
    solve,
)
from quadvpc.scenarios import GATE_POSES, scenario_gate_reaching
from quadvpc.simulator import DEFAULT_EXTRINSICS, Landmark, NoiseModel, PlantState, observe, run_closed_loop

import conftest
from conftest import fd_jacobian_batch, random_quat, rk4_flat, rk4_flat_step, rk4_stages, stage_jacobians, take_reference


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
    @pytest.mark.parametrize(
        "kw",
        [
            {"horizon": 0},
            {"dt": 0.0},
            {"max_sqp_iters": 0},
            {"sqp_tol": 0.0},
            {"sqp_tol": -1e-6},
            {"sqp_tol": float("nan")},
            {"constraint_margin": -0.01},
            {"dt": float("nan")},
            {"dt": float("inf")},
            {"sqp_tol": float("inf")},
            {"constraint_margin": float("nan")},
            {"constraint_margin": float("inf")},
            {"horizon": 20.5},
            {"max_sqp_iters": 1.5},
        ],
    )
    def test_rejects_values_that_break_the_solver(self, kw):
        with pytest.raises(ValueError):
            OcpParams(**kw)

    def test_accepts_zero_margin(self):
        assert OcpParams(constraint_margin=0.0).constraint_margin == 0.0

    def test_margin_that_empties_the_cone(self):
        # the default image box is [-1, 1] on both axes
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        narrow = Bounds(s_min=[-1.0, -0.5], s_max=[1.0, 0.5])
        ref = constant_ref(2.0)
        for bounds, margin in ((Bounds(), 1.0), (Bounds(), 1.5), (narrow, 0.5)):
            params = OcpParams(constraint_margin=margin)
            with pytest.raises(ValueError, match="empty visibility cone"):
                build_problem(x0, ref, CostWeights(), bounds, DEFAULT_EXTRINSICS, params)
        problem = build_problem(x0, ref, CostWeights(), narrow, DEFAULT_EXTRINSICS, OcpParams(constraint_margin=0.49))
        # a box 0.02 wide still holds the centred feature
        assert np.isfinite(solve(problem).cost)


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
        j_res, j_s = stage_jacobians(x, ref, w, q_bc, dt)
        for k in range(n):
            j_res_k, j_s_k = stage_jacobians(x[k : k + 1], take_reference(ref, [k]), w, q_bc, dt)
            assert np.array_equal(j_res[k], j_res_k[0])
            assert np.array_equal(j_s[k], j_s_k[0])

    @staticmethod
    def bearing_closed_form(q):
        """``n = R(q) e_z`` and its ``(3, 4)`` derivative, written out.

        On a raw ``q = (w, x, y, z)`` the solver's bearing is the polynomial
        ``(2 (xz + wy), 2 (yz - wx), 1 - 2 (x^2 + y^2))``, the third column
        of the rotation matrix; it depends on nothing else in the state.
        """
        w, x, y, z = q
        n = np.array([2 * (x * z + w * y), 2 * (y * z - w * x), 1 - 2 * (x * x + y * y)])
        dn = 2.0 * np.array([[y, z, w, x], [-x, -w, z, y], [0.0, -2 * x, -2 * y, 0.0]])
        return n, dn

    def test_bearing_block_matches_closed_form(self, rng):
        # bearings anywhere on the sphere, behind the camera too
        n = 21
        x = np.column_stack([rng.uniform(-3, 3, (n, 3)), random_quat(rng, n), random_quat(rng, n), rng.uniform(1.0, 8.0, n)])
        ref = ReferencePoint(rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1, 8, n), rng.uniform(-2, 2, (n, 3)), random_quat(rng, n))
        _, j_n = stage_jacobians(x, ref, CostWeights(), DEFAULT_EXTRINSICS.q_bc, 0.05)
        assert any(self.bearing_closed_form(q)[0][2] < 0.0 for q in x[:, 7:11])
        for k in range(n):
            want = np.zeros((3, 12))
            want[:, 7:11] = self.bearing_closed_form(x[k, 7:11])[1]
            assert np.max(np.abs(j_n[k] - want)) <= 1e-8 * np.max(np.abs(want))

    def test_matches_finite_differences(self, rng):
        # every residual and bearing row, against central differences of
        # _stage_outputs on the raw flat state, each node about its own reference
        n = 21
        x = np.column_stack([rng.uniform(-3, 3, (n, 3)), random_quat(rng, n), random_quat(rng, n), rng.uniform(1.0, 8.0, n)])
        ref = ReferencePoint(rng.uniform(-0.5, 0.5, (n, 2)), rng.uniform(1, 8, n), rng.uniform(-2, 2, (n, 3)), random_quat(rng, n))
        w, q_bc, dt = CostWeights(q_s=[30.0, 20.0]), DEFAULT_EXTRINSICS.q_bc, 0.05
        j_res, j_n = stage_jacobians(x, ref, w, q_bc, dt)
        ref_tiled = take_reference(ref, np.tile(np.repeat(np.arange(n), 12), 2))
        fd = fd_jacobian_batch(lambda z: np.concatenate(_stage_outputs(z, ref_tiled, w, q_bc, dt)[:2], axis=1), x)
        exact = np.concatenate([j_res, j_n], axis=1)
        assert np.max(np.abs(exact - fd) / np.maximum(np.abs(fd), 1.0)) < 1e-7

    def test_cone_rows_match_closed_form(self, rng):
        # with one shooting interval the model's rows are cone @ dn/dq @ B_0
        # exactly, B_0 being the input Jacobian of the RK4 step
        params = OcpParams(horizon=1)
        for _ in range(10):
            x0 = QuadVisualState(rng.uniform(-3, 3, 3), g.quat_exp(rng.uniform(-0.3, 0.3, 3)), random_quat(rng), rng.uniform(1.0, 8.0))
            ref = ReferencePoint(np.zeros(2), np.full(2, 2.0), np.zeros(3), g.quat_identity())
            problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
            u = rng.uniform(problem.bounds.input_lower(), problem.bounds.input_upper(), (1, 4))
            ws = _Workspace(u, problem)
            model = _reduced_model(ws.x, u, problem, ws.outputs, ws.stages)
            _, b_0 = rk4_jacobians(ws.x[:1], u, ws.stages, params.dt, DEFAULT_EXTRINSICS)
            n_1, dn_1 = self.bearing_closed_form(ws.x[1, 7:11])
            cone = _cone(problem)
            want = cone @ dn_1 @ b_0[0, 7:11]
            assert model.vis_rows.shape == (4, 4)
            assert np.max(np.abs(model.vis_rows - want)) <= 1e-8 * np.max(np.abs(want))
            assert np.allclose(model.vis_base, cone @ n_1, rtol=0.0, atol=1e-14)


class TestHoverSolve:
    def test_equilibrium_inputs(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.reason == "kkt"
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
        assert sol.reason == "kkt"
        assert sol.kkt_at_inputs

    def test_zero_slack(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.slack_max == 0.0

    def test_cold_start_clipped_to_the_box(self):
        # hover thrust 9.81 lies below this box: the cold start must not return it
        x0, ref, _ = hover_setup()
        bounds = Bounds(c_min=10.0)
        problem = build_problem(x0, ref, CostWeights(), bounds, DEFAULT_EXTRINSICS, OcpParams())
        sol = solve(problem)
        assert np.all((sol.inputs >= bounds.input_lower()) & (sol.inputs <= bounds.input_upper()))
        assert np.all(sol.inputs[:, 0] == 10.0)

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
        # the last accepted iterate is a best one, and it is the one returned
        assert sol.iter_merits[-1] == min(sol.iter_merits)
        assert sol.iter_merits[-1] == _Workspace(sol.inputs, problem).merit

    def test_step_box(self, monkeypatch):
        # every step QP is boxed by the input box around the iterate,
        # clipped to the constant step box (3, 1, 1, 1) per node
        import quadvpc.ocp as ocp

        _, _, problem = gate_setup(max_sqp_iters=25)
        n = problem.params.horizon
        step_box = np.tile([3.0, 1.0, 1.0, 1.0], n)
        lower, upper = np.tile(problem.bounds.input_lower(), n), np.tile(problem.bounds.input_upper(), n)
        iterates, boxes = [], []
        build, step_qp = ocp._reduced_model, ocp._solve_step_qp

        def model_spy(x, u, problem, outputs, stages):
            iterates.append(u.ravel().copy())
            return build(x, u, problem, outputs, stages)

        def qp_spy(h_mat, g_vec, lb, ub, *args):
            boxes.append((lb.copy(), ub.copy()))
            return step_qp(h_mat, g_vec, lb, ub, *args)

        monkeypatch.setattr(ocp, "_reduced_model", model_spy)
        monkeypatch.setattr(ocp, "_solve_step_qp", qp_spy)
        sol = solve(problem)
        monkeypatch.undo()
        assert len(boxes) == len(iterates) == sol.sqp_iters > 1
        for u, (lb, ub) in zip(iterates, boxes):
            assert np.array_equal(lb, np.maximum(lower - u, -step_box))
            assert np.array_equal(ub, np.minimum(upper - u, step_box))

    def test_no_stale_constants(self):
        # what a solve builds once from its problem (box, cone, weights,
        # camera terms) is its own: a solve of another problem in between
        # leaves a repeated solve bit-identical
        from quadvpc.dynamics import CameraExtrinsics

        def same(a, b):
            assert a.reason == b.reason and a.sqp_iters == b.sqp_iters and a.qp_iters == b.qp_iters
            for name in ("inputs", "states", "cost", "kkt", "slack_max"):
                assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes(), name

        _, _, p1 = gate_setup(max_sqp_iters=3)
        # P2 starts with the feature beyond its own shrunk image box, which
        # P1's box holds, so its slack shows whose cone it was measured on
        x0 = QuadVisualState([0.5, -0.2, 0.1], g.quat_exp([0.05, -0.1, 0.2]), g.bearing_from_image([0.88, -0.2]), 4.0)
        ext = CameraExtrinsics(p_b_cb=[0.1, -0.02, 0.05], q_bc=g.quat_exp([0.1, 0.2, -0.15]))
        bounds = Bounds([-0.8, -0.6], [0.7, 0.9], c_min=3.0, c_max=15.0, omega_min=[-2.0] * 3, omega_max=[2.5] * 3)
        params = OcpParams(horizon=12)
        p2 = build_problem(x0, constant_ref(2.5, 13), CostWeights(), bounds, ext, params)
        warm = np.tile([10.5, 0.2, -0.1, 0.05], (20, 1))
        first, first_warm = solve(p1), solve(p1, warm)
        other = solve(p2)
        assert other.inputs.shape == (12, 4)
        assert np.all((other.inputs >= bounds.input_lower()) & (other.inputs <= bounds.input_upper()))
        _, n_c, _ = _stage_outputs(other.states, p2.ref, p2.weights, ext.q_bc, params.dt)
        assert other.slack_max == np.max(_hinge(n_c[1:], _cone(p2))) > 0.0
        same(solve(p1), first)
        same(solve(p1, warm), first_warm)
        _, _, fresh = gate_setup(max_sqp_iters=3)
        same(solve(fresh), first)

    def test_shooting_consistency(self):
        _, _, problem = gate_setup(max_sqp_iters=10)
        sol = solve(problem)
        for k in range(problem.params.horizon):
            step = rk4_flat_step(sol.states[k], sol.inputs[k], problem.params.dt, problem.extrinsics)
            assert np.max(np.abs(step - sol.states[k + 1])) < 1e-8

    def test_solve_reduces_cost(self):
        _, _, problem = gate_setup(max_sqp_iters=25)
        cold = np.tile(ControlInput.hover().as_vector(), (20, 1))
        sol = solve(problem)
        assert sol.cost < _Workspace(cold, problem).cost - 1.0

    def test_deterministic(self):
        _, _, p1 = gate_setup(max_sqp_iters=5)
        _, _, p2 = gate_setup(max_sqp_iters=5)
        s1, s2 = solve(p1), solve(p2)
        assert np.array_equal(s1.inputs, s2.inputs)
        assert np.array_equal(s1.states, s2.states)
        assert s1.cost == s2.cost


class TestKktResidual:
    def test_perturbed_solution_is_worse(self, rng):
        # one iteration from a perturbed warm start linearises the perturbed
        # inputs, and reports their KKT value
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert sol.reason == "kkt"
        perturbed = sol.inputs + rng.normal(0, 0.2, sol.inputs.shape)
        _, _, one_iter = hover_setup(max_sqp_iters=1)
        one = solve(one_iter, perturbed)
        assert one.sqp_iters == 1
        assert one.kkt > sol.kkt + 1e-3

    def test_feasible_rollout_zero_dynamics_component(self, rng):
        # a rollout trajectory has exact shooting, so only stationarity
        # remains: the solver linearises the very map its rollout steps
        _, _, problem = gate_setup()
        ext = problem.extrinsics
        hover = np.tile(ControlInput.hover().as_vector(), (20, 1))
        inputs = [hover, solve(problem).inputs]
        inputs += [hover + rng.normal(0.0, [2.0, 0.5, 0.5, 0.5], (20, 4)) for _ in range(3)]
        for u in inputs:
            x = _Workspace(u, problem).x
            defects = rk4_flat(x[:-1], u, problem.params.dt, ext.p_b_cb, ext.q_bc) - x[1:]
            assert np.array_equal(defects, np.zeros_like(defects))


class TestKktReport:
    # solve builds one model per SQP iteration and reports the KKT value of
    # the last iterate it linearised, instead of building one more model
    # for the returned inputs
    @staticmethod
    def count_calls(monkeypatch, run):
        import quadvpc.ocp as ocp

        calls = {"models": 0}

        def counted(name, fn):
            def spy(*args):
                calls[name] += 1
                return fn(*args)

            return spy

        monkeypatch.setattr(ocp, "_reduced_model", counted("models", ocp._reduced_model))
        out = run()
        monkeypatch.undo()
        return out, calls

    def test_gate_solve_ends_on_accepted_step(self, monkeypatch):
        _, _, problem = gate_setup(max_sqp_iters=5)
        sol, calls = self.count_calls(monkeypatch, lambda: solve(problem))
        assert calls == {"models": sol.sqp_iters}
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
        assert log.n_ticks == 20 and "infeasible" not in log.reason
        assert calls == {"models": int(np.sum(log.sqp_iters))}


class TestSkippedDefects:
    # solve builds its models without recomputing the stage outputs or the
    # RK4 stages: they are those its workspace evaluated, so the models equal
    # the ones built with fresh outputs and stages (that the defects the
    # models leave out are exactly zero is
    # test_feasible_rollout_zero_dynamics_component)
    @staticmethod
    def solver_models(monkeypatch, run):
        import quadvpc.ocp as ocp

        seen = []
        build = ocp._reduced_model

        def spy(x, u, problem, outputs, stages):
            model = build(x, u, problem, outputs, stages)
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
            outputs = _stage_outputs(x, problem.ref, problem.weights, problem.extrinsics.q_bc, problem.params.dt)
            stages = rk4_stages(x[:-1], u, problem.params.dt, problem.extrinsics)
            fresh = _reduced_model(x, u, problem, outputs, stages)
            assert len(built.vis_rows) > 0
            for name in ("h", "g", "vis_rows", "vis_base"):
                assert np.array_equal(getattr(built, name), getattr(fresh, name))

    def test_gate_iterates(self, monkeypatch):
        _, _, problem = gate_setup(max_sqp_iters=8)
        self.check(self.solver_models(monkeypatch, lambda: solve(problem)))

    def test_fast_tracking_iterates(self, monkeypatch):
        from quadvpc.config import default_config
        from quadvpc.scenarios import scenario_quarter_circle

        cfg = default_config("quarter_circle")
        cfg.duration = 1.0
        self.check(self.solver_models(monkeypatch, lambda: scenario_quarter_circle(cfg, 9.0)))


class TestConvergedTick:
    # an iterate that is a KKT point with zero row multipliers ends the
    # solve before its step QP, and its model never forms h or vis_rows
    @staticmethod
    def spied_solve(monkeypatch, problem, warm):
        """The solve, the models it built and the results of its step QPs."""
        models, qps = [], []
        build, step_qp = ocp._reduced_model, ocp._solve_step_qp

        def model_spy(*args):
            models.append(build(*args))
            return models[-1]

        def qp_spy(*args):
            qps.append(step_qp(*args))
            return qps[-1]

        monkeypatch.setattr(ocp, "_reduced_model", model_spy)
        monkeypatch.setattr(ocp, "_solve_step_qp", qp_spy)
        sol = solve(problem, warm)
        monkeypatch.undo()
        return sol, models, qps

    @staticmethod
    def eager(model, x, u, problem):
        """``h`` and ``vis_rows`` by the formulas that built them with the model."""
        p, ext = problem.params, problem.extrinsics
        n = p.horizon
        a_k, b_k = rk4_jacobians(x[:-1], u, rk4_stages(x[:-1], u, p.dt, ext), p.dt, ext)
        j_res, j_n = stage_jacobians(x, problem.ref, problem.weights, ext.q_bc, p.dt)
        big_m = np.zeros((n, 12, n * 4))
        big_m[0, :, :4] = b_k[0]
        for k in range(1, n):
            np.matmul(a_k[k], big_m[k - 1, :, : k * 4], out=big_m[k, :, : k * 4])
            big_m[k, :, k * 4 : (k + 1) * 4] += b_k[k]
        jm = (j_res[1:] @ big_m).reshape(-1, n * 4)
        h_mat = 2.0 * (jm.T @ jm)
        diag = h_mat.reshape(-1)[:: n * 4 + 1].reshape(n, 4)
        diag += ocp._REG + 2.0 * p.dt * problem.weights.q_u
        return h_mat, ((_cone(problem) @ j_n[1:]) @ big_m).reshape(4 * n, n * 4)

    def test_converged_warm_start_skips_the_qp(self, monkeypatch):
        # an off-equilibrium hover, converged, then warm-started from its own plan
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.2)
        params = OcpParams(max_sqp_iters=25)
        problem = build_problem(x0, constant_ref(1.9), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        first = solve(problem)
        assert first.reason == "kkt" and first.sqp_iters > 1
        sol, models, qps = self.spied_solve(monkeypatch, problem, first.inputs)
        assert sol.reason == "kkt" and sol.kkt_at_inputs
        assert sol.sqp_iters == 1 and sol.qp_iters == 0 and sol.backtracks == 0
        assert qps == [] and len(models) == 1
        model = models[0]
        assert "h" not in model.__dict__ and "vis_rows" not in model.__dict__
        assert np.array_equal(sol.inputs, first.inputs)
        # with the multipliers of this model's own step QP, which leaves
        # every row inactive, the KKT value is the same
        n = params.horizon
        lo, hi = problem.bounds.input_lower(), problem.bounds.input_upper()
        lb = np.maximum(lo - sol.inputs, -ocp._STEP_BOX).ravel()
        ub = np.minimum(hi - sol.inputs, ocp._STEP_BOX).ravel()
        _, lam, _, _, _ = _solve_step_qp(
            model.h, model.g, lb, ub, model.vis_rows, model.vis_base, np.zeros(4 * n),
            ocp._SLACK_WEIGHT, ocp._QP_TOL, ocp._QP_MAX_ITER,
        )
        assert np.all(lam == 0.0)
        assert sol.kkt == ocp._kkt_from_model(sol.inputs, model, lam, sol.slack_max, lo, hi) > 0.0
        h_mat, vis_rows = self.eager(model, sol.states, sol.inputs, problem)
        assert model.h.tobytes() == h_mat.tobytes()
        assert model.vis_rows.tobytes() == vis_rows.tobytes()

    def test_active_rows_still_run_the_qp(self, monkeypatch):
        # warm-started from its own plans, the gate solve converges with
        # cone rows active: zero multipliers do not certify it, so the
        # QP runs on its last iteration as on every other
        _, _, problem = gate_setup(max_sqp_iters=25)
        warm = None
        for _ in range(6):
            sol, models, qps = self.spied_solve(monkeypatch, problem, warm)
            if sol.reason == "kkt":
                break
            warm = sol.inputs
        assert sol.reason == "kkt" and sol.kkt_at_inputs
        assert len(qps) == len(models) == sol.sqp_iters
        lam = qps[-1][1]
        assert np.any(lam > 0.0)
        lo, hi = problem.bounds.input_lower(), problem.bounds.input_upper()
        model = models[-1]
        assert ocp._kkt_from_model(sol.inputs, model, None, sol.slack_max, lo, hi) >= problem.params.sqp_tol
        assert sol.kkt == ocp._kkt_from_model(sol.inputs, model, lam, sol.slack_max, lo, hi) < problem.params.sqp_tol
        h_mat, vis_rows = self.eager(model, sol.states, sol.inputs, problem)
        assert model.h.tobytes() == h_mat.tobytes()
        assert model.vis_rows.tobytes() == vis_rows.tobytes()


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
            z, lam, slack, viol, _ = _solve_step_qp(h_mat, g_vec, lb, ub, np.zeros((0, n)), none, none, 200.0, 1e-10, 60)
            want = box_qp_oracle(h_mat, g_vec, lb, ub)
            assert np.max(np.abs(z - want)) < 1e-8
            assert lam.shape == slack.shape == (0,)
            assert viol == 0.0
            n_active += int(np.any((want == lb) | (want == ub)))
        assert n_active > 50

    def test_overflowing_trials_are_skipped(self):
        # the Newton step is 1e160 long, so the longer trials score NaN
        # (inf - inf) and the shorter ones -inf: a choice that can take a
        # NaN score stops at z = 0
        none = np.zeros(0)
        with np.errstate(over="ignore", invalid="ignore"):
            z = _solve_step_qp(
                np.array([[1.0]]), np.array([-1e160]), np.array([-1e300]), np.array([1e300]),
                np.zeros((0, 1)), none, none, 200.0, 1e-8, 60,
            )[0]
        assert np.isfinite(z[0]) and z[0] > 0.0


def one_sided(h_mat, g_vec, lb, ub, vis_rows, vis_base, vis_lo, vis_hi, rho):
    """The step QP's arguments for a two-sided instance.

    Each row ``lo <= a @ z + base <= hi`` becomes the one-sided rows
    ``-a @ z + (lo - base) <= 0`` and ``a @ z + (base - hi) <= 0``: all the
    lower rows, then all the upper ones.
    """
    return dict(
        h_mat=h_mat, g_vec=g_vec, lb=lb, ub=ub, rho=rho,
        vis_rows=np.vstack([-vis_rows, vis_rows]),
        vis_base=np.concatenate([vis_lo - vis_base, vis_base - vis_hi]),
    )


def l1_objective(z, h_mat, g_vec, vis_rows, vis_base, rho, **_):
    """The exact L1-penalty objective the step QP minimizes, on one-sided rows."""
    return 0.5 * z @ h_mat @ z + g_vec @ z + rho * np.sum(np.maximum(0.0, vis_rows @ z + vis_base))


def l1_kkt_residual(qp, z, lam):
    """Distance of ``(z, lam)`` from the exact L1-penalty KKT conditions of the step QP ``qp``.

    The largest of: the box violation of ``z``, the projected gradient of
    ``h z + g + lamᵀV``, the distance of ``lam`` from ``[0, rho]``, and per
    row ``t = V z + base`` the complementarity of the slack: ``t <= 0``
    where ``lam = 0``, ``t >= 0`` where ``lam = rho`` and ``t = 0`` between.
    """
    lb, ub, rho = qp["lb"], qp["ub"], qp["rho"]
    grad = qp["h_mat"] @ z + qp["g_vec"] + lam @ qp["vis_rows"]
    t = qp["vis_rows"] @ z + qp["vis_base"]
    comp = np.where(lam == 0.0, t, np.where(lam == rho, -t, np.abs(t)))
    parts = [lb - z, z - ub, np.abs(z - np.clip(z - grad, lb, ub)), -lam, lam - rho, comp]
    return max(0.0, *(float(np.max(p, initial=0.0)) for p in parts))


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
    obj = one_sided(h_mat, g_vec, lb, ub, vis_rows, vis_base, vis_lo, vis_hi, rho)
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
        # change the answer; rows may be infeasible inside the box.  Each
        # two-sided instance goes in as its stacked one-sided rows
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
            rows = one_sided(**qp)
            for lam in [np.zeros(2 * m), rng.uniform(0.0, rho, 2 * m)]:
                z, _, slack, viol, _ = _solve_step_qp(**rows, lam=lam, tol=1e-10, max_iter=60)
                assert np.all(z >= qp["lb"]) and np.all(z <= qp["ub"])
                assert abs(l1_objective(z, **rows) - f_want) <= 1e-8 * max(1.0, abs(f_want))
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
        rows = one_sided(**qp)
        z, lam, _, _, _ = _solve_step_qp(**rows, lam=np.zeros(4), tol=1e-10, max_iter=60)
        lam_hi = lam[2:]
        cap = 1.0 + 1e6 * rho * 9.0  # h + mu a a^T with mu at its cap
        assert cap * (1.0 - 1e-12) <= max(largest) <= cap * (1.0 + 1e-12)
        assert abs(l1_objective(z, **rows) - f_want) <= 1e-8 * max(1.0, abs(f_want))
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
        rows = one_sided(**qp)
        z = _solve_step_qp(**rows, lam=np.zeros(4), tol=1e-10, max_iter=60)[0]
        assert abs(l1_objective(z, **rows) - f_want) <= 1e-8 * max(1.0, abs(f_want))

    def test_gate_tail_instance(self, gate_tail_qp):
        # the model of tick 4 of the first gate pose, with its 4 N = 80 rows
        qp = gate_tail_qp
        assert qp["vis_rows"].shape == (80, 80)
        runs = [_solve_step_qp(**qp, lam=np.zeros(80)) for _ in range(2)]
        z = runs[0][0]
        assert np.all(np.isfinite(z))
        assert np.all(z >= qp["lb"]) and np.all(z <= qp["ub"])
        assert l1_objective(z, **qp) <= l1_objective(np.clip(np.zeros(80), qp["lb"], qp["ub"]), **qp)
        for a, b in zip(*runs):
            assert np.array_equal(a, b)

    def test_gate_tail_kkt(self, gate_tail_qp):
        # the exact L1-penalty optimality conditions: stationarity of the
        # box problem with the row multipliers, which lie in [0, rho] and
        # sit at 0 on satisfied rows and at rho on violated ones
        qp = gate_tail_qp
        z, lam, _, _, _ = _solve_step_qp(**qp, lam=np.zeros(80))
        grad = qp["h_mat"] @ z + qp["g_vec"] + lam @ qp["vis_rows"]
        assert np.max(np.abs(z - np.clip(z - grad, qp["lb"], qp["ub"]))) < 1e-10
        assert np.all(lam >= 0.0) and np.all(lam <= qp["rho"])
        t = qp["vis_rows"] @ z + qp["vis_base"]
        assert np.all(lam[t < -1e-9] == 0.0)
        assert np.all(lam[t > 1e-9] == qp["rho"])

    def test_gate_flight_qp_steps(self):
        # ticks 2-10 of a gate flight set the solve tail; a search that
        # takes the longest decreasing trial spends 329 steps on these 12,
        # and the augmented Lagrangian without a finishing solve 229
        cfg = default_config("gate_reaching")
        cfg.duration = 0.6
        log = scenario_gate_reaching(cfg, poses=GATE_POSES[:1])[0]["log"]
        assert log.n_ticks == 12
        assert int(np.sum(log.qp_iters)) <= 150

    def test_gate_flight_kkt(self, gate_flight_qps):
        # every step QP of the gate flights' first ticks ends on the exact
        # L1-penalty KKT point, not only within tol of it
        assert len(gate_flight_qps) == 60
        for qp, (z, lam, _, _, _) in gate_flight_qps:
            assert l1_kkt_residual(qp, z, lam) <= 1e-12

    def test_rejected_candidate_is_not_returned(self, gate_tail_qp, monkeypatch):
        # on this instance the first finishing solve misses the KKT point;
        # the passes go on and a later finishing solve reaches it
        qp = dict(gate_tail_qp, lam=np.zeros(80))
        candidates = []
        active_set_solve = ocp._active_set_solve

        def spy(*args):
            candidates.append(active_set_solve(*args))
            return candidates[-1]

        monkeypatch.setattr(ocp, "_active_set_solve", spy)
        z, lam, _, _, _ = _solve_step_qp(**qp)
        rejected = [zc for zc, lc in candidates if l1_kkt_residual(qp, zc, lc) >= qp["tol"]]
        assert rejected and len(rejected) < len(candidates)
        assert not any(np.array_equal(z, zc) for zc in rejected)
        assert l1_kkt_residual(qp, z, lam) <= 1e-12

    @pytest.mark.parametrize(
        "z_c, lam_c",
        [
            ([-0.5, -1.0], [0.4]),  # projected gradient 0.1
            ([-0.5, -1.0 - 1e-12], [0.5]),  # 1e-12 below the box
            ([0.0, -1.0], [0.0]),  # t = 0.5 > 0 at multiplier 0
            ([-1.0, -1.0], [1.0]),  # t = -0.5 < 0 at multiplier rho
            ([-0.3, -1.0], [0.3]),  # t = 0.2 at a multiplier between
        ],
    )
    def test_spoiled_candidate_is_rejected(self, monkeypatch, z_c, lam_c):
        # the optimum has z0 on the row's kink, multiplier 0.5, and z1 on its
        # lower bound.  Each candidate breaks one KKT condition and meets the
        # others; it is never returned, and the passes alone reach the optimum
        # to their own stop, a multiplier change below 1e-8
        qp = dict(
            h_mat=np.eye(2), g_vec=np.array([0.0, 2.0]), lb=np.full(2, -1.0), ub=np.full(2, 1.0),
            vis_rows=np.array([[1.0, 0.0]]), vis_base=np.array([0.5]), rho=1.0,
            lam=np.zeros(1), tol=1e-10, max_iter=60,
        )
        candidate = np.array(z_c), np.array(lam_c)
        calls = []
        monkeypatch.setattr(ocp, "_active_set_solve", lambda *args: calls.append(args) or candidate)
        z, lam, _, _, _ = _solve_step_qp(**qp)
        assert calls
        assert not np.array_equal(z, candidate[0])
        assert z == pytest.approx([-0.5, -1.0], abs=1e-8)
        assert l1_kkt_residual(qp, z, lam) < 1e-8

    def test_singular_finishing_system(self):
        # two equal rows held at t = 0 make the KKT matrix singular: no
        # candidate, and the passes reach the kink z = 1 with the
        # multipliers' sum 1 split evenly
        qp = dict(
            h_mat=np.array([[1.0]]), g_vec=np.array([-2.0]), lb=np.array([-1.0]), ub=np.array([2.0]),
            vis_rows=np.array([[1.0], [1.0]]), vis_base=np.array([-1.0, -1.0]), rho=200.0,
        )
        sets = dict(z=np.array([1.0]), grad=np.array([0.0]), f=np.array([1.0, 1.0]))
        assert ocp._active_set_solve(**qp, **sets) is None
        z, lam, _, _, _ = _solve_step_qp(**qp, lam=np.zeros(2), tol=1e-10, max_iter=60)
        assert z == pytest.approx([1.0], abs=1e-9)
        assert lam == pytest.approx([0.5, 0.5], abs=1e-6)


class TestStepQpByteOracle:
    # the step QP against its earlier formulation, kept verbatim in conftest
    # as conftest.reference_solve_step_qp: every output of every step QP of
    # a gate flight and a fast track is equal on bytes, which also tells
    # -0.0 from 0.0
    @staticmethod
    def ending(qp, result, candidates):
        """How the reference run of ``qp`` that returned ``result`` ended."""
        z, lam = result[:2]
        if any(c is not None and c[0] is z for c in candidates):
            return "finishing_solve"
        grad = qp["h_mat"] @ z + qp["g_vec"] + lam @ qp["vis_rows"]
        if np.max(np.abs(z - np.clip(z - grad, qp["lb"], qp["ub"]))) < qp["tol"]:
            return "projected_gradient"
        return "other"

    def test_flight_qps_match_reference_bytes(self, oracle_flight_qps, monkeypatch):
        candidates = []
        finishing = conftest.reference_active_set_solve

        def spy(*args):
            candidates.append(finishing(*args))
            return candidates[-1]

        monkeypatch.setattr(conftest, "reference_active_set_solve", spy)
        endings, steps = [], []
        for qp, got in oracle_flight_qps:
            candidates.clear()
            want = conftest.reference_solve_step_qp(**qp)
            assert [type(v) for v in got] == [type(v) for v in want]
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
            endings.append(self.ending(qp, want, candidates))
            steps.append(want[4])
        # the capture holds QPs of every kind, so the comparison is not vacuous
        assert endings.count("finishing_solve") > 0
        assert endings.count("projected_gradient") > 0
        assert max(steps) >= 10

    def test_passes_alone_match_reference_bytes(self, oracle_flight_qps, monkeypatch):
        # a finished QP's output depends only on its final sets; without the
        # finishing solves every step of the passes, and each growth of mu,
        # shows in the outputs
        monkeypatch.setattr(conftest, "reference_active_set_solve", lambda *args: None)
        monkeypatch.setattr(ocp, "_active_set_solve", lambda *args: None)
        for qp, _ in oracle_flight_qps:
            want = conftest.reference_solve_step_qp(**qp)
            got = _solve_step_qp(**qp)
            for a, b in zip(got, want):
                assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestShiftWarmStart:
    def test_constant_inputs_unchanged(self):
        _, _, problem = hover_setup()
        sol = solve(problem)
        assert np.allclose(shift_warm_start(sol.inputs[1:], problem.params.horizon), sol.inputs)

    def test_shift_indexing(self):
        _, _, problem = gate_setup(max_sqp_iters=8)
        sol = solve(problem)
        shifted = shift_warm_start(sol.inputs[1:], problem.params.horizon)
        assert np.array_equal(shifted[:-1], sol.inputs[1:])
        assert np.array_equal(shifted[-1], sol.inputs[-1])

    def test_matches_reference_bytes(self, rng):
        # against conftest.reference_shift_warm_start, which padded by np.vstack and np.tile
        plan = rng.normal(size=(20, 4))
        plan[3] = [0.0, -0.0, 0.0, -0.0]
        for k in range(1, 21):
            got = shift_warm_start(plan[20 - k :], 20)
            assert got.tobytes() == conftest.reference_shift_warm_start(plan[20 - k :], 20).tobytes()


class TestStageByteOracle:
    # the stage outputs and Jacobians against conftest.reference_stage_outputs
    # and reference_stage_jacobians, which take every quaternion product
    # again: equal on bytes at every linearised iterate of a gate flight and
    # of a fast track, under the flown camera mounting and the identity one
    @pytest.mark.parametrize("camera", ["flown", "identity"])
    def test_flight_iterates_match_reference_bytes(self, oracle_flight_models, camera):
        assert len(oracle_flight_models) > 80
        for x, problem in oracle_flight_models:
            q_bc = problem.extrinsics.q_bc if camera == "flown" else g.quat_identity()
            args = (x, problem.ref, problem.weights, q_bc, problem.params.dt)
            res, n_c, parts = _stage_outputs(*args)
            want_res, want_n = conftest.reference_stage_outputs(*args)
            assert res.tobytes() == want_res.tobytes()
            assert n_c.tobytes() == want_n.tobytes()
            for got, want in zip(ocp._stage_jacobians(*args, parts), conftest.reference_stage_jacobians(*args)):
                assert got.tobytes() == want.tobytes()

    def test_camera_constants_per_rotation(self):
        # conj(q_bc) and the sandwich are built once per rotation, read-only,
        # and a signed zero is a rotation of its own
        plus, minus = np.array([1.0, 0.0, 0.0, 0.0]), np.array([1.0, -0.0, 0.0, 0.0])
        q_cb, sandwich = ocp._camera_sandwich(plus.tobytes())
        assert ocp._camera_sandwich(plus.tobytes())[1] is sandwich
        assert q_cb.tobytes() == g.quat_conj(plus).tobytes()
        assert ocp._camera_sandwich(minus.tobytes())[0].tobytes() == g.quat_conj(minus).tobytes()
        assert not (q_cb.flags.writeable or sandwich.flags.writeable)


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

    def test_horizon_one_cold_starts(self):
        # a one-node solve leaves no unapplied input, so every tick cold-starts
        ctrl = VisualPredictiveController(CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams(horizon=1))
        x0, ref, _ = hover_setup(horizon=1)
        for _ in range(2):
            _, sol = ctrl.step(x0, ref)
            assert sol.reason != "infeasible"
            assert ctrl._plan.shape == (0, 4)

    def test_failsafe_follows_the_plan_then_hover(self, monkeypatch):
        # after k infeasible ticks in a row the controller applies row k of
        # the last feasible plan and warm-starts from its rows k..., the last
        # one repeated; once the plan runs out it applies hover and
        # cold-starts
        ctrl = self.controller()
        n = ctrl.params.horizon
        x0, ref, _ = gate_setup()
        _, sol = ctrl.step(x0, ref)
        plan = sol.inputs
        assert sol.reason != "infeasible"
        assert len(np.unique(plan, axis=0)) == n  # every row differs

        warms = []

        def infeasible_solve(problem, warm=None):
            warms.append(warm)
            return OcpSolution(np.zeros((n, 4)), np.zeros((n + 1, 12)), np.nan, np.inf, 0, "infeasible")

        monkeypatch.setattr(ocp, "solve", infeasible_solve)
        for k in range(1, n):
            u, sol = ctrl.step(x0, ref)
            assert sol.reason == "infeasible"
            assert np.array_equal(u.as_vector(), plan[k])
            assert np.array_equal(warms[-1], np.vstack([plan[k:], np.tile(plan[-1], (k, 1))]))
        for _ in range(2):
            u, _ = ctrl.step(x0, ref)
            assert np.array_equal(u.as_vector(), ControlInput.hover().as_vector())
            assert warms[-1] is None


# Case 37 of test_dynamics.py::TestOneKernel::test_rollout_matches_sequential_flat_oracle,
# rounded to 4 digits: its rollout reaches the distance floor at node 12, and
# the next RK4 step leaves the floor for a distance of about 1e49, then NaN.
DIVERGING_X0 = [4.6451, -3.6787, -2.5849, -0.0732, -0.5583, 0.597, -0.5715, -0.337, -0.4565, 0.6951, -0.4416, 5.7187]
DIVERGING_U = np.array([
    [19.0943, -0.1878, -0.9573, -0.1559],
    [5.1874, -2.5752, 1.1249, 0.5024],
    [18.0355, 2.1951, -0.544, 1.1837],
    [10.0269, 2.9366, 0.6274, -0.5169],
    [3.2199, -1.0296, -2.7402, -1.0527],
    [18.1383, -1.7409, -0.9083, -2.6019],
    [17.8203, 1.7831, -2.7236, -2.9484],
    [4.8799, 2.492, -1.2169, -0.0937],
    [18.4705, -2.4404, -0.4843, -1.5799],
    [8.5016, -2.7866, -0.8481, 1.046],
    [13.388, -2.4677, 0.9898, -1.7197],
    [15.6742, 0.0854, 1.6885, 2.6836],
    [9.3158, -2.7075, 0.7937, -1.5262],
    [14.3289, -2.6793, -2.9682, 2.0055],
    [13.0258, -1.6997, -2.0764, -0.4836],
    [11.7308, -1.0692, 2.4419, -2.6979],
    [6.6374, 1.9326, 0.8228, 1.9911],
    [16.6818, -1.1843, -1.7259, -2.7432],
    [8.2017, 1.1814, -0.1788, -2.3293],
    [4.2439, 2.393, 1.0182, 2.2347],
])


def diverging_state() -> QuadVisualState:
    return QuadVisualState(DIVERGING_X0[0:3], DIVERGING_X0[3:7], DIVERGING_X0[7:11], DIVERGING_X0[11])


class TestDivergedWarmStart:
    # a warm start whose rollout is not finite restarts once from hover,
    # whose rollout from the same state stays finite; the diverged rollout
    # is rejected without a numpy warning
    @staticmethod
    def rollout_finite(problem, u):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _rollout(problem.x0.as_vector(), u, problem.params.dt, problem.extrinsics)
        return bool(np.all(np.isfinite(x)))

    def test_solve_restarts_from_hover(self):
        x0 = diverging_state()
        problem = build_problem(x0, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())
        assert not self.rollout_finite(problem, DIVERGING_U)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem, DIVERGING_U)
        assert sol.reason != "infeasible"
        assert np.all(np.isfinite(sol.inputs)) and np.all(np.isfinite(sol.states))
        assert np.all(sol.inputs >= problem.bounds.input_lower()) and np.all(sol.inputs <= problem.bounds.input_upper())
        # the restart is the cold start
        assert np.array_equal(sol.inputs, solve(problem).inputs)

    def test_controller_step(self):
        ctrl = VisualPredictiveController(CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())
        x0 = diverging_state()
        # the last feasible solve left these inputs unapplied
        ctrl._plan = DIVERGING_U[:-1]
        problem = build_problem(x0, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, ctrl.params)
        assert not self.rollout_finite(problem, shift_warm_start(ctrl._plan, ctrl.params.horizon))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, sol = ctrl.step(x0, constant_ref(2.0))
        assert np.all(np.isfinite(u.as_vector()))
        assert sol.reason != "infeasible"


class TestLeavingView:
    # 3 m behind the landmark's plane, flying forward at 3 m/s and sideways
    # at 1 m/s: under the hover start the predicted feature drifts out of
    # the image and, at the last two nodes, behind the camera, so the first
    # model starts with a positive cone violation
    plant0 = PlantState(p_w=[3.0, 0.0, 3.0], v_w=[3.0, 1.0, 0.0], q_wb=g.quat_yaw(0.2))
    bounds = Bounds()

    def problem(self):
        meas = observe(self.plant0, Landmark(), DEFAULT_EXTRINSICS, NoiseModel(), np.random.default_rng(0))
        ref = ReferencePoint(np.zeros(2), np.full(21, meas.d), np.zeros(3), g.quat_identity())
        return build_problem(meas, ref, CostWeights(), self.bounds, DEFAULT_EXTRINSICS, OcpParams())

    def test_hover_start_leaves_view(self):
        ws = _Workspace(np.tile(ControlInput.hover().as_vector(), (20, 1)), self.problem())
        assert ws.finite and ws.viol_sum > 1.0
        assert np.min(ws.outputs[1][:, 2]) < 0.0

    def test_solve_recovers(self):
        problem = self.problem()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem)
        assert sol.reason != "infeasible"
        assert sol.slack_max < 1e-3
        assert sol.cost < _Workspace(np.tile(ControlInput.hover().as_vector(), (20, 1)), problem).cost

    def test_closed_loop_keeps_feature(self):
        ref = self.problem().ref
        ctrl = VisualPredictiveController(CostWeights(), self.bounds, DEFAULT_EXTRINSICS, OcpParams())
        log = run_closed_loop(
            ctrl, lambda t: ref, self.plant0, Landmark(), DEFAULT_EXTRINSICS, NoiseModel(),
            duration=1.0, dt=0.05, sensor_bounds=(self.bounds.s_min, self.bounds.s_max),
        )
        assert log.outcome == "success" and log.n_ticks == 20
        assert "infeasible" not in log.reason


class TestFlyingIntoLandmark:
    # 4 m in front of the landmark, flying straight at it at 4 m/s: the
    # hover start reaches the distance floor, and its model's step QP
    # returns a step too small to descend; the solve must not report that
    # as converged, since the KKT residual there is far from zero
    def test_not_converged(self):
        plant0 = PlantState(p_w=[2.0, 0.0, 3.0], v_w=[4.0, 0.0, 0.0], q_wb=g.quat_identity())
        meas = observe(plant0, Landmark(), DEFAULT_EXTRINSICS, NoiseModel(), np.random.default_rng(0))
        assert meas.d == pytest.approx(3.9)
        params = OcpParams()
        problem = build_problem(meas, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem)
        assert sol.kkt > params.sqp_tol
        assert sol.reason == "no_descent" and sol.sqp_iters == 1


class TestStopReason:
    # each exit of solve has its own reason

    def test_hover_equilibrium_kkt(self):
        _, _, problem = hover_setup()
        assert solve(problem).reason == "kkt"

    def test_one_step_budget(self):
        _, _, problem = gate_setup(max_sqp_iters=1)
        sol = solve(problem)
        assert sol.reason == "budget"
        assert sol.sqp_iters == 1 and len(sol.iter_merits) == 2

    def test_tiny_steps(self):
        _, _, problem = gate_setup(max_sqp_iters=25)
        sol = solve(problem)
        assert sol.reason == "tiny_steps"
        assert sol.sqp_iters < 25

    def test_infeasible_start(self):
        # 0.5 m from the landmark, flying at it at 2 m/s: the hover rollout
        # reaches the distance floor and then turns non-finite
        x0 = QuadVisualState([2.0, 0.0, 0.0], g.quat_identity(), g.quat_identity(), 0.5)
        problem = build_problem(x0, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = solve(problem)
        assert sol.reason == "infeasible"
        assert sol.sqp_iters == 0

    def test_infeasible_step(self, monkeypatch):
        # a step QP that returns a non-finite step ends the solve as infeasible
        import quadvpc.ocp as ocp

        step_qp = ocp._solve_step_qp

        def nan_step(*args):
            z, *rest = step_qp(*args)
            return (np.full_like(z, np.nan), *rest)

        monkeypatch.setattr(ocp, "_solve_step_qp", nan_step)
        _, _, problem = gate_setup()
        sol = solve(problem)
        assert sol.reason == "infeasible"
        # the exit reports the step-QP work it spent
        assert sol.kkt == np.inf and sol.sqp_iters == 1 and sol.qp_iters > 0

    @pytest.mark.parametrize("budget", [1, 5, 25])
    def test_backtracks_count_rejected_trials(self, monkeypatch, budget):
        # every rollout after the start is a line-search trial, accepted or
        # rejected; from this sinking, tilted start some are rejected
        import quadvpc.ocp as ocp

        rollouts = []
        workspace = ocp._Workspace

        def spy(u, problem):
            rollouts.append(u)
            return workspace(u, problem)

        monkeypatch.setattr(ocp, "_Workspace", spy)
        x0 = QuadVisualState([-1.6, -0.62, -3.77], g.quat_exp([-0.3, 0.14, 0.12]), g.bearing_from_image([0.18, -0.19]), 7.98)
        problem = build_problem(
            x0, constant_ref(2.0), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams(max_sqp_iters=budget)
        )
        sol = solve(problem)
        accepted = len(sol.iter_merits) - 1
        assert sol.backtracks > 0
        assert len(rollouts) == 1 + accepted + sol.backtracks


class TestSmallInstanceOptimality:
    def test_solver_beats_random_multistart(self, rng):
        # N = 3 instance: the solver objective must not be worse than the
        # best of a dense random sample over the input box (rolled out)
        horizon = 3
        x0 = QuadVisualState([0.2, 0.1, -0.1], g.quat_identity(), g.bearing_from_image([0.05, -0.1]), 3.0)
        params = OcpParams(horizon=horizon, max_sqp_iters=60, sqp_tol=1e-8)
        problem = build_problem(x0, constant_ref(2.5, horizon + 1), CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        sol = solve(problem)

        lo = problem.bounds.input_lower()
        hi = problem.bounds.input_upper()
        n_samples = 2000
        best = np.inf
        samples = rng.uniform(lo, hi, size=(n_samples, horizon, 4))
        for u in samples:
            best = min(best, _Workspace(u, problem).cost)
        assert sol.cost <= best + 1e-3
