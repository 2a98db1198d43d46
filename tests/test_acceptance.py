"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
PASS lines inline).  The closed-loop fixtures are session-scoped and
shared between the criteria that audit them.
"""

import time

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc import ocp
from quadvpc.config import default_config
from quadvpc.costs import Bounds, CostWeights, ReferencePoint
from quadvpc.dynamics import CameraTwist, ControlInput, QuadVisualState, propagate_camera_pose
from quadvpc.ocp import OcpParams, _Workspace, build_problem, solve
from quadvpc.outputs import CSV_HEADER, write_run_csv
from quadvpc.scenarios import (
    bearing_prediction_step,
    homogeneous_prediction_step,
    predict_compare,
    scenario_gate_reaching,
    scenario_hover,
    scenario_quarter_circle,
    scenario_success_sweep,
)
from quadvpc.simulator import DEFAULT_EXTRINSICS

from conftest import (
    STAGE_BLOCKS,
    bearing_N,
    composed_dynamics,
    f_jacobians,
    fd_gradient,
    fd_jacobian,
    fd_jacobian_batch,
    kernel_bearing_rates,
    random_quat,
    stage_block,
    stage_block_gradient,
    uncompensated_stage_jacobians,
    uncompensated_stage_outputs,
)


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


# ---------------------------------------------------------------------------
# shared closed-loop artifacts


@pytest.fixture(scope="session")
def hover_result():
    cfg = default_config("hover")
    return cfg, scenario_hover(cfg)


@pytest.fixture(scope="session")
def gate_results():
    cfg = default_config("gate_reaching")
    t0 = time.perf_counter()
    results = scenario_gate_reaching(cfg)
    return cfg, results, time.perf_counter() - t0


@pytest.fixture(scope="session")
def quarter_results():
    cfg = default_config("quarter_circle")
    return cfg, {speed: scenario_quarter_circle(cfg, speed=speed) for speed in (1.0, 3.0, 5.0, 9.0)}


def test_criterion_01_image_dynamics_oracle():
    """Bearing/distance rates of the kernel's bearing block ``dynamics._bearing_f`` vs exact geometric propagation.

    The block that the solver's kernel ``_f`` and the prediction study both run.
    """
    rng = np.random.default_rng(101)
    delta = 1e-4
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        q_cl = random_quat(rng)
        d = rng.uniform(1.0, 10.0)
        v_c = rng.uniform(-3, 3, 3)
        w_c = rng.uniform(-3, 3, 3)
        u_mu, dd = kernel_bearing_rates(q_cl, d, CameraTwist(v_c, w_c))
        n0 = g.bearing_n(q_cl)
        ndot = np.cross(bearing_N(q_cl) @ u_mu, n0)
        lm = n0 * d

        def bearing_dist(t):
            p, q = propagate_camera_pose(np.zeros(3), g.quat_identity(), v_c, w_c, t)
            r = g.quat_rotate(g.quat_conj(q), lm - p)
            dist = np.linalg.norm(r)
            return r / dist, dist

        np_, dp = bearing_dist(delta)
        nm_, dm = bearing_dist(-delta)
        worst = max(worst, float(np.max(np.abs((np_ - nm_) / (2 * delta) - ndot))))
        worst = max(worst, abs((dp - dm) / (2 * delta) - dd))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    report("1", f"1000 configs, max deviation {worst:.2e}, {elapsed:.2f} s")


def test_criterion_02_cross_model_prediction():
    """Bearing vs homogeneous predictions agree and track exact geometry."""
    rng = np.random.default_rng(202)
    dt, n_steps = 0.01, 100
    worst_b = worst_h = worst_mutual = 0.0
    for _ in range(10):
        s0 = rng.uniform(-0.3, 0.3, 2)
        d0 = rng.uniform(3.0, 6.0)
        v_c = rng.uniform(-1.5, 1.5, 3)
        w_c = rng.uniform(-0.6, 0.6, 3)
        tw = CameraTwist(v_c, w_c)
        q_b = g.bearing_from_image(s0)
        lm = g.bearing_n(q_b) * d0
        d_b = d0
        s_h = s0.copy()
        z_h = d0 * g.bearing_n(q_b)[2]
        p_cam, q_cam = np.zeros(3), g.quat_identity()
        for _k in range(n_steps):
            p_cam, q_cam = propagate_camera_pose(p_cam, q_cam, v_c, w_c, dt)
            r = g.quat_rotate(g.quat_conj(q_cam), lm - p_cam)
            if r[2] < 0.3:
                break
            s_true = r[:2] / r[2]
            q_b, d_b = bearing_prediction_step(q_b, d_b, tw, dt)
            n_b = g.bearing_n(q_b)
            s_b = n_b[:2] / n_b[2]
            s_h, z_h = homogeneous_prediction_step(s_h, z_h, tw, dt)
            worst_b = max(worst_b, float(np.linalg.norm(s_b - s_true)))
            worst_h = max(worst_h, float(np.linalg.norm(s_h - s_true)))
            worst_mutual = max(worst_mutual, float(np.linalg.norm(s_b - s_h)))
    assert worst_b < 1e-5
    assert worst_h < 1e-5
    assert worst_mutual < 1e-4
    # the packaged study must agree with the same bounds
    rep = predict_compare(default_config("predict_compare"))
    assert rep["summary"]["max_err_bearing"] < 1e-5
    assert rep["summary"]["max_err_homogeneous"] < 1e-5
    assert rep["summary"]["max_mutual"] < 1e-4
    report("2", f"vs truth {max(worst_b, worst_h):.2e}, mutual {worst_mutual:.2e}")


def test_criterion_03_derivative_checks():
    """Dynamics and cost derivatives vs central finite differences."""
    rng = np.random.default_rng(303)
    ext = DEFAULT_EXTRINSICS
    worst = 0.0
    for _ in range(100):
        x = QuadVisualState(rng.uniform(-5, 5, 3), random_quat(rng), random_quat(rng), rng.uniform(1.0, 10.0))
        u = ControlInput(rng.uniform(2, 20), rng.uniform(-3, 3, 3))
        a, b = f_jacobians(x, u, ext)
        z0 = np.concatenate([x.as_vector(), u.as_vector()])
        jac = fd_jacobian(lambda z: composed_dynamics(z, ext), z0, h=1e-7)
        scale = np.maximum(np.abs(jac), 1.0)
        worst = max(worst, float(np.max(np.abs(np.hstack([a, b]) - jac) / scale)))
    assert worst < 1e-5

    # the solver's own stage-cost gradients, 2 J^T r per objective, against
    # central differences of the same objective on the raw flat state
    w = CostWeights()
    worst_cost = 0.0
    for _ in range(100):
        x = QuadVisualState(
            rng.uniform(-3, 3, 3),
            g.quat_exp(rng.uniform(-0.3, 0.3, 3)),
            g.bearing_from_image(rng.uniform(-0.8, 0.8, 2)),
            rng.uniform(1.0, 8.0),
        )
        ref = ReferencePoint(rng.uniform(-0.5, 0.5, 2), rng.uniform(1, 8), rng.uniform(-2, 2, 3), g.quat_yaw(rng.uniform(-1, 1)))
        for block in STAGE_BLOCKS:
            got = stage_block_gradient(x, ref, w, block)
            ref_g = fd_gradient(lambda z: stage_block(z, ref, w, block)[0], x.as_vector())
            scale = np.maximum(np.abs(ref_g), 1.0)
            worst_cost = max(worst_cost, float(np.max(np.abs(got - ref_g) / scale)))
    assert worst_cost < 1e-5
    report("3", f"dynamics {worst:.2e}, costs {worst_cost:.2e} relative")


def test_criterion_04_hover_fixed_point(hover_result):
    """Solver returns hover at the equilibrium; closed loop holds position."""
    x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 1.9)
    ref = ReferencePoint(np.zeros(2), np.full(21, 1.9), np.zeros(3), g.quat_identity())
    problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())
    sol = solve(problem)
    assert sol.sqp_iters <= 5
    assert abs(sol.inputs[0, 0] - 9.81) < 0.1
    assert np.all(np.linalg.norm(sol.inputs[:, 1:], axis=1) < 0.01)

    cfg, out = hover_result
    log = out["log"]
    drift = float(np.max(np.linalg.norm(log.p_w - log.p_w[0], axis=1)))
    assert log.outcome == "success"
    assert log.t[-1] >= 4.9
    assert drift < 0.1
    report("4", f"|c-9.81|={abs(sol.inputs[0, 0] - 9.81):.1e}, drift {drift:.2e} m over 5 s")


def test_criterion_05_gate_reaching(gate_results):
    """All five initial poses converge within tolerance and stay visible."""
    cfg, results, elapsed = gate_results
    assert len(results) == 5
    for r in results:
        m = r["metrics"]
        log = r["log"]
        assert m.outcome == "success"
        assert m.final_distance_err < 0.3
        assert m.final_image_err < 0.05
        assert np.all(log.s_c >= cfg.bounds.s_min - 1e-12)
        assert np.all(log.s_c <= cfg.bounds.s_max + 1e-12)
    assert elapsed < 120.0
    worst_d = max(r["metrics"].final_distance_err for r in results)
    report("5", f"5/5 converged, worst distance error {worst_d:.3f} m, suite {elapsed:.0f} s")


def test_criterion_06_quarter_circle(quarter_results):
    """3 m/s run completes cleanly; altitude deviation grows with speed; 9 m/s keeps the target in view."""
    cfg, by_speed = quarter_results
    m3 = by_speed[3.0]["metrics"]
    log3 = by_speed[3.0]["log"]
    assert m3.outcome == "success"
    assert m3.rms_distance_err < 0.5
    assert np.all(log3.s_c >= cfg.bounds.s_min) and np.all(log3.s_c <= cfg.bounds.s_max)
    devs = [by_speed[v]["metrics"].max_altitude_dev for v in (1.0, 3.0, 5.0)]
    assert devs[0] < devs[1] < devs[2]
    # the paper's aggressive flight: tracked at 9 m/s without losing the target
    m9 = by_speed[9.0]["metrics"]
    log9 = by_speed[9.0]["log"]
    assert m9.outcome == "success"
    assert np.all(log9.s_c >= cfg.bounds.s_min) and np.all(log9.s_c <= cfg.bounds.s_max)
    report(
        "6",
        f"rms_d@3mps={m3.rms_distance_err:.3f} m, altitude devs {['%.3f' % d for d in devs]}, "
        f"rms_d@9mps={m9.rms_distance_err:.3f} m",
    )


def test_criterion_07_perception_ab_sweep():
    """Perception objective does not hurt the success rate at the top speed."""
    cfg = default_config("success_sweep")
    cfg.sweep.trials = 20
    out = scenario_success_sweep(cfg)
    table = out["table"]
    speeds = sorted(table["with"].keys())
    attempted = [s for s in speeds if table["with"][s] > 0 or table["without"][s] > 0]
    top = max(attempted)
    assert table["with"][top] >= table["without"][top]
    # rates degrade with speed for each mode (shape of the reported table)
    for mode in ("with", "without"):
        rates = [table[mode][s] for s in speeds]
        assert all(a >= b for a, b in zip(rates, rates[1:]))
    lines = ["speed   with  without"]
    for s in speeds:
        lines.append(f"{s:5.1f}  {table['with'][s]:5.0%}  {table['without'][s]:6.0%}")
    report("7", f"top speed {top} m/s: with {table['with'][top]:.0%} >= without {table['without'][top]:.0%}")
    print("\n".join(lines))


def test_criterion_08_feasibility_audit(hover_result, gate_results, quarter_results):
    """Inputs always inside the boxes; KKT below tolerance and slacks zero on converged solves."""
    _, hover_out = hover_result
    _, gate_res, _ = gate_results
    cfg, quarter = quarter_results
    logs = [hover_out["log"]] + [r["log"] for r in gate_res] + [quarter[v]["log"] for v in (1.0, 3.0, 5.0)]
    b = cfg.bounds
    total_inputs = 0
    for log in logs:
        assert np.all(log.u[:, 0] >= b.c_min) and np.all(log.u[:, 0] <= b.c_max)
        assert np.all(log.u[:, 1:] >= b.omega_min) and np.all(log.u[:, 1:] <= b.omega_max)
        total_inputs += log.n_ticks
    converged_slacks = []
    for log in logs:
        for reason, slack, kkt in zip(log.reason, log.slack_max, log.kkt):
            if reason == "kkt":
                assert kkt < cfg.ocp.sqp_tol
                converged_slacks.append(slack)
    converged_slacks = np.array(converged_slacks)
    assert len(converged_slacks) > 0
    zero_frac = float(np.mean(converged_slacks == 0.0))
    assert zero_frac >= 0.99
    report("8", f"{total_inputs} inputs all inside boxes; slacks zero on {zero_frac:.1%} of converged solves")


def test_criterion_09_determinism(tmp_path):
    """Same-seed reruns produce byte-identical artifacts.

    Wall-clock solve times are the one nondeterministic signal; they are
    confined to the solve_ms CSV column and the summary timing section,
    which are masked before comparison.
    """

    def mask_csv(text: str) -> str:
        col = CSV_HEADER.split(",").index("solve_ms")
        out = []
        for line in text.strip().splitlines():
            parts = line.split(",")
            del parts[col]
            out.append(",".join(parts))
        return "\n".join(out)

    # closed-loop artifact
    cfg = default_config("hover")
    cfg.duration = 2.0
    texts = []
    for run in range(2):
        out = scenario_hover(cfg)
        path = write_run_csv(out["log"], tmp_path / f"hover_{run}.csv")
        texts.append(mask_csv(path.read_text()))
    assert texts[0] == texts[1]

    # gate pose artifact
    from quadvpc.scenarios import GATE_POSES

    cfg_g = default_config("gate_reaching")
    cfg_g.duration = 4.0
    gate_texts = []
    for run in range(2):
        res = scenario_gate_reaching(cfg_g, poses=(GATE_POSES[2],))
        path = write_run_csv(res[0]["log"], tmp_path / f"gate_{run}.csv")
        gate_texts.append(mask_csv(path.read_text()))
    assert gate_texts[0] == gate_texts[1]

    # prediction artifact (fully deterministic, no masking needed)
    cfg_p = default_config("predict_compare")
    reps = [predict_compare(cfg_p) for _ in range(2)]
    assert np.array_equal(reps[0]["s_bearing"], reps[1]["s_bearing"])
    assert np.array_equal(reps[0]["s_homogeneous"], reps[1]["s_homogeneous"])

    # sweep cell
    cfg_s = default_config("success_sweep")
    cfg_s.sweep.speeds = (3.0,)
    cfg_s.sweep.trials = 2
    outs = [scenario_success_sweep(cfg_s) for _ in range(2)]
    assert outs[0]["table"] == outs[1]["table"]
    assert outs[0]["records"] == outs[1]["records"]

    report("9", "hover, gate, prediction, sweep artifacts byte-identical (timing masked)")


def test_criterion_10_small_instance_optimality():
    """Solver objective within tolerance of a dense random multi-start bound."""
    rng = np.random.default_rng(1010)
    horizon = 3
    x0 = QuadVisualState([0.2, 0.1, -0.1], g.quat_identity(), g.bearing_from_image([0.05, -0.1]), 3.0)
    ref = ReferencePoint(np.zeros(2), np.full(horizon + 1, 2.5), np.zeros(3), g.quat_identity())
    params = OcpParams(horizon=horizon, max_sqp_iters=80, sqp_tol=1e-9)
    problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    sol = solve(problem)

    lo = problem.bounds.input_lower()
    hi = problem.bounds.input_upper()
    best = np.inf
    for u in rng.uniform(lo, hi, size=(10_000, horizon, 4)):
        best = min(best, _Workspace(u, problem).cost)
    assert sol.cost <= best + 1e-3
    report("10", f"solver {sol.cost:.6f} <= multistart bound {best:.6f} + 1e-3")


def test_criterion_11_rotation_compensation(quarter_results, monkeypatch, rng):
    """Rotation compensation (claim ii) cuts the altitude deviation of the 9 m/s quarter circle severalfold."""
    cfg, by_speed = quarter_results
    # the uncompensated residual's Jacobians are its own, so the flight
    # without compensation runs an exact Gauss-Newton model too
    n = 8
    x = np.column_stack([rng.uniform(-3, 3, (n, 3)), random_quat(rng, n), random_quat(rng, n), rng.uniform(1, 8, n)])
    ref = ReferencePoint(rng.uniform(-0.5, 0.5, 2), 2.0, np.zeros(3), random_quat(rng))
    w, q_bc, dt = CostWeights(q_s=[30.0, 20.0]), DEFAULT_EXTRINSICS.q_bc, 0.05
    fd = fd_jacobian_batch(lambda z: uncompensated_stage_outputs(z, ref, w, q_bc, dt)[0], x)
    parts = uncompensated_stage_outputs(x, ref, w, q_bc, dt)[2]
    assert np.max(np.abs(uncompensated_stage_jacobians(x, ref, w, q_bc, dt, parts)[0] - fd)) < 1e-7

    comp = by_speed[9.0]["metrics"]
    monkeypatch.setattr(ocp, "_stage_outputs", uncompensated_stage_outputs)
    monkeypatch.setattr(ocp, "_stage_jacobians", uncompensated_stage_jacobians)
    plain = scenario_quarter_circle(cfg, speed=9.0)["metrics"]
    assert plain.max_altitude_dev > 4.0 * comp.max_altitude_dev
    assert plain.rms_distance_err > comp.rms_distance_err
    report(
        "11",
        f"9 m/s max altitude dev {comp.max_altitude_dev:.3f} m compensated vs {plain.max_altitude_dev:.3f} m not, "
        f"rms_d {comp.rms_distance_err:.3f} vs {plain.rms_distance_err:.3f} m",
    )
