"""Tests of the benchmark's own code.

Run from the repository root:  python3 -m pytest bench
"""

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

# forward camera: optical axis along body +x, image x along body -y, image y along body -z
R_BC = np.array([[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])
Q_BC = np.array([0.5, -0.5, 0.5, -0.5])
P_B_CB = np.array([0.1, 0.0, 0.0])


def yaw(deg):
    h = math.radians(deg) / 2.0
    return np.array([math.cos(h), 0.0, 0.0, math.sin(h)])


def test_rotation_matrix_by_hand():
    assert np.allclose(oracles.rotation_matrix(np.array([1.0, 0.0, 0.0, 0.0])), np.eye(3))
    assert np.allclose(oracles.rotation_matrix(yaw(90.0)) @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0])
    assert np.allclose(oracles.rotation_matrix(Q_BC), R_BC)


def test_projection_straight_ahead_and_off_axis():
    p_w = np.array([[4.0, 0.0, 3.0], [4.0, 0.0, 3.0]])
    q_wb = np.array([yaw(0.0), yaw(0.0)])
    r_c, s, dist = oracles.camera_view(p_w, q_wb, P_B_CB, Q_BC, [6.0, 0.0, 3.0])
    assert np.allclose(r_c[0], [0.0, 0.0, 1.9])
    assert np.allclose(s[0], [0.0, 0.0])
    assert np.isclose(dist[0], 1.9)
    # landmark 1 m to the right (-y) and 1 m below: image right and down
    _, s, dist = oracles.camera_view(p_w[:1], q_wb[:1], P_B_CB, Q_BC, [6.0, -1.0, 2.0])
    assert np.allclose(s[0], [1.0 / 1.9, 1.0 / 1.9])
    assert np.isclose(dist[0], math.sqrt(1.9**2 + 2.0))


def test_projection_yawed_body():
    # facing +y: camera at (0, 0.1, 0); world -x is the body's left, so image x is negative
    _, s, dist = oracles.camera_view(np.zeros((1, 3)), yaw(90.0)[None], P_B_CB, Q_BC, [-0.5, 3.0, 0.0])
    assert np.allclose(s[0], [-0.5 / 2.9, 0.0])
    assert np.isclose(dist[0], math.hypot(0.5, 2.9))


def test_arc_end_by_hand():
    assert np.allclose(oracles.arc_end([6.0, 0.0, 3.0], 8.0, math.pi, -math.pi / 2.0), [6.0, 8.0, 3.0])
    assert np.allclose(oracles.arc_end([0.0, 0.0, 1.0], 4.0, 0.0, math.pi), [-4.0, 0.0, 1.0])


def test_trapezoid_duration_by_hand():
    assert math.isclose(oracles.trapezoid_duration(10.0, 2.0, 1.0), 7.0)  # 2 s ramps, 3 s cruise
    assert math.isclose(oracles.trapezoid_duration(4.0, 10.0, 1.0), 4.0)  # triangle, peak 2 m/s


def test_tail_percentile_needs_ten_beyond():
    assert run.tail_percentile(range(1, 201), 0.95) == 190  # 10 samples beyond
    assert run.tail_percentile(reversed(range(1, 221)), 0.95) == 209  # 11 beyond
    with pytest.raises(ValueError):
        run.tail_percentile(range(1, 200), 0.95)  # 199 samples: only 9 beyond
    assert run.tail_percentile([3.0, 1.0, 2.0, 4.0], 0.5, min_beyond=2) == 2.0


def test_workload_inputs_follow_the_seed_and_never_repeat():
    import workloads

    for cls in workloads.WORKLOADS.values():
        a, b, c = cls(7), cls(7), cls(8)
        first = [a.next_round() for _ in range(3)]
        assert first == [b.next_round() for _ in range(3)]
        assert first[1:] != [c.next_round() for _ in range(3)][1:]
        flat = [str(s) for r in first for s in r]
        assert len(set(flat)) == len(flat)


def test_gate_rounds_are_mirror_symmetric():
    import workloads

    specs = workloads.GateReach(3).next_round()
    for i, j in ((0, 4), (1, 3)):
        x, y, z = specs[i]["position"]
        assert np.allclose(specs[j]["position"], [x, -y, z])
        assert math.isclose(specs[j]["heading_deg"], -specs[i]["heading_deg"])
    assert specs[2]["position"][1] == 0.0 and specs[2]["heading_deg"] == 0.0


def test_hover_poses_see_the_landmark_centred():
    import workloads

    wl = workloads.HoverHold(5)
    cfg = wl.cfg
    for _ in range(4):
        (spec,) = wl.next_round()
        q = yaw(spec["heading_deg"])[None]
        _, s, dist = oracles.camera_view(np.array([spec["position"]]), q, cfg.extrinsics.p_b_cb,
                                         cfg.extrinsics.q_bc, cfg.landmark_position)
        assert np.allclose(s, 0.0, atol=1e-12)
        assert workloads.HOVER_RANGE[0] <= dist[0] <= workloads.HOVER_RANGE[1]


def test_track_speeds_cover_each_stratum():
    import workloads

    lo, hi = workloads.TRACK_SPEEDS
    width = (hi - lo) / workloads.TRACK_FLIGHTS
    for spec_round in (workloads.TrackFast(s).next_round() for s in range(5)):
        for i, spec in enumerate(spec_round):
            assert lo + i * width <= spec["speed"] < lo + (i + 1) * width


def test_tracer_marks_missing_layers_absent_and_restores(monkeypatch):
    import quadvpc.simulator as sim

    layers = {spans.ROOT: [("quadvpc.simulator", "run_closed_loop")],
              "gone": [("quadvpc.simulator", "no_such_function"), ("no_such_module", "f")],
              "simulator.plant_step": [("quadvpc.simulator", "plant_step")]}
    monkeypatch.setattr(spans, "LAYERS", layers)
    original = sim.plant_step
    with spans.Tracer() as tracer:
        assert sim.plant_step is not original
        assert tracer.absent == ["gone"]
    assert sim.plant_step is original


def test_tracer_self_time_excludes_children(monkeypatch):
    import types

    mod = types.ModuleType("fake_layers")
    mod.inner = lambda: sum(range(20000))
    mod.outer = lambda: mod.inner() + mod.inner()
    mod.root = lambda: mod.outer()
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    monkeypatch.setattr(spans, "LAYERS", {spans.ROOT: [("fake_layers", "root")],
                                          "outer": [("fake_layers", "outer")],
                                          "inner": [("fake_layers", "inner")]})
    with spans.Tracer() as tracer:
        mod.inner()  # outside the root span: not counted
        mod.root()
    st = tracer.stats
    assert st["inner"].calls == 2 and st["outer"].calls == 1 and st[spans.ROOT].calls == 1
    assert st["inner"].parents["outer"] == 2
    assert math.isclose(st["outer"].self_time, st["outer"].total - st["inner"].total, rel_tol=1e-9, abs_tol=1e-12)


def _fake_flight(workloads, planned, u, s_c, status, outcome="success"):
    from types import SimpleNamespace

    n = len(u)
    p_w = np.tile([4.0, 0.0, 3.0], (n, 1))
    q_wb = np.tile(yaw(0.0), (n, 1))
    log = SimpleNamespace(n_ticks=n, u=np.asarray(u, float), p_w=p_w, q_wb=q_wb, s_c=np.asarray(s_c, float),
                          status=status, outcome=outcome)
    return workloads.Flight({"case": "fake"}, planned, log)


def test_failed_ticks_count_infeasible_and_unflown():
    import workloads

    hover = [[9.81, 0.0, 0.0, 0.0]] * 3
    f = _fake_flight(workloads, 5, hover, np.zeros((3, 2)), ["converged", "infeasible", "max_iters"], "feature_lost")
    assert (f.infeasible, f.failed, f.complete) == (1, 3, False)


def test_common_check_catches_bad_inputs_and_projections():
    import workloads

    cfg = workloads.HoverHold(0).cfg
    ok = _fake_flight(workloads, 2, [[9.81, 0.0, 0.0, 0.0]] * 2, np.zeros((2, 2)), ["converged"] * 2)
    assert workloads.check_common(cfg, ok) == []
    rate = _fake_flight(workloads, 2, [[9.81, 0.0, 0.0, 3.5]] * 2, np.zeros((2, 2)), ["converged"] * 2)
    assert any("box" in e for e in workloads.check_common(cfg, rate))
    moved = _fake_flight(workloads, 2, [[9.81, 0.0, 0.0, 0.0]] * 2, [[0.0, 0.0], [0.01, 0.0]], ["converged"] * 2)
    assert any("s_c" in e for e in workloads.check_common(cfg, moved))


def test_bracket_scales_average_the_kernel_before_and_after(monkeypatch):
    import clock

    monkeypatch.setattr(clock, "REF_KERNEL_MS", 1.0)
    assert np.allclose(clock.bracket_scales([1.0, 3.0, 2.0]), [0.5, 0.4, 0.5])
    assert np.allclose(clock.bracket_scales([4.0]), [0.25])


def test_clock_scales_each_stretch_by_its_own_kernel_time(monkeypatch):
    import clock

    monkeypatch.setattr(clock, "REF_KERNEL_MS", 1.0)
    c = clock.TickClock()
    # two ticks: kernel at t = 1 s (3 ms) and t = 3 s (1 ms); the first tick's scale is 2 / (3 + 1)
    c.starts, c.ms = [1.0, 3.0], [3.0, 1.0]
    wall, solve = c.scaled(0.0, 5.0, [40.0, 30.0, 20.0])
    # stretches: 1 s before the first kernel and 1.997 s after it at scale 0.5, 1.999 s at scale 1
    assert math.isclose(wall, 0.5 * (1.0 + 1.997) + 1.999)
    assert np.allclose(solve, [20.0, 30.0, 20.0])  # a tick past the last kernel call takes its scale
    empty = clock.TickClock()
    wall, solve = empty.scaled(0.0, 2.0, [5.0])
    assert wall == 2.0 and np.allclose(solve, [5.0])


def test_clock_times_one_kernel_per_observe_and_restores():
    import clock
    import quadvpc.simulator as sim

    original = sim.observe
    with clock.TickClock() as c:
        assert sim.observe is not original
        with pytest.raises(Exception):
            sim.observe()  # the kernel runs, then the real observe refuses the missing arguments
    assert sim.observe is original
    assert len(c.ms) == 1 and c.ms[0] > 0.0
