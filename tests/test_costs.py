from dataclasses import fields, replace
from types import SimpleNamespace

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.costs import (
    Bounds,
    ControlInput,
    CostWeights,
    ReferencePoint,
    clamp_input,
    dynamic_visual_weight,
)
from quadvpc.dynamics import QuadVisualState
from quadvpc.ocp import OcpParams, _cone, _hinge, _reduced_model, _stage_outputs, build_problem
from quadvpc.simulator import DEFAULT_EXTRINSICS

import conftest
from conftest import (
    fd_gradient,
    quat_oracle_from_axis_angle,
    random_quat,
    rk4_stages,
    rotmat_oracle,
    stage_block,
    stage_block_gradient,
)


def make_state(rng, front_only=True):
    if front_only:
        q_cl = g.bearing_from_image(rng.uniform(-0.8, 0.8, 2))
    else:
        q_cl = random_quat(rng)
    return QuadVisualState(
        v_w=rng.uniform(-3, 3, 3),
        q_wb=g.quat_exp(rng.uniform(-0.3, 0.3, 3)),
        q_cl=q_cl,
        d=rng.uniform(1.0, 8.0),
    )


def make_ref(rng):
    return ReferencePoint(
        s_star=rng.uniform(-0.5, 0.5, 2),
        d_star=rng.uniform(1.0, 8.0),
        v_star=rng.uniform(-2, 2, 3),
        q_star=g.quat_yaw(rng.uniform(-1, 1)),
    )


def compensated_image(q_wb, q_cl, q_star=None, q_bc=None):
    """Image residual of the visual servoing block with unit image weight,
    no distance weight and ``s* = 0`` (so ``n* = e_z``): the ``xy`` of the
    rotation-compensated bearing.  The reference attitude and the camera
    mounting default to identity."""
    x = QuadVisualState(np.zeros(3), q_wb, q_cl, 3.0)
    ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity() if q_star is None else q_star)
    w = CostWeights(q_s=np.ones(2), q_d=0.0)
    _, r, _ = stage_block(x, ref, w, "visual_servo", q_bc=q_bc)
    return r[:2]


class TestRotationCompensatedImage:
    def test_identity_attitude_collapses(self, rng):
        q_cl = g.bearing_from_image(np.array([0.3, -0.2]))
        out = compensated_image(g.quat_identity(), q_cl)
        assert np.allclose(out, rotmat_oracle(q_cl)[:2, 2], atol=1e-15)

    def test_yaw_about_bearing_axis_at_center(self):
        q_wb = g.quat_yaw(0.7)
        out = compensated_image(q_wb, g.quat_identity())
        assert np.allclose(out, [0, 0], atol=1e-12)

    def test_pitch_matches_matrix_oracle(self):
        pitch = np.radians(10)
        q_wb = quat_oracle_from_axis_angle([0, 1, 0], pitch)
        out = compensated_image(q_wb, g.quat_identity())
        v = rotmat_oracle(q_wb) @ g.EZ
        assert np.allclose(out, v[:2], atol=1e-12)

    def test_degenerate_raises(self):
        # the compensated bearing points away from the image plane; it is
        # still defined, and still the rotation-matrix oracle's bearing
        q_wb = quat_oracle_from_axis_angle([0, 1, 0], np.pi)
        out = compensated_image(q_wb, g.quat_identity())
        v = rotmat_oracle(q_wb) @ g.EZ
        assert v[2] < 0.0
        assert np.allclose(out, v[:2], atol=1e-12)

    def test_random_matches_matrix_oracle(self, rng):
        # n_comp = R_bc^T R_star^T R_wb R_bc R_cl e_z: the bearing as the
        # camera would see it at the reference attitude, front and back
        for _ in range(50):
            q_wb, q_cl, q_star, q_bc = (random_quat(rng) for _ in range(4))
            out = compensated_image(q_wb, q_cl, q_star, q_bc)
            r_bc = rotmat_oracle(q_bc)
            v = r_bc.T @ rotmat_oracle(q_star).T @ rotmat_oracle(q_wb) @ r_bc @ rotmat_oracle(q_cl) @ g.EZ
            assert np.allclose(out, v[:2], atol=1e-12)


class TestVisualServoCost:
    def test_zero_at_reference(self):
        q_cl = g.bearing_from_image(np.array([0.2, 0.1]))
        x = QuadVisualState(np.zeros(3), g.quat_identity(), q_cl, 3.0)
        ref = ReferencePoint(g.image_from_bearing(q_cl), 3.0, np.zeros(3), g.quat_identity())
        cost, _, _ = stage_block(x, ref, CostWeights(), "visual_servo")
        assert cost == pytest.approx(0.0, abs=1e-18)

    def test_zero_at_reference_with_heading(self):
        # the compensation is relative to the reference attitude, so a
        # yawed reference pose still has exactly zero cost
        psi = 0.6
        q_cl = g.bearing_from_image(np.array([0.2, 0.1]))
        x = QuadVisualState(np.zeros(3), g.quat_yaw(psi), q_cl, 3.0)
        ref = ReferencePoint(g.image_from_bearing(q_cl), 3.0, np.zeros(3), g.quat_yaw(psi))
        cost, _, _ = stage_block(x, ref, CostWeights(), "visual_servo")
        assert cost == pytest.approx(0.0, abs=1e-18)

    def test_single_distance_term(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 4.0)
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        w = CostWeights(q_s=np.zeros(2), q_d=2.0, q_p=np.zeros(2), q_v=np.zeros(3), q_q=np.zeros(4))
        cost, _, _ = stage_block(x, ref, w, "visual_servo")
        assert cost == pytest.approx(2.0)

    def test_quadratic_homogeneity(self):
        # bearings whose x components are 0.1 and 0.2: twice the error, four times the cost
        w = CostWeights(q_s=np.array([1.0, 1.0]), q_d=0.0)
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        x1, x2 = (
            QuadVisualState(np.zeros(3), g.quat_identity(), g.bearing_from_image([n_x / np.sqrt(1.0 - n_x * n_x), 0.0]), 3.0)
            for n_x in (0.1, 0.2)
        )
        c1, _, _ = stage_block(x1, ref, w, "visual_servo")
        c2, _, _ = stage_block(x2, ref, w, "visual_servo")
        assert c2 / c1 == pytest.approx(4.0, rel=1e-9)

    def test_behind_camera_is_finite(self):
        # a feature straight behind the camera: the residuals are the xy of
        # its bearing (0, 0, -1), with no fill; the visibility cone keeps
        # such bearings out instead (test_behind_camera_has_rows)
        q_cl = quat_oracle_from_axis_angle([1, 0, 0], np.pi)
        x = QuadVisualState(np.zeros(3), g.quat_identity(), q_cl, 3.0)
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        cost, r, n = stage_block(x, ref, CostWeights(), "visual_servo")
        _, r_per, _ = stage_block(x, ref, CostWeights(), "perception")
        v = rotmat_oracle(q_cl) @ g.EZ
        assert np.allclose(n, v, atol=1e-15) and n[2] == -1.0
        assert np.allclose(r, [0.0, 0.0, 0.0], atol=1e-15)
        assert np.allclose(r_per, [0.0, 0.0], atol=1e-15)
        assert cost < 1e-30


class TestPerceptionCost:
    def test_zero_at_center(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 3.0)
        assert stage_block(x, None, CostWeights(), "perception")[0] == 0.0

    def test_quadratic_value(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.bearing_from_image([0.5, 0.0]), 3.0)
        w = CostWeights(q_p=np.array([4.0, 4.0]))
        # the bearing of s = (0.5, 0) has n_x = 0.5 / sqrt(1.25)
        assert stage_block(x, None, w, "perception")[0] == pytest.approx(4.0 * 0.25 / 1.25, rel=1e-12)

    def test_invariant_to_attitude(self, rng):
        q_cl = g.bearing_from_image(np.array([0.3, -0.4]))
        w = CostWeights()
        vals = [
            stage_block(QuadVisualState(np.zeros(3), random_quat(rng), q_cl, 3.0), None, w, "perception")[0]
            for _ in range(10)
        ]
        assert np.ptp(vals) == 0.0


class TestActionCost:
    def test_zero_at_reference(self, rng):
        ref = make_ref(rng)
        x = QuadVisualState(ref.v_star, ref.q_star, g.quat_identity(), ref.d_star)
        assert stage_block(x, ref, CostWeights(), "action")[0] == pytest.approx(0.0, abs=1e-18)

    def test_double_cover(self, rng):
        ref = make_ref(rng)
        x = QuadVisualState(ref.v_star, -ref.q_star, g.quat_identity(), ref.d_star)
        assert stage_block(x, ref, CostWeights(), "action")[0] == pytest.approx(0.0, abs=1e-18)

    def test_double_cover_invariance(self, rng):
        ref, x = make_ref(rng), make_state(rng)
        flipped = QuadVisualState(x.v_w, -x.q_wb, x.q_cl, x.d)
        assert stage_block(x, ref, CostWeights(), "action")[0] == stage_block(flipped, ref, CostWeights(), "action")[0]

    def test_velocity_term(self):
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        w = CostWeights(q_v=np.array([3.0, 1.0, 1.0]), q_q=np.zeros(4))
        x = QuadVisualState([1.0, 0, 0], g.quat_identity(), g.quat_identity(), 3.0)
        assert stage_block(x, ref, w, "action")[0] == pytest.approx(3.0)


def assert_gradient_matches_fd(x, ref, w, block):
    """Solver gradient of one block against central differences of the
    same block on the raw flat state."""
    got = stage_block_gradient(x, ref, w, block)
    ref_g = fd_gradient(lambda z: stage_block(z, ref, w, block)[0], x.as_vector())
    scale = np.maximum(np.abs(ref_g), 1.0)
    assert np.max(np.abs(got - ref_g) / scale) < 1e-5


class TestGradients:
    def test_visual_servo_gradient_matches_fd(self, rng):
        for _ in range(40):
            assert_gradient_matches_fd(make_state(rng), make_ref(rng), CostWeights(), "visual_servo")

    def test_perception_gradient_matches_fd(self, rng):
        for _ in range(30):
            assert_gradient_matches_fd(make_state(rng), None, CostWeights(), "perception")

    def test_action_gradient_matches_fd(self, rng):
        for _ in range(30):
            assert_gradient_matches_fd(make_state(rng), make_ref(rng), CostWeights(), "action")

    def test_costs_nonnegative(self, rng):
        for _ in range(50):
            x, ref, w = make_state(rng, front_only=False), make_ref(rng), CostWeights()
            for block in ("visual_servo", "perception", "action"):
                assert stage_block(x, ref, w, block)[0] >= 0.0


class TestDynamicVisualWeight:
    def test_clamp_floor(self):
        base = np.array([2.0, 3.0])
        assert np.allclose(dynamic_visual_weight(1.0, base), base)
        assert np.allclose(dynamic_visual_weight(0.2, base), base)

    def test_square_scaling(self):
        assert np.allclose(dynamic_visual_weight(3.0, np.array([1.0, 1.0])), [9.0, 9.0])

    def test_clamp_ceiling(self):
        assert np.allclose(dynamic_visual_weight(100.0, np.array([1.0, 1.0])), [100.0, 100.0])

    def test_roots_follow_each_problem(self):
        # the roots are cached on the weights object, and build_problem makes
        # a fresh one for each measured distance, so none is stale
        w = CostWeights(q_s=[4.0, 3.0], q_v=[0.8, 0.5, 0.3])
        assert w.roots["q_s"].tobytes() == np.sqrt(w.q_s).tobytes()
        ref = ReferencePoint(np.zeros(2), np.full(21, 2.0), np.zeros(3), g.quat_identity())
        for d in (0.5, 3.0, 7.0, 3.0):
            x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), d)
            w_eff = build_problem(x0, ref, w, Bounds(), DEFAULT_EXTRINSICS, OcpParams()).weights
            for name in ("q_s", "q_d", "q_p", "q_v", "q_q"):
                assert np.asarray(w_eff.roots[name]).tobytes() == np.sqrt(getattr(w_eff, name)).tobytes()
            assert w_eff.roots["q_s"].tobytes() == np.sqrt(w.q_s * min(max(d * d, 1.0), 100.0)).tobytes()
            for name in ("q_v", "q_q"):
                assert w_eff.root_diags[name].tobytes() == np.diag(np.sqrt(getattr(w, name))).tobytes()


    def test_scaled_weights_match_a_checked_copy(self):
        # build_problem scales q_s without running the weights' checks again;
        # every field, root and diagonal is that of the checked copy
        w = CostWeights(q_s=[4.0, 3.0], q_p=[0.5, 1.5], q_u=[0.1, 0.3, 0.2, 0.2])
        w.roots, w.root_diags  # cached on w, and not carried to the copies
        ref = ReferencePoint(np.zeros(2), np.full(21, 2.0), np.zeros(3), g.quat_identity())
        for d in (0.2, 1.9, 6.0, 40.0):
            x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), d)
            got = build_problem(x0, ref, w, Bounds(), DEFAULT_EXTRINSICS, OcpParams()).weights
            want = replace(w, q_s=dynamic_visual_weight(d, w.q_s))
            assert type(got) is CostWeights
            for f in fields(CostWeights):
                assert np.asarray(getattr(got, f.name)).tobytes() == np.asarray(getattr(want, f.name)).tobytes()
            for name in want.roots:
                assert np.asarray(got.roots[name]).tobytes() == np.asarray(want.roots[name]).tobytes()
            for name in want.root_diags:
                assert got.root_diags[name].tobytes() == want.root_diags[name].tobytes()


class TestCostWeights:
    @pytest.mark.parametrize(
        "kw",
        [
            {"q_d": float("nan")},
            {"q_d": float("inf")},
            {"q_s": [float("nan"), 1.0]},
            {"q_s": [1.0, float("inf")]},
            {"q_p": [float("nan"), 1.0]},
            {"q_v": [0.8, float("inf"), 0.8]},
            {"q_q": [1.5, 1.5, 1.5, float("nan")]},
            {"q_u": [0.1, 0.2, float("inf"), 0.2]},
        ],
    )
    def test_rejects_non_finite(self, kw):
        # a NaN weight once built, and its hover flight was infeasible on every tick
        with pytest.raises(ValueError, match="must be nonnegative and finite"):
            CostWeights(**kw)

    @pytest.mark.parametrize("kw", [{"q_d": -1.0}, {"q_s": [-1.0, 1.0]}, {"q_u": [0.1, -0.2, 0.2, 0.2]}])
    def test_rejects_negative(self, kw):
        with pytest.raises(ValueError, match="must be nonnegative"):
            CostWeights(**kw)


class TestReferenceConstants:
    def test_target_bearing_and_conjugate(self, rng):
        ref = ReferencePoint(rng.uniform(-0.8, 0.8, (21, 2)), np.full(21, 2.0), np.zeros(3), random_quat(rng, 21))
        for k in range(21):
            n = np.append(ref.s_star[k], 1.0) / np.linalg.norm(np.append(ref.s_star[k], 1.0))
            assert np.allclose(ref.n_star_xy[k], n[:2], rtol=0.0, atol=1e-15)
        assert ref.q_star_conj.tobytes() == g.quat_conj(ref.q_star).tobytes()


def visibility(q_cl, b=Bounds()):
    """One node's visibility as the solver evaluates it, without the margin.

    Returns the slack ``-(cone @ n)`` of the four cone rows at the bearing
    ``n`` from ``ocp._stage_outputs``, that bearing, and the violation that
    ``ocp._hinge`` charges for it.  For ``n_z > 0`` the slack is ``n_z``
    times the image box slack ``(s - s_min, s_max - s)``.
    """
    x = QuadVisualState(np.zeros(3), g.quat_identity(), q_cl, 3.0).as_vector()[None, :]
    ref = ReferencePoint(np.zeros(2), np.full(1, 3.0), np.zeros(3), g.quat_identity())
    _, n_c, _ = _stage_outputs(x, ref, CostWeights(), g.quat_identity(), 1.0)
    cone = _cone(SimpleNamespace(params=OcpParams(constraint_margin=0.0), bounds=b))
    return -(cone @ n_c[0]), n_c[0], float(_hinge(n_c, cone)[0])


class TestVisibilityResidual:
    def test_centered(self):
        slack, n, viol = visibility(g.quat_identity())
        assert viol == 0.0
        assert np.allclose(slack, [1, 1, 1, 1])

    def test_active_border(self):
        slack, n, viol = visibility(g.bearing_from_image([1.0, 0.0]))
        assert viol == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(slack / n[2], [2, 1, 0, 1], atol=1e-12)

    def test_violated(self):
        slack, n, viol = visibility(g.bearing_from_image([1.2, 0.0]))
        assert slack[2] / n[2] == pytest.approx(-0.2, abs=1e-12)
        # the cone charges the image violation scaled by n_z = 1 / sqrt(1 + 1.2^2)
        assert viol == pytest.approx(0.2 / np.sqrt(2.44), abs=1e-12)

    def test_nonnegative_iff_inside(self, rng):
        # in front of the camera, the slack is nonnegative, and the violation
        # zero, iff s is in the box
        b = Bounds()
        for _ in range(100):
            s = rng.uniform(-1.5, 1.5, 2)
            slack, n, viol = visibility(g.bearing_from_image(s), b)
            inside = np.all(s >= b.s_min - 1e-12) and np.all(s <= b.s_max + 1e-12)
            assert n[2] > 0.0
            assert (np.all(slack >= -1e-9)) == inside
            assert (viol <= 1e-9) == inside

    def test_behind_camera_has_rows(self):
        # the cone excludes a bearing behind the camera by itself: (0, 0, -1)
        # violates all four rows by 1, and the node keeps its rows in the
        # step QP, with positive values at the iterate
        behind = quat_oracle_from_axis_angle([1, 0, 0], np.pi)
        slack, n, viol = visibility(behind)
        assert n[2] < 0.0 and np.allclose(slack, -1.0, atol=1e-12)
        assert viol == pytest.approx(4.0, abs=1e-12)
        params = OcpParams(horizon=2)
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 3.0)
        ref = ReferencePoint(np.zeros(2), np.full(3, 3.0), np.zeros(3), g.quat_identity())
        problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        x = np.tile(x0.as_vector(), (3, 1))
        x[2, 7:11] = behind
        u = np.tile(ControlInput.hover().as_vector(), (2, 1))
        outputs = _stage_outputs(x, problem.ref, problem.weights, DEFAULT_EXTRINSICS.q_bc, params.dt)
        model = _reduced_model(x, u, problem, outputs, rk4_stages(x[:-1], u, params.dt, DEFAULT_EXTRINSICS))
        assert model.vis_rows.shape == (8, 8)  # four rows for each of nodes 1 and 2
        m = params.constraint_margin
        assert np.allclose(model.vis_base[:4], -(1.0 - m), atol=1e-12)  # node 1 on the axis
        assert np.allclose(model.vis_base[4:], 1.0 - m, atol=1e-12)  # node 2 behind
        assert np.all(np.isfinite(model.vis_rows)) and np.any(model.vis_rows[4:] != 0.0)


class TestBounds:
    # NaN compares false, so an order check alone would let it through
    @pytest.mark.parametrize(
        "kw",
        [
            {"c_min": float("nan")},
            {"c_max": float("nan")},
            {"c_max": float("inf")},
            {"s_min": [float("nan"), -1.0]},
            {"s_max": [1.0, float("nan")]},
            {"s_min": [-float("inf"), -1.0]},
            {"omega_max": [3.0, float("nan"), 3.0]},
        ],
    )
    def test_rejects_non_finite(self, kw):
        with pytest.raises(ValueError):
            Bounds(**kw)

    def test_rejects_empty_boxes(self):
        for kw in ({"c_min": 20.0}, {"s_min": [1.0, -1.0]}, {"omega_min": [3.0, -3.0, -3.0]}):
            with pytest.raises(ValueError, match="min < max"):
                Bounds(**kw)


class TestClampInput:
    def test_feasible_unchanged(self):
        u = np.array([9.81, 0.1, -0.2, 0.3])
        out = clamp_input(u, Bounds())
        assert out.c == u[0] and np.array_equal(out.omega_b, u[1:])

    def test_thrust_clamped(self):
        assert clamp_input(np.array([100.0, 0.0, 0.0, 0.0]), Bounds()).c == 20.0

    def test_rate_clamped(self):
        out = clamp_input(np.array([9.81, -10.0, 0.0, 0.0]), Bounds())
        assert out.omega_b[0] == -3.0

    def test_matches_reference_bytes(self, rng):
        # against conftest.reference_clamp_input, which clamped a ControlInput
        # built from the vector; bounds at zero test the signed zeros too
        zero_floor = Bounds(c_min=0.0, omega_min=[0.0, -3.0, -1.0], omega_max=[3.0, 0.0, 1.0])
        inputs = np.concatenate([rng.uniform(-25.0, 25.0, (500, 4)), np.array([[0.0, -0.0, 0.0, -0.0], [-0.0, 0.0, -0.0, 0.0]])])
        for b in (Bounds(), zero_floor):
            for u in inputs:
                got = clamp_input(u, b)
                want = conftest.reference_clamp_input(ControlInput(float(u[0]), u[1:4]), b)
                assert got.as_vector().tobytes() == want.as_vector().tobytes()
