import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.costs import (
    PENALTY_CEILING,
    Bounds,
    ControlInput,
    CostWeights,
    ReferencePoint,
    clamp_input,
    dynamic_visual_weight,
)
from quadvpc.dynamics import QuadVisualState
from quadvpc.ocp import OcpParams, _hinge, _reduced_model, _stage_outputs, build_problem
from quadvpc.simulator import DEFAULT_EXTRINSICS

from conftest import (
    fd_gradient,
    quat_oracle_from_axis_angle,
    random_quat,
    rotmat_oracle,
    stage_block,
    stage_block_gradient,
)

# residual entry that replaces a degenerate projection's image error at dt = 1
FILL = np.sqrt(PENALTY_CEILING / 2.0)


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


def compensated_image(q_wb, q_cl):
    """Image residual of the visual servoing block with unit image weight,
    no distance weight, ``s* = 0``, an identity reference attitude and an
    identity camera mounting: the rotation-compensated image coordinate."""
    x = QuadVisualState(np.zeros(3), q_wb, q_cl, 3.0)
    ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
    w = CostWeights(q_s=np.ones(2), q_d=0.0)
    _, r, _ = stage_block(x, ref, w, "visual_servo")
    return r[:2]


class TestRotationCompensatedImage:
    def test_identity_attitude_collapses(self, rng):
        q_cl = g.bearing_from_image(np.array([0.3, -0.2]))
        out = compensated_image(g.quat_identity(), q_cl)
        assert np.allclose(out, g.image_from_bearing(q_cl), atol=1e-15)

    def test_yaw_about_bearing_axis_at_center(self):
        q_wb = g.quat_yaw(0.7)
        out = compensated_image(q_wb, g.quat_identity())
        assert np.allclose(out, [0, 0], atol=1e-12)

    def test_pitch_matches_matrix_oracle(self):
        pitch = np.radians(10)
        q_wb = quat_oracle_from_axis_angle([0, 1, 0], pitch)
        out = compensated_image(q_wb, g.quat_identity())
        v = rotmat_oracle(q_wb) @ np.array([0, 0, 1.0])
        assert np.allclose(out, v[:2] / v[2], atol=1e-12)

    def test_degenerate_raises(self):
        # the compensated bearing points away from the image plane; the
        # solver fills the image residual instead of raising
        q_wb = quat_oracle_from_axis_angle([0, 1, 0], np.pi)
        out = compensated_image(q_wb, g.quat_identity())
        assert np.all(out == FILL)


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
        w = CostWeights(q_s=np.array([1.0, 1.0]), q_d=0.0)
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        x1 = QuadVisualState(np.zeros(3), g.quat_identity(), g.bearing_from_image([0.1, 0.0]), 3.0)
        x2 = QuadVisualState(np.zeros(3), g.quat_identity(), g.bearing_from_image([0.2, 0.0]), 3.0)
        c1, _, _ = stage_block(x1, ref, w, "visual_servo")
        c2, _, _ = stage_block(x2, ref, w, "visual_servo")
        assert c2 / c1 == pytest.approx(4.0, rel=1e-9)

    def test_degenerate_returns_ceiling(self):
        q_cl = quat_oracle_from_axis_angle([1, 0, 0], np.pi)
        x = QuadVisualState(np.zeros(3), g.quat_identity(), q_cl, 3.0)
        ref = ReferencePoint(np.zeros(2), 3.0, np.zeros(3), g.quat_identity())
        cost, r, _ = stage_block(x, ref, CostWeights(), "visual_servo")
        _, r_per, ok = stage_block(x, ref, CostWeights(), "perception")
        assert np.all(r[:2] == FILL) and r[2] == 0.0
        assert np.all(r_per == FILL) and not ok
        # two fill entries carry the ceiling (FILL**2 rounds to 5e5 + 6e-11)
        assert cost == 2.0 * FILL**2 == 1000000.0000000001


class TestPerceptionCost:
    def test_zero_at_center(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 3.0)
        assert stage_block(x, None, CostWeights(), "perception")[0] == 0.0

    def test_quadratic_value(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.bearing_from_image([0.5, 0.0]), 3.0)
        w = CostWeights(q_p=np.array([4.0, 4.0]))
        assert stage_block(x, None, w, "perception")[0] == pytest.approx(1.0, rel=1e-12)

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


def visibility(q_cl, b=Bounds()):
    """One node's visibility as the solver evaluates it, without the margin.

    Returns the box slack ``(s - s_min, s_max - s)`` of the image
    coordinate from ``ocp._stage_outputs``, its validity flag, and the
    violation that ``ocp._hinge`` charges for it.
    """
    x = QuadVisualState(np.zeros(3), g.quat_identity(), q_cl, 3.0).as_vector()[None, :]
    ref = ReferencePoint(np.zeros(2), np.full(1, 3.0), np.zeros(3), g.quat_identity())
    _, s_c, ok = _stage_outputs(x, ref, CostWeights(), g.quat_identity(), 1.0)
    slack = np.concatenate([s_c[0] - b.s_min, b.s_max - s_c[0]])
    return slack, bool(ok[0]), float(_hinge(s_c, ok, b.s_min, b.s_max)[0])


class TestVisibilityResidual:
    def test_centered(self):
        slack, ok, viol = visibility(g.quat_identity())
        assert ok and viol == 0.0
        assert np.allclose(slack, [1, 1, 1, 1])

    def test_active_border(self):
        slack, ok, viol = visibility(g.bearing_from_image([1.0, 0.0]))
        assert ok and viol == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(slack, [2, 1, 0, 1], atol=1e-12)

    def test_violated(self):
        slack, ok, viol = visibility(g.bearing_from_image([1.2, 0.0]))
        assert ok and slack[2] == pytest.approx(-0.2, abs=1e-12)
        assert viol == pytest.approx(0.2, abs=1e-12)

    def test_nonnegative_iff_inside(self, rng):
        # the slack is nonnegative, and the violation zero, iff s is in the box
        b = Bounds()
        for _ in range(100):
            s = rng.uniform(-1.5, 1.5, 2)
            slack, ok, viol = visibility(g.bearing_from_image(s), b)
            inside = np.all(s >= b.s_min - 1e-12) and np.all(s <= b.s_max + 1e-12)
            assert ok
            assert (np.all(slack >= -1e-9)) == inside
            assert (viol <= 1e-9) == inside

    def test_behind_camera_no_row(self):
        # repelled through the cost ceiling instead: invalid, no violation,
        # and no linearised visibility row in the step QP
        behind = quat_oracle_from_axis_angle([1, 0, 0], np.pi)
        _, ok, viol = visibility(behind)
        assert not ok and viol == 0.0
        params = OcpParams(horizon=2)
        x0 = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 3.0)
        ref = ReferencePoint(np.zeros(2), np.full(3, 3.0), np.zeros(3), g.quat_identity())
        problem = build_problem(x0, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
        x = np.tile(x0.as_vector(), (3, 1))
        x[2, 7:11] = behind
        u = np.tile(ControlInput.hover().as_vector(), (2, 1))
        outputs = _stage_outputs(x, problem.ref, problem.weights, DEFAULT_EXTRINSICS.q_bc, params.dt)
        model = _reduced_model(x, u, problem, outputs)
        assert list(model.ok) == [True, True, False]
        assert model.vis_rows.shape == (2, 8)  # the (u, v) rows of node 1 only


class TestClampInput:
    def test_feasible_unchanged(self):
        u = ControlInput(9.81, [0.1, -0.2, 0.3])
        out = clamp_input(u, Bounds())
        assert out.c == u.c and np.allclose(out.omega_b, u.omega_b)

    def test_thrust_clamped(self):
        assert clamp_input(ControlInput(100.0, np.zeros(3)), Bounds()).c == 20.0

    def test_rate_clamped(self):
        out = clamp_input(ControlInput(9.81, [-10.0, 0, 0]), Bounds())
        assert out.omega_b[0] == -3.0
