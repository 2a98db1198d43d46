import math

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.config import default_config
from quadvpc.costs import Bounds, CostWeights, ReferencePoint
from quadvpc.dynamics import (
    GRAVITY_W,
    CameraExtrinsics,
    ControlInput,
    QuadVisualState,
    propagate_camera_pose,
    so3_integral_coeffs,
)
from quadvpc.ocp import OcpParams, VisualPredictiveController
from quadvpc.scenarios import scenario_hover
from quadvpc.simulator import (
    DEFAULT_EXTRINSICS,
    DEFAULT_SENSOR_BOUNDS,
    FeatureLost,
    Landmark,
    NoiseModel,
    PlantState,
    ReferenceInfeasible,
    RunLog,
    camera_pose,
    make_reference_from_waypoint,
    observe,
    plant_step,
    run_closed_loop,
)

import conftest
from conftest import random_quat, rk4_flat_step, rotations_close, rotmat_oracle

ZERO_NOISE = NoiseModel()
BARE_CAMERA = CameraExtrinsics(p_b_cb=np.zeros(3), q_bc=DEFAULT_EXTRINSICS.q_bc)


def hover_input():
    return ControlInput(9.81, np.zeros(3))


class TestPlantStep:
    def test_hover_is_fixed_point(self):
        ps = PlantState([1.0, 2.0, 3.0], np.zeros(3), g.quat_identity())
        out = plant_step(ps, hover_input(), 0.05)
        assert np.max(np.abs(out.p_w - ps.p_w)) < 1e-12
        assert np.max(np.abs(out.v_w)) < 1e-12

    @pytest.mark.parametrize("dt", [float("nan"), float("inf"), 0.0, -0.05])
    def test_non_positive_or_non_finite_dt_refused(self, dt):
        ps = PlantState([1.0, 2.0, 3.0], np.zeros(3), g.quat_identity())
        with pytest.raises(ValueError, match="dt must be positive and finite"):
            plant_step(ps, hover_input(), dt)

    def test_zero_attitude_rejected(self):
        # as QuadVisualState rejects it, rather than a NaN attitude
        with pytest.raises(ValueError):
            PlantState(np.zeros(3), np.zeros(3), [0.0, 0.0, 0.0, 0.0])

    def test_free_fall_drop(self):
        ps = PlantState(np.zeros(3), np.zeros(3), g.quat_identity())
        for _ in range(1000):
            ps = plant_step(ps, ControlInput(0.0, np.zeros(3)), 1e-3)
        assert ps.p_w[2] == pytest.approx(-4.905, abs=1e-9)

    def test_matches_controller_model(self, rng):
        # the plant and the controller's internal model must agree on the
        # shared coordinates under identical inputs; the plant step is exact,
        # so the model takes 10 RK4 steps per tick to bring its own truncation
        # error (2.5e-9 in v at one step per tick) far below the tolerance
        lm = Landmark()
        ps = PlantState([0.0, 0.0, 3.0], [0.5, -0.2, 0.1], g.quat_yaw(0.3))
        meas = observe(ps, lm, DEFAULT_EXTRINSICS, ZERO_NOISE, rng)
        x = meas.as_vector()
        u = ControlInput(10.5, [0.2, -0.3, 0.1])
        dt = 0.05
        for _ in range(20):
            ps = plant_step(ps, u, dt)
            for _ in range(10):
                x = rk4_flat_step(x, u.as_vector(), dt / 10, DEFAULT_EXTRINSICS)
        assert np.max(np.abs(ps.v_w - x[:3])) < 1e-9
        assert abs(abs(ps.q_wb @ x[3:7]) - 1.0) < 1e-9


def rk4_plant_oracle(ps, u, t, n_sub):
    """The plant integrated by ``n_sub`` RK4 steps, attitude renormalized after each.

    ``p' = v``, ``v' = R(q) c e_z + g``, ``q' = 1/2 q (x) [0, w]``: the 1 kHz
    integrator the exact step replaced, kept as an independent oracle.
    """
    wx, wy, wz = u.omega_b
    omega = np.array([[0.0, -wx, -wy, -wz], [wx, 0.0, wz, -wy], [wy, -wz, 0.0, wx], [wz, wy, -wx, 0.0]])

    def f(z):  # omega @ q is q (x) [0, w]
        return np.concatenate([z[3:6], rotmat_oracle(z[6:]) @ [0.0, 0.0, u.c] + GRAVITY_W, 0.5 * omega @ z[6:]])

    z, h = np.concatenate([ps.p_w, ps.v_w, ps.q_wb]), t / n_sub
    for _ in range(n_sub):
        k1 = f(z)
        k2 = f(z + 0.5 * h * k1)
        k3 = f(z + 0.5 * h * k2)
        k4 = f(z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        z[6:] /= np.linalg.norm(z[6:])
    return z


def random_plant_case(rng, rate):
    """A random state and an input whose body rate has norm ``rate``."""
    ps = PlantState(rng.normal(size=3), rng.uniform(-9.0, 9.0, 3), random_quat(rng))
    axis = rng.normal(size=3)
    return ps, ControlInput(rng.uniform(2.0, 20.0), rate * axis / np.linalg.norm(axis))


RATES = (0.0, 1e-9, 1e-4, 0.3, 1.0, 3.0, 5.2)


class TestExactPlantStep:
    def test_matches_1khz_rk4_oracle(self, rng):
        for i in range(140):
            ps, u = random_plant_case(rng, RATES[i % len(RATES)])
            out = plant_step(ps, u, 0.05)
            ref = rk4_plant_oracle(ps, u, 0.05, 50)
            assert np.max(np.abs(out.as_vector() - ref)) < 1e-10

    def test_matches_camera_pose_propagation(self, rng):
        # v - v0 - g t = c R(q0) Gamma1 e_z, the displacement of a camera at
        # the body's pose moving at e_z in its own frame
        t = 0.05
        for i in range(140):
            ps, u = random_plant_case(rng, RATES[i % len(RATES)])
            out = plant_step(ps, u, t)
            p_cam, q_cam = propagate_camera_pose(np.zeros(3), ps.q_wb, g.EZ, u.omega_b, t)
            assert np.max(np.abs(out.q_wb - q_cam)) < 1e-12
            assert np.max(np.abs((out.v_w - ps.v_w - GRAVITY_W * t) / u.c - p_cam)) < 1e-12

    def test_coefficients_continuous_across_series_threshold(self):
        # the series serves |theta t| < 1 and the closed form the rest
        for t in (0.001, 0.05, 0.3, 1.0):
            above = 1.0 / t
            below = np.nextafter(above, 0.0)
            assert (below * t) ** 2 < 1.0 <= (above * t) ** 2
            for k_below, k_above in zip(so3_integral_coeffs(below, t), so3_integral_coeffs(above, t)):
                assert abs(k_below - k_above) <= 1e-14 * abs(k_above)
        assert so3_integral_coeffs(0.0, 0.1) == pytest.approx((0.1**2 / 2, 0.1**3 / 6, 0.1**4 / 24), rel=1e-15)

    def test_two_half_steps_equal_one_step(self, rng):
        for i in range(140):
            ps, u = random_plant_case(rng, RATES[i % len(RATES)])
            t = rng.uniform(0.01, 0.5)
            halves = plant_step(plant_step(ps, u, 0.5 * t), u, 0.5 * t)
            assert np.max(np.abs(halves.as_vector() - plant_step(ps, u, t).as_vector())) < 1e-12


class TestObserve:
    def test_aligned_geometry(self, rng):
        # camera 2 m straight in front of the landmark, aligned
        ps = PlantState([4.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        meas = observe(ps, Landmark(), BARE_CAMERA, ZERO_NOISE, rng)
        assert rotations_close(meas.q_cl, g.quat_identity(), tol=1e-12)
        assert meas.d == pytest.approx(2.0, abs=1e-12)

    def test_behind_camera_raises(self, rng):
        ps = PlantState([8.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        with pytest.raises(FeatureLost):
            observe(ps, Landmark(), BARE_CAMERA, ZERO_NOISE, rng)

    def test_out_of_fov_raises(self, rng):
        ps = PlantState([4.0, 3.5, 3.0], np.zeros(3), g.quat_identity())
        with pytest.raises(FeatureLost) as exc:
            observe(ps, Landmark(), BARE_CAMERA, ZERO_NOISE, rng)
        assert exc.value.reason == "out_of_fov"

    def test_range_bearing_reconstruction(self, rng):
        # bearing times distance reproduces the camera-frame landmark
        lm = Landmark()
        for _ in range(50):
            ps = PlantState(
                p_w=lm.p_w_lw + np.array([-rng.uniform(1, 8), rng.uniform(-2, 2), rng.uniform(-2, 2)]),
                v_w=rng.normal(size=3),
                q_wb=g.quat_yaw(rng.uniform(-0.3, 0.3)),
            )
            try:
                meas = observe(ps, lm, DEFAULT_EXTRINSICS, ZERO_NOISE, rng)
            except FeatureLost:
                continue
            p_c, q_wc = camera_pose(ps.p_w, ps.q_wb, DEFAULT_EXTRINSICS)
            r = g.quat_rotate(g.quat_conj(q_wc), lm.p_w_lw - p_c)
            assert np.max(np.abs(g.bearing_n(meas.q_cl) * meas.d - r)) < 1e-9

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["sigma_v", "sigma_att", "sigma_d_rel", "sigma_px"])
    def test_non_finite_sigma_refused(self, name, value):
        # a NaN sigma would compare false with 0 in observe and fly noise-free
        with pytest.raises(ValueError, match=f"{name} must be nonnegative and finite"):
            NoiseModel(**{name: value})

    def test_noise_is_seeded(self):
        noise = NoiseModel(sigma_v=0.1, sigma_px=0.01, sigma_d_rel=0.01, sigma_att=0.01)
        ps = PlantState([4.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        m1 = observe(ps, Landmark(), BARE_CAMERA, noise, np.random.default_rng(7))
        m2 = observe(ps, Landmark(), BARE_CAMERA, noise, np.random.default_rng(7))
        assert np.array_equal(m1.as_vector(), m2.as_vector())


class TestObserveByteOracle:
    # against conftest.reference_observe, the formulation on numpy arrays:
    # each measurement equal on bytes, each lost feature for the same
    # reason, and the generator left in the same state
    NOISES = [
        NoiseModel(),
        NoiseModel(sigma_v=0.1),
        NoiseModel(sigma_att=0.01),
        NoiseModel(sigma_d_rel=0.02),
        NoiseModel(sigma_px=0.03),
    ]

    @staticmethod
    def outcome(fn, ps, ext, noise, seed, bounds=DEFAULT_SENSOR_BOUNDS):
        rng = np.random.default_rng(seed)
        try:
            result = fn(ps, Landmark(), ext, noise, rng, bounds).as_vector().tobytes()
        except FeatureLost as exc:
            result = exc.reason
        return result, rng.bit_generator.state

    @staticmethod
    def pose_grid(rng, n):
        lm = Landmark().p_w_lw
        for _ in range(n):
            tilt = g.quat_exp(np.append(rng.uniform(-0.4, 0.4, 2), 0.0))
            yield PlantState(
                p_w=lm + np.array([rng.uniform(-8.0, 1.0), rng.uniform(-4.0, 4.0), rng.uniform(-3.0, 3.0)]),
                v_w=rng.normal(size=3),
                q_wb=g.quat_mul(g.quat_yaw(rng.uniform(-1.0, 1.0)), tilt),
            )

    @pytest.mark.parametrize("noise", NOISES, ids=["none", "sigma_v", "sigma_att", "sigma_d_rel", "sigma_px"])
    def test_pose_grid(self, noise):
        rng = np.random.default_rng(2025)
        mounted = CameraExtrinsics(p_b_cb=rng.normal(0.0, 0.2, 3), q_bc=g.quat_mul(DEFAULT_EXTRINSICS.q_bc, g.quat_exp(rng.normal(0.0, 0.2, 3))))
        seen = set()
        for i, ps in enumerate(self.pose_grid(rng, 300)):
            for ext in (DEFAULT_EXTRINSICS, BARE_CAMERA, mounted):
                got = self.outcome(observe, ps, ext, noise, i)
                assert got == self.outcome(conftest.reference_observe, ps, ext, noise, i)
                seen.add(got[0] if isinstance(got[0], str) else "measured")
        # the grid holds measurements and both ways to lose the feature
        assert seen == {"measured", "behind_camera", "out_of_fov"}

    @pytest.mark.parametrize("axis", [0, 1])
    def test_sensor_border(self, axis):
        # an image point on a bound is inside; one float beyond it is lost
        ps = PlantState([3.0, 0.4, 2.5], np.zeros(3), g.quat_yaw(0.1))
        p_c, q_wc = camera_pose(ps.p_w, ps.q_wb, DEFAULT_EXTRINSICS)
        r = g.quat_rotate(g.quat_conj(q_wc), Landmark().p_w_lw - p_c)
        s = r[:2] / r[2]
        cases = []
        for side, inward in ((1, -np.inf), (0, np.inf)):
            for value, want in ((s[axis], "measured"), (np.nextafter(s[axis], inward), "out_of_fov")):
                bounds = [s - 0.5, s + 0.5]
                bounds[side][axis] = value
                cases.append((tuple(bounds), want))
        for bounds, want in cases:
            got = self.outcome(observe, ps, DEFAULT_EXTRINSICS, ZERO_NOISE, 0, bounds)
            assert got == self.outcome(conftest.reference_observe, ps, DEFAULT_EXTRINSICS, ZERO_NOISE, 0, bounds)
            assert (got[0] if isinstance(got[0], str) else "measured") == want


class TestMakeReference:
    def test_aligned_waypoint(self):
        ref = make_reference_from_waypoint(np.array([4.0, 0.0, 3.0]), np.zeros(3), 0.0, Landmark(), BARE_CAMERA)
        assert np.allclose(ref.s_star, [0, 0], atol=1e-12)
        assert ref.d_star == pytest.approx(2.0)

    def test_quarter_circle_start_distance(self):
        ref = make_reference_from_waypoint(np.array([-2.0, 0.0, 3.0]), np.zeros(3), 0.0, Landmark(), BARE_CAMERA)
        assert ref.d_star == pytest.approx(8.0)

    def test_behind_waypoint_infeasible(self):
        with pytest.raises(ReferenceInfeasible):
            make_reference_from_waypoint(np.array([8.0, 0.0, 3.0]), np.zeros(3), 0.0, Landmark(), BARE_CAMERA)

    def test_velocity_and_heading_pass_through(self):
        ref = make_reference_from_waypoint(
            np.array([0.0, 0.0, 3.0]), np.array([1.0, 2.0, 0.0]), 0.4, Landmark(), BARE_CAMERA
        )
        assert np.allclose(ref.v_star, [1.0, 2.0, 0.0])
        assert rotations_close(ref.q_star, g.quat_yaw(0.4))


def reference_oracle(wp, v, heading, landmark, ext):
    """One node's reference, by rotation matrices and ``math`` trig."""
    c, s = math.cos(heading), math.sin(heading)
    r_wb = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    r_wc = r_wb @ rotmat_oracle(ext.q_bc)
    r = r_wc.T @ (landmark - (wp + r_wb @ ext.p_b_cb))
    q = np.array([math.cos(heading / 2.0), 0.0, 0.0, math.sin(heading / 2.0)])
    return r[:2] / r[2], math.sqrt(r @ r), v, q


class TestHorizonReference:
    def horizon(self, rng, n=21):
        """Waypoints 2-9 m from the landmark, each roughly facing it."""
        lm = Landmark().p_w_lw
        bearing = rng.uniform(-1.0, 1.0, n)
        dist = rng.uniform(2.0, 9.0, n)
        wp = lm - dist[:, None] * np.column_stack([np.cos(bearing), np.sin(bearing), np.zeros(n)])
        wp += rng.uniform(-0.3, 0.3, (n, 3))
        return wp, rng.uniform(-9.0, 9.0, (n, 3)), bearing + rng.uniform(-0.2, 0.2, n)

    def test_matches_per_node_oracle(self, rng):
        for ext in (DEFAULT_EXTRINSICS, BARE_CAMERA):
            wp, v, heading = self.horizon(rng)
            ref = make_reference_from_waypoint(wp, v, heading, Landmark(), ext)
            assert ref.s_star.shape == (21, 2) and ref.d_star.shape == (21,)
            for k in range(21):
                s, d, v_k, q = reference_oracle(wp[k], v[k], heading[k], Landmark().p_w_lw, ext)
                assert np.allclose(ref.s_star[k], s, rtol=0.0, atol=1e-12)
                assert abs(ref.d_star[k] - d) <= 1e-12
                assert np.array_equal(ref.v_star[k], v_k)
                assert np.allclose(ref.q_star[k], q, rtol=0.0, atol=1e-12)

    def test_constant_goal_broadcasts(self):
        # one waypoint and velocity against a heading per node: every row is
        # the single-node reference, bit for bit
        wp = np.array([3.9, 0.0, 3.0])
        single = make_reference_from_waypoint(wp, np.zeros(3), 0.0, Landmark(), DEFAULT_EXTRINSICS)
        ref = make_reference_from_waypoint(wp, np.zeros(3), np.zeros(21), Landmark(), DEFAULT_EXTRINSICS)
        for name in ("s_star", "d_star", "v_star", "q_star"):
            rows = getattr(ref, name)
            assert rows.shape[0] == 21
            assert all(np.array_equal(row, getattr(single, name)) for row in rows)

    def test_any_node_behind_camera_infeasible(self, rng):
        wp, v, heading = self.horizon(rng)
        make_reference_from_waypoint(wp, v, heading, Landmark(), DEFAULT_EXTRINSICS)
        for k in (0, 7, 20):
            turned = heading.copy()
            turned[k] += np.pi  # this node's camera faces away from the landmark
            with pytest.raises(ReferenceInfeasible):
                make_reference_from_waypoint(wp, v, turned, Landmark(), DEFAULT_EXTRINSICS)


def small_controller():
    return VisualPredictiveController(CostWeights(), Bounds(), DEFAULT_EXTRINSICS, OcpParams())


def hover_loop(duration=2.0, seed=0, noise=ZERO_NOISE):
    plant0 = PlantState([4.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
    meas_rng = np.random.default_rng(123)
    meas = observe(plant0, Landmark(), DEFAULT_EXTRINSICS, ZERO_NOISE, meas_rng)
    n = g.bearing_n(meas.q_cl)
    ref = ReferencePoint(n[:2] / n[2], np.full(21, meas.d), np.zeros(3), g.quat_identity())
    return run_closed_loop(
        small_controller(),
        lambda t: ref,
        plant0,
        Landmark(),
        DEFAULT_EXTRINSICS,
        noise,
        duration=duration,
        dt=0.05,
        seed=seed,
    )


# the columns of a run without ticks: empty float arrays, each of its tick entry's shape
NO_TICK_SHAPES = {
    "t": (0,), "p_w": (0, 3), "v_w": (0, 3), "q_wb": (0, 4), "s_c": (0, 2), "d": (0,), "u": (0, 4),
    "ref_s": (0, 2), "ref_d": (0,), "solve_ms": (0,), "kkt": (0,), "sqp_iters": (0,), "qp_iters": (0,),
    "backtracks": (0,), "slack_max": (0,),
}


def assert_no_ticks(log):
    for name, shape in NO_TICK_SHAPES.items():
        col = getattr(log, name)
        assert (col.shape, col.dtype) == (shape, np.float64), name
    assert log.reason == log.status == []


class TestClosedLoop:
    def test_hover_regulation(self):
        log = hover_loop(duration=5.0)
        assert log.outcome == "success"
        assert np.max(np.linalg.norm(log.p_w - log.p_w[0], axis=1)) < 0.1

    def test_feature_lost_at_start(self):
        # landmark initially behind the camera
        plant0 = PlantState([8.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        ref = ReferencePoint(np.zeros(2), np.full(21, 2.0), np.zeros(3), g.quat_identity())
        log = run_closed_loop(
            small_controller(),
            lambda t: ref,
            plant0,
            Landmark(),
            DEFAULT_EXTRINSICS,
            ZERO_NOISE,
            duration=1.0,
            dt=0.05,
        )
        assert log.outcome == "feature_lost"
        assert log.fail_time == 0.0
        assert log.n_ticks == 0
        assert_no_ticks(log)

    def test_hover_scenario_lost_before_first_tick(self):
        cfg = default_config("hover")
        cfg.initial_position = (8.0, 0.0, 3.0)
        log = scenario_hover(cfg)["log"]
        assert (log.outcome, log.fail_time, log.fail_reason) == ("feature_lost", 0.0, "behind_camera")
        assert_no_ticks(log)

    def test_status_coarsens_each_reason(self):
        reasons = ["kkt", "no_descent", "line_search_failed", "tiny_steps", "budget", "infeasible"]
        log = RunLog.from_ticks(0.05, 0, [], reasons, "success")
        assert log.status == ["converged", "max_iters", "max_iters", "max_iters", "max_iters", "infeasible"]

    def test_bit_identical_reruns(self):
        noise = NoiseModel(sigma_px=0.01, sigma_d_rel=0.01)
        l1 = hover_loop(duration=1.5, seed=42, noise=noise)
        l2 = hover_loop(duration=1.5, seed=42, noise=noise)
        assert np.array_equal(l1.p_w, l2.p_w)
        assert np.array_equal(l1.u, l2.u)
        assert np.array_equal(l1.s_c, l2.s_c)
        assert np.array_equal(l1.kkt, l2.kkt)
        assert l1.outcome == l2.outcome

    def test_measurement_has_no_position(self, rng):
        ps = PlantState([4.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        meas = observe(ps, Landmark(), DEFAULT_EXTRINSICS, ZERO_NOISE, rng)
        assert isinstance(meas, QuadVisualState)
        assert not hasattr(meas, "p_w")

    def test_model_plant_consistency_over_run(self):
        # roll the controller's model from the first measurement with the
        # executed inputs; it must track the observed sequence
        log = hover_loop(duration=1.5)
        plant0 = PlantState([4.0, 0.0, 3.0], np.zeros(3), g.quat_identity())
        rng = np.random.default_rng(0)
        x = observe(plant0, Landmark(), DEFAULT_EXTRINSICS, ZERO_NOISE, rng).as_vector()
        worst_v = worst_d = 0.0
        for k in range(log.n_ticks - 1):
            x = rk4_flat_step(x, log.u[k], log.dt, DEFAULT_EXTRINSICS)
            worst_v = max(worst_v, float(np.max(np.abs(x[:3] - log.v_w[k + 1]))))
            worst_d = max(worst_d, abs(x[11] - log.d[k + 1]))
        assert worst_v < 1e-5
        assert worst_d < 1e-5
