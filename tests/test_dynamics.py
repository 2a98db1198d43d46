import warnings
from dataclasses import replace

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc import dynamics
from quadvpc.dynamics import (
    CameraExtrinsics,
    CameraTwist,
    ControlInput,
    QuadVisualState,
    homogeneous_image_dynamics,
    propagate_camera_pose,
    rk4_jacobians,
)
from quadvpc.scenarios import bearing_prediction_step, homogeneous_prediction_step
from quadvpc.simulator import DEFAULT_EXTRINSICS

import conftest
from conftest import (
    bearing_N,
    camera_twist,
    composed_dynamics,
    f_jacobians,
    fd_jacobian,
    fd_jacobian_batch,
    full_dynamics,
    image_dynamics,
    kernel,
    kernel_bearing_rates,
    quad_dynamics,
    quat_oracle_from_axis_angle,
    random_quat,
    rk4_flat,
    rk4_flat_step,
    rk4_stages,
)

IDENTITY_EXT = CameraExtrinsics()


def random_state(rng, d_lo=0.5, d_hi=10.0) -> QuadVisualState:
    return QuadVisualState(
        v_w=rng.uniform(-5, 5, 3),
        q_wb=random_quat(rng),
        q_cl=random_quat(rng),
        d=rng.uniform(d_lo, d_hi),
    )


def random_input(rng) -> ControlInput:
    return ControlInput(rng.uniform(2, 20), rng.uniform(-3, 3, 3))


class TestQuadDynamics:
    def test_hover_equilibrium(self):
        dv, dq = quad_dynamics(np.zeros(3), g.quat_identity(), ControlInput(9.81, np.zeros(3)))
        assert np.allclose(dv, 0, atol=1e-12)
        assert np.allclose(dq, 0)

    def test_free_fall(self):
        dv, _ = quad_dynamics(np.zeros(3), g.quat_identity(), ControlInput(0.0, np.zeros(3)))
        assert np.allclose(dv, [0, 0, -9.81])

    def test_rolled_thrust(self):
        q = quat_oracle_from_axis_angle([1, 0, 0], np.pi / 2)
        dv, _ = quad_dynamics(np.zeros(3), q, ControlInput(5.0, np.zeros(3)))
        assert np.allclose(dv, [0, -5.0, -9.81], atol=1e-12)

    def test_attitude_rate_tangency(self, rng):
        for _ in range(50):
            q = random_quat(rng)
            u = random_input(rng)
            _, dq = quad_dynamics(rng.normal(size=3), q, u)
            assert abs(dq @ q) < 1e-12


class TestControlInput:
    @pytest.mark.parametrize("c", [float("nan"), float("inf"), -float("inf")])
    def test_non_finite_thrust_refused(self, c):
        with pytest.raises(ValueError, match="thrust c must be finite"):
            ControlInput(c, np.zeros(3))

    def test_non_finite_rate_refused(self):
        with pytest.raises(ValueError, match="non-finite"):
            ControlInput(9.81, [0.0, float("nan"), 0.0])


class TestCameraExtrinsics:
    def test_rotation_follows_q_bc(self):
        # r_bc is computed at construction, so a replaced q_bc carries its own
        ext = replace(DEFAULT_EXTRINSICS, q_bc=g.quat_yaw(0.3))
        for e in (DEFAULT_EXTRINSICS, ext):
            assert np.array_equal(e.r_bc, g.quat_to_rotmat(e.q_bc))
        assert not np.array_equal(ext.r_bc, DEFAULT_EXTRINSICS.r_bc)


class TestCameraTwist:
    def test_aligned_frames(self):
        v = np.array([1.0, -2.0, 0.5])
        tw = camera_twist(v, np.zeros(3), g.quat_identity(), IDENTITY_EXT)
        assert np.allclose(tw.v_c, v)
        assert np.allclose(tw.w_c, 0)

    def test_lever_arm(self):
        ext = CameraExtrinsics(p_b_cb=np.array([0.1, 0.0, 0.0]))
        tw = camera_twist(np.zeros(3), np.array([0, 0, 1.0]), g.quat_identity(), ext)
        assert np.allclose(tw.v_c, [0, 0.1, 0], atol=1e-12)

    def test_rate_norm_preserved(self, rng):
        for _ in range(50):
            w = rng.normal(size=3)
            tw = camera_twist(rng.normal(size=3), w, random_quat(rng), DEFAULT_EXTRINSICS)
            assert abs(np.linalg.norm(tw.w_c) - np.linalg.norm(w)) < 1e-12

    def test_matches_true_camera_velocity(self, rng):
        # differentiate the camera world position along the plant flow
        from quadvpc.simulator import PlantState, camera_pose, plant_step

        for _ in range(20):
            ps = PlantState(p_w=rng.normal(size=3), v_w=rng.normal(size=3), q_wb=random_quat(rng))
            u = random_input(rng)
            tw = camera_twist(ps.v_w, u.omega_b, ps.q_wb, DEFAULT_EXTRINSICS)
            eps = 1e-6
            ps_eps = plant_step(ps, u, eps)
            pp, qp = camera_pose(ps_eps.p_w, ps_eps.q_wb, DEFAULT_EXTRINSICS)
            p0, q0 = camera_pose(ps.p_w, ps.q_wb, DEFAULT_EXTRINSICS)
            v_c_fd = g.quat_rotate(g.quat_conj(q0), (pp - p0) / eps)
            assert np.allclose(v_c_fd, tw.v_c, atol=1e-5)


class TestImageDynamics:
    # the kernel's bearing block, dynamics._bearing_f, against hand cases,
    # exact geometry and the quaternion formulation of conftest
    def test_pure_approach(self):
        u_mu, dd = kernel_bearing_rates(g.quat_identity(), 2.0, CameraTwist([0, 0, 1.0], np.zeros(3)))
        assert np.allclose(u_mu, 0)
        assert dd == pytest.approx(-1.0)

    def test_lateral_translation(self):
        u_mu, dd = kernel_bearing_rates(g.quat_identity(), 2.0, CameraTwist([1.0, 0, 0], np.zeros(3)))
        assert np.allclose(u_mu, [0.0, -0.5], atol=1e-12)
        assert dd == pytest.approx(0.0)

    def test_pure_rotation(self):
        # -N(q)^T w_c at identity with w_c = e_y
        u_mu, dd = kernel_bearing_rates(g.quat_identity(), 7.3, CameraTwist(np.zeros(3), [0, 1.0, 0]))
        assert np.allclose(u_mu, [0.0, -1.0], atol=1e-12)
        assert dd == pytest.approx(0.0)

    def test_distance_rate_ignores_rotation(self, rng):
        q_cl, d = random_quat(rng), 3.0
        v_c = rng.normal(size=3)
        _, dd0 = kernel_bearing_rates(q_cl, d, CameraTwist(v_c, np.zeros(3)))
        for _ in range(10):
            _, dd = kernel_bearing_rates(q_cl, d, CameraTwist(v_c, rng.uniform(-3, 3, 3)))
            assert dd == dd0

    def test_matches_exact_geometric_propagation(self, rng):
        # stands in for the closed-form derivation: difference quotients of
        # exactly propagated bearing/distance against the analytic rates
        delta = 1e-4
        for _ in range(300):
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
            assert np.allclose((np_ - nm_) / (2 * delta), ndot, atol=1e-6)
            assert (dp - dm) / (2 * delta) == pytest.approx(dd, abs=1e-6)

    def test_kernel_block_matches_quaternion_oracle(self, rng):
        for _ in range(200):
            q_cl, d = random_quat(rng), rng.uniform(0.1, 10.0)
            twist = CameraTwist(rng.uniform(-3, 3, 3), rng.uniform(-3, 3, 3))
            u_mu, dd = kernel_bearing_rates(q_cl, d, twist)
            u_oracle, dd_oracle = image_dynamics(q_cl, d, twist)
            assert np.allclose(u_mu, u_oracle, rtol=0.0, atol=1e-12 * (1.0 + 10.0 / d))
            assert dd == pytest.approx(dd_oracle, abs=1e-13)


class TestFullDynamics:
    def hover_state(self):
        return QuadVisualState(v_w=np.zeros(3), q_wb=g.quat_identity(), q_cl=g.quat_identity(), d=2.0)

    def test_hover_static_landmark(self):
        dx = full_dynamics(self.hover_state(), ControlInput(9.81, np.zeros(3)), IDENTITY_EXT)
        assert np.allclose(dx, 0, atol=1e-12)

    def test_tangency(self, rng):
        for _ in range(50):
            x = random_state(rng)
            dx = full_dynamics(x, random_input(rng), DEFAULT_EXTRINSICS)
            assert abs(dx[3:7] @ x.q_wb) < 1e-9
            assert abs(dx[7:11] @ x.q_cl) < 1e-9


class TestRk4:
    # the solver's RK4 step, dynamics._rk4, on one flat state
    def test_equilibrium_fixed_point(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0).as_vector()
        x1 = rk4_flat_step(x, ControlInput(9.81, np.zeros(3)).as_vector(), 0.05, IDENTITY_EXT)
        assert np.allclose(x1, x, atol=1e-12)

    def test_quaternion_norms_exact(self, rng):
        x = random_state(rng).as_vector()
        x1 = rk4_flat_step(x, random_input(rng).as_vector(), 0.05, DEFAULT_EXTRINSICS)
        assert abs(np.linalg.norm(x1[3:7]) - 1.0) < 1e-15
        assert abs(np.linalg.norm(x1[7:11]) - 1.0) < 1e-15

    def test_fourth_order_convergence(self, rng):
        # halving dt shrinks the end-state error roughly 16x
        x0 = QuadVisualState(v_w=[1.0, -0.5, 0.2], q_wb=g.quat_identity(), q_cl=g.bearing_from_image([0.2, -0.1]), d=4.0)
        u = ControlInput(11.0, [0.5, -0.4, 0.3]).as_vector()
        horizon = 0.16

        def integrate(dt):
            x = x0.as_vector()
            for _ in range(int(round(horizon / dt))):
                x = rk4_flat_step(x, u, dt, DEFAULT_EXTRINSICS)
            return x

        ref = integrate(1e-4)
        e1 = np.linalg.norm(integrate(0.02) - ref)
        e2 = np.linalg.norm(integrate(0.01) - ref)
        assert 10.0 < e1 / e2 < 22.0

    def test_speed_conserved_at_hover_thrust(self):
        x = QuadVisualState(v_w=[1.0, 2.0, 0.0], q_wb=g.quat_identity(), q_cl=g.quat_identity(), d=5.0).as_vector()
        u = ControlInput(9.81, np.zeros(3)).as_vector()
        for _ in range(10):
            x1 = rk4_flat_step(x, u, 0.05, IDENTITY_EXT)
            assert abs(np.linalg.norm(x1[:3]) - np.linalg.norm(x[:3])) < 1e-9
            x = x1

    def test_distance_floor(self):
        # climb at 1 m/s straight at a landmark 0.051 m above: the bearing
        # stays on the velocity, hover thrust holds the speed, and a 50 ms
        # step would end at d = 0.001 without the floor
        x = QuadVisualState(v_w=[0, 0, 1.0], q_wb=g.quat_identity(), q_cl=g.quat_identity(), d=0.051).as_vector()
        x1 = rk4_flat_step(x, ControlInput(9.81, np.zeros(3)).as_vector(), 0.05, IDENTITY_EXT)
        assert x1[11] == dynamics.D_FLOOR


class TestOneKernel:
    # one kernel serves single states and batches: a batch column is the
    # same state taken alone, bit for bit
    @staticmethod
    def batch(rng, n, ext):
        x = np.array([random_state(rng).as_vector() for _ in range(n)])
        u = np.array([random_input(rng).as_vector() for _ in range(n)])
        for k in range(0, n, 5):
            # head straight at a landmark 0.1 m away, so an RK4 step hits the floor
            u[k, 1:] = 0.0
            v_c = camera_twist(x[k, :3], np.zeros(3), x[k, 3:7], ext).v_c
            if v_c[2] < 0.0:
                x[k, :3], v_c = -x[k, :3], -v_c
            x[k, 7:11] = g.bearing_from_image(v_c[:2] / v_c[2])
            x[k, 11] = 0.1
        return x, u

    @staticmethod
    def floats(ext):
        # the float path's arguments, as ocp._rollout passes them
        return ext.p_b_cb.tolist(), g.quat_to_rotmat(ext.q_bc).tolist()

    def test_f_batch_columns_match_single_states(self, rng):
        ext = DEFAULT_EXTRINSICS
        r_bc = g.quat_to_rotmat(ext.q_bc)
        x, u = self.batch(rng, 200, ext)
        cols = np.array(kernel(x.T, u.T, ext.p_b_cb, r_bc))
        for k in range(len(x)):
            assert np.array_equal(cols[:, k], np.array(kernel(x[k], u[k], ext.p_b_cb, r_bc)))

    def test_rk4_batch_columns_match_single_states(self, rng):
        from quadvpc.dynamics import D_FLOOR

        ext = DEFAULT_EXTRINSICS
        x, u = self.batch(rng, 50, ext)
        rows = rk4_flat(x, u, 0.05, ext.p_b_cb, ext.q_bc)
        assert np.any(rows[:, 11] == D_FLOOR)
        for k in range(len(x)):
            assert np.array_equal(rows[k], rk4_flat(x[k : k + 1], u[k : k + 1], 0.05, ext.p_b_cb, ext.q_bc)[0])

    def test_float_path_matches_batch_columns(self, rng):
        from quadvpc.dynamics import D_FLOOR, _rk4

        ext = DEFAULT_EXTRINSICS
        p_b_cb, r_bc = self.floats(ext)
        x, u = self.batch(rng, 200, ext)
        f_cols = np.array(kernel(x.T, u.T, ext.p_b_cb, g.quat_to_rotmat(ext.q_bc)))
        rows = rk4_flat(x, u, 0.05, ext.p_b_cb, ext.q_bc)
        assert np.any(rows[:, 11] == D_FLOOR)
        for k in range(len(x)):
            xk, uk = x[k].tolist(), u[k].tolist()
            assert np.array_equal(np.array(kernel(xk, uk, p_b_cb, r_bc)), f_cols[:, k])
            assert np.array_equal(np.array(_rk4(xk, uk, 0.05, p_b_cb, r_bc)), rows[k])

    def test_float_path_returns_floats(self, rng, monkeypatch):
        # a numpy scalar in the float path is several times slower per
        # operation; it must fail here, not slow the solver
        import quadvpc.ocp as ocp
        from quadvpc.dynamics import _rk4

        ext = DEFAULT_EXTRINSICS
        p_b_cb, r_bc = self.floats(ext)
        x, u = self.batch(rng, 10, ext)
        for k in range(len(x)):
            xk, uk = x[k].tolist(), u[k].tolist()
            assert all(type(v) is float for v in kernel(xk, uk, p_b_cb, r_bc))
            assert all(type(v) is float for v in _rk4(xk, uk, 0.05, p_b_cb, r_bc))
        seen = []

        def spy(*args):
            out = _rk4(*args)
            seen.extend(type(v) for v in out)
            return out

        monkeypatch.setattr(ocp, "_rk4", spy)
        # numpy inputs and a numpy dt, as callers may pass them
        stages = []
        states = ocp._rollout(x[0], u, np.float64(0.05), ext, stages)
        assert len(seen) == 12 * len(u) and set(seen) == {float}
        # the stage record is flat: 48 floats a step, k1 to k4 in state order
        assert len(stages) == 48 * len(u) and all(type(v) is float for v in stages)
        # the batch kernel's stages at the same states, in that order
        h, xs, us = 0.025, states[:-1].T, u.T
        k1 = np.array(kernel(xs, us, ext.p_b_cb, ext.r_bc))
        k2 = np.array(kernel(xs + h * k1, us, ext.p_b_cb, ext.r_bc))
        k3 = np.array(kernel(xs + h * k2, us, ext.p_b_cb, ext.r_bc))
        k4 = np.array(kernel(xs + 0.05 * k3, us, ext.p_b_cb, ext.r_bc))
        batch = np.stack([k1, k2, k3, k4]).transpose(2, 0, 1).ravel()
        assert np.array(stages).tobytes() == batch.tobytes()
        recorded = rk4_jacobians(states[:-1], u, stages, 0.05, ext)
        recomputed = rk4_jacobians(states[:-1], u, batch, 0.05, ext)
        for a, b in zip(recorded, recomputed):
            assert a.tobytes() == b.tobytes()

    @staticmethod
    def sequential_oracle(x0, u, ext):
        # node by node on floats, each step from the node before; the nodes
        # before the first step that divides by zero
        from quadvpc.dynamics import _rk4

        p_b_cb, r_bc = ext.p_b_cb.tolist(), ext.r_bc.tolist()
        x = [x0.tolist()]
        for uk in u.tolist():
            try:
                x.append(list(_rk4(x[-1], uk, 0.05, p_b_cb, r_bc)))
            except ZeroDivisionError:
                break
        return np.array(x)

    def test_rollout_matches_sequential_flat_oracle(self, rng):
        from quadvpc.ocp import _rollout

        ext = DEFAULT_EXTRINSICS
        diverged = divided = 0
        for _ in range(120):
            x0 = random_state(rng, d_lo=0.06, d_hi=8.0).as_vector()
            u = np.array([random_input(rng).as_vector() for _ in range(20)])
            want = self.sequential_oracle(x0, u, ext)
            got = _rollout(x0, u, 0.05, ext)
            # bit for bit up to the dividing step, NaN from it on
            n = len(want)
            assert np.array_equal(got[:n], want, equal_nan=True)
            assert np.all(np.isnan(got[n:]))
            # each node is the batch kernel's step of the node before; at the
            # dividing step the batch gives inf or NaN instead of raising
            with np.errstate(all="ignore"):
                steps = rk4_flat(want[: len(u)], u[: len(want)], 0.05, ext.p_b_cb, ext.q_bc)
            assert np.array_equal(steps[: n - 1], want[1:], equal_nan=True)
            if n <= len(u):
                assert not np.all(np.isfinite(steps[-1]))
            diverged += int(not np.all(np.isfinite(got)))
            divided += int(n <= len(u))
        # some random rollouts blow up, and some of those divide by zero
        assert 0 < divided <= diverged < 60

    def test_nan_component_propagates_like_batch(self, rng):
        from quadvpc.dynamics import _rk4

        ext = DEFAULT_EXTRINSICS
        p_b_cb, r_bc = self.floats(ext)
        x, u = self.batch(rng, 16, ext)
        for k in range(12):
            x[k, k] = np.nan
        for k in range(4):
            u[12 + k, k] = np.nan
        with np.errstate(invalid="ignore"):
            f_cols = np.array(kernel(x.T, u.T, ext.p_b_cb, g.quat_to_rotmat(ext.q_bc)))
            rows = rk4_flat(x, u, 0.05, ext.p_b_cb, ext.q_bc)
        for k in range(16):
            xk, uk = x[k].tolist(), u[k].tolist()
            f_k = np.array(kernel(xk, uk, p_b_cb, r_bc))
            step = np.array(_rk4(xk, uk, 0.05, p_b_cb, r_bc))
            assert np.any(np.isnan(step))
            assert np.array_equal(f_k, f_cols[:, k], equal_nan=True)
            assert np.array_equal(step, rows[k], equal_nan=True)

    def test_rollout_zero_distance_fills_nan(self):
        # an exactly zero distance divides by zero: Python floats raise where
        # numpy returns inf/NaN; the rollout keeps x0 and is NaN after it,
        # with no numpy warning
        from quadvpc.ocp import _rollout

        x0 = QuadVisualState([1.0, 0.0, 0.0], g.quat_identity(), g.quat_identity(), 1.0).as_vector()
        x0[11] = 0.0
        u = np.tile(ControlInput.hover().as_vector(), (5, 1))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x = _rollout(x0, u, 0.05, DEFAULT_EXTRINSICS)
        assert x.shape == (6, 12)
        assert np.array_equal(x[0], x0) and np.all(np.isnan(x[1:]))
        assert np.array_equal(self.sequential_oracle(x0, u, DEFAULT_EXTRINSICS), x[:1])
        with np.errstate(all="ignore"):
            assert not np.all(np.isfinite(rk4_flat_step(x0, u[0], 0.05, DEFAULT_EXTRINSICS)))


class TestDynamicsJacobians:
    # the solver's exact Jacobian of its kernel _f
    def test_thrust_column_at_identity(self):
        x = QuadVisualState(np.zeros(3), g.quat_identity(), g.quat_identity(), 2.0)
        _, b = f_jacobians(x, ControlInput(9.81, np.zeros(3)), IDENTITY_EXT)
        assert np.allclose(b[0:3, 0], [0, 0, 1], atol=1e-9)

    def test_distance_rate_independent_of_distance(self, rng):
        x = random_state(rng)
        a, _ = f_jacobians(x, random_input(rng), DEFAULT_EXTRINSICS)
        n = g.bearing_n(x.q_cl)
        # dd = -n . v_c has no d dependence
        assert abs(a[11, 11]) < 1e-6

    def test_matches_independent_finite_differences(self, rng):
        ext = DEFAULT_EXTRINSICS
        for _ in range(100):
            x = random_state(rng, d_lo=1.0)
            u = random_input(rng)
            a, b = f_jacobians(x, u, ext)
            z0 = np.concatenate([x.as_vector(), u.as_vector()])
            jac = fd_jacobian(lambda z: composed_dynamics(z, ext), z0, h=1e-7)
            full = np.hstack([a, b])
            scale = np.maximum(np.abs(jac), 1.0)
            assert np.max(np.abs(full - jac) / scale) < 1e-5


class TestFdJacobianBatch:
    def test_linear_map_per_row(self, rng, monkeypatch):
        # the + and - halves and the (row, component) order of the one
        # batched call: a linear map's Jacobian is its matrix in every row.
        # Central differences are exact on it; a step of 1e-4 keeps roundoff ~1e-12.
        monkeypatch.setattr(conftest, "FD_STEP", 1e-4)
        m = rng.normal(size=(5, 7))
        z = rng.uniform(-3.0, 3.0, (4, 7))
        jac = fd_jacobian_batch(lambda zz: zz @ m.T, z)
        assert jac.shape == (4, 5, 7)
        for row in jac:
            assert np.max(np.abs(row - m)) < 1e-9

    def test_rk4_jacobians_match_single_node_oracle(self, rng):
        from quadvpc.dynamics import _rk4

        ext = DEFAULT_EXTRINSICS
        p_b_cb, r_bc = ext.p_b_cb.tolist(), ext.r_bc.tolist()
        for _ in range(3):
            x = np.array([random_state(rng, d_lo=1.0).as_vector() for _ in range(20)])
            u = np.array([random_input(rng).as_vector() for _ in range(20)])
            a, b = rk4_jacobians(x, u, rk4_stages(x, u, 0.05, ext), 0.05, ext)
            for k in range(20):
                z0 = np.concatenate([x[k], u[k]])
                jac = fd_jacobian(lambda z: _rk4(z[:12].tolist(), z[12:].tolist(), 0.05, p_b_cb, r_bc), z0, h=1e-7)
                scale = np.maximum(np.abs(jac), 1.0)
                assert np.max(np.abs(np.hstack([a[k], b[k]]) - jac) / scale) < 1e-5


class TestRk4Jacobians:
    @staticmethod
    def complex_step(x, u, ext, h=1e-30):
        # Im f(z + i h e_j) / h: the derivative of rk4_flat's arithmetic,
        # with no cancellation, so exact to roundoff away from the floor
        z = np.concatenate([x, u], axis=1).astype(complex)
        jac = np.empty((len(z), 12, 16))
        for j in range(16):
            zj = z.copy()
            zj[:, j] += 1j * h
            jac[:, :, j] = rk4_flat(zj[:, :12], zj[:, 12:], 0.05, ext.p_b_cb, ext.q_bc).imag / h
        return jac

    def test_match_complex_step(self, rng):
        ext = DEFAULT_EXTRINSICS
        x = np.array([random_state(rng, d_lo=1.0).as_vector() for _ in range(20)])
        u = np.array([random_input(rng).as_vector() for _ in range(20)])
        a, b = rk4_jacobians(x, u, rk4_stages(x, u, 0.05, ext), 0.05, ext)
        want = self.complex_step(x, u, ext)
        assert np.all(rk4_flat(x, u, 0.05, ext.p_b_cb, ext.q_bc)[:, 11] > dynamics.D_FLOOR)
        assert np.max(np.abs(np.concatenate([a, b], axis=2) - want) / np.maximum(np.abs(want), 1.0)) < 1e-12

    def test_distance_floor_rows_zero(self):
        # TestRk4::test_distance_floor's step, which the floor clamps: the
        # distance after it does not move with the state or the input
        x = QuadVisualState(v_w=[0, 0, 1.0], q_wb=g.quat_identity(), q_cl=g.quat_identity(), d=0.051).as_vector()[None]
        u = ControlInput(9.81, np.zeros(3)).as_vector()[None]
        assert rk4_flat_step(x[0], u[0], 0.05, IDENTITY_EXT)[11] == dynamics.D_FLOOR
        a, b = rk4_jacobians(x, u, rk4_stages(x, u, 0.05, IDENTITY_EXT), 0.05, IDENTITY_EXT)
        assert np.all(a[0, 11] == 0.0) and np.all(b[0, 11] == 0.0)
        assert np.any(a[0, :11] != 0.0)


class TestHomogeneousBaseline:
    def test_axis_approach(self):
        ds, dz = homogeneous_image_dynamics(np.zeros(2), 2.0, CameraTwist([0, 0, 1.0], np.zeros(3)))
        assert np.allclose(ds, 0)
        assert dz == pytest.approx(-1.0)

    def test_rotation_at_center(self):
        ds, dz = homogeneous_image_dynamics(np.zeros(2), 2.0, CameraTwist(np.zeros(3), [0, 1.0, 0]))
        assert np.allclose(ds, [-1.0, 0.0])
        assert dz == pytest.approx(0.0)

    def test_matches_exact_geometry_rates(self, rng):
        # same oracle as the bearing model: difference quotients of the
        # exactly propagated projection and depth
        delta = 1e-4
        for _ in range(100):
            s0 = rng.uniform(-0.8, 0.8, 2)
            z0 = rng.uniform(1.0, 8.0)
            v_c = rng.uniform(-2, 2, 3)
            w_c = rng.uniform(-2, 2, 3)
            ds, dz = homogeneous_image_dynamics(s0, z0, CameraTwist(v_c, w_c))
            lm = z0 * np.array([s0[0], s0[1], 1.0])

            def proj(t):
                p, q = propagate_camera_pose(np.zeros(3), g.quat_identity(), v_c, w_c, t)
                r = g.quat_rotate(g.quat_conj(q), lm - p)
                return r[:2] / r[2], r[2]

            sp, zp = proj(delta)
            sm, zm = proj(-delta)
            assert np.allclose((sp - sm) / (2 * delta), ds, atol=1e-5)
            assert (zp - zm) / (2 * delta) == pytest.approx(dz, abs=1e-5)


class TestCrossModelConsistency:
    def test_predictions_agree_and_track_truth(self, rng):
        # both parametrizations are exact kinematics; over 1 s at dt = 0.01
        # they agree with the exact screw motion and with each other
        dt, n_steps = 0.01, 100
        for trial in range(5):
            s0 = rng.uniform(-0.3, 0.3, 2)
            d0 = rng.uniform(3.0, 6.0)
            v_c = rng.uniform(-1.5, 1.5, 3)
            w_c = rng.uniform(-0.6, 0.6, 3)
            tw = CameraTwist(v_c, w_c)

            q_b = g.bearing_from_image(s0)
            lm = g.bearing_n(q_b) * d0
            s_h = s0.copy()
            z_h = d0 * g.bearing_n(q_b)[2]
            d_b = d0
            p_cam, q_cam = np.zeros(3), g.quat_identity()
            worst_b = worst_h = worst_mutual = 0.0
            for _ in range(n_steps):
                p_cam, q_cam = propagate_camera_pose(p_cam, q_cam, v_c, w_c, dt)
                r = g.quat_rotate(g.quat_conj(q_cam), lm - p_cam)
                if r[2] < 0.3:
                    break
                s_true = r[:2] / r[2]
                q_b, d_b = bearing_prediction_step(q_b, d_b, tw, dt)
                n_b = g.bearing_n(q_b)
                s_b = n_b[:2] / n_b[2]
                s_h, z_h = homogeneous_prediction_step(s_h, z_h, tw, dt)
                worst_b = max(worst_b, np.linalg.norm(s_b - s_true))
                worst_h = max(worst_h, np.linalg.norm(s_h - s_true))
                worst_mutual = max(worst_mutual, np.linalg.norm(s_b - s_h))
            assert worst_b < 1e-5
            assert worst_h < 1e-5
            assert worst_mutual < 1e-4
