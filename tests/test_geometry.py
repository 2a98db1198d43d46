import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.geometry import (
    DegenerateProjection,
    bearing_from_image,
    bearing_n,
    image_from_bearing,
    quat_exp,
    quat_identity,
    quat_mul,
    quat_rotate,
    skew,
    to_homogeneous,
)
from quadvpc.simulator import DEFAULT_EXTRINSICS

from conftest import (
    bearing_N,
    quat_oracle_from_axis_angle,
    random_quat,
    reference_bearing_from_image,
    rotations_close,
    rotmat_oracle,
)


class TestQuatMul:
    def test_identity(self, rng):
        q = random_quat(rng)
        assert np.allclose(quat_mul(quat_identity(), q), q, atol=1e-12)

    def test_inverse(self, rng):
        q = random_quat(rng)
        assert np.allclose(quat_mul(q, g.quat_conj(q)), quat_identity(), atol=1e-12)

    def test_compose_matches_rotation_matrices(self):
        # two 90 degree yaws compose to a 180 degree yaw
        q90 = quat_oracle_from_axis_angle([0, 0, 1], np.pi / 2)
        expected = rotmat_oracle(q90) @ rotmat_oracle(q90)
        got = quat_mul(q90, q90)
        assert np.allclose(rotmat_oracle(got), expected, atol=1e-12)

    def test_unit_norm_output(self, rng):
        for _ in range(20):
            q1, q2 = random_quat(rng), random_quat(rng)
            assert abs(np.linalg.norm(quat_mul(q1, q2)) - 1.0) < 1e-9


class TestQuatRotate:
    def test_identity(self):
        v = np.array([1.0, 2.0, 3.0])
        assert np.allclose(quat_rotate(quat_identity(), v), v)

    def test_axis_aligned(self):
        q = quat_oracle_from_axis_angle([1, 0, 0], np.pi / 2)
        assert np.allclose(quat_rotate(q, g.EZ), [0, -1, 0], atol=1e-12)

    def test_against_rotation_matrix_oracle(self, rng):
        qs = random_quat(rng, 1000)
        vs = rng.normal(size=(1000, 3))
        got = quat_rotate(qs, vs)
        for i in range(1000):
            assert np.allclose(got[i], rotmat_oracle(qs[i]) @ vs[i], atol=1e-12)

    def test_norm_preserving(self, rng):
        q, v = random_quat(rng), rng.normal(size=3)
        assert abs(np.linalg.norm(quat_rotate(q, v)) - np.linalg.norm(v)) < 1e-12


class TestBearing:
    def test_n_identity(self):
        assert np.allclose(bearing_n(quat_identity()), [0, 0, 1])

    def test_n_90_about_y(self):
        q = quat_oracle_from_axis_angle([0, 1, 0], np.pi / 2)
        assert np.allclose(bearing_n(q), [1, 0, 0], atol=1e-12)

    def test_n_unit(self, rng):
        for q in random_quat(rng, 50):
            assert abs(np.linalg.norm(bearing_n(q)) - 1.0) < 1e-12

    def test_N_identity(self):
        big_n = bearing_N(quat_identity())
        assert np.allclose(big_n[:, 0], [1, 0, 0])
        assert np.allclose(big_n[:, 1], [0, 1, 0])

    def test_tangent_frame_properties(self, rng):
        for q in random_quat(rng, 100):
            big_n = bearing_N(q)
            assert np.allclose(big_n.T @ bearing_n(q), 0, atol=1e-12)
            assert np.allclose(big_n.T @ big_n, np.eye(2), atol=1e-12)


class TestProjection:
    def test_optical_axis(self):
        assert np.allclose(to_homogeneous(np.array([0.0, 0.0, 5.0])), [0, 0])

    def test_division(self):
        assert np.allclose(to_homogeneous(np.array([2.0, -1.0, 2.0])), [1.0, -0.5])

    def test_zero_depth_raises(self):
        with pytest.raises(DegenerateProjection):
            to_homogeneous(np.array([1.0, 1.0, 0.0]))

    def test_behind_raises(self):
        with pytest.raises(DegenerateProjection):
            to_homogeneous(np.array([0.0, 0.0, -1.0]))


class TestAngleAxisBetween:
    # the rotation vector from e_z onto the normalized (u, v, 1) that
    # bearing_from_image exponentiates
    def test_coincident(self):
        # exactly zero when the bearing is e_z
        assert np.array_equal(bearing_from_image(np.zeros(2)), quat_exp(np.zeros(3)))

    def test_45_degrees(self):
        a = np.array([1.0, 0.0, 1.0]) / np.sqrt(2)
        q = bearing_from_image(np.array([1.0, 0.0]))
        assert np.allclose(q, quat_exp(np.array([0.0, np.pi / 4, 0.0])), atol=1e-12)
        # rotating e_z by the result must reproduce a
        assert np.allclose(quat_rotate(q, g.EZ), a, atol=1e-12)


class TestBearingImageConversions:
    def test_center_is_identity(self):
        assert np.allclose(bearing_from_image(np.zeros(2)), quat_identity())

    def test_unit_u_is_quarter_pitch(self):
        q = bearing_from_image(np.array([1.0, 0.0]))
        expected = quat_oracle_from_axis_angle([0, 1, 0], np.pi / 4)
        assert rotations_close(q, expected, tol=1e-12)

    def test_round_trip(self, rng):
        for _ in range(200):
            s = rng.uniform(-10, 10, 2)
            assert np.allclose(image_from_bearing(bearing_from_image(s)), s, atol=1e-9)

    def test_depth_scaling_consistency(self, rng):
        # bearing * range reconstructs the original relative position
        for _ in range(100):
            p = rng.uniform(-5, 5, 3)
            p[2] = rng.uniform(0.1, 8.0)
            s = to_homogeneous(p)
            rebuilt = bearing_n(bearing_from_image(s)) * np.linalg.norm(p)
            assert np.allclose(rebuilt, p, rtol=1e-9, atol=1e-12)

    def test_image_from_bearing_values(self):
        assert np.allclose(image_from_bearing(quat_identity()), [0, 0])
        q = quat_oracle_from_axis_angle([0, 1, 0], np.pi / 4)
        assert np.allclose(image_from_bearing(q), [1.0, 0.0], atol=1e-12)

    def test_image_from_bearing_behind(self):
        q = quat_oracle_from_axis_angle([1, 0, 0], np.pi)
        with pytest.raises(DegenerateProjection):
            image_from_bearing(q)


class TestSkew:
    def test_basis_cross(self):
        assert np.allclose(skew(g.EZ) @ g.EX, g.EY)

    def test_self_cross_is_zero(self, rng):
        v = rng.normal(size=3)
        assert np.allclose(skew(v) @ v, 0, atol=1e-12)

    def test_antisymmetric(self, rng):
        v = rng.normal(size=3)
        assert np.allclose(skew(v) + skew(v).T, 0)


class TestQuatExp:
    def test_zero(self):
        assert np.allclose(quat_exp(np.zeros(3)), quat_identity())

    def test_axis_aligned(self):
        q = quat_exp(np.array([0, 0, np.pi / 2]))
        assert np.allclose(q, quat_oracle_from_axis_angle([0, 0, 1], np.pi / 2), atol=1e-12)

    def test_inverse_rotation(self, rng):
        r = rng.normal(size=3)
        assert rotations_close(quat_exp(-r), g.quat_conj(quat_exp(r)), tol=1e-12)

    def test_small_angle_branch(self):
        r = np.array([1e-10, -2e-10, 1e-10])
        q = quat_exp(r)
        assert abs(np.linalg.norm(q) - 1.0) < 1e-15
        assert np.allclose(q[1:], r / 2.0, atol=1e-18)

    def test_matches_matrix_oracle(self, rng):
        for _ in range(50):
            r = rng.normal(size=3)
            if np.linalg.norm(r) > 3.0:
                continue
            got = quat_exp(r)
            expected = quat_oracle_from_axis_angle(r, np.linalg.norm(r))
            assert rotations_close(got, expected, tol=1e-12)


class TestCameraMounting:
    def test_forward_camera_rotation(self):
        # optical axis along body +x, image x along body -y, image y along body -z
        r_bc = g.quat_to_rotmat(DEFAULT_EXTRINSICS.q_bc)
        assert np.array_equal(r_bc, [[0.0, 0.0, 1.0], [-1.0, 0.0, 0.0], [0.0, -1.0, 0.0]])


def awkward_floats(rng, shape):
    """Floats of mixed signs and magnitudes with exact and signed zeros among them."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 4, shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.1] = -0.0
    return x


class TestFloatTwins:
    # each Python-float twin performs its array twin's operations in the same
    # order: equal on bytes, signed zeros included
    @staticmethod
    def same_bytes(got, want):
        return np.array(got, dtype=np.float64).tobytes() == np.asarray(want, dtype=np.float64).tobytes()

    def test_quat_prod(self, rng):
        p, q = awkward_floats(rng, (2000, 4)), awkward_floats(rng, (2000, 4))
        for a, b in zip(p, q):
            assert self.same_bytes(g._quat_prod_floats(a.tolist(), b.tolist()), g.quat_prod(a, b))

    def test_quat_normalize(self, rng):
        for q in np.concatenate([awkward_floats(rng, (2000, 4)), random_quat(rng, 500)]):
            if not q.any():
                continue
            assert self.same_bytes(g._quat_normalize_floats(q.tolist()), g.quat_normalize(q))

    def test_quat_rotate(self, rng):
        q = np.concatenate([random_quat(rng, 1000), awkward_floats(rng, (1000, 4))])
        v = awkward_floats(rng, (2000, 3))
        for a, b in zip(q, v):
            assert self.same_bytes(g._quat_rotate_floats(a.tolist(), b.tolist()), quat_rotate(a, b))

    def test_image_from_bearing(self, rng):
        qs = [bearing_from_image(s) for s in rng.uniform(-3.0, 3.0, (500, 2))] + list(random_quat(rng, 500))
        raised = 0
        for q in qs:
            try:
                want = image_from_bearing(q)
            except DegenerateProjection:
                with pytest.raises(DegenerateProjection):
                    g._image_from_bearing_floats(q.tolist())
                raised += 1
                continue
            assert self.same_bytes(g._image_from_bearing_floats(q.tolist()), want)
        assert 0 < raised < len(qs)


class TestBearingFromImageBytes:
    # against conftest.reference_bearing_from_image, the formulation with
    # np.cross, np.dot, np.clip and np.linalg.norm
    def test_random_images(self, rng):
        images = np.concatenate([rng.uniform(-1.0, 1.0, (2000, 2)), awkward_floats(rng, (2000, 2))])
        for s in images:
            assert bearing_from_image(s).tobytes() == reference_bearing_from_image(s).tobytes()
            assert bearing_from_image(tuple(s.tolist())).tobytes() == reference_bearing_from_image(s).tobytes()

    @pytest.mark.parametrize("s", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0), (1e-20, 0.0), (0.0, -3e-17), (5e-17, 5e-17), (1e-16, 0.0)])
    def test_aligned_branch(self, s):
        # |e_z x a| < 1e-16 takes the zero rotation vector; 1e-16 itself does not
        want = reference_bearing_from_image(np.array(s))
        assert bearing_from_image(s).tobytes() == want.tobytes()
        assert bearing_from_image(np.array(s)).tobytes() == want.tobytes()
