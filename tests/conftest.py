"""Shared fixtures and independently coded oracles.

The oracles here deliberately avoid the package's own quaternion
helpers: rotations go through explicitly assembled 3x3 matrices so the
library code is checked against a second, independent formulation.
``composed_dynamics`` is a second formulation of the solver's dynamics
kernel, built from the package's public rate functions.
``stage_block`` is not an oracle: it exposes one objective of the
solver's own stage residuals so the cost tests check the code that runs.
"""

from __future__ import annotations

import numpy as np
import pytest

from quadvpc import geometry as g
from quadvpc.costs import ReferencePoint
from quadvpc.dynamics import ControlInput, camera_twist, image_dynamics, quad_dynamics
from quadvpc.ocp import _stage_jacobians, _stage_outputs


def rotmat_oracle(q) -> np.ndarray:
    """Rotation matrix of a [w,x,y,z] quaternion, written out directly."""
    w, x, y, z = q
    return np.array(
        [
            [w * w + x * x - y * y - z * z, 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), w * w - x * x + y * y - z * z, 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), w * w - x * x - y * y + z * z],
        ]
    )


def quat_oracle_from_axis_angle(axis, angle) -> np.ndarray:
    axis = np.asarray(axis, float)
    axis = axis / np.linalg.norm(axis)
    return np.concatenate([[np.cos(angle / 2.0)], np.sin(angle / 2.0) * axis])


def quat_oracle_from_rotmat(r) -> np.ndarray:
    """Trace-based matrix-to-quaternion conversion (assumes w not tiny)."""
    w = 0.5 * np.sqrt(max(1.0 + np.trace(r), 0.0))
    if w < 1e-6:
        raise ValueError("oracle conversion needs |angle| < ~pi")
    return np.array(
        [w, (r[2, 1] - r[1, 2]) / (4 * w), (r[0, 2] - r[2, 0]) / (4 * w), (r[1, 0] - r[0, 1]) / (4 * w)]
    )


def random_quat(rng, n=None) -> np.ndarray:
    """Random rotations by normalizing 4D gaussians (fine for testing)."""
    shape = (4,) if n is None else (n, 4)
    q = rng.normal(size=shape)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def fd_gradient(fun, x, h=1e-5) -> np.ndarray:
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, float)
    g = np.zeros_like(x)
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        g[i] = (fun(xp) - fun(xm)) / (2 * step)
    return g


def fd_jacobian(fun, x, h=1e-7) -> np.ndarray:
    """Central-difference Jacobian of a vector function (test-side oracle)."""
    x = np.asarray(x, float)
    cols = []
    for i in range(x.size):
        step = h * max(1.0, abs(x[i]))
        xp, xm = x.copy(), x.copy()
        xp[i] += step
        xm[i] -= step
        cols.append((np.asarray(fun(xp)) - np.asarray(fun(xm))) / (2 * step))
    return np.stack(cols, axis=-1)


def composed_dynamics(z, ext) -> np.ndarray:
    """Flat derivative of ``z = [x (12), u (4)]`` composed from the public
    rate functions on the raw vector (quaternions are not renormalized).

    A second formulation of the coupled dynamics, through the broadcasting
    quaternion helpers instead of the solver's hand-expanded kernel.
    """
    v_w, q_wb, q_cl, d = z[0:3], z[3:7], z[7:11], z[11]
    u = ControlInput(z[12], z[13:16])
    dv, dq_wb = quad_dynamics(v_w, q_wb, u)
    u_mu, dd = image_dynamics(q_cl, d, camera_twist(v_w, u.omega_b, q_wb, ext))
    w_bear = u_mu[0] * g.quat_rotate(q_cl, g.EX) + u_mu[1] * g.quat_rotate(q_cl, g.EY)
    dq_cl = 0.5 * g.quat_prod(g.pure_quat(w_bear), q_cl)
    return np.concatenate([dv, dq_wb, dq_cl, [dd]])


# residual columns of each objective in ocp._stage_outputs
STAGE_BLOCKS = {"visual_servo": slice(0, 3), "perception": slice(3, 5), "action": slice(5, 12)}


def _stage_node(x, ref, q_bc):
    x = np.asarray(x.as_vector() if hasattr(x, "as_vector") else x, dtype=float)
    if ref is None:  # the perception block does not read the reference
        ref = ReferencePoint(np.zeros(2), 1.0, np.zeros(3), np.array([1.0, 0.0, 0.0, 0.0]))
    q_bc = np.array([1.0, 0.0, 0.0, 0.0]) if q_bc is None else q_bc
    # the solver's batch of one node: leading shape (1,)
    return x[None, :], ReferencePoint(ref.s_star, np.reshape(ref.d_star, 1), ref.v_star, ref.q_star), q_bc


def stage_block(x, ref, w, block, q_bc=None):
    """One node's objective through the solver's own residuals, at dt = 1.

    Evaluates ``ocp._stage_outputs`` on the raw flat state (quaternions
    are not renormalized) and returns ``(cost, r, ok)``: the sum of
    squares of the ``block`` residuals, those residuals, and the
    perception validity flag.
    """
    x, ref, q_bc = _stage_node(x, ref, q_bc)
    res, _, ok = _stage_outputs(x, ref, w, q_bc, 1.0)
    r = res[0, STAGE_BLOCKS[block]]
    return float(np.sum(r * r)), r, bool(ok[0])


def stage_block_gradient(x, ref, w, block, q_bc=None):
    """The solver's gradient of ``stage_block``: ``2 J[block]^T r[block]``,
    with ``J`` from ``ocp._stage_jacobians``."""
    x, ref, q_bc = _stage_node(x, ref, q_bc)
    res, _, _ = _stage_outputs(x, ref, w, q_bc, 1.0)
    j_res, _ = _stage_jacobians(x, ref, w, q_bc, 1.0)
    cols = STAGE_BLOCKS[block]
    return 2.0 * j_res[0, cols].T @ res[0, cols]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
