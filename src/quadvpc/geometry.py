"""Quaternion algebra and bearing-vector geometry on the unit sphere.

Quaternions are plain float64 arrays ``[w, x, y, z]`` (scalar first,
Hamilton product).  A bearing is represented by the unit quaternion that
rotates ``e_z`` onto it; the rotated ``e_x``, ``e_y`` span the 2D tangent
plane of the bearing.  Image coordinates are normalized homogeneous
coordinates ``(u, v)`` with the third component fixed at 1.

Every function broadcasts over leading axes, so the same code path serves
scalar calls and the batched evaluations inside the solver.
"""

from __future__ import annotations

import numpy as np

Array = np.ndarray

EX = np.array([1.0, 0.0, 0.0])
EY = np.array([0.0, 1.0, 0.0])
EZ = np.array([0.0, 0.0, 1.0])

# Minimum optical-axis component before a projection is declared degenerate.
EPS_Z = 1e-6


class DegenerateProjection(ValueError):
    """Point is behind or grazing the image plane (z <= EPS_Z)."""


def quat_identity() -> Array:
    return np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: Array) -> Array:
    q = np.asarray(q, dtype=np.float64)
    return q / np.linalg.norm(q, axis=-1, keepdims=True)


def quat_conj(q: Array) -> Array:
    q = np.asarray(q, dtype=np.float64)
    out = q.copy()
    out[..., 1:] = -out[..., 1:]
    return out


def quat_prod(q1: Array, q2: Array) -> Array:
    """Raw Hamilton product, no normalization.

    Accepts arbitrary 4-vectors, e.g. pure quaternions ``[0, w]`` used in
    kinematic rates.
    """
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    w1, x1, y1, z1 = (q1[..., i] for i in range(4))
    w2, x2, y2, z2 = (q2[..., i] for i in range(4))
    w = w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2
    out = np.empty(np.shape(w) + (4,))
    out[..., 0] = w
    out[..., 1] = w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2
    out[..., 2] = w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2
    out[..., 3] = w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2
    return out


def quat_mul(q1: Array, q2: Array) -> Array:
    """Rotation composition of two unit quaternions (renormalized)."""
    return quat_normalize(quat_prod(q1, q2))


def pure_quat(v: Array) -> Array:
    """Embed a 3-vector as a pure quaternion ``[0, v]``."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (4,))
    out[..., 1:] = v
    return out


def _cross(a: Array, b: Array) -> Array:
    """Componentwise cross product, broadcasting over leading axes.

    Writes into a preallocated output: for single vectors the per-call
    overhead of np.cross or np.stack dominates the six products.
    """
    ax, ay, az = a[..., 0], a[..., 1], a[..., 2]
    bx, by, bz = b[..., 0], b[..., 1], b[..., 2]
    x = ay * bz - az * by
    out = np.empty(np.shape(x) + (3,))
    out[..., 0] = x
    out[..., 1] = az * bx - ax * bz
    out[..., 2] = ax * by - ay * bx
    return out


def quat_rotate(q: Array, v: Array) -> Array:
    """Rotate vector(s) ``v`` by unit quaternion(s) ``q``.

    Uses the two-cross-product form of the sandwich product, which is
    cheaper than building the rotation matrix.
    """
    q = np.asarray(q, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    qv = q[..., 1:]
    t = 2.0 * _cross(qv, v)
    return v + q[..., :1] * t + _cross(qv, t)


def quat_to_rotmat(q: Array) -> Array:
    """3x3 rotation matrix of a unit quaternion (local frame -> parent)."""
    q = np.asarray(q, dtype=np.float64)
    w, x, y, z = (q[..., i] for i in range(4))
    row0 = np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1)
    row1 = np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1)
    row2 = np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1)
    return np.stack([row0, row1, row2], axis=-2)


def quat_from_rotmat(r: Array) -> Array:
    """Unit quaternion of a 3x3 rotation matrix (Shepperd's method)."""
    r = np.asarray(r, dtype=np.float64)
    tr = np.trace(r)
    d = np.array([1.0 + tr, 1.0 + 2.0 * r[0, 0] - tr, 1.0 + 2.0 * r[1, 1] - tr, 1.0 + 2.0 * r[2, 2] - tr])
    i = int(np.argmax(d))
    if i == 0:
        w = 0.5 * np.sqrt(d[0])
        s = 0.25 / w
        q = np.array([w, (r[2, 1] - r[1, 2]) * s, (r[0, 2] - r[2, 0]) * s, (r[1, 0] - r[0, 1]) * s])
    elif i == 1:
        x = 0.5 * np.sqrt(d[1])
        s = 0.25 / x
        q = np.array([(r[2, 1] - r[1, 2]) * s, x, (r[0, 1] + r[1, 0]) * s, (r[0, 2] + r[2, 0]) * s])
    elif i == 2:
        y = 0.5 * np.sqrt(d[2])
        s = 0.25 / y
        q = np.array([(r[0, 2] - r[2, 0]) * s, (r[0, 1] + r[1, 0]) * s, y, (r[1, 2] + r[2, 1]) * s])
    else:
        z = 0.5 * np.sqrt(d[3])
        s = 0.25 / z
        q = np.array([(r[1, 0] - r[0, 1]) * s, (r[0, 2] + r[2, 0]) * s, (r[1, 2] + r[2, 1]) * s, z])
    return quat_normalize(q)


def quat_exp(r: Array) -> Array:
    """Unit quaternion of a rotation vector, small-angle safe.

    Below ``|r| < 1e-8`` the sinc factor is replaced by its series
    expansion to avoid 0/0.
    """
    r = np.asarray(r, dtype=np.float64)
    angle = np.linalg.norm(r, axis=-1, keepdims=True)
    small = angle < 1e-8
    safe = np.where(small, 1.0, angle)
    # sin(a/2)/a, with series 1/2 - a^2/48 near zero
    sinc_half = np.where(small, 0.5 - angle * angle / 48.0, np.sin(safe / 2.0) / safe)
    w = np.cos(angle / 2.0)
    return quat_normalize(np.concatenate([w, sinc_half * r], axis=-1))


def quat_yaw(psi: float | Array) -> Array:
    """Yaw-only quaternion(s) (rotation about the world z axis) of angle(s) ``psi``."""
    half = np.asarray(psi, dtype=np.float64) / 2.0
    out = np.zeros(half.shape + (4,))
    out[..., 0] = np.cos(half)
    out[..., 3] = np.sin(half)
    return out


def random_unit_quaternion(rng: np.random.Generator, size: int | None = None) -> Array:
    """Uniformly random rotation(s), Shoemake's subgroup method."""
    shape = () if size is None else (size,)
    u1, u2, u3 = rng.random((3,) + shape)
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    q = np.stack(
        [a * np.sin(2 * np.pi * u2), a * np.cos(2 * np.pi * u2), b * np.sin(2 * np.pi * u3), b * np.cos(2 * np.pi * u3)],
        axis=-1,
    )
    return quat_normalize(q)


def skew(v: Array) -> Array:
    """Cross-product matrix: skew(v) @ w == cross(v, w)."""
    v = np.asarray(v, dtype=np.float64)
    out = np.zeros(v.shape[:-1] + (3, 3))
    out[..., [2, 0, 1], [1, 2, 0]] = v
    out[..., [1, 2, 0], [2, 0, 1]] = -v
    return out


def bearing_n(q: Array) -> Array:
    """Unit bearing vector of a bearing quaternion: q acting on e_z."""
    return quat_rotate(q, EZ)


def to_homogeneous(v: Array) -> Array:
    """Normalized image coordinates ``(x/z, y/z)`` of a 3D point.

    Raises :class:`DegenerateProjection` if any entry has ``z <= EPS_Z``.
    """
    v = np.asarray(v, dtype=np.float64)
    z = v[..., 2]
    if not np.all(z > EPS_Z):
        raise DegenerateProjection("point behind or grazing the image plane")
    return v[..., :2] / z[..., None]


def bearing_from_image(s: Array) -> Array:
    """Canonical bearing quaternion of an image coordinate.

    Normalizes ``(u, v, 1)`` to ``a``, takes the angle-axis vector from
    ``e_z`` to it, of magnitude ``arccos(a_z)`` about ``e_z x a``, and
    exponentiates.  The result is the minimal-twist lift: no rotation
    about the bearing axis itself.  ``a_z > 0``, so the axis is defined
    unless ``a = e_z``, where the vector is exactly zero.
    """
    s = np.asarray(s, dtype=np.float64)
    v = np.array([s[0], s[1], 1.0])
    a = v / np.linalg.norm(v)
    dot = float(np.clip(np.dot(EZ, a), -1.0, 1.0))
    c = np.cross(EZ, a)
    sin = float(np.linalg.norm(c))
    if sin < 1e-16:
        return quat_exp(np.zeros(3))
    # angle/sin -> 1 as the vectors align, so this stays well conditioned
    return quat_exp(c * (np.arccos(dot) / sin))


def image_from_bearing(q: Array) -> Array:
    """Image coordinates of a bearing quaternion, ``[n(q)]_z``."""
    return to_homogeneous(bearing_n(q))
