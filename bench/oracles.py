"""Geometry the benchmark computes on its own, apart from the package.

The correctness checks compare the package's logs with these functions,
so none of them imports ``quadvpc``.  Quaternions are scalar-first
Hamilton quaternions, as in the package's config and logs.
"""

from __future__ import annotations

import math

import numpy as np


def rotation_matrix(q) -> np.ndarray:
    """Rotation matrices of unit quaternions ``(..., 4)`` -> ``(..., 3, 3)``."""
    q = np.asarray(q, dtype=float)
    q = q / np.linalg.norm(q, axis=-1, keepdims=True)
    w, x, y, z = q[..., 0], q[..., 1], q[..., 2], q[..., 3]
    return np.stack(
        [
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], axis=-1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], axis=-1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], axis=-1),
        ],
        axis=-2,
    )


def camera_view(p_w, q_wb, p_b_cb, q_bc, landmark):
    """Landmark seen from the body poses ``(n, 3)``, ``(n, 4)``.

    Returns the camera-frame landmark vector ``(n, 3)``, its image
    coordinate ``r_xy / r_z`` ``(n, 2)`` and the camera-to-landmark
    distance ``(n,)``.
    """
    r_wb = rotation_matrix(q_wb)
    r_wc = r_wb @ rotation_matrix(q_bc)
    p_c = np.asarray(p_w, float) + r_wb @ np.asarray(p_b_cb, float)
    r_c = np.einsum("nji,nj->ni", r_wc, np.asarray(landmark, float) - p_c)
    return r_c, r_c[:, :2] / r_c[:, 2:3], np.linalg.norm(r_c, axis=1)


def arc_end(center, radius: float, start_angle: float, sweep: float) -> np.ndarray:
    """End point of a horizontal arc around ``center`` at its altitude."""
    end = start_angle + sweep
    return np.asarray(center, float) + radius * np.array([math.cos(end), math.sin(end), 0.0])


def trapezoid_duration(length: float, v_max: float, accel: float) -> float:
    """Time to cover ``length`` from rest to rest at bounded speed and acceleration."""
    v_peak = min(v_max, math.sqrt(length * accel))
    return 2.0 * v_peak / accel + (length - v_peak * v_peak / accel) / v_peak
