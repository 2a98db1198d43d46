"""Objectives and constraint residuals for the visual servoing OCP.

Three stage objectives: visual servoing (rotation-compensated image error
plus distance error), perception (feature pulled toward the image
center), and action (velocity and attitude tracking).  Constraints are
the image-plane visibility box and the thrust/body-rate input boxes.

All weights are diagonal and stored as vectors of diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .dynamics import ControlInput, QuadVisualState, _vec3, fd_jacobian_batch
from .geometry import (
    Array,
    DegenerateProjection,
    bearing_n,
    quat_conj,
    quat_mul,
    to_homogeneous,
)

# Stage-cost value substituted when a projection is degenerate: keeps the
# NLP finite while making behind-camera states strongly repellent.
PENALTY_CEILING = 1e6

# Ceiling of the dynamic visual-weight scaling, in meters.
D_CAP = 10.0


@dataclass(frozen=True)
class CostWeights:
    """Diagonal weights of the three objectives.

    ``q_u`` is a small regularization on the deviation of the inputs
    from hover; it keeps the step QPs well posed (the printed objectives
    are state-only) and vanishes at the hover equilibrium.
    """

    q_s: Array = field(default_factory=lambda: np.array([4.0, 4.0]))
    q_d: float = 4.0
    q_p: Array = field(default_factory=lambda: np.array([1.0, 1.0]))
    q_v: Array = field(default_factory=lambda: np.array([0.8, 0.8, 0.8]))
    q_q: Array = field(default_factory=lambda: np.array([1.5, 1.5, 1.5, 1.5]))
    q_u: Array = field(default_factory=lambda: np.array([0.1, 0.2, 0.2, 0.2]))

    def __post_init__(self):
        object.__setattr__(self, "q_s", np.asarray(self.q_s, dtype=np.float64).reshape(2).copy())
        object.__setattr__(self, "q_d", float(self.q_d))
        object.__setattr__(self, "q_p", np.asarray(self.q_p, dtype=np.float64).reshape(2).copy())
        object.__setattr__(self, "q_v", np.asarray(self.q_v, dtype=np.float64).reshape(3).copy())
        object.__setattr__(self, "q_q", np.asarray(self.q_q, dtype=np.float64).reshape(4).copy())
        object.__setattr__(self, "q_u", np.asarray(self.q_u, dtype=np.float64).reshape(4).copy())
        for name in ("q_s", "q_p", "q_v", "q_q", "q_u"):
            if np.any(getattr(self, name) < 0.0):
                raise ValueError(f"{name} entries must be nonnegative")
        if self.q_d < 0.0:
            raise ValueError("q_d must be nonnegative")


@dataclass(frozen=True)
class Bounds:
    """Visibility box (normalized image plane) and input boxes."""

    s_min: Array = field(default_factory=lambda: np.array([-1.0, -1.0]))
    s_max: Array = field(default_factory=lambda: np.array([1.0, 1.0]))
    c_min: float = 2.0
    c_max: float = 20.0
    omega_min: Array = field(default_factory=lambda: np.array([-3.0, -3.0, -3.0]))
    omega_max: Array = field(default_factory=lambda: np.array([3.0, 3.0, 3.0]))

    def __post_init__(self):
        object.__setattr__(self, "s_min", np.asarray(self.s_min, dtype=np.float64).reshape(2).copy())
        object.__setattr__(self, "s_max", np.asarray(self.s_max, dtype=np.float64).reshape(2).copy())
        object.__setattr__(self, "c_min", float(self.c_min))
        object.__setattr__(self, "c_max", float(self.c_max))
        object.__setattr__(self, "omega_min", _vec3(self.omega_min))
        object.__setattr__(self, "omega_max", _vec3(self.omega_max))
        if np.any(self.s_min >= self.s_max) or self.c_min >= self.c_max or np.any(self.omega_min >= self.omega_max):
            raise ValueError("bounds must satisfy min < max componentwise")
        if self.c_min < 0.0:
            raise ValueError("c_min must be nonnegative")

    def input_lower(self) -> Array:
        return np.concatenate([[self.c_min], self.omega_min])

    def input_upper(self) -> Array:
        return np.concatenate([[self.c_max], self.omega_max])


@dataclass(frozen=True)
class ReferencePoint:
    """Per-horizon-step target: image coordinate, distance, velocity, attitude."""

    s_star: Array
    d_star: float
    v_star: Array
    q_star: Array

    def __post_init__(self):
        object.__setattr__(self, "s_star", np.asarray(self.s_star, dtype=np.float64).reshape(2).copy())
        object.__setattr__(self, "d_star", float(self.d_star))
        object.__setattr__(self, "v_star", _vec3(self.v_star))
        q = np.asarray(self.q_star, dtype=np.float64).reshape(4)
        object.__setattr__(self, "q_star", q / np.linalg.norm(q))
        if self.d_star <= 0.0:
            raise ValueError("d_star must be positive")


def rotation_compensated_image(q_wb: Array, q_cl: Array, q_bc: Array) -> Array:
    """Image coordinate of the bearing after attitude compensation.

    Re-expresses the current bearing as seen by a camera whose body had
    identity attitude:  s = [n(q_bc^-1 (x) q_wb (x) q_bc (x) q_cl)]_z.
    Raises :class:`DegenerateProjection` if the compensated bearing
    points away from the image plane.
    """
    q = quat_mul(quat_mul(quat_conj(q_bc), quat_mul(q_wb, q_bc)), q_cl)
    return to_homogeneous(bearing_n(q))


def visual_servo_cost(x: QuadVisualState, ref: ReferencePoint, w: CostWeights, q_bc: Array) -> float:
    """Weighted image-coordinate and distance tracking error.

    The compensation uses the attitude deviation from the reference,
    ``q_star^-1 (x) q_wb``, so the cost vanishes exactly at the reference
    pose for any reference heading; with an identity reference attitude
    this reduces to plain attitude compensation.
    """
    q_rel = quat_mul(quat_conj(ref.q_star), x.q_wb)
    try:
        s_comp = rotation_compensated_image(q_rel, x.q_cl, q_bc)
    except DegenerateProjection:
        return PENALTY_CEILING
    err = s_comp - ref.s_star
    return float(err @ (w.q_s * err) + w.q_d * (x.d - ref.d_star) ** 2)


def perception_cost(x: QuadVisualState, w: CostWeights) -> float:
    """Weighted distance of the (uncompensated) feature from image center."""
    try:
        s_c = to_homogeneous(bearing_n(x.q_cl))
    except DegenerateProjection:
        return PENALTY_CEILING
    return float(s_c @ (w.q_p * s_c))


def action_cost(x: QuadVisualState, ref: ReferencePoint, w: CostWeights) -> float:
    """Velocity tracking plus attitude tracking.

    The attitude error is the raw quaternion difference after sign
    alignment, which removes the double-cover discontinuity.
    """
    dv = x.v_w - ref.v_star
    q = x.q_wb if x.q_wb @ ref.q_star >= 0.0 else -x.q_wb
    dq = q - ref.q_star
    return float(dv @ (w.q_v * dv) + dq @ (w.q_q * dq))


def _grad_flat(fun, x_flat: Array, h: float = 1e-6) -> Array:
    return fd_jacobian_batch(lambda z: np.array([[fun(row)] for row in z]), x_flat, h)[0, 0]


def visual_servo_gradient(x: QuadVisualState, ref: ReferencePoint, w: CostWeights, q_bc: Array) -> Array:
    """Gradient of the visual servoing cost on the flat state."""
    return _grad_flat(lambda z: visual_servo_cost(QuadVisualState.from_vector(z), ref, w, q_bc), x.as_vector())


def perception_gradient(x: QuadVisualState, w: CostWeights) -> Array:
    return _grad_flat(lambda z: perception_cost(QuadVisualState.from_vector(z), w), x.as_vector())


def action_gradient(x: QuadVisualState, ref: ReferencePoint, w: CostWeights) -> Array:
    return _grad_flat(lambda z: action_cost(QuadVisualState.from_vector(z), ref, w), x.as_vector())


def dynamic_visual_weight(d_measured: float, base: Array, d_cap: float = D_CAP) -> Array:
    """Scale the image-error weight by the squared measured distance.

    A fixed metric offset shrinks in the image as 1/d, so d^2 scaling
    keeps the image and distance terms metrically comparable.  The scale
    is clamped to [1, d_cap^2] and held constant across one horizon
    solve.
    """
    if d_measured <= 0.0:
        raise ValueError("d_measured must be positive")
    scale = min(max(d_measured * d_measured, 1.0), d_cap * d_cap)
    return np.asarray(base, dtype=np.float64) * scale


def visibility_residual(x: QuadVisualState, b: Bounds) -> Array:
    """Stacked slack of the image-plane visibility box.

    Returns ``(s - s_min, s_max - s)`` for the (u, v) components; the
    constraint holds iff all four entries are nonnegative.  A bearing
    behind the camera counts as an arbitrarily large violation.
    """
    n = bearing_n(x.q_cl)
    if n[2] <= 1e-6:
        return np.full(4, -PENALTY_CEILING)
    s = n[:2] / n[2]
    return np.concatenate([s - b.s_min, b.s_max - s])


def clamp_input(u: ControlInput, b: Bounds) -> ControlInput:
    """Componentwise clamp of thrust and body rates into their boxes."""
    return ControlInput(
        float(np.clip(u.c, b.c_min, b.c_max)),
        np.clip(u.omega_b, b.omega_min, b.omega_max),
    )
