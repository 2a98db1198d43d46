"""Weights, bounds and references of the servoing OCP.

The three stage objectives (visual servoing: the rotation-compensated
bearing's error from the target bearing, plus distance error;
perception: the bearing pulled toward the optical axis; action: velocity
and attitude tracking) and the visibility cone are evaluated once, on the
feature's unit bearing ``n``, as the solver's batched residuals and hinge
in :mod:`quadvpc.ocp`.  This module holds what they are weighted,
bounded and compared with: the cost weights, the image box that the cone
``s_min n_z <= n_xy <= s_max n_z`` is built from, the thrust/body-rate
boxes, the reference of one node or a whole horizon, the dynamic
distance-based visual weight, and the input clamp.

All weights are diagonal and stored as vectors of diagonal entries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .dynamics import ControlInput, _vec3
from .geometry import Array, quat_conj

# Ceiling of the dynamic visual-weight scaling, in meters.
D_CAP = 10.0


@dataclass(frozen=True)
class CostWeights:
    """Diagonal weights of the three objectives.

    ``q_u`` is a small regularization on the deviation of the inputs
    from hover; it keeps the step QPs well posed (the printed objectives
    are state-only) and vanishes at the hover equilibrium.

    ``roots`` and ``root_diags``, the square roots that scale the
    residuals, are built on first use, once per weights object.
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

    @cached_property
    def roots(self) -> dict:
        """``sqrt`` of each state weight, by field name."""
        return {name: np.sqrt(getattr(self, name)) for name in ("q_s", "q_d", "q_p", "q_v", "q_q")}

    @cached_property
    def root_diags(self) -> dict:
        """The roots of ``q_v`` and ``q_q`` as diagonal matrices, by field name."""
        return {name: np.diag(self.roots[name]) for name in ("q_v", "q_q")}


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
        # NaN compares false, so the order checks below would let it through
        if not np.isfinite(np.concatenate([self.s_min, self.s_max, [self.c_min, self.c_max]])).all():
            raise ValueError("bounds must be finite")
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
    """Target image coordinate, distance, velocity and attitude.

    One type serves one node and a whole horizon: the fields share any
    leading shape, ``s_star (..., 2)``, ``d_star (...)``, ``v_star (..., 3)``
    and ``q_star (..., 4)``, and are broadcast to it.  The solver reads a
    horizon of leading shape ``(N+1,)``, one row per node.  Each reference
    is checked and its attitude normalised once, here.  ``n_star_xy`` and
    ``q_star_conj``, which the residuals compare with, are built on first
    use, once per reference.
    """

    s_star: Array
    d_star: Array
    v_star: Array
    q_star: Array

    def __post_init__(self):
        s, d, v, q = (np.asarray(a, dtype=np.float64) for a in (self.s_star, self.d_star, self.v_star, self.q_star))
        lead = np.broadcast_shapes(s.shape[:-1], d.shape, v.shape[:-1], q.shape[:-1])
        object.__setattr__(self, "s_star", np.array(np.broadcast_to(s, lead + (2,))))
        object.__setattr__(self, "d_star", np.array(np.broadcast_to(d, lead)))
        object.__setattr__(self, "v_star", np.array(np.broadcast_to(v, lead + (3,))))
        q = np.broadcast_to(q, lead + (4,))
        # sqrt(vecdot) rounds each row as the 1-D np.linalg.norm does; norm(axis=-1) does not
        object.__setattr__(self, "q_star", q / np.sqrt(np.vecdot(q, q))[..., None])
        if not np.all(self.d_star > 0.0):
            raise ValueError("d_star must be positive")
        if not np.all(np.isfinite(self.v_star)):
            raise ValueError("v_star must be finite")

    @cached_property
    def n_star_xy(self) -> Array:
        """``xy`` of the target bearing ``n* = (s*, 1) / |(s*, 1)|``, ``(..., 2)``."""
        s = self.s_star
        return s / np.sqrt(1.0 + np.sum(s * s, axis=-1, keepdims=True))

    @cached_property
    def q_star_conj(self) -> Array:
        """The conjugate of ``q_star``."""
        return quat_conj(self.q_star)


def dynamic_visual_weight(d_measured: float, base: Array) -> Array:
    """Scale the image-error weight by the squared measured distance.

    A fixed metric offset shrinks in the image as 1/d, so d^2 scaling
    keeps the image and distance terms metrically comparable.  The scale
    is clamped to [1, D_CAP^2] and held constant across one horizon
    solve.
    """
    if d_measured <= 0.0:
        raise ValueError("d_measured must be positive")
    scale = min(max(d_measured * d_measured, 1.0), D_CAP * D_CAP)
    return np.asarray(base, dtype=np.float64) * scale


def clamp_input(u: ControlInput, b: Bounds) -> ControlInput:
    """Componentwise clamp of thrust and body rates into their boxes."""
    return ControlInput(
        float(np.clip(u.c, b.c_min, b.c_max)),
        np.clip(u.omega_b, b.omega_min, b.omega_max),
    )
