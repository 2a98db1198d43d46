"""Scenario definitions, metrics extraction, and the prediction study.

Scenarios mirror the experiment suite: gate reaching from five initial
poses, quarter-circle tracking at configurable reference speeds, a
success-rate sweep with and without the perception objective, a
full-circle heading-constrained variant, and an open-loop comparison of
the bearing-based and homogeneous-coordinate image predictions.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import ScenarioConfig, config_from_dict, config_to_dict
from .costs import ReferencePoint
from .dynamics import (
    CameraTwist,
    _bearing_rates,
    homogeneous_image_dynamics,
    propagate_camera_pose,
    rk4,
)
from .geometry import (
    EZ,
    Array,
    bearing_from_image,
    quat_conj,
    quat_identity,
    quat_normalize,
    quat_rotate,
    quat_yaw,
)
from .ocp import VisualPredictiveController
from .simulator import (
    FeatureLost,
    Landmark,
    NoiseModel,
    PlantState,
    RunLog,
    make_reference_from_waypoint,
    observe,
    run_closed_loop,
)

# Initial conditions of the gate-reaching suite: position (m), heading (deg).
GATE_POSES = (
    ((-2.0, 6.0, 3.0), -30.0),
    ((-2.0, 3.0, 3.0), -15.0),
    ((-2.0, 0.0, 3.0), 0.0),
    ((-2.0, -3.0, 3.0), 15.0),
    ((-2.0, -6.0, 3.0), 30.0),
)

SETTLE_MARGIN = 2.0  # seconds appended after a tracking profile ends
SETTLE_RADIUS = 0.25  # per-axis settle band for convergence metrics, m


@dataclass
class Metrics:
    """Offline summary of one closed-loop run."""

    outcome: str
    rms_distance_err: float
    max_altitude_dev: float
    min_border_margin: float
    mean_solve_ms: float
    max_solve_ms: float
    final_distance_err: float
    final_image_err: float
    mean_speed: float
    settle_time_x: float | None = None
    settle_time_y: float | None = None

    @property
    def success(self) -> bool:
        return self.outcome == "success"


def evaluate_run(log: RunLog, cfg: ScenarioConfig, goal_p: Array | None = None) -> Metrics:
    """Pure function of the run log; re-evaluable offline."""
    alt0 = float(log.p_w[0, 2]) if log.n_ticks else 0.0
    margin = np.minimum(log.s_c - cfg.bounds.s_min, cfg.bounds.s_max - log.s_c)
    d_err = log.d - log.ref_d
    s_err = log.s_c - log.ref_s
    settle_x = settle_y = None
    if goal_p is not None and log.n_ticks:
        settle_x = _settle_time(log.t, log.p_w[:, 0], goal_p[0])
        settle_y = _settle_time(log.t, log.p_w[:, 1], goal_p[1])
    return Metrics(
        outcome=log.outcome,
        rms_distance_err=float(np.sqrt(np.mean(d_err**2))) if log.n_ticks else float("nan"),
        max_altitude_dev=float(np.max(np.abs(log.p_w[:, 2] - alt0))) if log.n_ticks else float("nan"),
        min_border_margin=float(np.min(margin)) if log.n_ticks else float("nan"),
        mean_solve_ms=float(np.mean(log.solve_ms)) if log.n_ticks else 0.0,
        max_solve_ms=float(np.max(log.solve_ms)) if log.n_ticks else 0.0,
        final_distance_err=float(abs(d_err[-1])) if log.n_ticks else float("nan"),
        final_image_err=float(np.linalg.norm(s_err[-1])) if log.n_ticks else float("nan"),
        mean_speed=float(np.mean(np.linalg.norm(log.v_w, axis=1))) if log.n_ticks else 0.0,
        settle_time_x=settle_x,
        settle_time_y=settle_y,
    )


def _settle_time(t: Array, x: Array, goal: float, band: float = SETTLE_RADIUS):
    outside = np.abs(x - goal) > band
    if not np.any(~outside):
        return None
    if not np.any(outside):
        return 0.0
    last_out = int(np.max(np.nonzero(outside)[0]))
    if last_out == len(t) - 1:
        return None
    return float(t[last_out + 1])


def make_controller(cfg: ScenarioConfig, perception: bool | None = None) -> VisualPredictiveController:
    return VisualPredictiveController(
        weights=cfg.effective_weights(perception),
        bounds=cfg.bounds,
        extrinsics=cfg.extrinsics,
        params=cfg.ocp,
    )


def _fly(cfg: ScenarioConfig, plant0: PlantState, refs_fn, duration: float, seed: int, perception=None) -> RunLog:
    """One closed-loop flight of a fresh controller from ``plant0``."""
    return run_closed_loop(
        make_controller(cfg, perception),
        refs_fn,
        plant0,
        cfg.landmark,
        cfg.extrinsics,
        cfg.noise,
        duration=duration,
        dt=cfg.ocp.dt,
        seed=seed,
        sensor_bounds=(cfg.bounds.s_min, cfg.bounds.s_max),
    )


# ---------------------------------------------------------------------------
# Reference trajectories


@dataclass(frozen=True)
class TrapezoidProfile:
    """Accelerate, cruise, decelerate over a fixed path length."""

    length: float
    v_max: float
    accel: float

    def __post_init__(self):
        if min(self.length, self.v_max, self.accel) <= 0.0:
            raise ValueError("length, v_max and accel must be positive")

    @property
    def v_peak(self) -> float:
        return min(self.v_max, math.sqrt(self.length * self.accel))

    @property
    def t_ramp(self) -> float:
        return self.v_peak / self.accel

    @property
    def t_total(self) -> float:
        cruise = max(0.0, self.length - self.v_peak * self.t_ramp)
        return 2.0 * self.t_ramp + cruise / self.v_peak

    def sample(self, t: float):
        """Arc position and speed at time t, clamped to the profile end."""
        vp, tr, tt = self.v_peak, self.t_ramp, self.t_total
        if t <= 0.0:
            return 0.0, 0.0
        if t >= tt:
            return self.length, 0.0
        if t < tr:
            return 0.5 * self.accel * t * t, self.accel * t
        if t > tt - tr:
            tau = tt - t
            return self.length - 0.5 * self.accel * tau * tau, self.accel * tau
        return 0.5 * vp * tr + vp * (t - tr), vp


@dataclass(frozen=True)
class ArcReference:
    """Horizontal circular-arc trajectory with a speed profile.

    Heading either faces a fixed landmark or stays constant, matching
    the tracking scenarios.
    """

    center: Array
    radius: float
    alpha0: float
    sweep: float  # signed angle
    altitude: float
    profile: TrapezoidProfile
    heading_mode: str  # "face_landmark" | "constant"
    landmark: Landmark
    constant_heading: float = 0.0

    def sample(self, t: float):
        s, speed = self.profile.sample(t)
        alpha = self.alpha0 + math.copysign(1.0, self.sweep) * s / self.radius
        wp = np.array(
            [
                self.center[0] + self.radius * math.cos(alpha),
                self.center[1] + self.radius * math.sin(alpha),
                self.altitude,
            ]
        )
        tangent = math.copysign(1.0, self.sweep) * np.array([-math.sin(alpha), math.cos(alpha), 0.0])
        v = speed * tangent
        if self.heading_mode == "face_landmark":
            to_lm = self.landmark.p_w_lw - wp
            heading = math.atan2(to_lm[1], to_lm[0])
        else:
            heading = self.constant_heading
        return wp, v, heading


def _arc_refs_fn(cfg: ScenarioConfig, arc: ArcReference):
    n, dt = cfg.ocp.horizon, cfg.ocp.dt

    def refs_fn(t: float):
        refs = []
        for k in range(n + 1):
            wp, v, heading = arc.sample(t + k * dt)
            refs.append(make_reference_from_waypoint(wp, v, heading, cfg.landmark, cfg.extrinsics))
        return refs

    return refs_fn


def quarter_circle_arc(cfg: ScenarioConfig, speed: float | None = None) -> ArcReference:
    """Quarter circle around the landmark, radius 8 m, start behind it."""
    lm = cfg.landmark
    v = cfg.max_ref_speed if speed is None else speed
    radius = 8.0
    profile = TrapezoidProfile(length=radius * math.pi / 2.0, v_max=v, accel=cfg.accel)
    return ArcReference(
        center=lm.p_w_lw.copy(),
        radius=radius,
        alpha0=math.pi,
        sweep=-math.pi / 2.0,
        altitude=float(lm.p_w_lw[2]),
        profile=profile,
        heading_mode="face_landmark",
        landmark=lm,
    )


def full_circle_arc(cfg: ScenarioConfig) -> ArcReference:
    """Full circle centered at the origin column, flown at zero heading."""
    profile = TrapezoidProfile(length=2.0 * math.pi * 4.0, v_max=cfg.max_ref_speed, accel=cfg.accel)
    return ArcReference(
        center=np.array([0.0, 0.0, 3.0]),
        radius=4.0,
        alpha0=0.0,
        sweep=2.0 * math.pi,
        altitude=3.0,
        profile=profile,
        heading_mode="constant",
        landmark=cfg.landmark,
        constant_heading=0.0,
    )


# ---------------------------------------------------------------------------
# Scenario runners


def gate_goal_waypoint(cfg: ScenarioConfig) -> Array:
    """Body position whose camera sits goal_distance in front of the landmark."""
    lm = cfg.landmark.p_w_lw
    return lm - np.array([cfg.goal_distance, 0.0, 0.0]) - cfg.extrinsics.p_b_cb


def _run_tracking(cfg: ScenarioConfig, arc: ArcReference, perception=None, seed=None, jitter=None) -> RunLog:
    """Fly ``arc`` from its start, offset by ``jitter`` if given."""
    wp0, _, heading0 = arc.sample(0.0)
    if jitter is not None:
        wp0 = wp0 + jitter
    plant0 = PlantState(p_w=wp0, v_w=np.zeros(3), q_wb=quat_yaw(heading0))
    duration = min(cfg.duration, arc.profile.t_total + SETTLE_MARGIN)
    return _fly(cfg, plant0, _arc_refs_fn(cfg, arc), duration, cfg.seed if seed is None else seed, perception)


def scenario_hover(cfg: ScenarioConfig):
    """Regulation at the initial pose; reference taken from the first view."""
    heading = math.radians(cfg.initial_heading_deg)
    plant0 = PlantState(p_w=np.asarray(cfg.initial_position, float), v_w=np.zeros(3), q_wb=quat_yaw(heading))
    rng = np.random.default_rng(cfg.seed)
    try:
        meas = observe(plant0, cfg.landmark, cfg.extrinsics, NoiseModel(), rng, (cfg.bounds.s_min, cfg.bounds.s_max))
    except FeatureLost as exc:
        log = RunLog.empty(cfg.ocp.dt, cfg.seed, "feature_lost", exc.reason)
        return {"log": log, "metrics": evaluate_run(log, cfg)}
    n = quat_rotate(meas.q_cl, EZ)
    ref = ReferencePoint(s_star=n[:2] / n[2], d_star=meas.d, v_star=np.zeros(3), q_star=quat_yaw(heading))
    refs = [ref] * (cfg.ocp.horizon + 1)
    log = _fly(cfg, plant0, lambda t: refs, cfg.duration, cfg.seed)
    return {"log": log, "metrics": evaluate_run(log, cfg, goal_p=np.asarray(cfg.initial_position, float))}


def scenario_gate_reaching(cfg: ScenarioConfig, poses=GATE_POSES):
    """Reach a fixed reference image and distance from varied initial poses."""
    goal_wp = gate_goal_waypoint(cfg)
    goal_ref = make_reference_from_waypoint(goal_wp, np.zeros(3), 0.0, cfg.landmark, cfg.extrinsics)
    refs = [goal_ref] * (cfg.ocp.horizon + 1)
    results = []
    for i, (pos, heading_deg) in enumerate(poses):
        plant0 = PlantState(p_w=np.asarray(pos, float), v_w=np.zeros(3), q_wb=quat_yaw(math.radians(heading_deg)))
        log = _fly(cfg, plant0, lambda t: refs, cfg.duration, cfg.seed + i)
        results.append(
            {
                "pose": {"position": list(pos), "heading_deg": heading_deg},
                "log": log,
                "metrics": evaluate_run(log, cfg, goal_p=goal_wp),
            }
        )
    return results


def scenario_quarter_circle(cfg: ScenarioConfig, speed: float | None = None):
    """Track the 8 m quarter circle at a given maximum reference speed."""
    arc = quarter_circle_arc(cfg, speed)
    log = _run_tracking(cfg, arc)
    return {"speed": cfg.max_ref_speed if speed is None else speed, "log": log, "metrics": evaluate_run(log, cfg)}


def scenario_full_circle(cfg: ScenarioConfig):
    """Track the 4 m circle at constant zero heading (perception stress case)."""
    arc = full_circle_arc(cfg)
    log = _run_tracking(cfg, arc)
    return {"log": log, "metrics": evaluate_run(log, cfg)}


# ---------------------------------------------------------------------------
# Success-rate sweep


def _sweep_run_seed(base_seed: int, speed_idx: int, mode_idx: int, trial: int) -> int:
    return base_seed * 1_000_000 + speed_idx * 10_000 + mode_idx * 1_000 + trial


def _sweep_trial(payload: dict) -> tuple[dict, Metrics]:
    """One seeded tracking run of a sweep cell (top level for pickling): record, metrics."""
    cfg = config_from_dict(payload["config"])
    speed = payload["speed"]
    perception = payload["perception"]
    run_seed = payload["run_seed"]
    sigma = cfg.sweep.position_jitter
    jitter = np.random.default_rng(run_seed + 13).normal(0.0, sigma, 3) if sigma > 0 else np.zeros(3)
    log = _run_tracking(cfg, quarter_circle_arc(cfg, speed), perception, run_seed, jitter)
    m = evaluate_run(log, cfg)
    return {
        "speed": speed,
        "mode": "with" if perception else "without",
        "trial": payload["trial"],
        "seed": run_seed,
        "outcome": log.outcome,
        "success": m.success,
        "rms_distance_err": m.rms_distance_err,
        "max_altitude_dev": m.max_altitude_dev,
        "min_border_margin": m.min_border_margin,
        "ticks": log.n_ticks,
        "sqp_iters": int(np.sum(log.sqp_iters)),
    }, m


def scenario_success_sweep(cfg: ScenarioConfig):
    """Seeded trials per speed, with and without the perception objective.

    A trial succeeds when the track completes with no feature loss and
    no divergence.  Cells run as independent parallel processes; results
    are collected and written by the parent only.  ``metrics`` add the
    wall-clock solve times to the deterministic ``records``.
    """
    cfg_dict = config_to_dict(cfg)
    payloads = []
    for si, speed in enumerate(cfg.sweep.speeds):
        for mi, perception in enumerate((True, False)):
            for trial in range(cfg.sweep.trials):
                payloads.append(
                    {
                        "config": cfg_dict,
                        "speed": float(speed),
                        "perception": perception,
                        "trial": trial,
                        "run_seed": _sweep_run_seed(cfg.seed, si, mi, trial),
                    }
                )
    jobs = cfg.sweep.jobs if cfg.sweep.jobs > 0 else (os.cpu_count() or 1)
    if jobs > 1 and len(payloads) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(payloads))) as pool:
            trials = list(pool.map(_sweep_trial, payloads))
    else:
        trials = [_sweep_trial(p) for p in payloads]
    records = [record for record, _ in trials]

    table: dict = {"with": {}, "without": {}}
    for speed in cfg.sweep.speeds:
        for mode in ("with", "without"):
            cell = [r for r in records if r["mode"] == mode and r["speed"] == float(speed)]
            table[mode][float(speed)] = sum(r["success"] for r in cell) / len(cell)
    return {"table": table, "records": records, "metrics": [m for _, m in trials]}


# ---------------------------------------------------------------------------
# Open-loop prediction comparison


def _twist_at(cfg: ScenarioConfig, t: float) -> CameraTwist:
    p = cfg.predict
    v = np.asarray(p.v_c, float)
    w = np.asarray(p.w_c, float)
    if p.kind == "sinusoid":
        v = v * math.cos(2.0 * math.pi * t / max(p.duration, 1e-9))
        w = w * math.sin(2.0 * math.pi * t / max(p.duration, 1e-9) + 0.4)
    return CameraTwist(v_c=v, w_c=w)


def bearing_prediction_step(q_cl: Array, d: float, twist: CameraTwist, dt: float):
    """RK4 step of the bearing-distance feature state under a frozen twist."""
    q, dd = rk4(lambda z: _bearing_rates(*z, twist.v_c, twist.w_c)[1:], (q_cl, np.array([d])), dt)
    return quat_normalize(q), float(dd[0])


def homogeneous_prediction_step(s: Array, z_depth: float, twist: CameraTwist, dt: float):
    """RK4 step of the homogeneous-coordinate feature state."""
    return tuple(rk4(lambda z: homogeneous_image_dynamics(*z, twist), (s, z_depth), dt))


def predict_compare(cfg: ScenarioConfig):
    """Open-loop drift of both visual prediction strategies.

    Propagates the same piecewise-constant twist profile three ways:
    exact screw motion of the camera (ground truth), RK4 on the
    bearing-distance state, RK4 on homogeneous coordinates plus depth.
    Reports per-step image-space errors and the mutual discrepancy.
    """
    p = cfg.predict
    n_steps = int(round(p.duration / p.dt))
    s0 = np.asarray(p.s0, float)
    q0 = bearing_from_image(s0)
    d0 = float(p.d0)

    # ground truth: world frame coincides with the initial camera frame
    lm = quat_rotate(q0, EZ) * d0
    p_cam, q_cam = np.zeros(3), quat_identity()
    q_b, d_b = q0.copy(), d0
    n0 = quat_rotate(q0, EZ)
    s_h = s0.copy()
    z_h = d0 * float(n0[2])

    t_grid = [0.0]
    s_true = [s0.copy()]
    s_bear = [s0.copy()]
    s_homo = [s0.copy()]
    for k in range(n_steps):
        tw = _twist_at(cfg, k * p.dt)
        p_cam, q_cam = propagate_camera_pose(p_cam, q_cam, tw.v_c, tw.w_c, p.dt)
        r = quat_rotate(quat_conj(q_cam), lm - p_cam)
        s_true.append(r[:2] / r[2])
        q_b, d_b = bearing_prediction_step(q_b, d_b, tw, p.dt)
        nb = quat_rotate(q_b, EZ)
        s_bear.append(nb[:2] / nb[2])
        s_h, z_h = homogeneous_prediction_step(s_h, z_h, tw, p.dt)
        s_homo.append(s_h.copy())
        t_grid.append((k + 1) * p.dt)

    s_true = np.array(s_true)
    s_bear = np.array(s_bear)
    s_homo = np.array(s_homo)
    err_bear = np.linalg.norm(s_bear - s_true, axis=1)
    err_homo = np.linalg.norm(s_homo - s_true, axis=1)
    mutual = np.linalg.norm(s_bear - s_homo, axis=1)
    return {
        "t": np.array(t_grid),
        "s_true": s_true,
        "s_bearing": s_bear,
        "s_homogeneous": s_homo,
        "err_bearing": err_bear,
        "err_homogeneous": err_homo,
        "mutual": mutual,
        "summary": {
            "max_err_bearing": float(np.max(err_bear)),
            "max_err_homogeneous": float(np.max(err_homo)),
            "max_mutual": float(np.max(mutual)),
        },
    }
