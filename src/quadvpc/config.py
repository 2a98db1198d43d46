"""Scenario configuration: defaults, JSON round-trip, validation.

The on-disk format is a JSON object with nested sections; every field
has a default, so a config file only needs the values it overrides.
Unknown keys are rejected so typos fail loudly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .costs import Bounds, CostWeights
from .dynamics import CameraExtrinsics
from .ocp import OcpParams
from .simulator import DEFAULT_EXTRINSICS, Landmark, NoiseModel

SCENARIO_KINDS = (
    "hover",
    "gate_reaching",
    "quarter_circle",
    "full_circle",
    "success_sweep",
    "predict_compare",
)

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or unknown configuration content."""


@dataclass
class SweepSettings:
    """Success-rate sweep: speeds, seeded trials, both perception modes."""

    speeds: tuple = (2.0, 3.0, 4.0)
    trials: int = 20
    jobs: int = 0  # 0 = use all cores
    position_jitter: float = 0.1

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError("sweep trials must be >= 1")
        if any(s <= 0 for s in self.speeds):
            raise ConfigError("sweep speeds must be positive")


@dataclass
class PredictSettings:
    """Open-loop prediction study: twist profile and discretization."""

    kind: str = "sinusoid"  # constant | sinusoid
    v_c: tuple = (0.8, 0.4, -0.5)
    w_c: tuple = (0.3, -0.5, 0.4)
    d0: float = 5.0
    s0: tuple = (0.1, -0.1)
    dt: float = 0.01
    duration: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "sinusoid"):
            raise ConfigError(f"unknown predict profile kind {self.kind!r}")


@dataclass
class ScenarioConfig:
    kind: str = "hover"
    duration: float = 5.0
    seed: int = 0
    initial_position: tuple = (4.0, 0.0, 3.0)
    initial_heading_deg: float = 0.0
    max_ref_speed: float = 3.0
    accel_limit: float | None = None  # None -> 0.6 * c_max
    perception_enabled: bool = True
    goal_distance: float = 2.0
    landmark_position: tuple = (6.0, 0.0, 3.0)
    weights: CostWeights = field(default_factory=CostWeights)
    bounds: Bounds = field(default_factory=Bounds)
    ocp: OcpParams = field(default_factory=OcpParams)
    noise: NoiseModel = field(default_factory=NoiseModel)
    extrinsics: CameraExtrinsics = field(default_factory=lambda: DEFAULT_EXTRINSICS)
    sweep: SweepSettings = field(default_factory=SweepSettings)
    predict: PredictSettings = field(default_factory=PredictSettings)

    def __post_init__(self):
        if self.kind not in SCENARIO_KINDS:
            raise ConfigError(f"unknown scenario kind {self.kind!r}; expected one of {SCENARIO_KINDS}")
        if self.duration <= 0.0:
            raise ConfigError("duration must be positive")
        if self.max_ref_speed <= 0.0:
            raise ConfigError("max_ref_speed must be positive")

    @property
    def landmark(self) -> Landmark:
        return Landmark(p_w_lw=np.asarray(self.landmark_position, dtype=float))

    @property
    def accel(self) -> float:
        return self.accel_limit if self.accel_limit is not None else 0.6 * self.bounds.c_max

    def effective_weights(self, perception: bool | None = None) -> CostWeights:
        """Weights with the perception term switched per the config."""
        on = self.perception_enabled if perception is None else perception
        if on:
            return self.weights
        w = self.weights
        return CostWeights(q_s=w.q_s, q_d=w.q_d, q_p=np.zeros(2), q_v=w.q_v, q_q=w.q_q, q_u=w.q_u)


def default_config(kind: str = "hover") -> ScenarioConfig:
    cfg = ScenarioConfig(kind=kind)
    if kind == "gate_reaching":
        cfg.duration = 12.0
    elif kind in ("quarter_circle", "full_circle", "success_sweep"):
        cfg.duration = 30.0
        cfg.initial_position = (-2.0, 0.0, 3.0)
    if kind == "success_sweep":
        # the deterministic plant needs measurement noise and start jitter
        # for seeded trials to differ; levels sit where the perception
        # objective's extra image-border margin decides survival
        cfg.noise = NoiseModel(sigma_v=0.02, sigma_att=0.003, sigma_d_rel=0.02, sigma_px=0.03)
        cfg.sweep = SweepSettings(speeds=(5.0, 9.0, 10.0), trials=20, jobs=0, position_jitter=0.1)
    return cfg


def _merge(section: dict, allowed: dict, name: str) -> dict:
    unknown = set(section) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown key(s) in {name}: {sorted(unknown)}")
    out = dict(allowed)
    out.update(section)
    return out


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": cfg.kind,
        "duration": cfg.duration,
        "seed": cfg.seed,
        "initial": {"position": list(cfg.initial_position), "heading_deg": cfg.initial_heading_deg},
        "speed": {"max_ref_speed": cfg.max_ref_speed, "accel_limit": cfg.accel_limit},
        "perception": cfg.perception_enabled,
        "goal_distance": cfg.goal_distance,
        "landmark": {"position": list(cfg.landmark_position)},
        "weights": {
            "q_s": cfg.weights.q_s.tolist(),
            "q_d": cfg.weights.q_d,
            "q_p": cfg.weights.q_p.tolist(),
            "q_v": cfg.weights.q_v.tolist(),
            "q_q": cfg.weights.q_q.tolist(),
            "q_u": cfg.weights.q_u.tolist(),
        },
        "bounds": {
            "s_min": cfg.bounds.s_min.tolist(),
            "s_max": cfg.bounds.s_max.tolist(),
            "c_min": cfg.bounds.c_min,
            "c_max": cfg.bounds.c_max,
            "omega_min": cfg.bounds.omega_min.tolist(),
            "omega_max": cfg.bounds.omega_max.tolist(),
        },
        "ocp": {
            "horizon": cfg.ocp.horizon,
            "dt": cfg.ocp.dt,
            "max_sqp_iters": cfg.ocp.max_sqp_iters,
            "qp_tol": cfg.ocp.qp_tol,
            "slack_weight": cfg.ocp.slack_weight,
            "sqp_tol": cfg.ocp.sqp_tol,
            "reg": cfg.ocp.reg,
            "qp_max_iter": cfg.ocp.qp_max_iter,
            "constraint_margin": cfg.ocp.constraint_margin,
        },
        "noise": {
            "sigma_v": cfg.noise.sigma_v,
            "sigma_att": cfg.noise.sigma_att,
            "sigma_d_rel": cfg.noise.sigma_d_rel,
            "sigma_px": cfg.noise.sigma_px,
        },
        "camera": {
            "p_b_cb": cfg.extrinsics.p_b_cb.tolist(),
            "q_bc": cfg.extrinsics.q_bc.tolist(),
        },
        "sweep": {
            "speeds": list(cfg.sweep.speeds),
            "trials": cfg.sweep.trials,
            "jobs": cfg.sweep.jobs,
            "position_jitter": cfg.sweep.position_jitter,
        },
        "predict": {
            "kind": cfg.predict.kind,
            "v_c": list(cfg.predict.v_c),
            "w_c": list(cfg.predict.w_c),
            "d0": cfg.predict.d0,
            "s0": list(cfg.predict.s0),
            "dt": cfg.predict.dt,
            "duration": cfg.predict.duration,
        },
    }


def config_from_dict(data: dict) -> ScenarioConfig:
    base = config_to_dict(ScenarioConfig(kind=data.get("kind", "hover")))
    top = _merge(data, base, "config")
    try:
        initial = _merge(top["initial"], base["initial"], "initial")
        speed = _merge(top["speed"], base["speed"], "speed")
        weights = _merge(top["weights"], base["weights"], "weights")
        bounds = _merge(top["bounds"], base["bounds"], "bounds")
        ocp = _merge(top["ocp"], base["ocp"], "ocp")
        noise = _merge(top["noise"], base["noise"], "noise")
        camera = _merge(top["camera"], base["camera"], "camera")
        sweep = _merge(top["sweep"], base["sweep"], "sweep")
        predict = _merge(top["predict"], base["predict"], "predict")
        landmark = _merge(top["landmark"], base["landmark"], "landmark")
        return ScenarioConfig(
            kind=top["kind"],
            duration=float(top["duration"]),
            seed=int(top["seed"]),
            initial_position=tuple(initial["position"]),
            initial_heading_deg=float(initial["heading_deg"]),
            max_ref_speed=float(speed["max_ref_speed"]),
            accel_limit=None if speed["accel_limit"] is None else float(speed["accel_limit"]),
            perception_enabled=bool(top["perception"]),
            goal_distance=float(top["goal_distance"]),
            landmark_position=tuple(landmark["position"]),
            weights=CostWeights(
                q_s=np.array(weights["q_s"], dtype=float),
                q_d=float(weights["q_d"]),
                q_p=np.array(weights["q_p"], dtype=float),
                q_v=np.array(weights["q_v"], dtype=float),
                q_q=np.array(weights["q_q"], dtype=float),
                q_u=np.array(weights["q_u"], dtype=float),
            ),
            bounds=Bounds(
                s_min=np.array(bounds["s_min"], dtype=float),
                s_max=np.array(bounds["s_max"], dtype=float),
                c_min=float(bounds["c_min"]),
                c_max=float(bounds["c_max"]),
                omega_min=np.array(bounds["omega_min"], dtype=float),
                omega_max=np.array(bounds["omega_max"], dtype=float),
            ),
            ocp=OcpParams(
                horizon=int(ocp["horizon"]),
                dt=float(ocp["dt"]),
                max_sqp_iters=int(ocp["max_sqp_iters"]),
                qp_tol=float(ocp["qp_tol"]),
                slack_weight=float(ocp["slack_weight"]),
                sqp_tol=float(ocp["sqp_tol"]),
                reg=float(ocp["reg"]),
                qp_max_iter=int(ocp["qp_max_iter"]),
                constraint_margin=float(ocp["constraint_margin"]),
            ),
            noise=NoiseModel(
                sigma_v=float(noise["sigma_v"]),
                sigma_att=float(noise["sigma_att"]),
                sigma_d_rel=float(noise["sigma_d_rel"]),
                sigma_px=float(noise["sigma_px"]),
            ),
            extrinsics=CameraExtrinsics(
                p_b_cb=np.array(camera["p_b_cb"], dtype=float),
                q_bc=np.array(camera["q_bc"], dtype=float),
            ),
            sweep=SweepSettings(
                speeds=tuple(float(s) for s in sweep["speeds"]),
                trials=int(sweep["trials"]),
                jobs=int(sweep["jobs"]),
                position_jitter=float(sweep["position_jitter"]),
            ),
            predict=PredictSettings(
                kind=predict["kind"],
                v_c=tuple(float(v) for v in predict["v_c"]),
                w_c=tuple(float(v) for v in predict["w_c"]),
                d0=float(predict["d0"]),
                s0=tuple(float(v) for v in predict["s0"]),
                dt=float(predict["dt"]),
                duration=float(predict["duration"]),
            ),
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # ValueError also covers the field checks of the dataclasses
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: top-level JSON must be an object")
    data.pop("schema_version", None)
    return config_from_dict(data)


def dump_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
