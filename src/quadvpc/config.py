"""Scenario configuration: defaults, JSON round-trip, validation.

The on-disk format is a JSON object that mirrors the dataclass tree of
:class:`ScenarioConfig`: one key per field, one nested object per
nested dataclass, tuples and arrays as lists of numbers, plus
``schema_version``.  Both directions walk ``dataclasses.fields``, so a
new field needs no edit here.  A file only needs the values it
overrides; the rest come from ``default_config`` of its ``kind``.
Unknown keys, values of the wrong type and other schema versions are
rejected with the dotted path of the offending key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, is_dataclass, replace
from numbers import Integral, Real
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

SCHEMA_VERSION = 2


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
        return self.weights if on else replace(self.weights, q_p=np.zeros(2))


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
        cfg.sweep = SweepSettings(speeds=(5.0, 9.0, 10.0))
    return cfg


def _dump(obj) -> dict:
    out = {}
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_dataclass(value):
            out[f.name] = _dump(value)
        elif isinstance(value, (tuple, np.ndarray)):
            out[f.name] = [float(v) for v in value]
        else:
            out[f.name] = value
    return out


def config_to_dict(cfg: ScenarioConfig) -> dict:
    return {"schema_version": SCHEMA_VERSION, **_dump(cfg)}


def _is_number(value) -> bool:
    return isinstance(value, Real) and not isinstance(value, bool)


def _checked(default, value, where: str):
    """``value`` converted to the type of ``default``; ConfigError if it has another."""
    if isinstance(default, (bool, str)):
        if type(value) is type(default):
            return value
        raise ConfigError(f"{where} must be {'true or false' if isinstance(default, bool) else 'a string'}")
    if isinstance(default, int):
        if _is_number(value) and isinstance(value, Integral):
            return int(value)
        raise ConfigError(f"{where} must be an integer")
    if isinstance(default, float) or default is None:
        if _is_number(value) or (value is None and default is None):
            return None if value is None else float(value)
        raise ConfigError(f"{where} must be a number" + (" or null" if default is None else ""))
    if isinstance(value, (list, tuple)) and all(map(_is_number, value)):
        values = [float(v) for v in value]
        return tuple(values) if isinstance(default, tuple) else np.array(values)
    raise ConfigError(f"{where} must be a list of numbers")


def _load(obj, data: dict, path: str):
    """``obj`` with the values of ``data`` put in, section by section."""
    unknown = set(data) - {f.name for f in fields(obj)}
    if unknown:
        raise ConfigError(f"unknown key(s) in {path or 'config'}: {sorted(unknown)}")
    changes = {}
    for key, value in data.items():
        default = getattr(obj, key)
        where = f"{path}.{key}" if path else key
        if not is_dataclass(default):
            changes[key] = _checked(default, value, where)
        elif isinstance(value, dict):
            changes[key] = _load(default, value, where)
        else:
            raise ConfigError(f"{where} must be an object")
    return replace(obj, **changes)


def config_from_dict(data: dict) -> ScenarioConfig:
    """The defaults of the config's kind, overridden by ``data``."""
    if not isinstance(data, dict):
        raise ConfigError("config must be an object")
    data = dict(data)
    version = data.pop("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"schema_version {version!r} is not supported; expected {SCHEMA_VERSION}")
    try:
        return _load(default_config(data.get("kind", "hover")), data, "")
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        # ValueError also covers the field checks of the dataclasses
        raise ConfigError(f"malformed config: {exc}") from exc


def load_config(path: str | Path) -> ScenarioConfig:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
    return config_from_dict(data)


def dump_config(cfg: ScenarioConfig) -> str:
    return json.dumps(config_to_dict(cfg), indent=2, sort_keys=True)
