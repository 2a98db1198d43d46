"""The benchmark's closed-loop workloads.

A workload is a sequence of rounds made from the seed.  A round is a
fixed set of noise-free flights, each run through a public scenario
entry point of ``quadvpc.scenarios``; every run flies whole rounds, so
each run holds the same mix of flights.  Poses and speeds are drawn
afresh for every round, so no two flights of a run are the same.

Each workload also checks its flights against ``oracles`` and against
properties the method must have.  A check returns a list of messages,
empty when the flights pass.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

import oracles
from quadvpc import scenarios
from quadvpc.config import default_config
from quadvpc.costs import ReferencePoint
from quadvpc.geometry import EZ, quat_rotate, quat_yaw
from quadvpc.simulator import NoiseModel, PlantState, make_reference_from_waypoint, observe

HOVER_DURATION = 5.0  # s, as in acceptance criterion 4
HOVER_RANGE = (1.6, 2.2)  # m, camera-to-landmark distance of the nearby poses
HOVER_BEARING_DEG = 15.0
HOVER_MAX_DRIFT = 0.1  # m, criterion 4

GATE_DURATION = 3.0  # s: the reaching phase; later ticks only hover at the goal
GATE_JITTER_M = 0.2
GATE_JITTER_DEG = 2.0
GATE_GOAL_TOL = 0.1  # m, final camera-to-landmark distance against goal_distance
GATE_MIRROR_TOL = 1e-4  # m

TRACK_SPEEDS = (7.5, 9.0)  # m/s, split into one stratum per flight of a round
TRACK_FLIGHTS = 3
TRACK_RADIUS = 8.0  # m, the quarter circle of scenarios.quarter_circle_arc
TRACK_START_ANGLE = math.pi  # start behind the landmark ...
TRACK_SWEEP = -math.pi / 2.0  # ... and sweep a quarter turn clockwise
# s flown after the speed profile ends.  The scenario's own 2 s margin adds
# a second of pure hover (2 SQP iterations per tick), which put the median
# solve on the sparse boundary between 3- and 4-iteration solves, so p50
# jumped between about 50 and 62 ms from run to run.  After 1 s the
# vehicle is within 0.04 m of the arc end and the median lies inside the
# 5-iteration mode.
TRACK_SETTLE = 1.0
TRACK_END_TOL = 0.1  # m
TRACK_MAX_RADIAL_DEV = 1.0  # m

PROJECTION_TOL = 1e-8


@dataclass
class Flight:
    """One closed-loop flight: what was asked, its log, and its planned ticks."""

    spec: dict
    planned: int
    log: object

    @property
    def flown(self) -> int:
        return self.log.n_ticks

    @property
    def infeasible(self) -> int:
        return sum(s == "infeasible" for s in self.log.status)

    @property
    def failed(self) -> int:
        return self.infeasible + max(0, self.planned - self.flown)

    @property
    def complete(self) -> bool:
        """Flown to its planned end; a flight cut short has its unflown ticks counted as failed instead."""
        return self.log.outcome == "success"


def digest(flights) -> str:
    """Hash of the deterministic outputs: trajectories, inputs, tick counts, outcomes."""
    h = hashlib.sha256()
    for f in flights:
        log = f.log
        for arr in (log.t, log.p_w, log.v_w, log.q_wb, log.s_c, log.d, log.u, log.kkt, log.sqp_iters):
            h.update(np.ascontiguousarray(arr, dtype=np.float64).tobytes())
        h.update(",".join(log.status).encode())
        h.update(log.outcome.encode())
    return h.hexdigest()


def _planned(duration: float, dt: float) -> int:
    return int(round(duration / dt))


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.cfg = self.config()
        self.rng = np.random.default_rng(seed)
        self.index = 0

    @staticmethod
    def config():
        raise NotImplementedError

    def next_round(self) -> list:
        """Specs of the next round's flights."""
        specs = self.round_specs(self.index)
        self.index += 1
        return specs

    def check(self, flights) -> list:
        errors = []
        for f in flights:
            errors += check_common(self.cfg, f)
        return errors + self.check_round(flights)


class HoverHold(Workload):
    """Hover regulation at the default pose, then at nearby poses, one per round."""

    name = "hover_hold"

    @staticmethod
    def config():
        cfg = default_config("hover")
        cfg.duration = HOVER_DURATION
        return cfg

    def round_specs(self, index):
        """The default pose first, then level poses facing the landmark from nearby.

        Facing it from its altitude puts the landmark at the image centre,
        so each pose is a hover equilibrium of the controller; off-centre
        poses would turn the flight into a small re-centring manoeuvre.
        """
        if index == 0:
            pos, heading = np.asarray(self.cfg.initial_position, float), self.cfg.initial_heading_deg
        else:
            dist = self.rng.uniform(*HOVER_RANGE)
            heading = self.rng.uniform(-HOVER_BEARING_DEG, HOVER_BEARING_DEG)
            r_wb = oracles.rotation_matrix(quat_yaw(math.radians(heading)))
            pos = np.asarray(self.cfg.landmark_position, float) - dist * r_wb[:, 0] - r_wb @ self.cfg.extrinsics.p_b_cb
        return [{"position": [float(v) for v in pos], "heading_deg": float(heading)}]

    def fly(self, specs):
        flights = []
        for spec in specs:
            cfg = replace(self.cfg, initial_position=tuple(spec["position"]), initial_heading_deg=spec["heading_deg"])
            log = scenarios.scenario_hover(cfg)["log"]
            flights.append(Flight(spec, _planned(cfg.duration, cfg.ocp.dt), log))
        return flights

    def check_round(self, flights):
        errors = []
        for f in flights:
            if f.complete:
                drift = float(np.max(np.linalg.norm(f.log.p_w - f.log.p_w[0], axis=1)))
                if drift >= HOVER_MAX_DRIFT:
                    errors.append(f"hover drift {drift:.3g} m >= {HOVER_MAX_DRIFT} m at {f.spec}")
        return errors

    def set_up(self):
        """Controller and references of the first flight, as ``scenario_hover`` makes them."""
        cfg = self.cfg
        heading = math.radians(cfg.initial_heading_deg)
        plant0 = PlantState(p_w=np.asarray(cfg.initial_position, float), v_w=np.zeros(3), q_wb=quat_yaw(heading))
        meas = observe(plant0, cfg.landmark, cfg.extrinsics, NoiseModel(), np.random.default_rng(cfg.seed))
        n = quat_rotate(meas.q_cl, EZ)
        ref = ReferencePoint(s_star=n[:2] / n[2], d_star=meas.d, v_star=np.zeros(3), q_star=quat_yaw(heading))
        return scenarios.make_controller(cfg), [ref] * (cfg.ocp.horizon + 1)


class GateReach(Workload):
    """The five gate poses with one mirror-symmetric jitter per round."""

    name = "gate_reach"

    @staticmethod
    def config():
        cfg = default_config("gate_reaching")
        cfg.duration = GATE_DURATION
        return cfg

    def round_specs(self, index):
        dx, dy, dz = self.rng.uniform(-GATE_JITTER_M, GATE_JITTER_M, 3)
        dpsi = self.rng.uniform(-GATE_JITTER_DEG, GATE_JITTER_DEG)
        specs = []
        for (x, y, z), heading in scenarios.GATE_POSES:
            side = float(np.sign(y))  # +1 left, -1 right, 0 centre: poses i and 4-i mirror in y
            specs.append({"position": [x + dx, y + side * dy, z + dz], "heading_deg": heading + side * dpsi})
        return specs

    def fly(self, specs):
        poses = [(tuple(s["position"]), s["heading_deg"]) for s in specs]
        results = scenarios.scenario_gate_reaching(self.cfg, poses=poses)
        planned = _planned(self.cfg.duration, self.cfg.ocp.dt)
        return [Flight(s, planned, r["log"]) for s, r in zip(specs, results)]

    def check_round(self, flights):
        cfg = self.cfg
        errors = []
        mirror = np.array([1.0, -1.0, 1.0])
        for i, j in ((0, 4), (1, 3)):
            if not (flights[i].complete and flights[j].complete):
                continue
            a, b = flights[i].log.p_w, flights[j].log.p_w
            dev = float(np.max(np.abs(a * mirror - b), initial=0.0))
            if dev > GATE_MIRROR_TOL:
                errors.append(f"gate poses {i} and {j} not y-mirrored: {dev:.3g} m")
        centre_y = float(np.max(np.abs(flights[2].log.p_w[:, 1]), initial=0.0))
        if flights[2].complete and centre_y > GATE_MIRROR_TOL:
            errors.append(f"gate centre pose left y = 0 by {centre_y:.3g} m")
        for f in flights:
            if not f.complete:
                continue
            log = f.log
            _, _, dist = oracles.camera_view(
                log.p_w[-1:], log.q_wb[-1:], cfg.extrinsics.p_b_cb, cfg.extrinsics.q_bc, cfg.landmark_position
            )
            if abs(dist[0] - cfg.goal_distance) > GATE_GOAL_TOL:
                errors.append(f"gate final distance {dist[0]:.3f} m, goal {cfg.goal_distance} m, at {f.spec}")
        return errors

    def set_up(self):
        """Controller and references of the first flight, as ``scenario_gate_reaching`` makes them."""
        cfg = self.cfg
        goal = make_reference_from_waypoint(
            scenarios.gate_goal_waypoint(cfg), np.zeros(3), 0.0, cfg.landmark, cfg.extrinsics
        )
        return scenarios.make_controller(cfg), [goal] * (cfg.ocp.horizon + 1)


class TrackFast(Workload):
    """The 8 m quarter circle, one flight per speed stratum of 7.5-9 m/s."""

    name = "track_fast"

    @staticmethod
    def config():
        return default_config("quarter_circle")

    def round_specs(self, index):
        lo, hi = TRACK_SPEEDS
        width = (hi - lo) / TRACK_FLIGHTS
        offset = self.rng.uniform()
        return [{"speed": lo + width * (i + offset)} for i in range(TRACK_FLIGHTS)]

    def duration(self, speed: float) -> float:
        length = TRACK_RADIUS * abs(TRACK_SWEEP)
        return oracles.trapezoid_duration(length, speed, self.cfg.accel) + TRACK_SETTLE

    def fly(self, specs):
        flights = []
        for spec in specs:
            cfg = replace(self.cfg, duration=self.duration(spec["speed"]))
            log = scenarios.scenario_quarter_circle(cfg, spec["speed"])["log"]
            flights.append(Flight(spec, _planned(cfg.duration, cfg.ocp.dt), log))
        return flights

    def check_round(self, flights):
        lm = np.asarray(self.cfg.landmark_position, float)
        end = oracles.arc_end(lm, TRACK_RADIUS, TRACK_START_ANGLE, TRACK_SWEEP)
        errors = []
        for f in flights:
            if not f.complete:
                continue
            miss = float(np.linalg.norm(f.log.p_w[-1] - end))
            if miss > TRACK_END_TOL:
                errors.append(f"track ended {miss:.3f} m from the arc end at {f.spec}")
            radial = np.linalg.norm(f.log.p_w[:, :2] - lm[:2], axis=1) - TRACK_RADIUS
            dev = float(np.max(np.abs(radial)))
            if dev > TRACK_MAX_RADIAL_DEV:
                errors.append(f"track left the {TRACK_RADIUS} m circle by {dev:.3f} m at {f.spec}")
        return errors

    def set_up(self):
        """Controller and the first tick's references, as ``scenario_quarter_circle`` makes them."""
        cfg = self.cfg
        arc = scenarios.quarter_circle_arc(cfg, TRACK_SPEEDS[0])
        refs = []
        for k in range(cfg.ocp.horizon + 1):
            wp, v, heading = arc.sample(k * cfg.ocp.dt)
            refs.append(make_reference_from_waypoint(wp, v, heading, cfg.landmark, cfg.extrinsics))
        return scenarios.make_controller(cfg), refs


WORKLOADS = {w.name: w for w in (HoverHold, GateReach, TrackFast)}


def check_common(cfg, flight: Flight) -> list:
    """Checks every flight must pass: input boxes and the landmark projection."""
    log = flight.log
    errors = []
    if flight.flown > flight.planned:
        errors.append(f"flew {flight.flown} ticks, planned {flight.planned}, at {flight.spec}")
    if not flight.flown:
        return errors
    b = cfg.bounds
    lower = np.concatenate([[b.c_min], b.omega_min])
    upper = np.concatenate([[b.c_max], b.omega_max])
    if np.any(log.u < lower) or np.any(log.u > upper):
        errors.append(f"applied input outside its box at {flight.spec}")
    r_c, s, _ = oracles.camera_view(log.p_w, log.q_wb, cfg.extrinsics.p_b_cb, cfg.extrinsics.q_bc, cfg.landmark_position)
    if np.any(r_c[:, 2] <= 0.0):
        errors.append(f"landmark behind the camera at {flight.spec}")
    elif np.any(s < b.s_min) or np.any(s > b.s_max):
        errors.append(f"landmark outside the sensor box at {flight.spec}")
    else:
        gap = float(np.max(np.abs(s - log.s_c)))
        if gap > PROJECTION_TOL:
            errors.append(f"logged s_c differs from the projection by {gap:.3g} at {flight.spec}")
    return errors
