"""Closed-loop benchmark of the quadvpc controller.

Usage (from the repository root):

    python3 bench/run.py --workload hover_hold|gate_reach|track_fast|all \
        --seed N --seconds S --trace 0|1

One closed loop runs at a time in this process, so each control tick
starts when the previous one ends.  The run flies whole rounds of its
workload (see ``workloads.py``) until ``--seconds`` have passed and at
least ``MIN_SOLVES`` ticks were solved, then checks every flight.

With ``--trace 0`` it reports the end-to-end metrics, their times scaled
to a reference host speed by a calibration kernel timed at every tick
(``clock.py``; the raw wall-clock figures go to the record); with ``--trace 1``
it flies the first round untraced and again traced (the two must give
identical outputs), keeps flying traced rounds, and reports per-layer
metrics per tick.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``;
the full record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from clock import REF_KERNEL_MS, TickClock, kernel_times

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

MIN_SOLVES = 200  # so at least 10 solve times lie beyond the p95
TIME_CAP_S = 120.0  # no new round starts after this, whatever the tick count
SETUP_PROBES = 9
SETUP_KERNEL_CALLS = 10  # before and after each probe
SETUP_TIMEOUT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "ticks_per_s": "ticks/s", "solve_ms_p50": "ms", "solve_ms_p95": "ms"}


def tail_percentile(values, q: float, min_beyond: int = 10) -> float:
    """Nearest-rank ``q``-quantile of ``values``.

    Refused with ``ValueError`` unless at least ``min_beyond`` samples
    lie beyond it, so the figure is a tail and not one outlier.
    """
    ordered = sorted(values)
    n = len(ordered)
    rank = max(1, math.ceil(q * n - 1e-9))
    if n - rank < min_beyond:
        raise ValueError(f"{n} samples leave {n - rank} beyond the {q} quantile, need {min_beyond}")
    return ordered[rank - 1]


@dataclass
class Round:
    flights: list
    wall: float  # host-scaled when the round was clocked, else raw
    errors: list
    raw_wall: float
    solve_ms: np.ndarray  # solve times of every tick in order, scaled as ``wall``

    @property
    def flown(self) -> int:
        return sum(f.flown for f in self.flights)


def fly_round(wl, specs, clocked: bool = False) -> Round:
    """Fly one round; ``clocked`` scales its times to the reference host (see ``clock.py``)."""
    with TickClock() if clocked else nullcontext() as tick_clock:
        t0 = time.perf_counter()
        flights = wl.fly(specs)
        t1 = time.perf_counter()
    raw_solve = np.concatenate([np.asarray(f.log.solve_ms, float) for f in flights])
    wall, solve_ms = tick_clock.scaled(t0, t1, raw_solve) if clocked else (t1 - t0, raw_solve)
    return Round(flights, wall, wl.check(flights), t1 - t0, solve_ms)


def fly_rounds(wl, seconds: float, start: float, rounds: list, clocked: bool = False) -> list:
    """Append whole rounds until the time and the solve count are reached."""
    while True:
        elapsed = time.perf_counter() - start
        enough = elapsed >= seconds and sum(r.flown for r in rounds) >= MIN_SOLVES
        if rounds and (enough or elapsed >= TIME_CAP_S):
            return rounds
        rounds.append(fly_round(wl, wl.next_round(), clocked))


def ticks_per_s(rounds, raw: bool = False) -> float:
    return sum(r.flown for r in rounds) / sum(r.raw_wall if raw else r.wall for r in rounds)


def setup_seconds(name: str) -> tuple:
    """Median host-scaled and raw set-up times over fresh interpreters.

    One probe runs first and is discarded, so the files the imports read
    are in the page cache for every probe that counts.  Each probe is
    scaled like a tick, by the kernel timed in this process right before
    and right after it.
    """
    scaled, raw = [], []
    for i in range(SETUP_PROBES + 1):
        before = kernel_times(SETUP_KERNEL_CALLS)
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        after = kernel_times(SETUP_KERNEL_CALLS)
        if i:
            seconds = float(out.stdout.split()[-1])
            scaled.append(seconds * REF_KERNEL_MS / statistics.median(before + after))
            raw.append(seconds)
    return statistics.median(scaled), statistics.median(raw)


def end_to_end(setup_s: float, rounds) -> dict:
    solve_ms = np.concatenate([r.solve_ms for r in rounds])
    return {
        "setup_s": setup_s,
        "ticks_per_s": ticks_per_s(rounds),
        "solve_ms_p50": float(np.median(solve_ms)),
        "solve_ms_p95": tail_percentile(solve_ms, 0.95),
    }


def raw_end_to_end(setup_s: float, rounds) -> dict:
    """The unscaled wall-clock figures, kept in the record beside the metrics."""
    solve_ms = [float(v) for r in rounds for f in r.flights for v in f.log.solve_ms]
    return {
        "setup_s": setup_s,
        "ticks_per_s": ticks_per_s(rounds, raw=True),
        "solve_ms_p50": statistics.median(solve_ms),
        "solve_ms_p95": tail_percentile(solve_ms, 0.95),
    }


def per_layer(tracer, rounds, accepted: int, overhead: float) -> dict:
    """Per-tick layer figures of the traced rounds, in (value, unit) pairs."""
    ticks = sum(r.flown for r in rounds)
    stats = tracer.stats

    def ms(layer, self_time=False):
        s = stats[layer]
        return 1e3 * (s.self_time if self_time else s.total) / ticks, "ms/tick"

    def count(layer):
        return stats[layer].calls / ticks, "count/tick"

    solves = stats["ocp.solve"].calls
    trials = stats["ocp.rollout"].parents.get("ocp.solve", 0) - solves  # first rollout of a solve is its start point
    sqp_iters = sum(float(v) for r in rounds for f in r.flights for v in f.log.sqp_iters)
    return {
        "ocp.solve_ms": ms("ocp.solve"),
        "ocp.sqp_iters": (sqp_iters / ticks, "count/tick"),
        "ocp.models": count("ocp.reduced_model"),
        "ocp.kkt_models": count("ocp.kkt_residual"),
        "ocp.condense_ms": ms("ocp.reduced_model", self_time=True),
        "ocp.stage_jacobians_ms": ms("ocp.stage_jacobians"),
        "ocp.stage_outputs_ms": ms("ocp.stage_outputs"),
        "ocp.step_qp_ms": ms("ocp.step_qp"),
        "ocp.step_qp_calls": count("ocp.step_qp"),
        "ocp.rollout_ms": ms("ocp.rollout"),
        "ocp.rollouts": count("ocp.rollout"),
        # no trial rollout means no wasted one
        "ocp.ls_accept_ratio": (accepted / trials if trials > 0 else 1.0, "ratio"),
        "ocp.warm_shift_ms": ms("ocp.warm_shift"),
        "dynamics.rk4_jacobians_ms": ms("dynamics.rk4_jacobians"),
        "dynamics.rk4_jacobian_calls": count("dynamics.rk4_jacobians"),
        "dynamics.rk4_flat_ms": ms("dynamics.rk4_flat"),
        "simulator.plant_ms": ms("simulator.plant_step"),
        "simulator.plant_steps": count("simulator.plant_step"),
        "simulator.observe_ms": ms("simulator.observe"),
        "scenarios.reference_ms": ms("scenarios.reference"),
        "scenarios.references": count("scenarios.reference"),
        "trace.overhead": (overhead, "ratio"),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from spans import Tracer

    wl = workloads.WORKLOADS[name](seed)
    start = time.perf_counter()
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace)}
    errors = []
    if not trace:
        rounds = fly_rounds(wl, seconds, start, [], clocked=True)
        setup_s, raw_setup_s = setup_seconds(name)
        metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in end_to_end(setup_s, rounds).items()}
        record["raw"] = raw_end_to_end(raw_setup_s, rounds)
    else:
        specs = wl.next_round()
        plain = fly_round(wl, specs)
        accepted = [0]

        def count_accepted(sol):
            accepted[0] += len(sol.iter_merits) - 1

        with Tracer(on_result={"ocp.solve": count_accepted}) as tracer:
            rounds = fly_rounds(wl, seconds, start, [fly_round(wl, specs)])
        if workloads.digest(plain.flights) != workloads.digest(rounds[0].flights):
            errors.append("the traced round's outputs differ from the untraced round's")
        overhead = ticks_per_s(rounds[:1]) / ticks_per_s([plain])
        metrics = per_layer(tracer, rounds, accepted[0], overhead)
        for layer in tracer.absent:
            print(f"absent layer: {layer} (reported as 0)")
        record["absent_layers"] = tracer.absent
        record["layers"] = {k: v.as_dict() for k, v in tracer.stats.items()}
        record["untraced_round"] = {"wall_s": plain.wall, "ticks": plain.flown}

    flights = [f for r in rounds for f in r.flights]
    for r in rounds:
        errors += r.errors
    record.update(
        attempted=sum(f.planned for f in flights),
        failed=sum(f.failed for f in flights),
        errors=errors,
        metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        rounds=[
            {
                "wall_s": r.wall,
                "ticks": r.flown,
                "sqp_iters": int(sum(f.log.sqp_iters.sum() for f in r.flights)),
                "digest": workloads.digest(r.flights),
                "flights": [
                    {"spec": f.spec, "planned": f.planned, "flown": f.flown, "outcome": f.log.outcome,
                     "infeasible": f.infeasible}
                    for f in r.flights
                ],
            }
            for r in rounds
        ],
    )
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "quadvpc" / "__init__.py").is_file():
        print(f"error: no quadvpc package under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; choose from {list(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    records = []
    for name in names:
        rec = run_workload(name, args.seed, args.seconds, bool(args.trace))
        rec["machine"] = {"cpus": os.cpu_count(), "python": platform.python_version(), "numpy": np.__version__}
        (OUT / f"{name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rec, indent=1) + "\n")
        for err in rec["errors"]:
            print(f"check failed: {name}: {err}", file=sys.stderr)
        print(f"{name}: attempted {rec['attempted']} ticks, failed {rec['failed']}, "
              f"first-round digest {rec['rounds'][0]['digest'][:16]}")
        for metric, m in rec["metrics"].items():
            raw = rec.get("raw", {}).get(metric)
            print(f"  {metric:28s} {m['value']:12.4f} {m['unit']}" + ("" if raw is None else f"   (raw wall clock {raw:.4f})"))
        records.append(rec)

    single = len(records) == 1
    result = {
        "correct": not any(r["errors"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": {
            (k if single else f"{r['workload']}.{k}"): v for r in records for k, v in r["metrics"].items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
