"""Command-line front end.

Subcommands:
    run <config>      closed-loop scenario (hover, gate_reaching,
                      quarter_circle, full_circle)
    sweep <config>    success-rate sweep across speeds and perception modes
    predict <config>  open-loop prediction comparison
    selftest          quick smoke checks; --dump-config prints defaults

Exit code 0 means the run completed (even if the outcome was a recorded
failure; outcomes live in the summary JSON).  Nonzero is reserved for
configuration and I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import scenarios as sc
from .config import ConfigError, ScenarioConfig, default_config, dump_config, load_config
from .outputs import (
    metrics_dict,
    plot_altitude,
    plot_error_curves,
    plot_feature_scatter,
    plot_xy_paths,
    timing_dict,
    write_run_csv,
    write_solver_trace_csv,
    write_summary_json,
)


def _load(args) -> ScenarioConfig:
    cfg = load_config(args.config)
    if args.seed is not None:
        cfg.seed = args.seed
    return cfg


def _emit_closed_loop(cfg, results, outdir: Path, quiet: bool, scenario: str) -> None:
    logs = [r["log"] for r in results]
    metrics = [r["metrics"] for r in results]
    names = [f"run_{i:02d}" for i in range(len(results))]
    for name, log in zip(names, logs):
        write_run_csv(log, outdir / f"{name}.csv")
    write_solver_trace_csv(dict(zip(names, logs)), outdir / "solver_trace.csv")
    summary = {
        "scenario": scenario,
        "seed": cfg.seed,
        "runs": [
            {"name": name, **({"pose": r["pose"]} if "pose" in r else {}), **metrics_dict(m)}
            for name, r, m in zip(names, results, metrics)
        ],
        "timing": timing_dict(metrics),
    }
    write_summary_json(summary, outdir / "summary.json")
    lm = cfg.landmark.p_w_lw
    plot_xy_paths(logs, (lm[0], lm[1]), outdir / "path_xy.svg", labels=names)
    plot_altitude(logs, outdir / "altitude.svg", labels=names)
    plot_feature_scatter(logs, cfg.bounds, outdir / "feature_scatter.svg")
    if not quiet:
        for name, m in zip(names, metrics):
            print(f"{name}: outcome={m.outcome} rms_d={m.rms_distance_err:.3f} m "
                  f"alt_dev={m.max_altitude_dev:.3f} m margin={m.min_border_margin:.3f}")
        print(f"outputs written to {outdir}")


def cmd_run(args) -> int:
    cfg = _load(args)
    outdir = Path(args.out)
    if cfg.kind == "hover":
        results = [sc.scenario_hover(cfg)]
    elif cfg.kind == "gate_reaching":
        results = sc.scenario_gate_reaching(cfg)
    elif cfg.kind == "quarter_circle":
        results = [sc.scenario_quarter_circle(cfg)]
    elif cfg.kind == "full_circle":
        results = [sc.scenario_full_circle(cfg)]
    else:
        raise ConfigError(f"scenario kind {cfg.kind!r} is not runnable with 'run' (use sweep/predict)")
    _emit_closed_loop(cfg, results, outdir, args.quiet, cfg.kind)
    return 0


def cmd_sweep(args) -> int:
    cfg = _load(args)
    outdir = Path(args.out)
    out = sc.scenario_success_sweep(cfg)
    summary = {
        "scenario": "success_sweep",
        "seed": cfg.seed,
        "speeds": list(cfg.sweep.speeds),
        "trials": cfg.sweep.trials,
        "table": {mode: {f"{speed:g}": rate for speed, rate in cells.items()} for mode, cells in out["table"].items()},
        "records": out["records"],
        "timing": timing_dict(out["metrics"]),
    }
    write_summary_json(summary, outdir / "sweep_summary.json")
    if not args.quiet:
        print("speed " + " ".join(f"{s:>6g}" for s in cfg.sweep.speeds))
        for mode in ("with", "without"):
            rates = " ".join(f"{out['table'][mode][float(s)]:>6.0%}" for s in cfg.sweep.speeds)
            print(f"{mode:>7s} {rates}")
        print(f"outputs written to {outdir}")
    return 0


def cmd_predict(args) -> int:
    cfg = _load(args)
    outdir = Path(args.out)
    rep = sc.predict_compare(cfg)
    rows = ["t,err_bearing,err_homogeneous,mutual"]
    for i in range(len(rep["t"])):
        rows.append(f"{rep['t'][i]:.12g},{rep['err_bearing'][i]:.12g},{rep['err_homogeneous'][i]:.12g},{rep['mutual'][i]:.12g}")
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "prediction_errors.csv").write_text("\n".join(rows) + "\n")
    write_summary_json({"scenario": "predict_compare", "seed": cfg.seed, **rep["summary"]}, outdir / "summary.json")
    plot_error_curves(
        rep["t"],
        {"bearing": rep["err_bearing"], "homogeneous": rep["err_homogeneous"], "mutual": rep["mutual"]},
        outdir / "prediction_errors.svg",
    )
    if not args.quiet:
        for key, val in rep["summary"].items():
            print(f"{key}: {val:.3e}")
        print(f"outputs written to {outdir}")
    return 0


def cmd_selftest(args) -> int:
    if args.dump_config:
        print(dump_config(default_config(args.kind)))
        return 0
    from . import geometry
    from .costs import Bounds, CostWeights, ReferencePoint
    from .ocp import OcpParams, build_problem, solve
    from .simulator import DEFAULT_EXTRINSICS, Landmark, NoiseModel, PlantState, observe

    checks = []
    rng = np.random.default_rng(0)
    q = geometry.quat_exp(rng.normal(size=3))
    v = rng.normal(size=3)
    checks.append(("rotation preserves norm", abs(np.linalg.norm(geometry.quat_rotate(q, v)) - np.linalg.norm(v)) < 1e-12))
    s = rng.uniform(-1, 1, 2)
    checks.append(("bearing round trip", np.allclose(geometry.image_from_bearing(geometry.bearing_from_image(s)), s, atol=1e-9)))

    plant = PlantState(p_w=[4.0, 0.0, 3.0], v_w=[0, 0, 0], q_wb=geometry.quat_identity())
    meas = observe(plant, Landmark(), DEFAULT_EXTRINSICS, NoiseModel(), rng)
    from .scenarios import scenario_hover  # noqa: F401  (import check)

    params = OcpParams()
    ref_s = geometry.image_from_bearing(meas.q_cl)
    ref = ReferencePoint(ref_s, np.full(params.horizon + 1, meas.d), np.zeros(3), geometry.quat_identity())
    problem = build_problem(meas, ref, CostWeights(), Bounds(), DEFAULT_EXTRINSICS, params)
    sol = solve(problem)
    checks.append(("hover solve near equilibrium", abs(sol.inputs[0][0] - 9.81) < 0.1 and np.all(np.abs(sol.inputs[:, 1:]) < 0.01)))

    ok = True
    for name, passed in checks:
        print(f"[{'PASS' if passed else 'FAIL'}] {name}")
        ok = ok and passed
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="quadvpc", description="Visual predictive control scenarios for quadrotors")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="path to a JSON scenario config")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--quiet", action="store_true")

    p_run = sub.add_parser("run", help="closed-loop scenario")
    common(p_run)
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="success-rate sweep")
    common(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_pred = sub.add_parser("predict", help="open-loop prediction comparison")
    common(p_pred)
    p_pred.set_defaults(func=cmd_predict)

    p_self = sub.add_parser("selftest", help="smoke checks and config dump")
    p_self.add_argument("--dump-config", action="store_true")
    p_self.add_argument("--kind", default="hover", help="scenario kind for --dump-config")
    p_self.set_defaults(func=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
