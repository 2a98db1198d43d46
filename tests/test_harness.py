import dataclasses
import json
import pickle
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from quadvpc.cli import main as cli_main
from quadvpc.config import (
    SCENARIO_KINDS,
    SCHEMA_VERSION,
    ConfigError,
    PredictSettings,
    ScenarioConfig,
    config_from_dict,
    config_to_dict,
    default_config,
    dump_config,
    load_config,
)
from quadvpc.scenarios import (
    GATE_POSES,
    TrapezoidProfile,
    _sweep_run_seed,
    _sweep_trial,
    evaluate_run,
    full_circle_arc,
    make_controller,
    predict_compare,
    quarter_circle_arc,
    scenario_gate_reaching,
    scenario_hover,
    scenario_success_sweep,
)
from quadvpc.ocp import OcpParams
from quadvpc.outputs import (
    CSV_HEADER,
    SOLVER_TRACE_HEADER,
    write_run_csv,
    write_solver_trace_csv,
    write_summary_json,
)


# config overrides of the wrong type, each with the dotted key it names
BAD_VALUES = [
    ({"predict": {"kind": 1}}, "predict.kind"),
    ({"ocp": {"horizon": 20.7}}, "ocp.horizon"),
    ({"sweep": {"trials": True}}, "sweep.trials"),
    ({"duration": "5"}, "duration"),
]


# config values of the right type that a check rejects (non-finite numbers,
# wrong shapes, out-of-range values), each with the dotted key it names
BAD_SHAPES = [
    ({"initial_position": [4.0, 0.0]}, "initial_position"),
    ({"initial_position": [4.0, float("nan"), 3.0]}, "initial_position"),
    ({"landmark_position": [6.0, 0.0]}, "landmark_position"),
    ({"kind": "predict_compare", "predict": {"v_c": [0.8, 0.4]}}, "predict.v_c"),
    ({"kind": "predict_compare", "predict": {"w_c": [0.3, -0.5, 0.4, 0.0]}}, "predict.w_c"),
    ({"kind": "predict_compare", "predict": {"s0": [0.1]}}, "predict.s0"),
    ({"kind": "predict_compare", "predict": {"dt": 0.0}}, "predict.dt"),
    ({"kind": "predict_compare", "predict": {"duration": -1.0}}, "predict.duration"),
    ({"kind": "hover", "duration": float("nan")}, "duration"),
    ({"initial_heading_deg": float("nan")}, "initial_heading_deg"),
    ({"max_ref_speed": float("nan")}, "max_ref_speed"),
    ({"weights": {"q_s": [1.0, float("inf")]}}, "weights.q_s"),
    ({"kind": "gate_reaching", "goal_distance": -1.0}, "goal_distance"),
    ({"kind": "success_sweep", "sweep": {"speeds": []}}, "sweep.speeds"),
    ({"kind": "predict_compare", "predict": {"d0": -1}}, "predict.d0"),
    ({"kind": "predict_compare", "predict": {"d0": 0}}, "predict.d0"),
]

ROOT = Path(__file__).resolve().parents[1]


def key_tree(data: dict) -> dict:
    return {k: key_tree(v) if isinstance(v, dict) else None for k, v in data.items()}


def field_tree(obj) -> dict:
    tree = {}
    for f in dataclasses.fields(obj):
        value = getattr(obj, f.name)
        tree[f.name] = field_tree(value) if dataclasses.is_dataclass(value) else None
    return tree


def all_keys(data: dict) -> set:
    return set(data).union(*(all_keys(v) for v in data.values() if isinstance(v, dict)))


def strip_solve_ms(csv_text: str) -> str:
    """Drop the wall-clock column before comparing artifacts."""
    col = CSV_HEADER.split(",").index("solve_ms")
    lines = []
    for line in csv_text.strip().splitlines():
        parts = line.split(",")
        del parts[col]
        lines.append(",".join(parts))
    return "\n".join(lines)


class TestConfig:
    def test_round_trip(self):
        cfg = default_config("quarter_circle")
        cfg.seed = 17
        cfg.max_ref_speed = 4.5
        cfg.ocp = OcpParams(horizon=7, dt=0.04, max_sqp_iters=3, sqp_tol=1e-5, constraint_margin=0.07)
        for f in dataclasses.fields(OcpParams):
            assert getattr(cfg.ocp, f.name) != f.default, f.name
        again = config_from_dict(json.loads(json.dumps(config_to_dict(cfg))))
        assert again.seed == 17
        assert again.max_ref_speed == 4.5
        assert np.allclose(again.weights.q_s, cfg.weights.q_s)
        assert again.ocp == cfg.ocp

    def test_unknown_key_rejected(self):
        data = config_to_dict(default_config())
        data["typo_field"] = 1
        with pytest.raises(ConfigError):
            config_from_dict(data)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            ScenarioConfig(kind="wat")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["duration", "max_ref_speed", "goal_distance", "initial_heading_deg", "predict.d0"])
    def test_non_finite_field_refused(self, key, value):
        # the JSON path refuses these in _checked; a config built in Python
        # must be refused by its own checks
        section, _, name = key.rpartition(".")
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            (PredictSettings if section else ScenarioConfig)(**{name: value})

    def test_field_checks_raise_config_error(self):
        data = config_to_dict(default_config())
        data["ocp"]["horizon"] = 0
        with pytest.raises(ConfigError, match="horizon >= 1"):
            config_from_dict(data)
        data = config_to_dict(default_config())
        data["sweep"]["trials"] = 0
        with pytest.raises(ConfigError, match="^sweep trials must be >= 1$"):
            config_from_dict(data)

    @pytest.mark.parametrize(
        "key, value",
        [("sqp_tol", 0.0), ("constraint_margin", -0.05)],
    )
    def test_config_file_with_breaking_solver_value_refused(self, tmp_path, key, value):
        data = config_to_dict(default_config("gate_reaching"))
        data["ocp"][key] = value
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ConfigError, match="required"):
            load_config(path)

    def test_load_config_file(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(default_config("hover")))
        cfg = load_config(path)
        assert cfg.kind == "hover"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_partial_config_gets_kind_defaults(self, kind):
        assert dump_config(config_from_dict({"kind": kind})) == dump_config(default_config(kind))

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_dump_keys_are_field_names(self, kind):
        cfg = default_config(kind)
        assert key_tree(config_to_dict(cfg)) == {"schema_version": None, **field_tree(cfg)}

    @pytest.mark.parametrize("kind", SCENARIO_KINDS)
    def test_dump_load_dump(self, kind):
        data = json.loads(dump_config(default_config(kind)))
        assert config_to_dict(config_from_dict(data)) == data

    @pytest.mark.parametrize("override,where", BAD_VALUES)
    def test_wrong_value_type_rejected(self, override, where):
        with pytest.raises(ConfigError, match=f"^{where} must be "):
            config_from_dict(override)

    @pytest.mark.parametrize("override,where", BAD_SHAPES)
    def test_unchecked_shape_or_value_rejected(self, override, where):
        with pytest.raises(ConfigError, match=f"^{where} must be "):
            config_from_dict(override)

    def test_number_and_null_values(self):
        cfg = config_from_dict({"duration": 7, "ocp": {"horizon": 8}})
        assert (cfg.duration, cfg.ocp.horizon) == (7.0, 8)
        assert isinstance(cfg.duration, float)
        with pytest.raises(ConfigError, match="^duration must be a finite number$"):
            config_from_dict({"duration": None})
        with pytest.raises(ConfigError, match="^weights.q_s must be a list of finite numbers$"):
            config_from_dict({"weights": {"q_s": [1.0, True]}})
        with pytest.raises(ConfigError, match="^ocp must be an object$"):
            config_from_dict({"ocp": 5})

    @pytest.mark.parametrize("version", [1, 2, 99])
    def test_other_schema_version_rejected(self, version):
        data = config_to_dict(default_config())
        data["schema_version"] = version
        with pytest.raises(ConfigError, match=f"expected {SCHEMA_VERSION}$"):
            config_from_dict(data)

    def test_readme_names_every_key(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
        for kind in SCENARIO_KINDS:
            for key in all_keys(config_to_dict(default_config(kind))):
                assert f"`{key}`" in section, key

    def test_perception_toggle(self):
        cfg = default_config()
        w_off = make_controller(cfg, False).weights
        assert np.all(w_off.q_p == 0.0)
        assert np.allclose(w_off.q_s, cfg.weights.q_s)


class TestTrapezoidProfile:
    def test_reaches_length_and_stops(self):
        prof = TrapezoidProfile(length=12.0, v_max=3.0, accel=2.0)
        s_end, v_end = prof.sample(prof.t_total)
        assert s_end == pytest.approx(12.0)
        assert v_end == 0.0

    def test_triangular_when_too_short(self):
        prof = TrapezoidProfile(length=1.0, v_max=10.0, accel=2.0)
        assert prof.v_peak == pytest.approx(np.sqrt(2.0))

    def test_speed_continuous(self):
        prof = TrapezoidProfile(length=12.566, v_max=3.0, accel=12.0)
        ts = np.linspace(0, prof.t_total, 400)
        vs = np.array([prof.sample(t)[1] for t in ts])
        assert np.max(np.abs(np.diff(vs))) < prof.accel * (ts[1] - ts[0]) + 1e-9

    def test_position_monotone(self):
        prof = TrapezoidProfile(length=5.0, v_max=2.0, accel=1.0)
        ts = np.linspace(0, prof.t_total + 1.0, 300)
        ss = np.array([prof.sample(t)[0] for t in ts])
        assert np.all(np.diff(ss) >= -1e-12)


class TestArcGeometry:
    def test_quarter_circle_endpoints(self):
        cfg = default_config("quarter_circle")
        arc = quarter_circle_arc(cfg, 2.0)
        wp0, v0, h0 = arc.sample(0.0)
        assert np.allclose(wp0, [-2.0, 0.0, 3.0], atol=1e-12)
        assert h0 == pytest.approx(0.0)
        wp1, v1, h1 = arc.sample(arc.profile.t_total)
        assert np.allclose(wp1, [6.0, 8.0, 3.0], atol=1e-9)
        assert np.allclose(v1, 0.0)

    def test_heading_faces_landmark(self):
        cfg = default_config("quarter_circle")
        arc = quarter_circle_arc(cfg, 2.0)
        for t in np.linspace(0, arc.profile.t_total, 17):
            wp, _, heading = arc.sample(t)
            to_lm = cfg.landmark.p_w_lw - wp
            assert heading == pytest.approx(np.arctan2(to_lm[1], to_lm[0]), abs=1e-12)

    @pytest.mark.parametrize("kind", ["quarter_circle", "full_circle"])
    def test_array_sample_equals_float_calls(self, kind):
        cfg = default_config(kind)
        arc = quarter_circle_arc(cfg, 8.3) if kind == "quarter_circle" else full_circle_arc(cfg)
        tr, tt = arc.profile.t_ramp, arc.profile.t_total
        assert 2.0 * tr < tt  # ramp, cruise and decel phases all occur
        # each phase, its boundaries, the exact ends and past the end
        edges = [-0.05, 0.0, 0.5 * tr, tr, 0.5 * tt, tt - tr, tt - 0.5 * tr, tt, tt + 0.5]
        t = np.concatenate([edges, np.linspace(0.0, tt + 1.0, 97), 0.37 + 0.05 * np.arange(21)])
        wp, v, heading = arc.sample(t)
        assert wp.shape == v.shape == (len(t), 3) and heading.shape == (len(t),)
        for k, t_k in enumerate(t.tolist()):
            wp_k, v_k, heading_k = arc.sample(t_k)
            assert isinstance(heading_k, float)
            assert np.array_equal(wp[k], wp_k) and np.array_equal(v[k], v_k)
            assert np.array_equal(heading[k], heading_k)

    def test_full_circle_constant_heading(self):
        cfg = default_config("full_circle")
        arc = full_circle_arc(cfg)
        for t in np.linspace(0, arc.profile.t_total, 9):
            _, _, heading = arc.sample(t)
            assert heading == 0.0


class TestPredictCompare:
    def test_zero_motion_zero_drift(self):
        cfg = default_config("predict_compare")
        cfg.predict.kind = "constant"
        cfg.predict.v_c = (0.0, 0.0, 0.0)
        cfg.predict.w_c = (0.0, 0.0, 0.0)
        rep = predict_compare(cfg)
        # zero up to a rounding ulp from the reprojection of the truth path
        assert rep["summary"]["max_err_bearing"] < 1e-14
        assert rep["summary"]["max_err_homogeneous"] < 1e-14
        assert rep["summary"]["max_mutual"] < 1e-14

    def test_accuracy_bounds(self):
        cfg = default_config("predict_compare")
        rep = predict_compare(cfg)
        assert rep["summary"]["max_err_bearing"] < 1e-5
        assert rep["summary"]["max_err_homogeneous"] < 1e-5
        assert rep["summary"]["max_mutual"] < 1e-4

    def test_drift_grows_under_constant_twist(self):
        cfg = default_config("predict_compare")
        cfg.predict.kind = "constant"
        cfg.predict.v_c = (0.6, -0.4, 0.5)
        cfg.predict.w_c = (0.4, 0.5, -0.3)
        cfg.predict.dt = 0.05
        rep = predict_compare(cfg)
        # compare accumulated error at coarse checkpoints
        for key in ("err_bearing", "err_homogeneous"):
            err = rep[key][::5]
            assert np.all(np.diff(err) > -1e-15)
            assert err[-1] > err[1]


class TestSweep:
    def test_tiny_sweep_serial_equals_parallel(self):
        # the pooled trials equal the same trials run in this process
        cfg = default_config("success_sweep")
        cfg.duration = 6.0
        cfg.sweep.speeds = (2.0,)
        cfg.sweep.trials = 2
        out = scenario_success_sweep(cfg)
        serial = [
            _sweep_trial({
                "config": cfg, "speed": 2.0, "perception": perception, "trial": trial,
                "run_seed": _sweep_run_seed(cfg.seed, 0, mi, trial),
            })[0]
            for mi, perception in enumerate((True, False))
            for trial in range(2)
        ]
        assert out["records"] == serial
        assert out["table"] == {mode: {2.0: sum(r["success"] for r in serial if r["mode"] == mode) / 2}
                                for mode in ("with", "without")}

    def test_config_pickles_for_the_pool(self):
        cfg = default_config("success_sweep")
        assert dump_config(pickle.loads(pickle.dumps(cfg))) == dump_config(cfg)

    def test_table_shape(self):
        cfg = default_config("success_sweep")
        cfg.duration = 6.0
        cfg.sweep.speeds = (2.0,)
        cfg.sweep.trials = 2
        out = scenario_success_sweep(cfg)
        assert set(out["table"].keys()) == {"with", "without"}
        assert set(out["table"]["with"].keys()) == {2.0}
        assert 0.0 <= out["table"]["with"][2.0] <= 1.0


class TestOutputs:
    def run_small(self):
        cfg = default_config("hover")
        cfg.duration = 1.0
        return cfg, scenario_hover(cfg)

    def test_csv_header_and_rows(self, tmp_path):
        cfg, out = self.run_small()
        path = write_run_csv(out["log"], tmp_path / "run.csv")
        lines = path.read_text().strip().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == out["log"].n_ticks + 1
        assert len(lines[1].split(",")) == len(CSV_HEADER.split(","))

    def test_rewrite_identical_modulo_timing(self, tmp_path):
        cfg = default_config("hover")
        cfg.duration = 1.0
        out1 = scenario_hover(cfg)
        out2 = scenario_hover(cfg)
        p1 = write_run_csv(out1["log"], tmp_path / "a.csv")
        p2 = write_run_csv(out2["log"], tmp_path / "b.csv")
        assert strip_solve_ms(p1.read_text()) == strip_solve_ms(p2.read_text())

    def test_solver_trace_rows_equal_log(self, tmp_path):
        cfg = default_config("gate_reaching")
        cfg.duration = 0.5
        logs = {f"run_{i:02d}": r["log"] for i, r in enumerate(scenario_gate_reaching(cfg, GATE_POSES[:2]))}
        path = write_solver_trace_csv(logs, tmp_path / "solver_trace.csv")
        header, *rows = path.read_text().splitlines()
        assert header == SOLVER_TRACE_HEADER == "run,t,sqp_iters,qp_iters,backtracks,slack_max,reason"
        expected = [(name, k, log) for name, log in logs.items() for k in range(log.n_ticks)]
        assert len(rows) == len(expected) == 20
        for row, (name, k, log) in zip(rows, expected):
            run, t, sqp_iters, qp_iters, backtracks, slack_max, reason = row.split(",")
            assert (run, int(sqp_iters), int(qp_iters), int(backtracks), reason) == (
                name, log.sqp_iters[k], log.qp_iters[k], log.backtracks[k], log.reason[k]
            )
            assert float(t) == float(f"{log.t[k]:.12g}")
            assert float(slack_max) == float(f"{log.slack_max[k]:.12g}")
            assert reason in ("kkt", "no_descent", "line_search_failed", "tiny_steps", "budget", "infeasible")
        # with all visibility rows in the model the step QPs take Newton steps
        assert sum(int(log.qp_iters.sum()) for log in logs.values()) > 0

    def test_summary_schema(self, tmp_path):
        path = write_summary_json({"scenario": "hover", "metrics": {"x": 1.0}}, tmp_path / "s.json")
        data = json.loads(path.read_text())
        assert data["schema_version"] == 1
        assert data["scenario"] == "hover"


class TestCli:
    def write_cfg(self, tmp_path, kind="hover", **overrides):
        cfg = default_config(kind)
        cfg.duration = 1.0
        for key, val in overrides.items():
            setattr(cfg, key, val)
        path = tmp_path / "cfg.json"
        path.write_text(dump_config(cfg))
        return path

    def test_run_hover(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "run_00.csv").exists()
        assert (out / "solver_trace.csv").read_text().startswith(SOLVER_TRACE_HEADER + "\nrun_00,0,")
        assert (out / "summary.json").exists()
        assert (out / "path_xy.svg").exists()
        assert (out / "altitude.svg").exists()
        assert (out / "feature_scatter.svg").exists()

    def test_gate_reaching_file_count(self, tmp_path):
        # five runs produce five CSVs, one summary, three plots
        cfg = default_config("gate_reaching")
        cfg.duration = 1.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_config(cfg))
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        assert len(list(out.glob("run_*.csv"))) == 5
        assert len(list(out.glob("*.json"))) == 1
        assert len(list(out.glob("*.svg"))) == 3

    def test_summary_timing_pools_the_ticks(self, tmp_path):
        # p50 and p95 are over the solve times of every tick of every run,
        # as the runs' CSVs record them; mean and max keep their meaning
        cfg = default_config("gate_reaching")
        cfg.duration = 1.0
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_config(cfg))
        out = tmp_path / "out"
        assert cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"]) == 0
        timing = json.loads((out / "summary.json").read_text())["timing"]
        per_run = [np.loadtxt(path, delimiter=",", skiprows=1)[:, -2] for path in sorted(out.glob("run_*.csv"))]
        ticks = np.concatenate(per_run)
        assert len(per_run) == 5 and len(ticks) == 100
        assert set(timing) == {"mean_solve_ms", "max_solve_ms", "p50_solve_ms", "p95_solve_ms"}
        assert np.isclose(timing["p50_solve_ms"], np.percentile(ticks, 50), rtol=1e-9)
        assert np.isclose(timing["p95_solve_ms"], np.percentile(ticks, 95), rtol=1e-9)
        assert np.isclose(timing["mean_solve_ms"], np.mean([np.mean(t) for t in per_run]), rtol=1e-9)
        assert timing["p50_solve_ms"] <= timing["p95_solve_ms"] <= timing["max_solve_ms"]

    def test_exit_zero_on_failure_outcome(self, tmp_path):
        # landmark behind the camera: the run records feature_lost but the
        # process still exits 0
        cfg = default_config("hover")
        cfg.duration = 1.0
        cfg.initial_position = (8.0, 0.0, 3.0)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_config(cfg))
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["runs"][0]["outcome"] == "feature_lost"

    def test_bad_config_nonzero_exit(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"kind": "nope"}')
        rc = cli_main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2

    @pytest.mark.parametrize("key", ["max_sqp_iters", "horizon"])
    def test_rejected_field_value_nonzero_exit(self, tmp_path, capsys, key):
        data = config_to_dict(default_config("hover"))
        data["ocp"][key] = 0
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        rc = cli_main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith("error: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "override,where", BAD_VALUES + [({"schema_version": 1}, "schema_version"), ({"schema_version": 99}, "schema_version")]
    )
    def test_rejected_value_type_nonzero_exit(self, tmp_path, capsys, override, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(override))
        rc = cli_main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {where} ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("override,where", BAD_SHAPES)
    def test_rejected_config_value_nonzero_exit(self, tmp_path, capsys, override, where):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(override))
        command = "predict" if where.startswith("predict.") else "run"
        rc = cli_main([command, str(bad), "--out", str(tmp_path / "o"), "--quiet"])
        err = capsys.readouterr().err
        assert rc == 2
        assert err.startswith(f"error: {where} ")
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_missing_file_nonzero_exit(self, tmp_path):
        rc = cli_main(["run", str(tmp_path / "absent.json"), "--out", str(tmp_path / "o"), "--quiet"])
        assert rc == 2

    def test_sweep_subcommand(self, tmp_path):
        cfg = default_config("success_sweep")
        cfg.duration = 6.0
        cfg.sweep.speeds = (2.0,)
        cfg.sweep.trials = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_config(cfg))
        out = tmp_path / "out"
        rc = cli_main(["sweep", str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        data = json.loads((out / "sweep_summary.json").read_text())
        assert set(data["table"].keys()) == {"with", "without"}
        assert len(data["records"]) == 2

    def test_sweep_records_work_and_timing(self, tmp_path):
        # ticks and SQP iterations are deterministic and go into the
        # records; wall-clock solve times go into a separate timing block
        cfg = default_config("success_sweep")
        cfg.duration = 1.0
        cfg.sweep.speeds = (2.0,)
        cfg.sweep.trials = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(dump_config(cfg))
        runs = []
        for name in ("a", "b"):
            assert cli_main(["sweep", str(cfg_path), "--out", str(tmp_path / name), "--quiet"]) == 0
            runs.append(json.loads((tmp_path / name / "sweep_summary.json").read_text()))
        assert runs[0]["records"] == runs[1]["records"]
        for rec in runs[0]["records"]:
            assert rec["ticks"] == 20
            assert isinstance(rec["sqp_iters"], int) and rec["sqp_iters"] >= rec["ticks"]
            assert not any("solve_ms" in key for key in rec)
        timing = runs[0]["timing"]
        assert set(timing) == {"mean_solve_ms", "max_solve_ms", "p50_solve_ms", "p95_solve_ms"}
        assert 0.0 < timing["mean_solve_ms"] <= timing["max_solve_ms"]
        assert 0.0 < timing["p50_solve_ms"] <= timing["p95_solve_ms"] <= timing["max_solve_ms"]

    def test_predict_subcommand(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path, kind="predict_compare")
        out = tmp_path / "out"
        rc = cli_main(["predict", str(cfg_path), "--out", str(out), "--quiet"])
        assert rc == 0
        assert (out / "prediction_errors.csv").exists()
        assert (out / "prediction_errors.svg").exists()

    def test_selftest(self, capsys):
        assert cli_main(["selftest"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "[PASS] rotation preserves norm",
            "[PASS] bearing round trip",
            "[PASS] hover solve near equilibrium",
        ]

    def test_dump_config(self, capsys):
        rc = cli_main(["selftest", "--dump-config"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "hover"
        assert "weights" in data and "ocp" in data

    def test_seed_override(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        out = tmp_path / "out"
        rc = cli_main(["run", str(cfg_path), "--out", str(out), "--seed", "99", "--quiet"])
        assert rc == 0
        data = json.loads((out / "summary.json").read_text())
        assert data["seed"] == 99

    def test_module_entry_point(self, tmp_path):
        cfg_path = self.write_cfg(tmp_path)
        proc = subprocess.run(
            [sys.executable, "-m", "quadvpc", "run", str(cfg_path), "--out", str(tmp_path / "o"), "--quiet"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0


class TestMetrics:
    def test_success_predicate_pure_function(self):
        cfg = default_config("hover")
        cfg.duration = 1.0
        out = scenario_hover(cfg)
        m1 = evaluate_run(out["log"], cfg)
        m2 = evaluate_run(out["log"], cfg)
        assert m1 == m2
        assert m1.success == (out["log"].outcome == "success")

    def test_flight_with_no_tick(self):
        # landmark behind the camera at the start: the log has no tick
        cfg = default_config("hover")
        cfg.initial_position = (8.0, 0.0, 3.0)
        log = scenario_hover(cfg)["log"]
        assert log.n_ticks == 0
        m = evaluate_run(log, cfg, goal_p=np.array(cfg.initial_position))
        assert m.outcome == "feature_lost" and m.mean_speed == 0.0
        assert m.settle_time_x is None and m.settle_time_y is None
        values = (m.rms_distance_err, m.max_altitude_dev, m.min_border_margin, m.final_distance_err, m.final_image_err)
        assert all(np.isnan(v) for v in values)

    def test_gate_pose_table_values(self):
        positions = [p for p, _ in GATE_POSES]
        headings = [h for _, h in GATE_POSES]
        assert positions == [(-2.0, 6.0, 3.0), (-2.0, 3.0, 3.0), (-2.0, 0.0, 3.0), (-2.0, -3.0, 3.0), (-2.0, -6.0, 3.0)]
        assert headings == [-30.0, -15.0, 0.0, 15.0, 30.0]


class TestReadme:
    def test_quick_start_runs(self):
        readme = (ROOT / "README.md").read_text()
        section = readme.split("\n## Library quick start\n", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        scope = {}
        exec(compile(code, "README quick start", "exec"), scope)
        assert scope["ref"].d_star.shape == (scope["params"].horizon + 1,)
        assert scope["solution"].reason != "infeasible"
        assert 0.0 <= scope["u"].c <= 20.0


class TestPublicApi:
    # the names that the program's own code, not only tests, reads
    @staticmethod
    def program_loads():
        import ast

        files = [p for p in (ROOT / "src" / "quadvpc").glob("*.py") if p.name != "__init__.py"]
        files += [p for p in (ROOT / "bench").glob("*.py") if not p.name.startswith("test_")]
        loaded = set()
        for path in files:
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.id)
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    loaded.add(node.attr)
        return loaded

    def test_every_export_has_a_program_reader(self):
        import types

        import quadvpc

        exports = {name for name in quadvpc.__all__ if not isinstance(getattr(quadvpc, name), types.ModuleType)}
        assert sorted(exports - self.program_loads()) == []

    def test_every_definition_has_a_program_reader(self):
        # each module-level function and class of the package, and each of
        # their methods but the dunders, is read by the package or the
        # benchmark: code that only tests run belongs with the tests
        import ast

        defs = (ast.FunctionDef, ast.ClassDef)
        loaded = self.program_loads()
        unread = []
        for path in sorted((ROOT / "src" / "quadvpc").glob("*.py")):
            for node in ast.parse(path.read_text()).body:
                if not isinstance(node, defs):
                    continue
                names = {node.name: node.name}
                if isinstance(node, ast.ClassDef):
                    names.update(
                        (m.name, f"{node.name}.{m.name}")
                        for m in node.body
                        if isinstance(m, defs) and not m.name.startswith("__")
                    )
                unread += [f"{path.stem}.{label}" for name, label in names.items() if name not in loaded]
        assert unread == []


class TestBenchSurface:
    @pytest.mark.parametrize("workload", ["hover_hold", "gate_reach", "track_fast"])
    def test_setup_probe_runs(self, workload):
        # the benchmark's set-up probe imports its workloads and builds the
        # first flight's controller and references through the package API
        proc = subprocess.run(
            [sys.executable, str(ROOT / "bench" / "setup_probe.py"), workload],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        (seconds,) = proc.stdout.split()
        assert float(seconds) > 0.0
