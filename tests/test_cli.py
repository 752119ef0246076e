"""Command-line interface tests: flag parsing, output formats, config
validation, determinism, and the exit-code contract."""

import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prgd import cli, optimizer, validation
from prgd.accountant import PrivacySpec, per_step_delta
from prgd.optimizer import least_squares, synthesize_dataset


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_report(out):
    values = {}
    for line in out.strip().splitlines():
        key, _, value = line.partition(" = ")
        values[key] = value
    return values


def write_config(path, **overrides):
    config = {
        "loss": "scalar_factorization",
        "data": {"n": 30, "feature_dim": 1, "label_noise": 0.0, "seed": 11},
        "run": {"step_size": 0.01, "steps": 200, "noise_radius": 1.0, "seed": 5},
        "initial_w": [0.0, 0.0],
    }
    config.update(overrides)
    path.write_text(json.dumps(config))
    return config


def set_field(config, path, value):
    """Set the field at key path ``path`` (one key per nesting level)."""
    *parents, key = path
    for parent in parents:
        config = config[parent]
    config[key] = value


class TestAccount:
    def test_composed_budget(self, capsys):
        code, out, _ = run_cli(
            ["account", "--d", "1", "--delta-x", "1", "--n", "100", "--t", "50"], capsys
        )
        report = parse_report(out)
        assert code == 0
        assert report["per_step_delta"] == "0.5"
        assert report["amplified_delta"] == "0.005"
        assert report["overall_delta"] == "0.25"
        assert report["saturated"] == "false"

    def test_zero_sensitivity(self, capsys):
        code, out, _ = run_cli(
            ["account", "--d", "1", "--delta-x", "0", "--n", "10", "--t", "10"], capsys
        )
        assert code == 0
        assert parse_report(out)["overall_delta"] == "0"

    def test_three_dimensional_single_step(self, capsys):
        code, out, _ = run_cli(
            ["account", "--d", "3", "--delta-x", "1", "--n", "1", "--t", "1"], capsys
        )
        report = parse_report(out)
        assert code == 0
        assert report["per_step_delta"] == "0.6875"
        assert report["overall_delta"] == "0.6875"

    def test_saturating_sensitivity_is_a_usage_error(self, capsys):
        code, _, err = run_cli(
            ["account", "--d", "2", "--delta-x", "2.5", "--n", "10", "--t", "1"], capsys
        )
        assert code == 2
        assert "saturates" in err

    def test_invalid_flag_values(self, capsys):
        code, _, err = run_cli(
            ["account", "--d", "0", "--delta-x", "1", "--n", "10", "--t", "1"], capsys
        )
        assert code == 2
        assert "error" in err

    def test_noiseless_zero_sensitivity_is_private(self, capsys):
        """At radius 0 the accountant's noiseless rule gives δ = 0 for Δx = 0."""
        code, out, _ = run_cli(
            ["account", "--d", "3", "--delta-x", "0", "--radius", "0", "--n", "10", "--t", "1"],
            capsys,
        )
        assert code == 0
        assert parse_report(out)["per_step_delta"] == "0"

    def test_negative_radius_names_the_field(self, capsys):
        code, out, err = run_cli(
            ["account", "--d", "3", "--delta-x", "0.5", "--radius", "-1", "--n", "10", "--t", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert "noise_radius" in err

    def test_delta_that_rounds_to_one_saturates(self, capsys):
        """Δx < 2R, but at d = 10⁶ the per-step δ is 1 in double precision."""
        code, out, err = run_cli(
            ["account", "--d", "1000000", "--delta-x", "1.9", "--n", "10", "--t", "1"], capsys
        )
        assert code == 2
        assert out == ""
        assert "saturates" in err


class TestCurve:
    def test_one_dimensional_line(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["curve", "--d-list", "1", "--delta-x-range", "0:2:0.5", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "d,delta_x,delta"
        deltas = [line.split(",")[2] for line in lines[1:]]
        assert deltas == ["0", "0.25", "0.5", "0.75", "1"]

    def test_two_dimensions_single_point(self, tmp_path, capsys):
        out_path = tmp_path / "curve.csv"
        code, _, _ = run_cli(
            ["curve", "--d-list", "1,3", "--delta-x-range", "1:1:1", "--output", str(out_path)],
            capsys,
        )
        assert code == 0
        rows = out_path.read_text().splitlines()[1:]
        assert rows[0] == "1,1,0.5"
        assert rows[1] == "3,1,0.6875"

    def test_empty_d_list_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["curve", "--d-list", "", "--delta-x-range", "0:2:0.5",
             "--output", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "d-list" in err

    def test_malformed_range_is_usage_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            ["curve", "--d-list", "1", "--delta-x-range", "0:2",
             "--output", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "start:stop:step" in err

    def test_round_trip_matches_accountant(self, tmp_path, capsys):
        """Parsed CSV cells agree with the accountant to the printed
        12-significant-digit precision, and reformatting is idempotent."""
        out_path = tmp_path / "curve.csv"
        run_cli(
            ["curve", "--d-list", "2,5", "--delta-x-range", "0:2:0.1", "--output", str(out_path)],
            capsys,
        )
        for line in out_path.read_text().splitlines()[1:]:
            d_str, dx_str, delta_str = line.split(",")
            dx = float(dx_str)
            delta = float(delta_str)
            exact = per_step_delta(PrivacySpec(int(d_str), dx, 1, 1))
            assert delta == pytest.approx(exact, rel=1e-11, abs=1e-12)
            assert format(delta, ".12g") == delta_str

    @pytest.mark.parametrize("grid", ["0:2:1e-9", "0:inf:1", "0:1e308:1e-308", "nan:1:0.5"])
    def test_oversized_grid_is_usage_error(self, tmp_path, capsys, grid):
        """Rejected before any grid is built: 0:2:1e-9 would be 2·10⁹ floats."""
        out_path = tmp_path / "x.csv"
        code, _, err = run_cli(
            ["curve", "--d-list", "1", "--delta-x-range", grid, "--output", str(out_path)], capsys
        )
        assert code == 2
        assert f"at most {cli._MAX_GRID_POINTS} points" in err
        assert not out_path.exists()

    def test_row_count_past_the_grid_bound_is_usage_error(self, tmp_path, capsys):
        """Each grid is within the bound, but two dimensions of 666,667
        points would be 1.3·10⁶ rows; refused before any δ is computed."""
        out_path = tmp_path / "x.csv"
        code, out, err = run_cli(
            ["curve", "--d-list", "1,2", "--delta-x-range", "0:2:0.000003", "--output", str(out_path)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == [
            f"error: 2 dimensions x 666667 grid points give more than {cli._MAX_GRID_POINTS} curve rows"
        ]
        assert not out_path.exists()

    def test_byte_identical_reruns(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for path in paths:
            run_cli(
                ["curve", "--d-list", "1,3,7", "--delta-x-range", "0:2:0.05",
                 "--output", str(path)],
                capsys,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()


_SADDLE = {  # the README saddle config
    "loss": "scalar_factorization",
    "data": {"n": 40, "feature_dim": 1, "label_noise": 0.0, "seed": 11},
    "run": {"step_size": 0.01, "steps": 2000, "noise_radius": 1.0, "seed": 3},
    "initial_w": [0.0, 0.0],
}

_BIG = "1" + "0" * 400  # an integer past the float range


@pytest.mark.parametrize("args", [
    ["account", "--d", _BIG, "--delta-x", "0.5", "--n", "10", "--t", "1"],
    ["account", "--d", "3", "--delta-x", "0.5", "--n", _BIG, "--t", "1"],
    ["account", "--d", "3", "--delta-x", "0.5", "--n", "10", "--t", _BIG],
    ["curve", "--d-list", f"1,{_BIG}", "--delta-x-range", "0:2:0.5", "--output", "unused.csv"],
])
def test_integer_flag_past_the_float_range_is_usage_error(tmp_path, capsys, monkeypatch, args):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(args, capsys)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "Traceback" not in err
    assert not (tmp_path / "unused.csv").exists()


_MISTYPED = [
    (("sensitivity",), "1"),
    (("sensitivity",), True),
    (("sensitivity",), -1.0),
    (("sensitivity",), float("nan")),
    (("loss",), ["x"]),
    (("data",), "x"),
    (("run",), [1]),
    (("run", "steps"), [2]),
    (("run", "steps"), 2.7),
    (("run", "seed"), True),
    (("run", "step_size"), "0.1"),
    (("run", "clip_norm"), "1"),
    (("data", "n"), 30.5),
    (("data", "feature_dim"), "1"),
    (("data", "seed"), 1.5),
    (("data", "label_noise"), [0.0]),
    (("initial_w",), "00"),
    (("initial_w",), [0.0, "a"]),
]


class TestRun:
    def test_convex_run_reaches_least_squares_optimum(self, tmp_path, capsys):
        """Final loss lands within 0.05 of the normal-equations optimum."""
        config_path = tmp_path / "convex.json"
        write_config(
            config_path,
            loss="least_squares",
            data={"n": 50, "feature_dim": 3, "label_noise": 0.1, "seed": 5},
            run={"step_size": 0.005, "steps": 5000, "noise_radius": 0.01, "seed": 3},
            initial_w=[0.0, 0.0, 0.0],
        )
        code, out, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 0
        report = parse_report(out)

        data = synthesize_dataset(50, 3, 0.1, 5)
        w_star, *_ = np.linalg.lstsq(data.features, data.labels, rcond=None)
        optimum = np.mean(least_squares(3).value(w_star, data.features, data.labels))
        assert float(report["final_loss"]) == pytest.approx(optimum, abs=0.05)

    def test_noiseless_saddle_run_reports_zero_displacement(self, tmp_path, capsys):
        config_path = tmp_path / "saddle.json"
        write_config(config_path, run={"step_size": 0.01, "steps": 200, "noise_radius": 0.0, "seed": 5})
        code, out, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 0
        report = parse_report(out)
        assert report["displacement"] == "0"
        assert report["sensitivity_provenance"] == "empirical"

    def test_reruns_are_byte_identical(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path)
        outs = []
        for name in ("t1.trace", "t2.trace"):
            code, out, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / name)], capsys)
            assert code == 0
            outs.append(out.replace("t1.trace", "X").replace("t2.trace", "X"))
        assert outs[0] == outs[1]
        assert (tmp_path / "t1.trace").read_bytes() == (tmp_path / "t2.trace").read_bytes()

    def test_trace_format(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path, run={"step_size": 0.01, "steps": 5, "noise_radius": 1.0, "seed": 5})
        run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        lines = (tmp_path / "t.trace").read_text().splitlines()
        assert len(lines) == 5
        fields = lines[0].split(" ")
        assert len(fields) == 5 + 2  # step, index, loss, grad_norm, noise_norm, iterate
        assert fields[0] == "0"

    def test_streamed_trace_is_the_joined_lines(self, tmp_path, capsys, monkeypatch):
        """Seven rows per block over 30 steps: four full blocks and a short last one."""
        monkeypatch.setattr(optimizer, "_TABLE_ENTRIES", 7 * (3 + 2))
        config_path = tmp_path / "cfg.json"
        config = write_config(config_path, **{**_SADDLE, "run": {**_SADDLE["run"], "steps": 30}})
        code, _, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 0
        trace = optimizer.prgd_run(
            synthesize_dataset(**config["data"]), optimizer.scalar_factorization(1),
            optimizer.RunConfig(**config["run"]), config["initial_w"],
        )
        assert (tmp_path / "t.trace").read_text() == "\n".join(trace.serialize_lines()) + "\n"

    def test_trace_write_memory_is_flat_in_steps(self, tmp_path, capsys, monkeypatch):
        """The saddle config with a given sensitivity, so no scan, at T = 5·10³
        and 5·10⁴. Tracing starts when the real prgd_run returns, so what is
        counted is the trace text on its way to the file: one block of lines,
        whatever T is."""
        real = cli.prgd_run

        def traced(*args, **kwargs):
            trace = real(*args, **kwargs)
            tracemalloc.start()
            return trace

        monkeypatch.setattr(cli, "prgd_run", traced)
        config_path = tmp_path / "cfg.json"
        write_config(config_path, **_SADDLE, sensitivity=1.0)
        peaks = []
        for steps in (5_000, 50_000):
            try:
                code, _, _ = run_cli(
                    ["run", str(config_path), "--steps", str(steps), "--trace", str(tmp_path / "t.trace")],
                    capsys,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert abs(peaks[1] - peaks[0]) < 256 * 2**10

    def test_given_sensitivity_overrides_provenance(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path, sensitivity=0.5)
        code, out, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        report = parse_report(out)
        assert code == 0
        assert report["sensitivity"] == "0.5"
        assert report["sensitivity_provenance"] == "given"
        assert float(report["per_step_delta"]) == pytest.approx(
            per_step_delta(PrivacySpec(2, 0.5, 30, 200)), rel=1e-11, abs=0.0
        )

    def test_given_sensitivity_skips_the_scan(self, tmp_path, capsys, monkeypatch):
        def no_scan(*args, **kwargs):
            raise AssertionError("estimate_sensitivity must not run")

        monkeypatch.setattr(optimizer, "estimate_sensitivity", no_scan)
        config_path = tmp_path / "cfg.json"
        write_config(config_path, sensitivity=0.5)
        code, out, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 0
        assert parse_report(out)["sensitivity_provenance"] == "given"

    def test_flag_overrides_apply(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path)
        code, out, _ = run_cli(
            ["run", str(config_path), "--steps", "7", "--trace", str(tmp_path / "t.trace")], capsys
        )
        assert code == 0
        assert len((tmp_path / "t.trace").read_text().splitlines()) == 7

    @pytest.mark.parametrize("flag,value", [
        ("--noise-radius", "inf"), ("--step-size", "inf"), ("--step-size", "nan"), ("--noise-radius", "nan"),
    ])
    def test_flag_is_checked_like_its_config_field(self, tmp_path, capsys, flag, value):
        """A flag value that the config file could not hold is the same usage
        error, naming the run field it overrides."""
        config_path = tmp_path / "cfg.json"
        write_config(config_path)
        code, out, err = run_cli(["run", str(config_path), flag, value, "--trace", str(tmp_path / "t.trace")], capsys)
        field = flag[2:].replace("-", "_")
        assert code == 2
        assert out == ""
        assert err == f"error: run.{field} must be a finite number, got {value}\n"
        assert not (tmp_path / "t.trace").exists()

    def test_missing_field_names_the_field(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config = write_config(config_path)
        del config["run"]["steps"]
        config_path.write_text(json.dumps(config))
        code, _, err = run_cli(["run", str(config_path)], capsys)
        assert code == 2
        assert "run.steps" in err

    def test_unknown_loss(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path, loss="hinge")
        code, _, err = run_cli(["run", str(config_path)], capsys)
        assert code == 2
        assert "hinge" in err

    def test_wrong_initial_w_length(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path, initial_w=[0.0])
        code, _, err = run_cli(["run", str(config_path)], capsys)
        assert code == 2
        assert "initial_w" in err

    def test_invalid_json(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        config_path.write_text("{not json")
        code, _, err = run_cli(["run", str(config_path)], capsys)
        assert code == 2
        assert "JSON" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run_cli(["run", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    @pytest.mark.parametrize("path,value", _MISTYPED, ids=[
        f"{'.'.join(path)}={json.dumps(value)}" for path, value in _MISTYPED
    ])
    def test_mistyped_field_is_usage_error(self, tmp_path, capsys, path, value):
        config_path = tmp_path / "cfg.json"
        config = write_config(config_path)
        set_field(config, path, value)
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ".".join(path) in err

    @pytest.mark.parametrize("path,value,flags", [
        (("run", "steps"), 576460752303423488, []),
        (("run", "steps"), 100_000_000, []),
        (("run", "steps"), 200, ["--steps", "576460752303423488"]),
        (("data", "n"), 100_000_001, []),
        (("data", "feature_dim"), 10**18, []),
    ], ids=["steps", "steps-just-over", "steps-flag", "n", "feature_dim"])
    def test_oversized_run_is_usage_error(self, tmp_path, capsys, monkeypatch, path, value, flags):
        """Sizes past the element limit are rejected before anything is allocated."""
        def no_allocation(*args, **kwargs):
            raise AssertionError("nothing may be allocated for an oversized run")

        monkeypatch.setattr(cli, "synthesize_dataset", no_allocation)
        monkeypatch.setattr(cli, "prgd_run", no_allocation)
        config_path = tmp_path / "cfg.json"
        config = write_config(config_path, loss="least_squares", initial_w=[0.0])
        set_field(config, path, value)
        config_path.write_text(json.dumps(config))
        code, out, err = run_cli(["run", str(config_path), *flags], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert ".".join(path) in err

    def test_bad_run_field_is_rejected_before_the_data_is_drawn(self, tmp_path, capsys, monkeypatch):
        def no_allocation(*args, **kwargs):
            raise AssertionError("the dataset was drawn for a run that cannot start")

        monkeypatch.setattr(cli, "synthesize_dataset", no_allocation)
        config_path = tmp_path / "cfg.json"
        write_config(config_path, run={"step_size": -1, "steps": 200, "noise_radius": 1.0, "seed": 5})
        code, out, err = run_cli(["run", str(config_path)], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: run: step_size must be positive, got -1.0\n"

    def test_integral_float_is_an_integer(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(config_path, run={"step_size": 0.01, "steps": 7.0, "noise_radius": 1.0, "seed": 5})
        code, _, _ = run_cli(["run", str(config_path), "--trace", str(tmp_path / "t.trace")], capsys)
        assert code == 0
        assert len((tmp_path / "t.trace").read_text().splitlines()) == 7

    def test_divergence_exits_one_with_iteration(self, tmp_path, capsys):
        config_path = tmp_path / "cfg.json"
        write_config(
            config_path,
            loss="least_squares",
            data={"n": 10, "feature_dim": 2, "label_noise": 0.1, "seed": 1},
            run={"step_size": 1e8, "steps": 100, "noise_radius": 0.0, "seed": 1},
            initial_w=[1.0, 1.0],
        )
        with np.errstate(over="ignore"):
            code, _, err = run_cli(["run", str(config_path)], capsys)
        assert code == 1
        assert "iteration" in err


class TestValidateCommand:
    def test_overlap_suite_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "overlap"], capsys)
        assert code == 0
        assert out.count("PASS") == 301  # 300 cases + summary line
        assert "FAIL" not in out

    def test_gradcheck_suite_passes(self, capsys):
        code, out, _ = run_cli(["validate", "--suite", "gradcheck", "--seed", "3"], capsys)
        assert code == 0
        assert "result = PASS" in out

    def test_tv_suite_small_sample(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--suite", "tv", "--samples", "100000", "--seed", "7"], capsys
        )
        assert code == 0
        assert out.count("tv ") == 30

    def test_surface_suite(self, capsys):
        code, out, _ = run_cli(
            ["validate", "--suite", "surface", "--samples", "100000", "--seed", "42"], capsys
        )
        assert code == 0
        case_lines = [line for line in out.splitlines() if line.startswith("surface ")]
        assert len(case_lines) == 8

    @pytest.mark.parametrize(
        "args, workers",
        [
            (["--suite", "tv", "--samples", str(10**15)], None),
            (["--suite", "all", "--samples", str(10**9 + 1)], None),
            (["--suite", "surface", "--samples", "1000"], "65"),
        ],
    )
    def test_unbounded_monte_carlo_is_a_usage_error(self, capsys, monkeypatch, args, workers):
        """Too many samples or workers exits 2 with one error line, before
        any chunk plan or thread pool is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("a chunk plan or a pool was built")

        monkeypatch.setattr(validation, "_chunk_plan", refuse)
        monkeypatch.setattr(validation, "ThreadPoolExecutor", refuse)
        if workers is not None:
            monkeypatch.setenv(validation.WORKERS_ENV, workers)
        code, out, err = run_cli(["validate", *args], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("suite, flag, value", [
        ("overlap", "--seed", "-1"),
        ("overlap", "--samples", "0"),
        ("gradcheck", "--seed", "-1"),
    ])
    def test_seed_and_samples_are_checked_for_every_suite(self, capsys, suite, flag, value):
        """Also for the suites that draw nothing or seed their own generator."""
        code, out, err = run_cli(["validate", "--suite", suite, flag, value], capsys)
        assert code == 2
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith(f"error: {flag[2:]} must be")

    def test_failure_exits_one(self, capsys, monkeypatch):
        monkeypatch.setitem(
            cli._SUITES, "overlap", lambda samples, seed: [("case", 0.0, 1.0, 1.0, False)]
        )
        code, out, _ = run_cli(["validate", "--suite", "overlap"], capsys)
        assert code == 1
        assert "result = FAIL" in out


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_CONFIG_PATHS = [
    (), ("loss",), ("data",), ("run",), ("initial_w",), ("sensitivity",),
    *(("data", key) for key in ("n", "feature_dim", "label_noise", "seed")),
    *(("run", key) for key in ("step_size", "steps", "noise_radius", "seed", "clip_norm")),
]


class TestConfigLoaderProperty:
    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(_CONFIG_PATHS), value=_JSON)
    def test_arbitrary_json_in_any_field(self, tmp_path_factory, path, value):
        """The loader returns a config or raises ConfigError, whatever JSON
        value replaces any one field (or the whole document)."""
        config_path = tmp_path_factory.mktemp("cfg") / "cfg.json"
        config = write_config(config_path)
        if path:
            set_field(config, path, value)
        else:
            config = value
        config_path.write_text(json.dumps(config))
        try:
            loaded = cli.load_experiment_config(str(config_path))
        except cli.ConfigError:
            return
        assert isinstance(loaded, dict)
        assert all(type(loaded["data"][k]) is int for k in ("n", "feature_dim", "seed"))
        assert all(type(loaded["run"][k]) is int for k in ("steps", "seed"))


def run_module(*args):
    """``python -m prgd`` on the package these tests import, installed or not."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "prgd", *args], capture_output=True, env={**os.environ, "PYTHONPATH": path}
    )


class TestExitCodeContract:
    """The installed entry point honours 0/2 exit codes (1 is covered by
    the validate failure path above)."""

    def test_usage_error_is_two(self):
        proc = run_module("validate", "--suite", "nonsense")
        assert proc.returncode == 2

    def test_missing_subcommand_is_two(self):
        proc = run_module()
        assert proc.returncode == 2

    def test_success_is_zero(self):
        proc = run_module("account", "--d", "1", "--delta-x", "1", "--n", "10", "--t", "5")
        assert proc.returncode == 0

    def test_divergence_is_one_stderr_line(self, tmp_path):
        """A diverging run exits 1 with only the error line on stderr: no
        numpy warning about the overflow that caused it."""
        config_path = tmp_path / "cfg.json"
        write_config(
            config_path,
            loss="least_squares",
            data={"n": 10, "feature_dim": 2, "label_noise": 0.1, "seed": 1},
            run={"step_size": 1e8, "steps": 100, "noise_radius": 0.0, "seed": 1},
            initial_w=[1.0, 1.0],
        )
        proc = run_module("run", str(config_path), "--trace", str(tmp_path / "t.trace"))
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == ["error: loss became non-finite at iteration 20"]

    def test_overflowing_labels_are_a_usage_error(self, tmp_path):
        """Labels that label_noise pushes past the double range are bad
        input, refused by Dataset (exit 2) with no numpy overflow warning,
        not a run that diverges at iteration 0 (exit 1)."""
        config_path = tmp_path / "cfg.json"
        write_config(config_path, data={"n": 40, "feature_dim": 1, "label_noise": 1.7e308, "seed": 11})
        proc = run_module("run", str(config_path), "--trace", str(tmp_path / "t.trace"))
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == ["error: labels must be finite"]
        assert not (tmp_path / "t.trace").exists()

    def test_overflowing_noise_draw_is_one_stderr_line(self, tmp_path):
        """A radius whose ball draw overflows exits 1 with only the error
        line: the draw runs under the loop's errstate, so numpy prints no
        warning from the sampler."""
        config_path = tmp_path / "cfg.json"
        write_config(config_path)
        proc = run_module("run", str(config_path), "--noise-radius", "1e308", "--trace", str(tmp_path / "t.trace"))
        assert proc.returncode == 1
        assert proc.stderr.decode().splitlines() == ["error: gradient became non-finite at iteration 1"]

    def test_help_available_for_each_subcommand(self):
        for command in ("account", "curve", "run", "validate"):
            proc = run_module(command, "--help")
            assert proc.returncode == 0
            assert command.encode() in proc.stdout or b"usage" in proc.stdout
