import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from bilarx import SolverOptions, refine_pipeline, scenario, solve_bil, solver
from bilarx.cli import _CONFIG_TYPES, _load_config, main


def run_cli(*args):
    return main(list(args))


def write_config(path, **overrides):
    cfg = {"n_a": 1, "n_b": 3, "n_k": 0, "epsilon": 2.0, "lambda": 1e7,
           "gamma": 0.5, "max_iters": 6000}
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


@pytest.fixture()
def workdir(tmp_path):
    data = tmp_path / "data.csv"
    assert run_cli("simulate", "--scenario", "scenario_arx_noisy",
                   "--out", str(data)) == 0
    cfg = write_config(tmp_path / "cfg.json")
    return tmp_path, data, cfg


class TestSimulate:
    def test_csv_columns_and_determinism(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli("simulate", "--scenario", "scenario_arx_noisy",
                       "--seed", "7", "--out", str(out1)) == 0
        assert run_cli("simulate", "--scenario", "scenario_arx_noisy",
                       "--seed", "7", "--out", str(out2)) == 0
        assert out1.read_text() == out2.read_text()
        rows = list(csv.DictReader(out1.read_text().splitlines()))
        assert set(rows[0]) == {"t", "z", "y"}
        assert len(rows) == 30
        sc = scenario("scenario_arx_noisy", seed=7)
        got = np.array([float(r["y"]) for r in rows])
        assert np.array_equal(got, sc.spec.sequences[0].samples)

    def test_env_seed_override(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv("BILARX_SEED", "12")
        assert run_cli("simulate", "--scenario", "scenario_arx_noisy",
                       "--seed", "7", "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        got = np.array([float(r["y"]) for r in rows])
        expected = scenario("scenario_arx_noisy", seed=12).spec.sequences[0].samples
        assert np.array_equal(got, expected)

    def test_two_sequences_labeled(self, tmp_path):
        out = tmp_path / "two.csv"
        assert run_cli("simulate", "--scenario", "scenario_two_sequences",
                       "--out", str(out)) == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert {r["series"] for r in rows} == {"y1", "y2"}

    def test_unknown_scenario_is_data_error(self, tmp_path):
        assert run_cli("simulate", "--scenario", "nope",
                       "--out", str(tmp_path / "x.csv")) == 3


class TestIdentify:
    def test_result_schema_and_roundtrip_floats(self, workdir):
        tmp, data, cfg = workdir
        out = tmp / "result.json"
        code = run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(out))
        assert code == 0
        result = json.loads(out.read_text())
        for key in ("a", "b", "scale_note", "u", "singular_values", "rank_gap",
                    "change_points", "diagnostics", "lambda", "objective"):
            assert key in result
        diag = result["diagnostics"]
        assert set(diag) == {"iterations", "primal_residual", "dual_residual",
                             "converged", "rho", "rho_changes"}
        sol = solve_bil(scenario("scenario_arx_noisy").spec, 1e7,
                        SolverOptions(max_iters=6000))
        assert result["u"]["y1"] == [float(v) for v in sol.u_est[0]]
        assert result["rank_gap"] == sol.rank_gap

    def test_huge_lambda_converges(self, workdir):
        # the block-ratio cap keeps K factorable far past the useful lambda range
        tmp, data, _ = workdir
        cfg = write_config(tmp / "huge.json", **{"lambda": 1e16})
        out = tmp / "o.json"
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(out)) == 0
        assert json.loads(out.read_text())["diagnostics"]["converged"] is True

    def test_missing_config_exits_1(self, workdir):
        tmp, data, _ = workdir
        assert run_cli("identify", "--data", str(data),
                       "--config", str(tmp / "absent.json"),
                       "--out", str(tmp / "o.json")) == 1

    def test_unknown_config_key_exits_1(self, workdir):
        tmp, data, _ = workdir
        cfg = tmp / "bad.json"
        cfg.write_text(json.dumps({"n_a": 1, "n_b": 3, "lambda": 1.0, "rho2": 5}))
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json")) == 1

    def test_readme_config_example_loads(self, tmp_path):
        # The README's example names every config key and nothing else.
        readme = (Path(__file__).parent.parent / "README.md").read_text()
        example = re.search(r"configuration is flat JSON:\n\n```json\n(.*?)```",
                            readme, re.S).group(1)
        cfg = tmp_path / "readme.json"
        cfg.write_text(example)
        assert set(_load_config(cfg)) == set(_CONFIG_TYPES)

    def test_missing_lambda_exits_1(self, workdir):
        tmp, data, _ = workdir
        cfg = tmp / "nolam.json"
        cfg.write_text(json.dumps({"n_a": 1, "n_b": 3}))
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json")) == 1

    def test_short_data_exits_3(self, workdir, tmp_path):
        tmp, _, cfg = workdir
        short = tmp_path / "short.csv"
        short.write_text("t,y\n1,1.0\n2,2.0\n")
        assert run_cli("identify", "--data", str(short), "--config", str(cfg),
                       "--out", str(tmp / "o.json")) == 3

    def test_non_consecutive_t_exits_3(self, workdir, tmp_path):
        tmp, _, cfg = workdir
        bad = tmp_path / "gap.csv"
        rows = ["t,y"] + [f"{t},{0.1 * t}" for t in range(1, 31) if t != 5]
        bad.write_text("\n".join(rows) + "\n")
        assert run_cli("identify", "--data", str(bad), "--config", str(cfg),
                       "--out", str(tmp / "o.json")) == 3

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_sample_exits_3(self, workdir, tmp_path, capsys, value):
        tmp, _, cfg = workdir
        bad = tmp_path / "nonfinite.csv"
        rows = ["t,y"] + [f"{t},{value if t == 7 else 0.1 * t}" for t in range(1, 31)]
        bad.write_text("\n".join(rows) + "\n")
        capsys.readouterr()
        code = run_cli("identify", "--data", str(bad), "--config", str(cfg),
                       "--out", str(tmp / "o.json"))
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("bilarx: ") and ":8: y must be finite" in err
        assert not (tmp / "o.json").exists()

    def test_unknown_subcommand_exits_1(self):
        assert run_cli("frobnicate") == 1

    def test_nonconvergence_exits_2(self, workdir):
        tmp, data, _ = workdir
        cfg = write_config(tmp / "tiny.json", max_iters=5)
        out = tmp / "o.json"
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(out)) == 2
        assert not json.loads(out.read_text())["diagnostics"]["converged"]

    def test_plot_dir_emission(self, workdir):
        tmp, data, cfg = workdir
        plots = tmp / "plots"
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), "--plot-dir", str(plots)) == 0
        fit = (plots / "fit_y1.csv").read_text().splitlines()
        assert fit[0] == "t,y_measured,y_model"
        assert len(fit) == 31
        inp = (plots / "input_y1.csv").read_text().splitlines()
        assert inp[0] == "t,u_estimate"


class TestBadSettings:
    """Bad config values and flags end with exit 1 and one message line. The
    ``rho`` and ``tol`` rows hold keys the solver no longer has: whatever the
    value, each is an unknown config key."""

    @pytest.mark.parametrize("command, cfg_overrides, flags", [
        ("identify", {"rho": -1}, []),
        ("identify", {"lambda": -5}, []),
        ("identify", {"max_iters": "many"}, []),
        ("sweep", {}, ["--lambdas", "5,2"]),
        ("sweep", {}, ["--lambdas", "1,2", "--gap-target", "2"]),
        ("refine", {}, ["--gamma", "-1"]),
        ("identify", {"n_a": [1]}, []),
        ("identify", {"n_b": 0}, []),
        ("identify", {"epsilon": -1}, []),
        ("identify", {"lambda": float("inf")}, []),
        ("identify", {"max_iters": 1e400}, []),
        ("identify", {"rho": float("inf")}, []),
        ("sweep", {}, ["--lambdas", "1,inf"]),
        ("identify", {"lambda": 1e300}, []),
        ("identify", {"lambda": 1e200}, []),
        ("identify", {"rho": 1e300}, []),
        ("identify", {"rho": 1e-320}, []),
        ("refine", {"rho": 1e-320}, []),
        ("sweep", {}, ["--lambdas", "1e300"]),
        ("identify", {"tol": float("inf")}, []),
        ("identify", {"epsilon": float("inf")}, []),
        ("sweep", {}, ["--lambdas", "1e2,1e155"]),
    ], ids=["rho", "lambda", "max_iters", "lambdas", "gap_target", "gamma",
            "n_a", "n_b", "epsilon", "lambda_inf", "max_iters_overflow", "rho_inf",
            "lambdas_inf", "lambda_huge", "lambda_square_overflow", "rho_huge",
            "rho_tiny", "rho_tiny_refine", "lambdas_huge", "tol_inf", "epsilon_inf",
            "lambdas_square_overflow"])
    def test_exits_1_without_traceback(self, workdir, capsys, command,
                                       cfg_overrides, flags):
        tmp, data, _ = workdir
        cfg = write_config(tmp / "bad.json", **cfg_overrides)
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"y1": [0.0] * 30}}))
        if command == "refine":
            flags = ["--result", str(prior), *flags]
        capsys.readouterr()
        code = run_cli(command, "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("bilarx: ")
        assert "Traceback" not in err
        assert not (tmp / "o.json").exists()

    def test_sweep_grid_checked_before_any_solve(self, workdir, capsys, monkeypatch):
        # A grid point whose square overflows is rejected up front, and the
        # message names the flag, not the config file.
        tmp, data, cfg = workdir
        monkeypatch.setattr(solver, "solve_bil", lambda *args: pytest.fail("solved"))
        capsys.readouterr()
        code = run_cli("sweep", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), "--lambdas", "1e2,1e155")
        assert code == 1
        assert capsys.readouterr().err == ("bilarx: --lambdas: lambda grid entries must "
                                           "be positive and finite, with finite squares\n")
        assert not (tmp / "o.json").exists()

    @pytest.mark.parametrize("cfg_overrides, message", [
        ({"n_b": 2.9}, "n_b must be an integer, got 2.9"),
        ({"max_iters": 50.9}, "max_iters must be an integer, got 50.9"),
        ({"n_a": True}, "n_a must be an integer, got True"),
        ({"lambda": True}, "lambda must be a number, got True"),
        ({"epsilon": "2"}, "epsilon must be a number, got '2'"),
        ({"n_k": "0"}, "n_k must be an integer, got '0'"),
        ({"tol": None}, "unknown config key 'tol'"),
    ], ids=["n_b_fraction", "max_iters_fraction", "n_a_bool", "lambda_bool",
            "epsilon_string", "n_k_string", "tol_null"])
    def test_wrong_type_exits_1(self, workdir, capsys, cfg_overrides, message):
        tmp, data, _ = workdir
        cfg = write_config(tmp / "bad.json", **cfg_overrides)
        capsys.readouterr()
        code = run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"))
        assert code == 1
        assert capsys.readouterr().err == f"bilarx: {cfg}: {message}\n"
        assert not (tmp / "o.json").exists()

    def test_integral_float_accepted_as_integer(self, workdir):
        tmp, data, cfg = workdir
        as_int, as_float = tmp / "int.json", tmp / "float.json"
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(as_int)) == 0
        cfg = write_config(tmp / "float_cfg.json", max_iters=6e3)
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(as_float)) == 0
        assert as_float.read_text() == as_int.read_text()

    @pytest.mark.parametrize("command, flags", [
        ("ripcheck", ["--k", "0"]),
        ("baseline", ["--segments", "0"]),
    ], ids=["k", "segments"])
    def test_bad_flag_exits_1(self, workdir, capsys, command, flags):
        tmp, data, cfg = workdir
        capsys.readouterr()
        code = run_cli(command, "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert f"error: argument {flags[-2]}: must be >= " in err
        assert "Traceback" not in err
        assert not (tmp / "o.json").exists()


class TestUnwritableOutput:
    """An output path that cannot be written ends with exit 1, not a traceback."""

    @pytest.mark.parametrize("command, flags", [
        ("identify", ["--out", "{missing}/o.json"]),
        ("simulate", ["--out", "{missing}/o.csv"]),
        ("identify", ["--out", "{tmp}/o.json", "--plot-dir", "{file}/plots"]),
    ], ids=["identify_out", "simulate_out", "plot_dir_in_file"])
    def test_exits_1_without_traceback(self, workdir, capsys, command, flags):
        tmp, data, cfg = workdir
        names = {"missing": tmp / "missing_dir", "tmp": tmp, "file": data}
        flags = [f.format(**names) for f in flags]
        if command == "simulate":
            flags = ["--scenario", "scenario_arx_noisy", *flags]
        else:
            flags = ["--data", str(data), "--config", str(cfg), *flags]
        capsys.readouterr()
        code = run_cli(command, *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("bilarx: cannot write ")
        assert "Traceback" not in err
        assert not (tmp / "missing_dir").exists()


class TestRefine:
    def test_cli_matches_library_pipeline(self, workdir):
        tmp, data, cfg = workdir
        first = tmp / "first.json"
        refined = tmp / "refined.json"
        run_cli("identify", "--data", str(data), "--config", str(cfg),
                "--out", str(first))
        run_cli("refine", "--data", str(data), "--config", str(cfg),
                "--result", str(first), "--gamma", "0.5", "--out", str(refined))
        got = json.loads(refined.read_text())

        sc = scenario("scenario_arx_noisy")
        opts = SolverOptions(max_iters=6000)
        lib = refine_pipeline(sc.spec, solve_bil(sc.spec, 1e7, opts), 0.5, opts)
        assert got["u"]["y1"] == [float(v) for v in lib.u_est[0]]
        assert got["a"] == [float(v) for v in lib.a_est]
        assert got["rank_gap"] == lib.rank_gap

    def test_refine_needs_matching_series(self, workdir):
        tmp, data, cfg = workdir
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"other": [0.0] * 30}}))
        assert run_cli("refine", "--data", str(data), "--config", str(cfg),
                       "--result", str(prior), "--gamma", "0.5",
                       "--out", str(tmp / "o.json")) == 1

    def test_refine_non_finite_estimate_exits_3(self, workdir, capsys):
        tmp, data, cfg = workdir
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"y1": [0.0] * 5 + [float("nan")] * 25}}))
        capsys.readouterr()
        assert run_cli("refine", "--data", str(data), "--config", str(cfg),
                       "--result", str(prior), "--gamma", "0.5",
                       "--out", str(tmp / "o.json")) == 3
        assert "estimate must be finite" in capsys.readouterr().err
        assert not (tmp / "o.json").exists()

    @pytest.mark.parametrize("prior_text", ["5", '{"u": [0.0, 1.0]}'])
    def test_refine_prior_without_estimates_exits_1(self, workdir, prior_text):
        tmp, data, cfg = workdir
        prior = tmp / "prior.json"
        prior.write_text(prior_text)
        assert run_cli("refine", "--data", str(data), "--config", str(cfg),
                       "--result", str(prior), "--gamma", "0.5",
                       "--out", str(tmp / "o.json")) == 1


class TestSweepBaselineRipcheck:
    def test_sweep_payload(self, tmp_path):
        data = tmp_path / "fir.csv"
        run_cli("simulate", "--scenario", "scenario_fir_noisefree",
                "--out", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_a": 0, "n_b": 3, "epsilon": 0.0,
                                   "max_iters": 20000}))
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", "--data", str(data), "--config", str(cfg),
                       "--lambdas", "1e2,1e4", "--gap-target", "1e-3",
                       "--out", str(out))
        assert code == 0
        result = json.loads(out.read_text())
        assert result["sweep"]["qualified"] is True
        assert result["sweep"]["lambda_chosen"] == 100.0
        assert result["rank_gap"] <= 1e-3

    def test_baseline_payload(self, workdir):
        tmp, data, cfg = workdir
        out = tmp / "baseline.json"
        assert run_cli("baseline", "--data", str(data), "--config", str(cfg),
                       "--segments", "4", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert set(result) == {"a", "b", "u", "change_points", "segments"}
        assert len(result["u"]["y1"]) == 30

    def test_ripcheck_requires_fir(self, workdir):
        tmp, data, cfg = workdir
        assert run_cli("ripcheck", "--data", str(data), "--config", str(cfg),
                       "--k", "1", "--out", str(tmp / "rip.json")) == 3

    def test_ripcheck_fir_payload(self, tmp_path):
        data = tmp_path / "fir.csv"
        run_cli("simulate", "--scenario", "scenario_fir_noisefree",
                "--out", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_a": 0, "n_b": 3, "epsilon": 0.0}))
        out = tmp_path / "rip.json"
        assert run_cli("ripcheck", "--data", str(data), "--config", str(cfg),
                       "--k", "1", "--out", str(out)) == 0
        result = json.loads(out.read_text())
        assert set(result) == {"k", "rip_epsilon", "patterns_checked",
                               "certified_unique"}
        assert result["certified_unique"] is False  # structural null direction

    def test_ripcheck_has_no_plot_dir(self, tmp_path, capsys):
        # ripcheck writes no per-figure file, so --plot-dir is a usage error
        data = tmp_path / "fir.csv"
        run_cli("simulate", "--scenario", "scenario_fir_noisefree",
                "--out", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_a": 0, "n_b": 3, "epsilon": 0.0}))
        capsys.readouterr()
        assert run_cli("ripcheck", "--data", str(data), "--config", str(cfg),
                       "--k", "1", "--out", str(tmp_path / "rip.json"),
                       "--plot-dir", str(tmp_path / "plots")) == 1
        assert "unrecognized arguments: --plot-dir" in capsys.readouterr().err
        assert not (tmp_path / "rip.json").exists()
        assert not (tmp_path / "plots").exists()

    def test_ripcheck_has_no_budget(self, tmp_path, capsys):
        # the pattern budget is a fixed limit of the analysis, not a flag
        data = tmp_path / "fir.csv"
        run_cli("simulate", "--scenario", "scenario_fir_noisefree",
                "--out", str(data))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_a": 0, "n_b": 3, "epsilon": 0.0}))
        capsys.readouterr()
        assert run_cli("ripcheck", "--data", str(data), "--config", str(cfg),
                       "--k", "1", "--budget", "5", "--out", str(tmp_path / "rip.json")) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --budget 5" in err
        assert "Traceback" not in err
        assert not (tmp_path / "rip.json").exists()


class TestFloatSerialization:
    def test_17_digit_round_trip(self, tmp_path):
        from bilarx.cli import _write_json

        values = [np.pi, 1.0 / 3.0, 6.62607015e-34, -0.1, 2.0**53 + 1.0,
                  np.float64(2.0) / 3.0]
        _write_json(tmp_path / "v.json", {"v": values})
        back = json.loads((tmp_path / "v.json").read_text())["v"]
        assert all(a == b for a, b in zip(back, values))


class TestResultsOutOfRange:
    """A result JSON never carries NaN or Infinity. The solve runs in units of
    max |y|; a result that overflows once scaled back to the data's units is
    a data error (exit 3) and writes nothing, and an exactly zero D X term
    adds 0 to the objective, however large lambda * max |y| is."""

    def write(self, tmp, ys, **cfg):
        data, config = tmp / "data.csv", tmp / "cfg.json"
        data.write_text("t,y\n" + "".join(f"{t},{y!r}\n" for t, y in enumerate(ys, 1)))
        config.write_text(json.dumps(cfg))
        return ["--data", str(data), "--config", str(config), "--out", str(tmp / "o.json")]

    def test_zero_dx_term_is_zero(self, tmp_path):
        io = self.write(tmp_path, [1e308] * 3, n_a=1, n_b=1, epsilon=2.0, **{"lambda": 2.0})
        assert run_cli("identify", *io) == 0
        got = json.loads((tmp_path / "o.json").read_text(), parse_constant=pytest.fail)
        assert got["objective"] == 0.0

    @pytest.mark.parametrize("command, ys, cfg, flags", [
        ("identify", [1e308] * 12, {"n_a": 0, "lambda": 2.0, "epsilon": 2.0}, []),
        ("sweep", [1e200] * 6 + [-1e200] * 6, {"n_a": 1, "epsilon": 1.0},
         ["--lambdas", "1e154"]),
    ], ids=["singular_values_inf", "sweep_objective_inf"])
    def test_overflow_exits_3_and_writes_nothing(self, tmp_path, capsys,
                                                  command, ys, cfg, flags):
        io = self.write(tmp_path, ys, n_b=1, **cfg)
        capsys.readouterr()
        assert run_cli(command, *io, *flags) == 3
        err = capsys.readouterr().err
        assert err == (f"bilarx: {tmp_path / 'o.json'} not written: a result overflows "
                       f"floating-point range in the data's units\n")
        assert not (tmp_path / "o.json").exists()

    @pytest.mark.filterwarnings("ignore:autoregressive polynomial", "ignore:overflow encountered")
    def test_model_output_overflow_exits_3_and_writes_nothing(self, tmp_path, capsys):
        # The estimate fits the data, but simulating it from zero presamples
        # runs its pole of 6.6e93 past the float range: the fit file would
        # hold inf, so no file is written.
        io = self.write(tmp_path, [0.0, 0.0, 0.0, 1.0, 6.571157014032351e93],
                        n_a=1, n_b=1, **{"lambda": 1.0})
        assert run_cli("identify", *io) == 0
        (tmp_path / "o.json").unlink()
        capsys.readouterr()
        assert run_cli("identify", *io, "--plot-dir", str(tmp_path / "plots")) == 3
        assert capsys.readouterr().err.endswith(
            "not written: the model output overflows floating-point range in the "
            "data's units\n")
        assert not (tmp_path / "o.json").exists()
        assert not (tmp_path / "plots").exists()


class TestBaselineScale:
    """The baseline's verdict and ``(a, b)`` do not depend on the data's
    scale: its segmentation and its least squares each divide their data by
    a power of two near its largest magnitude. Squaring samples of 1e155 or
    1e-160 used to overflow or underflow the segmentation costs, which
    collapsed the fit to one constant segment and ended in "rank deficient"
    (exit 3)."""

    WALK = np.cumsum(np.random.default_rng(0).standard_normal(12))

    def run(self, tmp, scale):
        data, cfg, out = tmp / f"{scale}.csv", tmp / "cfg.json", tmp / f"{scale}.json"
        data.write_text("t,y\n" + "".join(f"{t},{float(y)!r}\n"
                                          for t, y in enumerate(self.WALK * scale, 1)))
        cfg.write_text(json.dumps({"n_a": 1, "n_b": 2}))
        assert run_cli("baseline", "--data", str(data), "--config", str(cfg),
                       "--segments", "2", "--out", str(out)) == 0
        return json.loads(out.read_text(), parse_constant=pytest.fail)

    @pytest.mark.parametrize("scale", [1e150, 1e155, 1e-160, 1e-300])
    def test_same_answer_at_every_scale(self, tmp_path, scale):
        ref, got = self.run(tmp_path, 1.0), self.run(tmp_path, scale)
        assert got["change_points"] == ref["change_points"]
        assert got["a"] == pytest.approx(ref["a"], rel=1e-12)
        assert got["b"] == pytest.approx(ref["b"], rel=1e-12)
        assert np.array(got["u"]["y1"]) / scale == pytest.approx(ref["u"]["y1"], rel=1e-12)


class TestInputContract:
    """Bad data files, configs, estimates and environment end with their
    documented exit code and one message line; ``--plot-dir`` of baseline and
    simulate writes the documented CSVs."""

    @staticmethod
    def run_identify(capsys, tmp, data, cfg):
        capsys.readouterr()
        code = run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"))
        err = capsys.readouterr().err
        assert err.startswith("bilarx: ")
        assert "Traceback" not in err
        assert not (tmp / "o.json").exists()
        return code, err

    @pytest.mark.parametrize("csv_text, code, message", [
        ("t,value\n1,1.0\n", 1, "need columns 't' and 'y'"),
        ("y\n1.0\n", 1, "need columns 't' and 'y'"),
        ("t,y\n1,1.0\nx,2.0\n", 1, ":3: bad t/y value"),
        ("t,y\n", 3, "no data rows"),
        ("t,y,series\n1,1.0,a\n2,2.0\n", 1, ":3: missing series value"),
    ], ids=["no_y", "no_t", "non_numeric_t", "header_only", "no_series_value"])
    def test_bad_data_file(self, workdir, capsys, csv_text, code, message):
        tmp, _, cfg = workdir
        data = tmp / "bad.csv"
        data.write_text(csv_text)
        got, err = self.run_identify(capsys, tmp, data, cfg)
        assert got == code
        assert message in err

    @pytest.mark.parametrize("cfg_text, message", [
        ('[{"n_a": 1, "n_b": 3}]', "config must be a JSON object"),
        ('{"n_a": 1, "n_b": 3', "is not valid JSON"),
        ('{"n_b": 3, "lambda": 1.0}', "missing required config key 'n_a'"),
    ], ids=["list", "invalid_json", "no_n_a"])
    def test_bad_config_file(self, workdir, capsys, cfg_text, message):
        tmp, data, _ = workdir
        cfg = tmp / "bad.json"
        cfg.write_text(cfg_text)
        got, err = self.run_identify(capsys, tmp, data, cfg)
        assert got == 1
        assert message in err

    @pytest.mark.parametrize("which", ["data", "config", "result"])
    def test_non_utf8_file_exits_1(self, workdir, capsys, which):
        tmp, data, cfg = workdir
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"y1": [0.0] * 30}}))
        files = {"data": data, "config": cfg, "result": prior}
        files[which] = tmp / "bad.bin"
        files[which].write_bytes(b"\xff\xfe\x00")
        capsys.readouterr()
        code = run_cli("refine", "--data", str(files["data"]),
                       "--config", str(files["config"]),
                       "--result", str(files["result"]), "--gamma", "0.5",
                       "--out", str(tmp / "o.json"))
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"bilarx: cannot read {files[which]}: ")
        assert "Traceback" not in err
        assert not (tmp / "o.json").exists()

    def test_refine_wrong_length_estimate_exits_3(self, workdir, capsys):
        tmp, data, cfg = workdir
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"y1": [0.0] * 29}}))
        capsys.readouterr()
        assert run_cli("refine", "--data", str(data), "--config", str(cfg),
                       "--result", str(prior), "--gamma", "0.5",
                       "--out", str(tmp / "o.json")) == 3
        err = capsys.readouterr().err
        assert "does not match data length" in err
        assert "Traceback" not in err
        assert not (tmp / "o.json").exists()

    def test_non_integer_env_seed_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BILARX_SEED", "abc")
        capsys.readouterr()
        assert run_cli("simulate", "--scenario", "scenario_arx_noisy",
                       "--out", str(tmp_path / "x.csv")) == 1
        err = capsys.readouterr().err
        assert err == "bilarx: BILARX_SEED='abc' is not an integer\n"
        assert not (tmp_path / "x.csv").exists()

    def test_simulate_plot_dir(self, tmp_path, capsys):
        plots = tmp_path / "plots"
        assert run_cli("simulate", "--scenario", "scenario_two_sequences",
                       "--out", str(tmp_path / "two.csv"),
                       "--plot-dir", str(plots)) == 0
        assert "Traceback" not in capsys.readouterr().err
        sc = scenario("scenario_two_sequences")
        for seq, u in zip(sc.spec.sequences, sc.truth.u_blocks):
            rows = (plots / f"true_input_{seq.label}.csv").read_text().splitlines()
            assert rows[0] == "t,u_true"
            assert [float(r.split(",")[1]) for r in rows[1:]] == list(u)

    def test_baseline_plot_dir(self, workdir, capsys):
        tmp, data, cfg = workdir
        plots = tmp / "plots"
        assert run_cli("baseline", "--data", str(data), "--config", str(cfg),
                       "--segments", "4", "--out", str(tmp / "b.json"),
                       "--plot-dir", str(plots)) == 0
        assert "Traceback" not in capsys.readouterr().err
        rows = (plots / "baseline_y1.csv").read_text().splitlines()
        assert rows[0] == "t,y_measured,u_fit"
        assert len(rows) == 31
        u_fit = json.loads((tmp / "b.json").read_text())["u"]["y1"]
        assert [float(r.split(",")[2]) for r in rows[1:]] == u_fit

    @pytest.mark.parametrize("command, flags", [
        ("identify", []),
        ("baseline", ["--segments", "4"]),
    ], ids=["identify", "baseline"])
    def test_plot_label_leaving_plot_dir_exits_1(self, workdir, capsys, command, flags):
        # A label with path separators would put fit_<label>.csv outside
        # --plot-dir; it is refused before the solve, so nothing is written.
        tmp, data, cfg = workdir
        rows = list(csv.DictReader(data.read_text().splitlines()))
        escape = tmp / "escape.csv"
        escape.write_text("t,y,series\n" + "".join(
            f"{r['t']},{r['y']},/../../esc\n" for r in rows))
        before = set(tmp.rglob("*"))
        capsys.readouterr()
        code = run_cli(command, "--data", str(escape), "--config", str(cfg),
                       "--out", str(tmp / "o.json"),
                       "--plot-dir", str(tmp / "plots" / "inner"), *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"bilarx: {escape}: series label '/../../esc' cannot name "
                       f"a file in --plot-dir\n")
        assert set(tmp.rglob("*")) == before

    @pytest.mark.parametrize("command, flags, prefix", [
        ("identify", [], "input"),
        ("baseline", ["--segments", "4"], "baseline"),
    ], ids=["identify", "baseline"])
    def test_plot_label_too_long_exits_1(self, workdir, capsys, command, flags, prefix):
        # The longest file the command writes, <prefix>_<label>.csv, is one
        # byte over 255 once encoded ("é" is two bytes); it is refused before
        # the solve, so no result file or plot directory appears.
        tmp, data, cfg = workdir
        label = "é" * ((256 - len(prefix) - 5) // 2) + "x" * ((256 - len(prefix) - 5) % 2)
        assert len(f"{prefix}_{label}.csv".encode()) == 256
        rows = list(csv.DictReader(data.read_text().splitlines()))
        long_data = tmp / "long.csv"
        long_data.write_text("t,y,series\n" + "".join(
            f"{r['t']},{r['y']},{label}\n" for r in rows))
        capsys.readouterr()
        code = run_cli(command, "--data", str(long_data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), "--plot-dir", str(tmp / "plots"),
                       *flags)
        err = capsys.readouterr().err
        assert code == 1
        assert err == (f"bilarx: {long_data}: series label {label!r} cannot name "
                       f"a file in --plot-dir\n")
        assert not (tmp / "o.json").exists()
        assert not (tmp / "plots").exists()

    def test_plot_label_at_name_limit_is_written(self, workdir):
        # input_<label>.csv of exactly 255 bytes is a valid file name
        tmp, data, cfg = workdir
        label = "x" * (255 - len("input_.csv"))
        rows = list(csv.DictReader(data.read_text().splitlines()))
        long_data = tmp / "long.csv"
        long_data.write_text("t,y,series\n" + "".join(
            f"{r['t']},{r['y']},{label}\n" for r in rows))
        assert run_cli("identify", "--data", str(long_data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), "--plot-dir", str(tmp / "plots")) == 0
        assert (tmp / "plots" / f"input_{label}.csv").exists()


class TestAllZeroData:
    """Twelve zero samples: the lifted solution is exactly zero, so there is
    no input direction to report."""

    @pytest.fixture()
    def zeros(self, tmp_path):
        data = tmp_path / "zeros.csv"
        data.write_text("t,y\n" + "".join(f"{t},0.0\n" for t in range(1, 13)))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_a": 1, "n_b": 2, "epsilon": 0.0,
                                   "lambda": 10.0}))
        return tmp_path, data, cfg

    def test_identify_writes_null_b_and_no_fit(self, zeros):
        tmp, data, cfg = zeros
        plots = tmp / "plots"
        assert run_cli("identify", "--data", str(data), "--config", str(cfg),
                       "--out", str(tmp / "o.json"), "--plot-dir", str(plots)) == 0
        got = json.loads((tmp / "o.json").read_text())
        assert got["b"] is None
        assert got["u"]["y1"] == [0.0] * 12
        assert not list(plots.glob("fit_*.csv"))

    def test_baseline_exits_3(self, zeros, capsys):
        tmp, data, cfg = zeros
        capsys.readouterr()
        assert run_cli("baseline", "--data", str(data), "--config", str(cfg),
                       "--segments", "2", "--out", str(tmp / "b.json")) == 3
        err = capsys.readouterr().err
        assert "rank deficient" in err
        assert "Traceback" not in err
        assert not (tmp / "b.json").exists()

    def test_refine_without_gamma_exits_1(self, zeros, capsys):
        tmp, data, cfg = zeros
        prior = tmp / "prior.json"
        prior.write_text(json.dumps({"u": {"y1": [0.0] * 12}}))
        capsys.readouterr()
        assert run_cli("refine", "--data", str(data), "--config", str(cfg),
                       "--result", str(prior), "--out", str(tmp / "o.json")) == 1
        err = capsys.readouterr().err
        assert err == "bilarx: refine needs --gamma or 'gamma' in the config\n"
        assert not (tmp / "o.json").exists()
