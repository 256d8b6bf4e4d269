"""End-to-end command tests and model file round trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tventropy
from tventropy import (
    ModelConfig,
    ScalingMap,
    anneal,
    diagnostics,
    forecast,
    gen_two_regime_gaussian,
    grid_search,
    rescale,
)
from tventropy.cli import _config_from_args, _default, build_parser, main
from tventropy.model_io import (
    _rle_encode,
    dumps_canonical,
    load_model,
    model_to_obj,
    obj_to_model,
    save_model,
    write_json_atomic,
)
from tests.helpers import rle_encode_loop
from tests.test_forecast import make_fit


@pytest.fixture(scope="module")
def synthetic_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synthetic.csv"
    rc = main(["gen-synthetic", "--v2", "4", "--t", "400",
               "--switch-period", "100", "--seed", "7", "-o", str(path)])
    assert rc == 0
    return path


@pytest.fixture(scope="module")
def two_column_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "two.csv"
    x = np.random.default_rng(8).standard_normal((400, 2))
    np.savetxt(path, x, delimiter=",")
    return path


@pytest.fixture(scope="module")
def small_model(tmp_path_factory, synthetic_csv):
    path = tmp_path_factory.mktemp("model") / "model.json"
    rc = main(["fit", str(synthetic_csv), "--k", "2", "--cgamma", "3",
               "--m", "4", "--anneal", "2", "--seed", "0", "-o", str(path)])
    assert rc == 0
    return path


class TestModelFile:
    def test_failed_write_keeps_target_and_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "out.json"
        write_json_atomic(str(path), {"kept": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError, match="not JSON serializable"):
            write_json_atomic(str(path), {"bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["out.json"]

    def test_round_trip_byte_identical(self, small_model):
        first = small_model.read_text()
        obj = json.loads(first)
        fit_result, scaling, labels = obj_to_model(obj)
        second = dumps_canonical(model_to_obj(fit_result, scaling, labels))
        assert first == second

    def test_round_trip_preserves_arrays(self, tmp_path):
        case = gen_two_regime_gaussian(4.0, T=300, switch_period=100, seed=1)
        scaled, scaling = rescale(case.panel)
        result = anneal(scaled.values, ModelConfig(k=2, c_gamma=3.0, m=4,
                                                   n_anneal=2, seed=0))
        path = tmp_path / "m.json"
        save_model(str(path), result, scaling, labels=["a"])
        loaded, loaded_scaling, labels = load_model(str(path))
        np.testing.assert_array_equal(loaded.gamma, result.gamma)
        np.testing.assert_array_equal(loaded.lambdas, result.lambdas)
        np.testing.assert_array_equal(loaded_scaling.a, scaling.a)
        assert loaded.objective == result.objective
        assert labels == ["a"]

    def test_unbounded_c_lambda_round_trips(self, tmp_path):
        case = gen_two_regime_gaussian(4.0, T=200, switch_period=50, seed=2)
        scaled, scaling = rescale(case.panel)
        result = anneal(scaled.values, ModelConfig(k=1, c_gamma=1.0, m=3,
                                                   n_anneal=1))
        path = tmp_path / "m.json"
        save_model(str(path), result, scaling)
        loaded, _, _ = load_model(str(path))
        assert np.isinf(loaded.config.c_lambda_per_regime()).all()

    def test_every_config_field_round_trips(self, tmp_path):
        case = gen_two_regime_gaussian(4.0, T=200, switch_period=50, seed=3)
        scaled, scaling = rescale(case.panel)
        config = ModelConfig(k=2, c_gamma=2.0, c_lambda=(5.0, 7.5), m=3, n_anneal=1,
                             seed=4, eps_sparse=1e-4)
        result = anneal(scaled.values, config)
        path = tmp_path / "m.json"
        save_model(str(path), result, scaling)
        loaded, _, _ = load_model(str(path))
        assert loaded.config == config

    def test_older_file_without_lambda_settings_loads_defaults(self, small_model):
        obj = json.loads(small_model.read_text())
        del obj["config"]["eps_sparse"]
        config = obj_to_model(obj)[0].config
        assert config.eps_sparse == ModelConfig.eps_sparse

    def test_older_file_with_fit_stopping_settings_loads(self, small_model):
        # the stopping settings are constants of fit now; they do not change
        # what a saved model means, so a file that carries them still loads
        obj = json.loads(small_model.read_text())
        obj["config"].update(tol_outer=1e-3, max_outer_iter=7, max_lambda_iter=77,
                             tol_lambda=1e-9)
        loaded = obj_to_model(obj)
        assert dumps_canonical(model_to_obj(*loaded)) == small_model.read_text()

    def test_older_file_with_the_200_node_rule_loads(self, small_model):
        obj = json.loads(small_model.read_text())
        obj["config"]["quad_order"] = 200
        loaded = obj_to_model(obj)
        assert dumps_canonical(model_to_obj(*loaded)) == small_model.read_text()

    def test_older_file_with_another_rule_rejected(self, small_model, tmp_path, capsys):
        # its lambda and log Z came from a rule this version does not have
        obj = json.loads(small_model.read_text())
        obj["config"]["quad_order"] = 120
        path = tmp_path / "old.json"
        path.write_text(dumps_canonical(obj))
        with pytest.raises(ValueError, match="120-node"):
            load_model(str(path))
        assert main(["simulate", "--model", str(path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1

    def test_rle_matches_loop_encoder(self):
        rng = np.random.default_rng(11)
        for _ in range(60):
            K, T, n = (int(rng.integers(1, 4)), int(rng.integers(1, 30)),
                       int(rng.integers(1, 4)))
            # short runs of repeated vectors: binary, fractional, and -0.0
            hard = np.repeat(rng.integers(0, K, size=T), rng.integers(1, 4, size=T))[:T]
            gamma = np.zeros((K, T, n))
            gamma[hard, np.arange(T)] = 1.0
            frac = rng.random((K, T, n))
            cols = rng.random(T) < 0.3
            gamma[:, cols] = (frac / frac.sum(axis=0))[:, cols]
            gamma[gamma == 0.0] *= np.where(rng.random((gamma == 0.0).sum()) < 0.5, -1.0, 1.0)
            assert dumps_canonical(_rle_encode(gamma)) == dumps_canonical(
                rle_encode_loop(gamma))

    @pytest.mark.parametrize("runs, fault", [
        ([], "no affiliation dimensions"),
        ([[]], "dimension 0 has no runs"),
        ([[[0, [1.0, 0.0]], [400, [0.0, 1.0]]]], "not a positive integer"),
        ([[[400, [1.0, 0.0, 0.0]]]], "not K=2"),
        ([[[400, 1.0]]], "not K=2"),
        ([[[400, [1.0, 0.0]]], [[399, [0.0, 1.0]]]], "unequal lengths"),
    ])
    def test_malformed_runs_rejected(self, small_model, tmp_path, capsys, runs, fault):
        obj = json.loads(small_model.read_text())
        obj["gamma_rle"] = runs
        path = tmp_path / "bad.json"
        path.write_text(dumps_canonical(obj))
        with pytest.raises(ValueError, match=fault):
            load_model(str(path))
        assert main(["simulate", "--model", str(path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


    @pytest.mark.parametrize("key", ["lambda", "config", "scaling", "trace", "labels",
                                     "log_z", "objective"])
    def test_missing_key_rejected(self, small_model, tmp_path, capsys, key):
        obj = json.loads(small_model.read_text())
        del obj[key]
        path = tmp_path / "bad.json"
        path.write_text(dumps_canonical(obj))
        with pytest.raises(ValueError, match=f"'{key}'"):
            load_model(str(path))
        assert main(["simulate", "--model", str(path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and key in err

    @pytest.mark.parametrize("make", [
        lambda obj: [1, 2],
        lambda obj: "x",
        lambda obj: {"schema": 1, "config": [1]},
        lambda obj: {**obj, "gamma_rle": 5},
        lambda obj: {**obj, "labels": ["x1", "x2"]},
        lambda obj: {**obj, "scaling": {"a": [1.0, 1.0], "b": [0.0, 0.0]}},
        lambda obj: {**obj, "lambda": obj["lambda"] + [obj["lambda"][0]]},
        lambda obj: {**obj, "log_z": obj["log_z"][:1]},
    ], ids=["list", "string", "config-list", "gamma_rle-number", "labels-length",
            "scaling-length", "lambda-rows", "log_z-length"])
    def test_wrong_json_shape_rejected(self, small_model, tmp_path, capsys, make):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(make(json.loads(small_model.read_text()))))
        with pytest.raises(ValueError, match="malformed model file"):
            load_model(str(path))
        assert main(["simulate", "--model", str(path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model file") and err.count("\n") == 1

    def test_setting_fit_cannot_run_rejected(self, small_model, tmp_path, capsys):
        obj = json.loads(small_model.read_text())
        obj["config"]["n_anneal"] = 0
        path = tmp_path / "bad.json"
        path.write_text(dumps_canonical(obj))
        assert main(["simulate", "--model", str(path), "-o", str(tmp_path / "s.csv")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize("argv, dest, fn, name", [
    (["grid", "x.csv"], "stage2_points", grid_search, "stage2_points"),
    (["grid", "x.csv"], "jobs", grid_search, "jobs"),
    (["gen-synthetic"], "t", diagnostics.gen_two_regime_gaussian, "T"),
    (["gen-synthetic"], "switch_period", diagnostics.gen_two_regime_gaussian,
     "switch_period"),
    (["simulate", "--model", "m.json"], "n_samples", diagnostics.simulate_panels,
     "n_samples"),
    (["acf", "x.csv"], "d", diagnostics.acf_abs, "d"),
    (["acf", "x.csv"], "n_samples", diagnostics.simulated_acf, "n_samples"),
    (["graph", "--models", "m.json"], "lag_max", diagnostics.transition_graph, "max_lag"),
    (["graph", "--models", "m.json"], "p_threshold", diagnostics.transition_graph,
     "p_threshold"),
])
def test_flag_defaults_are_the_library_defaults(argv, dest, fn, name):
    assert getattr(build_parser().parse_args(argv), dest) == _default(fn, name)


def test_var_alpha_falls_back_to_backtest_default(capsys):
    # no --alpha leaves None, which cmd_var replaces by backtest's own levels
    assert build_parser().parse_args(["var", "x.csv", "--train-split", "300"]).alpha is None
    with pytest.raises(SystemExit):
        main(["var", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    alphas = " and ".join(map(str, _default(forecast.backtest, "alphas")))
    assert f"(default {alphas})" in help_text


@pytest.mark.parametrize("argv", [
    ["fit", "x.csv"],
    ["var", "x.csv", "--train-split", "300"],
    ["grid", "x.csv"],
])
def test_default_flags_give_default_config(argv):
    assert _config_from_args(build_parser().parse_args(argv)) == ModelConfig()


class TestFitCommand:
    def test_writes_model(self, small_model):
        obj = json.loads(small_model.read_text())
        assert obj["schema"] == 1
        assert obj["config"]["k"] == 2
        assert len(obj["lambda"]) == 2

    def test_k1_stationary(self, synthetic_csv, tmp_path):
        out = tmp_path / "m1.json"
        rc = main(["fit", str(synthetic_csv), "--k", "1", "--cgamma", "1",
                   "--m", "4", "--anneal", "1", "-o", str(out)])
        assert rc == 0
        obj = json.loads(out.read_text())
        assert obj["config"]["k"] == 1
        assert len(obj["gamma_rle"][0]) == 1          # one constant run

    def test_malformed_csv_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\nnot-a-number\n")
        rc = main(["fit", str(bad), "--k", "1", "--anneal", "1",
                   "-o", str(tmp_path / "m.json")])
        assert rc == 1
        err = capsys.readouterr().err
        assert "row 2" in err and "column 1" in err

    def test_summary_reports_lambda_unconverged(self, synthetic_csv, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert main(["fit", str(synthetic_csv), "--k", "2", "--m", "4", "--anneal", "1",
                     "-o", str(out)]) == 0
        summary = capsys.readouterr().out.splitlines()[0]
        assert summary.endswith(" lambda_unconverged=0")
        assert "lambda_unconverged" not in out.read_text()   # the model file is unchanged

    def test_missing_file_exit_code(self, tmp_path):
        rc = main(["fit", str(tmp_path / "nope.csv"), "-o", str(tmp_path / "m.json")])
        assert rc == 1

    def test_missing_highs_core_gives_one_line_error(self, synthetic_csv, tmp_path, capsys,
                                                     monkeypatch):
        # a scipy without the vendored HiGHS bindings fails at the first LP
        monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
        rc = main(["fit", str(synthetic_csv), "--k", "2", "--cgamma", "1", "--m", "4",
                   "--anneal", "1", "-o", str(tmp_path / "m.json")])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: affiliation LP needs scipy>=1.15 (scipy.optimize._highspy)\n")


@pytest.mark.parametrize("argv", [
    ["fit", "{csv}", "--k", "0"],
    ["fit", "{csv}", "--m", "13"],
    ["fit", "{csv}", "--cgamma", "-1"],
    ["fit", "{csv}", "--anneal", "0"],
    ["simulate", "--model", "{model}", "--n-samples", "0"],
    ["grid", "{csv}", "--kmax", "0"],
    ["var", "{csv}", "--train-split", "300", "--model", "{model}", "--alpha", "1.5"],
    ["acf", "{csv}", "--max-lag", "400"],
    ["acf", "{csv}", "--dim", "3"],
    ["acf", "{csv}", "--dim", "-1"],
    ["grid", "{csv}", "--stage2-points", "-1"],
    ["grid", "{csv}", "--jobs", "0"],
    ["fit", "{csv}", "--clambda", "nan"],
    ["var", "{csv}", "--train-split", "400", "--model", "{model}"],
    ["gen-synthetic", "--switch-period", "0"],
    ["graph", "--models", "{model}", "--lag-max", "-1"],
    ["acf", "{csv}", "--max-lag", "0"],
    ["acf", "{csv}", "--d", "-1"],
    ["graph", "--models", "{model}", "--lag-max", "400"],
    ["acf", "{two}", "--dim", "1", "--model", "{model}"],
    ["var", "{two}", "--train-split", "200", "--model", "{model}"],
])
def test_bad_input_gives_one_line_error(argv, synthetic_csv, two_column_csv, small_model,
                                        tmp_path, capsys):
    argv = [a.format(csv=synthetic_csv, two=two_column_csv, model=small_model) for a in argv]
    rc = main(argv + ["-o", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


class TestGridCommand:
    def test_report_and_determinism(self, synthetic_csv, tmp_path):
        args = ["grid", str(synthetic_csv), "--kmax", "2", "--cgamma-max", "3",
                "--m", "4", "--anneal", "2", "--seed", "3", "--stage2-points", "0"]
        out1, csv1 = tmp_path / "g1.json", tmp_path / "g1.csv"
        out2, csv2 = tmp_path / "g2.json", tmp_path / "g2.csv"
        assert main(args + ["-o", str(out1), "--output-csv", str(csv1)]) == 0
        assert main(args + ["-o", str(out2), "--output-csv", str(csv2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert csv1.read_bytes() == csv2.read_bytes()
        obj = json.loads(out1.read_text())
        assert len(obj["stage1"]) == 6
        bics = [c["bic"] for c in obj["stage1"]]
        assert obj["chosen"]["bic"] == min(bics)

    def test_clambda_flag_rejected(self, synthetic_csv, tmp_path):
        # grid_search chooses the l1 bounds itself, so grid takes none
        with pytest.raises(SystemExit) as exc:
            main(["grid", str(synthetic_csv), "--clambda", "5", "--kmax", "1",
                  "--cgamma-max", "1", "--m", "4", "--anneal", "1",
                  "--stage2-points", "0", "-o", str(tmp_path / "g.json"),
                  "--output-csv", str(tmp_path / "g.csv")])
        assert exc.value.code == 2

    def test_quad_order_flag_rejected(self, synthetic_csv, tmp_path):
        # one fixed quadrature rule: there is no order to choose
        with pytest.raises(SystemExit) as exc:
            main(["fit", str(synthetic_csv), "--quad-order", "200", "--k", "1",
                  "--anneal", "1", "-o", str(tmp_path / "m.json")])
        assert exc.value.code == 2

    def test_model_output_is_the_chosen_model(self, synthetic_csv, tmp_path):
        grid, model = tmp_path / "g.json", tmp_path / "best.json"
        assert main(["grid", str(synthetic_csv), "--kmax", "2", "--cgamma-max", "2",
                     "--m", "4", "--anneal", "1", "--stage2-points", "2",
                     "-o", str(grid), "--output-csv", str(tmp_path / "g.csv"),
                     "--model-output", str(model)]) == 0
        chosen = json.loads(grid.read_text())["chosen"]
        fit_result, _, labels = load_model(model)
        assert (fit_result.k, fit_result.config.c_gamma) == (chosen["k"], chosen["c_gamma"])
        assert fit_result.bic == chosen["bic"]
        c_lambda = fit_result.config.c_lambda_per_regime()
        assert (None if np.isinf(c_lambda).all() else c_lambda.tolist()) == chosen["c_lambda"]
        assert labels == ["x1"] and fit_result.shape == (400, 1)

    def test_jobs_flag_gives_same_report(self, synthetic_csv, tmp_path):
        base = ["grid", str(synthetic_csv), "--kmax", "2", "--cgamma-max", "2",
                "--m", "4", "--anneal", "1", "--stage2-points", "0"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(base + ["--jobs", "1", "-o", str(a),
                            "--output-csv", str(tmp_path / "a.csv")]) == 0
        assert main(base + ["--jobs", "2", "-o", str(b),
                            "--output-csv", str(tmp_path / "b.csv")]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestPipelineCommands:
    def test_gen_synthetic_outputs(self, synthetic_csv):
        truth = synthetic_csv.with_name(synthetic_csv.name + ".truth.csv")
        data = synthetic_csv.read_text().strip().splitlines()
        assert len(data) == 400
        assert truth.exists()
        truth_rows = truth.read_text().strip().splitlines()
        assert truth_rows[0] == "regime,variance"
        assert len(truth_rows) == 401

    def test_simulate(self, small_model, tmp_path):
        out = tmp_path / "sims.csv"
        rc = main(["simulate", "--model", str(small_model), "--n-samples", "2",
                   "--seed", "1", "-o", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0] == "sample,t,x1"
        assert len(rows) == 1 + 2 * 400

    def test_simulate_negative_seed_names_seed(self, small_model, tmp_path, capsys):
        rc = main(["simulate", "--model", str(small_model), "--seed", "-1",
                   "-o", str(tmp_path / "sims.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "seed" in err

    def test_acf_command_iid_data(self, tmp_path):
        rng = np.random.default_rng(5)
        data = tmp_path / "iid.csv"
        data.write_text("\n".join(str(v) for v in rng.standard_normal(5000)) + "\n")
        out = tmp_path / "acf.csv"
        rc = main(["acf", str(data), "--d", "1", "--max-lag", "100", "-o", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()[1:]
        assert len(rows) == 100
        inside = 0
        for row in rows:
            _, rho, iid_hw, _ = row.split(",")
            inside += abs(float(rho)) <= float(iid_hw)
        assert inside >= 93

    def test_acf_with_model_column(self, synthetic_csv, small_model, tmp_path):
        out = tmp_path / "acf_model.csv"
        rc = main(["acf", str(synthetic_csv), "--max-lag", "10",
                   "--model", str(small_model), "--n-samples", "20", "-o", str(out)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header.endswith("rho_model")

    def test_var_command(self, synthetic_csv, tmp_path):
        out = tmp_path / "var.csv"
        rc = main(["var", str(synthetic_csv), "--train-split", "300",
                   "--k", "2", "--cgamma", "3", "--m", "4", "--anneal", "2",
                   "--alpha", "0.95", "-o", str(out)])
        assert rc == 0
        rows = out.read_text().strip().splitlines()
        assert rows[0].startswith("dimension,alpha,violations")
        assert len(rows) == 2

    def test_graph_command(self, tmp_path):
        # two assets with strongly coupled switch patterns
        rng = np.random.default_rng(8)
        blocks = ([0] * 60 + [1] * 60) * 3
        x = rng.standard_normal(360) * np.where(np.asarray(blocks) == 0, 1.0, 3.0)
        y = np.roll(x, 1) + 0.1 * rng.standard_normal(360)
        models = []
        for name, series in (("a", x), ("b", y)):
            csv_path = tmp_path / f"{name}.csv"
            csv_path.write_text("\n".join(str(v) for v in series) + "\n")
            model_path = tmp_path / f"{name}.json"
            assert main(["fit", str(csv_path), "--k", "2", "--cgamma", "6",
                         "--m", "4", "--anneal", "2", "-o", str(model_path)]) == 0
            models.append(str(model_path))
        out_prefix = tmp_path / "graph"
        rc = main(["graph", "--models", *models, "--lag-max", "3",
                   "--p-threshold", "0.05", "-o", str(out_prefix)])
        assert rc == 0
        obj = json.loads((tmp_path / "graph.json").read_text())
        assert obj["schema"] == 1
        assert (tmp_path / "graph.dot").read_text().startswith("digraph")

    def test_graph_rejects_models_of_different_lengths(self, small_model, tmp_path, capsys):
        short = tmp_path / "short.json"
        save_model(str(short), make_fit([[0.0, 8.0, 0, 0], [0.0, 2.0, 0, 0]], T=300,
                                        hard_path=[0] * 150 + [1] * 150),
                   ScalingMap(a=np.array([0.5]), b=np.array([0.0])), labels=["s"])
        rc = main(["graph", "--models", str(small_model), str(short),
                   "-o", str(tmp_path / "graph")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and "400" in err and "300" in err


def test_import_loads_no_scipy_until_the_first_lp():
    # a fresh interpreter: this one has scipy loaded by the tests
    code = "\n".join([
        "import json, sys",
        "import numpy as np",
        "import tventropy, tventropy.cli",
        "before = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')",
        "s = np.tile([1.0, -1.0], 20)",
        "tventropy.solve_gamma(np.stack([s, -s])[:, :, None], 1.0)   # budget binds",
        "print(json.dumps([before, 'scipy.optimize._highspy._core' in sys.modules]))",
    ])
    src = str(Path(tventropy.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    before, loaded = json.loads(out.splitlines()[-1])
    assert before == [] and loaded
