"""Outer alternation: monotonicity, determinism, model selection."""

import inspect
import math
from dataclasses import fields, replace
from functools import partial

import numpy as np
import pytest

from tventropy import (
    FitResult,
    ModelConfig,
    Panel,
    SelectionReport,
    anneal,
    bic,
    feature_matrix,
    fit,
    fit_lambda,
    gen_two_regime_gaussian,
    grid_search,
    param_count,
    rescale,
    schwarz_weights,
    tv_norm,
)
from tventropy import estimator
from tventropy.estimator import MAX_OUTER_ITER, random_block_gamma

from tests.helpers import log_integral_converged, random_block_gamma_loop
from tests.test_maxent import simpson_log_integral


def scaled_synthetic(v2=4.0, T=400, period=100, seed=0):
    case = gen_two_regime_gaussian(v2, T=T, switch_period=period, seed=seed)
    scaled, scaling = rescale(case.panel)
    return scaled.values, scaling, case


@pytest.mark.parametrize("setting", [
    {"tol_lambda": 0.0},
    {"eps_sparse": -1.0},
    {"c_gamma": math.inf},
    {"c_lambda": math.nan},
    {"c_lambda": -1.0},
    {"c_lambda": (1.0, 2.0, 3.0)},
], ids=lambda setting: next(iter(setting)))
def test_model_config_rejects_settings_fit_cannot_run(setting):
    with pytest.raises(ValueError, match=next(iter(setting))):
        ModelConfig(**setting)


@pytest.mark.parametrize("name", ["tol_outer", "max_outer_iter", "max_lambda_iter"])
def test_fit_stopping_rule_is_not_a_setting(name):
    with pytest.raises(TypeError, match=name):
        ModelConfig(**{name: 1})


class TestFit:
    def test_k1_equals_pooled_stationary_fit(self):
        values, _, _ = scaled_synthetic(seed=1)
        config = ModelConfig(k=1, c_gamma=5.0, m=4, seed=0)
        result = fit(values, config)
        pooled = fit_lambda(feature_matrix(values, 4), np.ones_like(values))
        np.testing.assert_allclose(result.lambdas[0], pooled.lam, atol=1e-6)
        assert result.objective == pytest.approx(pooled.objective, rel=1e-9)

    def test_trace_nondecreasing(self):
        values, _, _ = scaled_synthetic(seed=2)
        for seed in range(3):
            config = ModelConfig(k=2, c_gamma=3.0, m=4, seed=seed)
            result = fit(values, config)
            assert np.all(np.diff(result.trace) >= 0)

    def test_objective_consistent_with_recompute(self):
        from tventropy import build_scores, log_partition

        values, _, _ = scaled_synthetic(seed=3)
        config = ModelConfig(k=2, c_gamma=3.0, m=4, seed=1)
        result = fit(values, config)
        F = feature_matrix(values, 4)
        scores = build_scores(result.lambdas, F, result.log_z)
        recomputed = float((result.gamma * scores).sum())
        assert result.objective == pytest.approx(recomputed, abs=1e-9)
        for k in range(2):
            assert result.log_z[k] == pytest.approx(
                log_partition(result.lambdas[k]), abs=1e-10)

    def test_deterministic(self):
        values, _, _ = scaled_synthetic(seed=4)
        config = ModelConfig(k=2, c_gamma=3.0, m=4, seed=7)
        a = fit(values, config)
        b = fit(values, config)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)
        assert a.objective == b.objective and a.trace == b.trace

    def test_recovers_two_regimes(self):
        values, _, case = scaled_synthetic(v2=6.0, T=600, period=150, seed=5)
        config = ModelConfig(k=2, c_gamma=4.0, m=4, n_anneal=5, seed=0)
        result = anneal(values, config)
        hard = result.gamma.argmax(axis=0)[:, 0]
        true_hard = case.gamma_true.argmax(axis=0)[:, 0]
        ce = min(np.mean(hard != true_hard), np.mean(hard != 1 - true_hard))
        assert ce <= 0.1

    def test_rejects_unscaled_values(self):
        with pytest.raises(ValueError):
            fit(np.array([[0.0], [5.0], [1.0]]), ModelConfig(k=1, c_gamma=1.0))

    @pytest.mark.parametrize("excess", [1e-10, 1e-8])
    def test_values_just_outside_unit_interval_ask_for_rescale(self, excess):
        values = np.array([[0.0], [1.0 + excess], [-0.5]])
        with pytest.raises(ValueError, match="rescale"):
            fit(values, ModelConfig(k=1, c_gamma=1.0))

    def test_nan_values_ask_for_rescale(self):
        values = scaled_synthetic(T=200, period=50, seed=6)[0].copy()
        values[17, 0] = np.nan
        with pytest.raises(ValueError, match="rescale"):
            fit(values, ModelConfig(k=2, c_gamma=3.0, m=4))

    def test_reports_lp_work(self):
        values, _, _ = scaled_synthetic(seed=1)
        result = fit(values, ModelConfig(k=3, c_gamma=2.0, m=4, seed=0))
        assert result.lp_solves >= 1 and result.simplex_iterations > 0
        result = fit(values, ModelConfig(k=1, c_gamma=2.0, m=4))
        assert (result.lp_solves, result.simplex_iterations) == (0, 0)
        assert result.shortcut_hits == result.n_outer    # every K=1 solve

    def test_reports_unconverged_lambda_steps(self, monkeypatch):
        values, _, _ = scaled_synthetic(seed=1)
        result = fit(values, ModelConfig(k=2, c_gamma=3.0, m=4))
        assert result.lambda_unconverged == 0 and result.converged
        monkeypatch.setattr("tventropy.estimator.fit_lambda", partial(fit_lambda, max_iter=1))
        result = fit(values, ModelConfig(k=2, c_gamma=3.0, m=4))
        assert result.lambda_unconverged > 0
        # the outer test passed, but its last lambda subproblems did not converge
        assert result.n_outer < MAX_OUTER_ITER
        assert not result.converged

    def test_gamma0_shape_checked(self):
        values, _, _ = scaled_synthetic(seed=6)
        with pytest.raises(ValueError):
            fit(values, ModelConfig(k=2, c_gamma=1.0), gamma0=np.ones((3, 4, 5)))

    def test_given_features_change_no_bit(self):
        values, _, _ = scaled_synthetic(seed=3)
        cfg = ModelConfig(k=2, c_gamma=3.0, m=5)
        g = random_block_gamma(2, values.shape[0], 1, 3.0, 4)
        built = fit(values, cfg, gamma0=g)
        given = fit(values, cfg, gamma0=g, features=feature_matrix(values, cfg.m))
        for name in ("gamma", "lambdas", "log_z", "trace"):
            np.testing.assert_array_equal(getattr(given, name), getattr(built, name))
        assert given.objective == built.objective

    @pytest.mark.parametrize("m, T", [(4, 400), (5, 399)], ids=["wrong-m", "wrong-T"])
    def test_features_shape_checked(self, m, T):
        values, _, _ = scaled_synthetic(seed=6)
        with pytest.raises(ValueError, match="features"):
            fit(values, ModelConfig(k=2, c_gamma=3.0, m=5),
                features=feature_matrix(values[:T], m))


class TestRandomBlockGamma:
    def test_budget_respected(self):
        rng_seeds = range(20)
        for seed in rng_seeds:
            for (k, T, n, c) in [(2, 50, 1, 3.0), (3, 60, 2, 5.0), (4, 40, 1, 0.0)]:
                gamma = random_block_gamma(k, T, n, c, seed)
                np.testing.assert_allclose(gamma.sum(axis=0), 1.0)
                for kk in range(k):
                    tv = np.abs(np.diff(gamma[kk], axis=0)).sum()
                    assert tv <= c + 1e-12

    def test_binary(self):
        gamma = random_block_gamma(3, 30, 2, 4.0, seed=1)
        assert set(np.unique(gamma)) <= {0.0, 1.0}

    def test_matches_block_loop(self):
        # T not divisible by the block count, n > 1, K = 1, more blocks than T
        shapes = [(2, 1000, 3, 2997.0), (2, 101, 2, 7.0), (3, 50, 3, 10.5),
                  (1, 20, 2, 3.0), (4, 7, 1, 100.0), (3, 33, 1, 0.0)]
        for (k, T, n, c) in shapes:
            for seed in range(5):
                np.testing.assert_array_equal(random_block_gamma(k, T, n, c, seed),
                                              random_block_gamma_loop(k, T, n, c, seed))


class TestAnneal:
    def test_single_restart_equals_fit(self):
        values, _, _ = scaled_synthetic(seed=7)
        config = ModelConfig(k=2, c_gamma=2.0, m=4, n_anneal=1, seed=3)
        direct = fit(values, config,
                     gamma0=random_block_gamma(2, values.shape[0], 1, 2.0, 3))
        annealed = anneal(values, config)
        assert annealed.objective == direct.objective
        np.testing.assert_array_equal(annealed.gamma, direct.gamma)

    def test_more_restarts_never_worse(self):
        values, _, _ = scaled_synthetic(seed=8)
        base = ModelConfig(k=2, c_gamma=3.0, m=4, seed=11)
        l1 = anneal(values, replace(base, n_anneal=1)).objective
        l5 = anneal(values, replace(base, n_anneal=5)).objective
        assert l5 >= l1

    def test_bit_identical_reruns(self):
        values, _, _ = scaled_synthetic(seed=9)
        config = ModelConfig(k=2, c_gamma=2.0, m=4, n_anneal=3, seed=5)
        a = anneal(values, config)
        b = anneal(values, config)
        np.testing.assert_array_equal(a.gamma, b.gamma)
        np.testing.assert_array_equal(a.lambdas, b.lambdas)
        assert a.trace == b.trace

    def test_repeated_starts_fit_once(self, monkeypatch):
        # with C_gamma=1 on one dimension there are only four block starts
        values, _, _ = scaled_synthetic(seed=9, T=200, period=50)
        config = ModelConfig(k=2, c_gamma=1.0, m=4, n_anneal=8, seed=5)
        starts = [random_block_gamma(2, 200, 1, 1.0, 5 + r) for r in range(8)]
        unique = [g for r, g in enumerate(starts)
                  if not any(np.array_equal(g, h) for h in starts[:r])]
        assert len(unique) < len(starts)
        best = None
        for g in unique:
            result = fit(values, config, gamma0=g)
            if best is None or result.objective > best.objective:
                best = result
        calls = []

        def counting_fit(*args, **kwargs):
            calls.append(kwargs["gamma0"])
            return fit(*args, **kwargs)

        monkeypatch.setattr("tventropy.estimator.fit", counting_fit)
        annealed = anneal(values, config)
        assert len(calls) == len(unique)
        for got, want in zip(calls, unique):
            np.testing.assert_array_equal(got, want)
        assert annealed.objective == best.objective
        np.testing.assert_array_equal(annealed.gamma, best.gamma)
        np.testing.assert_array_equal(annealed.lambdas, best.lambdas)
        # the counters are the best restart's, not sums
        assert (annealed.lp_solves, annealed.shortcut_hits) == (best.lp_solves,
                                                                best.shortcut_hits)

    def test_builds_features_once(self, monkeypatch):
        values, _, _ = scaled_synthetic(seed=9, T=200, period=50)
        built = []
        monkeypatch.setattr("tventropy.estimator.feature_matrix",
                            lambda *args: built.append(args) or feature_matrix(*args))
        anneal(values, ModelConfig(k=2, c_gamma=3.0, m=4, n_anneal=4, seed=5))
        assert len(built) == 1


class TestParamCountAndBic:
    def _result_with(self, gamma, lambdas, objective=0.0):
        K, T, n = gamma.shape
        return FitResult(
            gamma=gamma, lambdas=lambdas, log_z=np.zeros(K), objective=objective,
            bic=0.0, param_count=0, trace=[objective], converged=True,
            degenerate=False, config=ModelConfig(k=K, c_gamma=1.0, m=lambdas.shape[1]),
            n_outer=1)

    def test_k1_dense(self):
        gamma = np.ones((1, 100, 1))
        lambdas = np.full((1, 6), 0.5)
        assert param_count(self._result_with(gamma, lambdas)) == 6

    def test_k2_one_switch(self):
        gamma = np.zeros((2, 100, 1))
        gamma[0, :50, 0] = 1.0
        gamma[1, 50:, 0] = 1.0
        lambdas = np.full((2, 6), 0.5)
        assert param_count(self._result_with(gamma, lambdas)) == 12 + 2

    def test_sparse_lambda_reduces_count(self):
        gamma = np.zeros((2, 100, 1))
        gamma[0, :50, 0] = 1.0
        gamma[1, 50:, 0] = 1.0
        lambdas = np.full((2, 6), 0.5)
        lambdas[0, 4] = 0.0
        lambdas[1, 5] = 1e-9
        assert param_count(self._result_with(gamma, lambdas)) == 12 + 2 - 2

    def test_bic_formula(self):
        gamma = np.ones((1, 100, 1))
        lambdas = np.array([[0.5, 0.0, 0.0, 0.0, 0.0, 0.0]])
        result = self._result_with(gamma, lambdas, objective=0.0)
        assert bic(result) == pytest.approx(1.0 * math.log(100))

    def test_bic_hand_computed(self):
        values, _, _ = scaled_synthetic(seed=10)
        result = fit(values, ModelConfig(k=1, c_gamma=1.0, m=4))
        p = param_count(result)
        expected = -2 * result.objective + p * math.log(values.size)
        assert result.bic == pytest.approx(expected, rel=1e-12)

    def test_take_only_the_fit(self):
        assert list(inspect.signature(param_count).parameters) == ["fit_result"]
        assert list(inspect.signature(bic).parameters) == ["fit_result"]

    def test_duplicating_a_regime_keeps_L_raises_bic(self):
        from tventropy import build_scores

        values, _, _ = scaled_synthetic(seed=11)
        config = ModelConfig(k=2, c_gamma=3.0, m=4, seed=2)
        result = fit(values, config)
        F = feature_matrix(values, 4)
        # duplicate regime 0 and split its weights
        lambdas3 = np.vstack([result.lambdas, result.lambdas[0]])
        log_z3 = np.concatenate([result.log_z, result.log_z[:1]])
        gamma3 = np.concatenate(
            [result.gamma * np.array([0.5, 1.0])[:, None, None],
             0.5 * result.gamma[:1]], axis=0)
        scores3 = build_scores(lambdas3, F, log_z3)
        L3 = float((gamma3 * scores3).sum())
        assert L3 == pytest.approx(result.objective, abs=1e-9)
        dup = FitResult(
            gamma=gamma3, lambdas=lambdas3, log_z=log_z3, objective=L3, bic=0.0,
            param_count=0, trace=[L3], converged=True, degenerate=False,
            config=ModelConfig(k=3, c_gamma=3.0, m=4), n_outer=1)
        assert bic(dup) > result.bic


class TestSchwarzWeights:
    def test_equal_bics(self):
        np.testing.assert_allclose(schwarz_weights([10.0] * 5), np.full(5, 0.2))

    def test_delta_two(self):
        w = schwarz_weights([0.0, 2.0])
        assert w[0] == pytest.approx(1 / (1 + math.exp(-1)), abs=1e-4)
        assert w[0] == pytest.approx(0.7311, abs=1e-4)
        assert w[1] == pytest.approx(0.2689, abs=1e-4)

    def test_dominant_model(self):
        w = schwarz_weights([100.0, 175.0])
        assert w[0] > 0.999 and w[1] < 1e-8
        assert w.sum() == pytest.approx(1.0)

    def test_shift_invariant_and_overflow_safe(self):
        w1 = schwarz_weights([1e6, 1e6 + 3.0])
        w2 = schwarz_weights([0.0, 3.0])
        np.testing.assert_allclose(w1, w2, atol=1e-12)


class TestGridSearch:
    def test_single_cell(self):
        values, _, _ = scaled_synthetic(seed=12)
        report = grid_search(values, [1], [2.0],
                             ModelConfig(m=4, n_anneal=1, seed=0), stage2_points=0)
        assert len(report.stage1) == 1
        assert report.chosen_k == 1
        assert report.best_fit.bic == report.stage1[0].bic

    def test_chosen_cell_minimises_bic(self):
        values, _, _ = scaled_synthetic(v2=6.0, seed=13)
        report = grid_search(values, [1, 2], [2.0, 4.0],
                             ModelConfig(m=4, n_anneal=2, seed=0), stage2_points=0)
        best = min(c.bic for c in report.stage1)
        assert report.best_fit.bic == pytest.approx(best)

    def test_stage2_never_worse_than_stage1_winner(self):
        values, _, _ = scaled_synthetic(v2=6.0, seed=14)
        with_stage2 = grid_search(values, [2], [4.0],
                                  ModelConfig(m=4, n_anneal=2, seed=0),
                                  stage2_points=6)
        without = grid_search(values, [2], [4.0],
                              ModelConfig(m=4, n_anneal=2, seed=0), stage2_points=0)
        assert with_stage2.best_fit.bic <= without.best_fit.bic + 1e-9
        assert len(with_stage2.chosen_k_star) == 2

    def test_deterministic_with_jobs(self):
        values, _, _ = scaled_synthetic(seed=15)
        config = ModelConfig(m=4, n_anneal=2, seed=0)
        r1 = grid_search(values, [1, 2], [2.0], config, stage2_points=0, jobs=1)
        r2 = grid_search(values, [1, 2], [2.0], config, stage2_points=0, jobs=2)
        assert [c.bic for c in r1.stage1] == [c.bic for c in r2.stage1]
        np.testing.assert_array_equal(r1.best_fit.gamma, r2.best_fit.gamma)

    def test_builds_features_once(self, monkeypatch):
        values, _, _ = scaled_synthetic(seed=15, T=200, period=50)
        built = []
        monkeypatch.setattr("tventropy.estimator.feature_matrix",
                            lambda *args: built.append(args) or feature_matrix(*args))
        report = grid_search(values, [1, 2], [2.0, 4.0], ModelConfig(m=4, n_anneal=2, seed=0),
                             stage2_points=2, jobs=1)
        assert len(report.stage2) == 2
        assert len(built) == 1

    def test_cells_report_their_fits_lambda_unconverged(self, monkeypatch):
        values, _, _ = scaled_synthetic(v2=6.0, seed=14, T=200, period=50)
        monkeypatch.setattr("tventropy.estimator.fit_lambda", partial(fit_lambda, max_iter=2))
        chosen = []

        def recording(*args, **kwargs):
            chosen.append(anneal_or_continue(*args, **kwargs))
            return chosen[-1]

        anneal_or_continue = estimator._anneal_or_continue
        monkeypatch.setattr("tventropy.estimator._anneal_or_continue", recording)
        report = grid_search(values, [1, 2], [2.0, 4.0], ModelConfig(m=4, n_anneal=2, seed=0),
                             stage2_points=2, jobs=1)
        cells = report.stage1 + report.stage2
        assert len(chosen) == len(cells) == 6
        assert [c.lambda_unconverged for c in cells] == [f.lambda_unconverged for f in chosen]
        assert any(c.lambda_unconverged > 0 for c in cells)


class TestSelectionReport:
    def test_stores_stages_and_best_fit_only(self):
        names = [f.name for f in fields(SelectionReport)]
        assert names == ["stage1", "stage2", "best_fit"]

    @pytest.mark.parametrize("v2, stage2_wins", [(6.0, False), (4.0, True)])
    def test_choice_is_read_off_best_fit(self, v2, stage2_wins):
        values, _, _ = scaled_synthetic(v2=v2, seed=14)
        report = grid_search(values, [1, 2], [4.0], ModelConfig(m=4, n_anneal=2, seed=0),
                             stage2_points=6)
        best = report.best_fit
        assert (report.chosen_k, report.chosen_c_gamma) == (best.config.k, best.config.c_gamma)
        assert report.chosen_bic == best.bic
        assert sum(report.chosen_k_star) + (best.k - 1) <= best.param_count
        # a stage-2 cell wins only by a strictly lower BIC, the first such minimum
        stage1_bic = min(c.bic for c in report.stage1)
        better = [c for c in report.stage2 if c.bic < stage1_bic]
        assert bool(better) == stage2_wins
        if better:
            won = min(better, key=lambda c: c.bic)
            assert report.chosen_c_lambda == won.c_lambda
            assert report.chosen_k_star == won.k_star
        else:
            assert report.chosen_c_lambda is None

    def test_stage1_winner_has_no_c_lambda(self):
        values, _, _ = scaled_synthetic(seed=12)
        report = grid_search(values, [1], [2.0], ModelConfig(m=4, n_anneal=1, seed=0),
                             stage2_points=0)
        assert report.chosen_c_lambda is None
        assert report.chosen_k_star == (sum(np.abs(report.best_fit.lambdas[0]) >= 1e-5),)


def _rescaled(x):
    return rescale(Panel(values=np.asarray(x, dtype=float)))[0].values


def _check_edge_fit(result):
    gamma, c_gamma = result.gamma, result.config.c_gamma
    assert np.all(gamma >= 0.0)
    np.testing.assert_allclose(gamma.sum(axis=0), 1.0, atol=1e-12)
    assert max(tv_norm(gamma, k) for k in range(result.k)) <= c_gamma + 1e-7
    assert np.all(np.diff(result.trace) >= 0)
    assert result.bic == bic(result)


class TestEdgeShapes:
    @pytest.mark.parametrize("case", ["k3_t3", "n3", "m12_student_t"])
    def test_clean_fit(self, case):
        rng = np.random.default_rng(3)
        if case == "k3_t3":
            values = _rescaled(rng.standard_normal((3, 1)))
            config = ModelConfig(k=3, c_gamma=2.0, m=2)
        elif case == "n3":
            values = _rescaled(rng.standard_normal((300, 3)) * np.repeat([1.0, 2.0], 150)[:, None])
            config = ModelConfig(k=2, c_gamma=6.0, m=4)
        else:
            values = _rescaled(rng.standard_t(4, size=(500, 1)))
            config = ModelConfig(k=2, c_gamma=3.0, m=12, c_lambda=20.0)
        result = fit(values, config)
        _check_edge_fit(result)
        for lam, log_z in zip(result.lambdas, result.log_z):
            assert abs(log_z - simpson_log_integral(lam)) <= 1e-9

    @pytest.mark.xfail(strict=True, reason="without an l1 bound the outlier's regime "
                       "diverges (|lambda|_1 ~ 2.5e11) and its log Z is off by ~3e7")
    def test_single_200_sigma_outlier(self):
        x = np.random.default_rng(1).standard_normal((500, 1))
        x[250] = 200.0
        result = anneal(_rescaled(x), ModelConfig(k=2, c_gamma=3.0, m=6, n_anneal=2))
        _check_edge_fit(result)
        for lam, log_z in zip(result.lambdas, result.log_z):
            want = log_integral_converged(lam)
            assert abs(log_z - want) <= 1e-9 * max(1.0, abs(want))
