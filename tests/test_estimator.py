"""Outer alternation: monotonicity, determinism, model selection."""

import math
from dataclasses import replace

import numpy as np
import pytest

from tventropy import (
    FitResult,
    ModelConfig,
    anneal,
    bic,
    compose_lambda,
    feature_matrix,
    fit,
    fit_lambda,
    gen_two_regime_gaussian,
    grid_search,
    param_count,
    rescale,
    schwarz_weights,
)
from tventropy.estimator import random_block_gamma

from tests.helpers import random_block_gamma_loop


def scaled_synthetic(v2=4.0, T=400, period=100, seed=0):
    case = gen_two_regime_gaussian(v2, T=T, switch_period=period, seed=seed)
    scaled, scaling = rescale(case.panel)
    return scaled.values, scaling, case


class TestComposeLambda:
    def test_vertex(self):
        lams = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(compose_lambda([1.0, 0.0], lams), lams[0])

    def test_equal_weights_identical_regimes(self):
        lams = np.array([[1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_allclose(compose_lambda([0.5, 0.5], lams), [1.0, -1.0])

    def test_midpoint(self):
        lams = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        np.testing.assert_allclose(compose_lambda([0.5, 0.5], lams), [1.0, 1.0, 0.0])

    def test_rejects_off_simplex(self):
        with pytest.raises(ValueError):
            compose_lambda([0.5, 0.6], np.zeros((2, 3)))


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
            assert np.all(np.diff(result.trace) >= -1e-9)

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

    def test_gamma0_shape_checked(self):
        values, _, _ = scaled_synthetic(seed=6)
        with pytest.raises(ValueError):
            fit(values, ModelConfig(k=2, c_gamma=1.0), gamma0=np.ones((3, 4, 5)))


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
