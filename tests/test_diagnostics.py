"""Synthetic study tooling, ACF machinery, Fisher test, transition graph."""

import math
from fractions import Fraction

import numpy as np
import pytest

from tventropy import (
    ContingencyTable2x2,
    DegenerateSeries,
    ModelConfig,
    ScalingMap,
    acf_abs,
    acf_bands,
    classification_error,
    fisher_exact,
    fit,
    gen_two_regime_gaussian,
    gmw_variance,
    jump_series,
    relative_error,
    rescale,
    simulate_panels,
    simulated_acf,
    transition_graph,
    variance_path,
)
from tventropy.diagnostics import lagged_table, regime_variances
from tventropy.forecast import kupiec_test  # noqa: F401  (shared fixtures import)
from tests.helpers import acf_abs_loop, jump_series_loop
from tests.test_forecast import make_fit

IDENTITY = ScalingMap(a=np.array([1.0]), b=np.array([0.0]))


def fisher_oracle(a, b, c, d):
    """Independent enumeration in exact rational arithmetic over the row margin."""
    r1, r2 = a + b, c + d
    c1, N = a + c, a + b + c + d
    denom = math.comb(N, c1)

    def prob(aa):
        return Fraction(math.comb(r1, aa) * math.comb(r2, c1 - aa), denom)

    lo = max(0, c1 - r2)
    hi = min(r1, c1)
    p_obs = prob(a)
    total = sum(prob(aa) for aa in range(lo, hi + 1) if prob(aa) <= p_obs)
    return float(total)


class TestSyntheticCase:
    def test_block_variances(self):
        case = gen_two_regime_gaussian(4.0, T=1000, switch_period=250, seed=3)
        x = case.panel.values[:, 0]
        assert np.var(x[:250]) == pytest.approx(1.0, rel=0.2)
        assert np.var(x[250:500]) == pytest.approx(4.0, rel=0.2)
        np.testing.assert_array_equal(np.unique(case.v_true), [1.0, 4.0])

    def test_degenerate_variance_ratio(self):
        case = gen_two_regime_gaussian(1.0, T=2000, switch_period=500, seed=4)
        assert np.var(case.panel.values) == pytest.approx(1.0, rel=0.1)

    def test_three_switches(self):
        case = gen_two_regime_gaussian(4.0, T=1000, switch_period=250, seed=5)
        hard = case.gamma_true.argmax(axis=0)[:, 0]
        assert int((np.diff(hard) != 0).sum()) == 3

    def test_deterministic(self):
        a = gen_two_regime_gaussian(2.0, seed=6).panel.values
        b = gen_two_regime_gaussian(2.0, seed=6).panel.values
        np.testing.assert_array_equal(a, b)


class TestClassificationError:
    def test_exact_match(self):
        case = gen_two_regime_gaussian(4.0, seed=7)
        assert classification_error(case.gamma_true, case.gamma_true) == 0.0

    def test_label_swap_invariance(self):
        case = gen_two_regime_gaussian(4.0, seed=8)
        swapped = case.gamma_true[::-1]
        assert classification_error(case.gamma_true, swapped) == 0.0

    def test_random_guess_near_half(self):
        rng = np.random.default_rng(9)
        T = 20_000
        gamma_true = np.zeros((2, T, 1))
        gamma_true[0, : T // 2, 0] = 1.0
        gamma_true[1, T // 2:, 0] = 1.0
        guess = np.zeros((2, T, 1))
        labels = rng.integers(0, 2, size=T)
        guess[labels, np.arange(T), 0] = 1.0
        assert classification_error(gamma_true, guess) == pytest.approx(0.5, abs=0.05)


class TestRelativeError:
    def test_zero(self):
        v = np.array([1.0, 2.0, 3.0])
        assert relative_error(v, v) == 0.0

    def test_doubling(self):
        v = np.array([1.0, 2.0, 3.0])
        assert relative_error(v, 2 * v) == pytest.approx(1.0)

    def test_unit_component(self):
        v = np.array([3.0, 4.0])
        e = np.array([1.0, 0.0]) * np.linalg.norm(v)
        assert relative_error(v, v + e) == pytest.approx(1.0)


class TestVariancePath:
    def test_uniform_regime(self):
        fit_result = make_fit([np.zeros(6)], T=10)
        np.testing.assert_allclose(variance_path(fit_result, IDENTITY),
                                   np.full(10, 1 / 3), atol=1e-10)

    def test_vertex_weights(self):
        lam = [[0.0, 8.0, 0, 0, 0, 0], [0.0, 2.0, 0, 0, 0, 0]]
        fit_result = make_fit(lam, T=10, hard_path=[0] * 5 + [1] * 5)
        path = variance_path(fit_result, IDENTITY)
        assert np.unique(path[:5]).size == 1 and np.unique(path[5:]).size == 1
        assert path[0] < path[-1]

    def test_scaling_law(self):
        fit_result = make_fit([np.zeros(6)], T=4)
        half = ScalingMap(a=np.array([0.5]), b=np.array([0.0]))
        np.testing.assert_allclose(variance_path(fit_result, half),
                                   np.full(4, 4 / 3), atol=1e-10)


class TestGmwVariance:
    def test_constant_series(self):
        np.testing.assert_allclose(gmw_variance(np.full(100, 2.5), 10), 0.0, atol=1e-20)

    def test_iid_unit_variance(self):
        rng = np.random.default_rng(10)
        path = gmw_variance(rng.standard_normal(2000), 50)
        assert np.median(path) == pytest.approx(1.0, abs=0.3)

    def test_step_transition_smeared(self):
        x = np.concatenate([np.full(200, 0.0), np.full(200, 10.0)])
        rng = np.random.default_rng(11)
        x += rng.standard_normal(400) * 0.1
        path = gmw_variance(x, 30)
        assert path[100] == pytest.approx(0.01, rel=1.0)
        assert path[200] > 1.0   # window straddles the step


class TestAcf:
    def test_iid_within_bartlett_bounds(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal(10_000)
        rho = acf_abs(x, d=1.0, max_lag=100)
        assert np.mean(np.abs(rho) <= 3 / math.sqrt(10_000)) >= 0.99

    def test_periodic_series(self):
        x = np.tile([0.1, 2.0], 500)
        rho = acf_abs(x, d=1.0, max_lag=4)
        assert rho[1] == pytest.approx(1.0, abs=0.01)
        assert rho[0] == pytest.approx(-1.0, abs=0.01)

    def test_d_zero_degenerate(self):
        rng = np.random.default_rng(13)
        with pytest.raises(DegenerateSeries):
            acf_abs(rng.standard_normal(100), d=0.0, max_lag=5)

    @pytest.mark.parametrize("d", [-1.0, math.nan])
    def test_nonpositive_d_rejected(self, d):
        x = np.random.default_rng(13).standard_normal(100)
        x[7] = 0.0                      # |0|^d is infinite for d < 0
        with pytest.raises(ValueError, match="d must be positive"):
            acf_abs(x, d=d, max_lag=5)

    def test_stack_matches_rows(self):
        rng = np.random.default_rng(14)
        X = rng.standard_t(4, size=(6, 300))
        for d in (0.5, 1.0, 2.0):
            rho = acf_abs(X, d=d, max_lag=40)
            assert rho.shape == (6, 40)
            rows = np.stack([acf_abs(x, d=d, max_lag=40) for x in X])
            np.testing.assert_allclose(rho, rows, rtol=0, atol=1e-15)
            np.testing.assert_allclose(rows, [acf_abs_loop(x, d, 40) for x in X],
                                       rtol=0, atol=1e-15)

    def test_stack_with_constant_row_raises(self):
        X = np.random.default_rng(15).standard_normal((4, 100))
        X[2] = -0.3
        with pytest.raises(DegenerateSeries):
            acf_abs(X, d=1.0, max_lag=5)

    def test_bands_zero_rho(self):
        iid, ma = acf_bands(np.zeros(10), 10_000)
        np.testing.assert_allclose(iid, 1.96 / 100)
        np.testing.assert_allclose(ma, 1.96 / 100)

    def test_band_formulas(self):
        iid, ma = acf_bands(np.array([0.5, 0.1]), 400)
        assert iid[0] == pytest.approx(1.96 / 20)
        assert ma[0] == pytest.approx(1.96 / 20)
        assert ma[1] == pytest.approx(1.96 * math.sqrt(1.5 / 400))


class TestSimulatedAcf:
    def test_single_regime_is_white(self):
        fit_result = make_fit([[0.0, 3.0, 0, 0, 0, 0]], T=500)
        rho = simulated_acf(fit_result, n_samples=200, d=1.0, max_lag=20, seed=1)
        assert np.abs(rho).max() < 0.02

    def test_two_regimes_positive_short_lag_acf(self):
        lam = [[0.0, 40.0, 0, 0, 0, 0], [0.0, 3.0, 0, 0, 0, 0]]
        hard = ([0] * 125 + [1] * 125) * 2
        fit_result = make_fit(lam, T=500, hard_path=hard)
        rho = simulated_acf(fit_result, n_samples=200, d=1.0, max_lag=10, seed=2)
        assert np.all(rho[:5] > 0.05)

    def test_regime_with_no_points_draws_nothing(self):
        # regime 1 holds no point of the hard path, so its sampler is never
        # asked for a count-0 draw; regime 0 draws exactly as in a K=1 fit
        lam0 = [0.0, 3.0, 0, 0, 0, 0]
        two = make_fit([lam0, [0.0, 40.0, 0, 0, 0, 0]], T=200)
        one = make_fit([lam0], T=200)
        np.testing.assert_array_equal(
            simulated_acf(two, n_samples=20, max_lag=5, seed=3),
            simulated_acf(one, n_samples=20, max_lag=5, seed=3))

    def test_deterministic(self):
        fit_result = make_fit([[0.0, 3.0, 0, 0, 0, 0]], T=200)
        a = simulated_acf(fit_result, n_samples=50, max_lag=5, seed=3)
        b = simulated_acf(fit_result, n_samples=50, max_lag=5, seed=3)
        np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("max_lag", [30, 31])
    def test_lag_beyond_fitted_length_rejected(self, max_lag):
        fit_result = make_fit([[0.0, 3.0, 0, 0, 0, 0]], T=30)
        with pytest.raises(ValueError, match="max_lag"):
            simulated_acf(fit_result, n_samples=5, max_lag=max_lag)

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_no_samples_rejected(self, n_samples):
        fit_result = make_fit([[0.0, 3.0, 0, 0, 0, 0]], T=30)
        with pytest.raises(ValueError, match="n_samples"):
            simulated_acf(fit_result, n_samples=n_samples, max_lag=5)

    @pytest.mark.parametrize("i", [1, -1])
    def test_dimension_outside_model_rejected(self, i):
        fit_result = make_fit([[0.0, 3.0, 0, 0, 0, 0]], T=30)
        with pytest.raises(ValueError, match=f"dimension i .*got {i}"):
            simulated_acf(fit_result, n_samples=5, max_lag=5, i=i)


class TestSimulatePanels:
    def test_shape_and_determinism(self):
        lam = [[0.0, 8.0, 0, 0, 0, 0], [0.0, 2.0, 0, 0, 0, 0]]
        fit_result = make_fit(lam, T=100, hard_path=[0] * 50 + [1] * 50)
        sims = simulate_panels(fit_result, None, n_samples=3, seed=4)
        assert sims.shape == (3, 100, 1)
        np.testing.assert_array_equal(
            sims, simulate_panels(fit_result, None, n_samples=3, seed=4))

    def test_return_units(self):
        fit_result = make_fit([np.zeros(6)], T=50)
        scaling = ScalingMap(a=np.array([0.1]), b=np.array([0.0]))
        sims = simulate_panels(fit_result, scaling, n_samples=5, seed=5)
        assert np.abs(sims).max() > 1.5      # scaled-back uniform spans [-10, 10]

    @pytest.mark.parametrize("n_samples", [0, -2])
    def test_no_samples_rejected(self, n_samples):
        fit_result = make_fit([np.zeros(6)], T=50)
        with pytest.raises(ValueError, match="n_samples"):
            simulate_panels(fit_result, None, n_samples=n_samples)


class TestJumpSeries:
    def test_constant_path(self):
        fit_result = make_fit([[0.0, 2.0, 0, 0, 0, 0]], T=50)
        up, down = jump_series(fit_result, IDENTITY)
        assert up.sum() == 0 and down.sum() == 0

    def test_single_low_to_high_switch(self):
        lam = [[0.0, 40.0, 0, 0, 0, 0], [0.0, 2.0, 0, 0, 0, 0]]  # var small, var big
        fit_result = make_fit(lam, T=20, hard_path=[0] * 10 + [1] * 10)
        up, down = jump_series(fit_result, IDENTITY)
        assert up.sum() == 1 and down.sum() == 0
        assert up[10] == 1

    def test_alternating_path(self):
        lam = [[0.0, 40.0, 0, 0, 0, 0], [0.0, 2.0, 0, 0, 0, 0]]
        hard = [0, 1, 0, 1, 0, 1]
        fit_result = make_fit(lam, T=6, hard_path=hard)
        up, down = jump_series(fit_result, IDENTITY)
        assert abs(int(up.sum()) - int(down.sum())) <= 1

    def test_matches_loop_random_k3(self):
        # regimes 0 and 2 share one density, so some switches change nothing
        lam = [[0.0, 30.0, 0, 0, 0, 0], [0.5, 4.0, 0, 1.0, 0, 0], [0.0, 30.0, 0, 0, 0, 0]]
        scaling = ScalingMap(a=np.array([12.0]), b=np.array([0.05]))
        rng = np.random.default_rng(16)
        for _ in range(20):
            hard = np.repeat(rng.integers(0, 3, 40), rng.integers(1, 6, 40))
            fit_result = make_fit(lam, T=hard.size, hard_path=hard)
            up, down = jump_series(fit_result, scaling)
            ref_up, ref_down = jump_series_loop(hard, regime_variances(fit_result, scaling))
            np.testing.assert_array_equal(up, ref_up)
            np.testing.assert_array_equal(down, ref_down)


class TestFisherExact:
    def test_diagonal_table(self):
        p = fisher_exact(ContingencyTable2x2(5, 0, 0, 5))
        assert p == pytest.approx(2 / 252, abs=1e-12)

    def test_zero_row_margin(self):
        assert fisher_exact(ContingencyTable2x2(0, 0, 3, 7)) == 1.0

    def test_specific_table_vs_oracle(self):
        p = fisher_exact(ContingencyTable2x2(1, 9, 11, 3))
        assert p == pytest.approx(fisher_oracle(1, 9, 11, 3), abs=1e-12)

    def test_matches_oracle_random_tables(self):
        rng = np.random.default_rng(14)
        for _ in range(300):
            a, b, c, d = (int(v) for v in rng.integers(0, 12, size=4))
            if a + b + c + d == 0:
                continue
            assert fisher_exact(ContingencyTable2x2(a, b, c, d)) == pytest.approx(
                fisher_oracle(a, b, c, d), abs=1e-13)

    def test_matches_scipy_convention(self):
        from scipy.stats import fisher_exact as scipy_fisher

        rng = np.random.default_rng(15)
        for _ in range(50):
            a, b, c, d = (int(v) for v in rng.integers(1, 15, size=4))
            ours = fisher_exact(ContingencyTable2x2(a, b, c, d))
            theirs = scipy_fisher([[a, b], [c, d]], alternative="two-sided")[1]
            assert ours == pytest.approx(theirs, rel=1e-6)


class TestTransitionGraph:
    def test_single_asset_empty(self):
        graph = transition_graph({"a": (np.zeros(10, int), np.zeros(10, int))})
        assert graph.edges == []

    @pytest.mark.parametrize("max_lag", [-1, 10, 11])
    def test_lag_outside_series_rejected(self, max_lag):
        jumps = {name: (np.zeros(10, int), np.zeros(10, int)) for name in "ab"}
        assert transition_graph(jumps, max_lag=9).edges == []
        # one asset has no pair to test, and is rejected all the same
        for assets in (jumps, {"a": jumps["a"]}):
            with pytest.raises(ValueError, match="max_lag"):
                transition_graph(assets, max_lag=max_lag)

    def test_shifted_jump_series_detected(self):
        rng = np.random.default_rng(16)
        T = 600
        src_up = (rng.random(T) < 0.05).astype(int)
        tgt_up = np.zeros(T, dtype=int)
        tgt_up[2:] = src_up[:-2]                    # target follows source at lag 2
        zeros = np.zeros(T, dtype=int)
        jumps = {"src": (src_up, zeros), "tgt": (tgt_up, zeros)}
        graph = transition_graph(jumps, max_lag=5, p_threshold=0.01)
        found = [e for e in graph.edges
                 if e.source == "src" and e.target == "tgt" and e.direction == "up/up"]
        assert found and found[0].lag == 2
        assert found[0].p_value < 1e-10

    def test_independent_series_rarely_flagged(self):
        rng = np.random.default_rng(17)
        T = 400
        n_pairs = 0
        n_edges = 0
        for trial in range(10):
            jumps = {
                name: ((rng.random(T) < 0.03).astype(int),
                       (rng.random(T) < 0.03).astype(int))
                for name in ("a", "b", "c")
            }
            graph = transition_graph(jumps, max_lag=3, p_threshold=0.001)
            n_edges += len(graph.edges)
            n_pairs += 6 * 4
        assert n_edges <= max(2, 0.02 * n_pairs)

    @pytest.mark.parametrize("name, dot_id", [("a", '"a"'),
                                              ('S&P "500"', '"S&P \\"500\\""')],
                             ids=["plain", "quoted"])
    def test_dot_and_json_outputs(self, name, dot_id):
        rng = np.random.default_rng(18)
        T = 300
        up = (rng.random(T) < 0.05).astype(int)
        jumps = {name: (up, np.zeros(T, int)),
                 "b": (np.roll(up, 1), np.zeros(T, int))}
        graph = transition_graph(jumps, max_lag=2, p_threshold=0.05)
        obj = graph.to_json_obj()
        assert obj["schema"] == 1 and set(obj["nodes"]) == {name, "b"}
        dot = graph.to_dot()
        assert dot.startswith("digraph") and f"  {dot_id};" in dot
        assert f'  {dot_id} -> "b" [label="up/up lag=1' in dot
        # every quote that is not escaped opens or closes an ID or label
        assert all(line.replace('\\"', "").count('"') % 2 == 0 for line in dot.splitlines())


class TestLaggedTable:
    def test_counts(self):
        s = np.array([1, 0, 1, 0, 0])
        t = np.array([0, 1, 0, 1, 0])
        tab = lagged_table(s, t, 1)
        # pairs: (s[0],t[1]) .. (s[3],t[4]) = (1,1),(0,0),(1,1),(0,0)
        assert (tab.a, tab.b, tab.c, tab.d) == (2, 0, 0, 2)

    def test_lag_zero(self):
        s = np.array([1, 1, 0])
        t = np.array([1, 0, 0])
        tab = lagged_table(s, t, 0)
        assert (tab.a, tab.b, tab.c, tab.d) == (1, 1, 0, 1)
