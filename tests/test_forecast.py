"""Online regime tracking, VaR quantiles, Kupiec coverage test."""

import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf, erfinv

from tventropy import (
    FitResult,
    ModelConfig,
    ScalingMap,
    assign_regime_online,
    backtest,
    cdf,
    kupiec_test,
    log_partition,
    sample,
    var_forecast,
)


def make_fit(lambdas, T=100, hard_path=None):
    """Minimal FitResult with the given per-regime coefficients."""
    lambdas = np.atleast_2d(np.asarray(lambdas, dtype=float))
    K, m = lambdas.shape
    gamma = np.zeros((K, T, 1))
    if hard_path is None:
        gamma[0, :, 0] = 1.0
    else:
        gamma[np.asarray(hard_path), np.arange(T), 0] = 1.0
    log_z = np.array([log_partition(lambdas[k]) for k in range(K)])
    return FitResult(
        gamma=gamma, lambdas=lambdas, log_z=log_z, objective=0.0, bic=0.0,
        param_count=0, trace=[0.0], converged=True, degenerate=False,
        config=ModelConfig(k=K, c_gamma=1.0, m=m), n_outer=1)


IDENTITY = ScalingMap(a=np.array([1.0]), b=np.array([0.0]))


def kupiec_oracle(x, t, p):
    """Arbitrary-precision evaluation of the coverage likelihood ratio."""
    with mp.workdps(60):
        x, t, p = mp.mpf(x), mp.mpf(t), mp.mpf(p)
        ll0 = (t - x) * mp.log(1 - p) + (x * mp.log(p) if x > 0 else 0)
        ph = x / t
        ll1 = ((t - x) * mp.log(1 - ph) if x < t else 0) + (x * mp.log(ph) if x > 0 else 0)
        lr = -2 * ll0 + 2 * ll1
        pv = mp.gammainc(mp.mpf("0.5"), lr / 2, mp.inf, regularized=True)
        return float(lr), float(pv)


class TestAssignRegimeOnline:
    def test_single_regime(self):
        fit = make_fit([[0.0, 1.0, 0, 0, 0, 0]])
        assert assign_regime_online(fit, 0.3) == 0

    def test_tie_keeps_previous(self):
        lam = [0.0, 2.0, 0.0, 0.0]
        fit = make_fit([lam, lam])
        assert assign_regime_online(fit, 0.5, k_prev=1) == 1
        assert assign_regime_online(fit, 0.5, k_prev=0) == 0

    def test_extreme_point_prefers_high_variance_regime(self):
        # variances 0.01 and 0.2 on the scaled domain: lam2 = 1/(2 v)
        tight = [0.0, 1.0 / 0.02]
        wide = [0.0, 1.0 / 0.4]
        fit = make_fit([tight, wide])
        assert assign_regime_online(fit, 0.9, k_prev=0) == 1

    def test_center_point_prefers_tight_regime(self):
        tight = [0.0, 50.0]
        wide = [0.0, 2.5]
        fit = make_fit([tight, wide])
        assert assign_regime_online(fit, 0.0, k_prev=1) == 0

    def test_switch_penalty_adds_persistence(self):
        tight = [0.0, 50.0]
        wide = [0.0, 2.5]
        fit = make_fit([tight, wide])
        assert assign_regime_online(fit, 0.25, k_prev=1, switch_penalty=5.0) == 1

    def test_clips_out_of_domain(self):
        fit = make_fit([[0.0, 1.0]])
        assert assign_regime_online(fit, 3.7) == 0

    @pytest.mark.parametrize("x", [math.nan, math.inf])
    def test_non_finite_observation_rejected(self, x):
        with pytest.raises(ValueError, match="finite"):
            assign_regime_online(make_fit([[0.0, 1.0], [0.0, 5.0]]), x)


class TestVarForecast:
    def test_uniform_regime(self):
        fit = make_fit([np.zeros(6)])
        assert var_forecast(fit, 0, 0.95, IDENTITY) == pytest.approx(0.9, abs=1e-9)

    def test_symmetric_median_is_zero(self):
        fit = make_fit([[0.0, 3.0, 0.0, 1.0, 0, 0]])
        assert var_forecast(fit, 0, 0.5, IDENTITY) == pytest.approx(0.0, abs=1e-8)

    def test_quantile_round_trip(self):
        lam = np.array([0.5, 2.0, -0.2, 0, 0, 0])
        fit = make_fit([lam])
        scaling = ScalingMap(a=np.array([2.0]), b=np.array([0.1]))
        var = var_forecast(fit, 0, 0.95, scaling)
        threshold_scaled = scaling.apply(np.array([-var]))[0]
        assert cdf(lam, threshold_scaled) == pytest.approx(0.05, abs=1e-5)

    def test_scaling_changes_units(self):
        fit = make_fit([np.zeros(4)])
        doubled = ScalingMap(a=np.array([0.5]), b=np.array([0.0]))
        assert var_forecast(fit, 0, 0.95, doubled) == pytest.approx(1.8, abs=1e-8)

    def test_narrow_regime_matches_closed_form(self):
        # exp(-a x^2) on [-1, 1]: F(q) = (erf(sqrt(a) q) + erf(sqrt(a))) / (2 erf(sqrt(a)))
        a = 2e4
        r = math.sqrt(a)
        q05 = erfinv(-0.9 * erf(r)) / r
        fit = make_fit([[0.0, a]])
        assert var_forecast(fit, 0, 0.95, IDENTITY) == pytest.approx(-q05, rel=0, abs=1e-12)

    @pytest.mark.parametrize("k", [-1, 2])
    def test_regime_out_of_range_rejected(self, k):
        fit = make_fit([[0.0, 1.0], [0.0, 5.0]])
        with pytest.raises(ValueError, match="regime k"):
            var_forecast(fit, k, 0.95, IDENTITY)

    @pytest.mark.parametrize("i", [-1, 1])
    def test_dimension_out_of_range_rejected(self, i):
        with pytest.raises(ValueError, match="dimension i"):
            var_forecast(make_fit([[0.0, 1.0]]), 0, 0.95, IDENTITY, i)


class TestKupiec:
    def test_perfect_coverage(self):
        lr, p = kupiec_test(5, 100, 0.05)
        assert lr == pytest.approx(0.0, abs=1e-12)
        assert p == pytest.approx(1.0)

    def test_zero_violations_closed_form(self):
        lr, p = kupiec_test(0, 250, 0.01)
        assert lr == pytest.approx(-2 * 250 * math.log(0.99), rel=1e-12)
        assert p == pytest.approx(0.0250, abs=2e-4)

    def test_matches_high_precision_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(300):
            t = int(rng.integers(10, 2000))
            x = int(rng.integers(0, t + 1))
            p = float(rng.uniform(0.005, 0.2))
            lr, pv = kupiec_test(x, t, p)
            lr_o, pv_o = kupiec_oracle(x, t, p)
            assert lr == pytest.approx(lr_o, abs=1e-10 * max(1, abs(lr_o)))
            assert pv == pytest.approx(pv_o, abs=1e-10)

    def test_p_value_matches_gammaincc(self):
        from scipy.special import gammaincc

        lrs = []
        # every count for each (t_out, p): LR runs from 0 at x = p t_out upward
        for t in (50, 400, 2000):
            for p in (0.01, 0.05, 0.2):
                for x in range(t + 1):
                    lr, pv = kupiec_test(x, t, p)
                    if lr > 1e3:
                        continue
                    lrs.append(lr)
                    # gammaincc's own error reaches 4.4e-15 for LR in about
                    # [0.9, 2.5]; erfc(sqrt(LR/2)) stays within 2e-16 of 40 digits
                    assert abs(pv - gammaincc(0.5, lr / 2.0)) <= 5e-15
                    with mp.workdps(40):
                        want = mp.erfc(mp.sqrt(mp.mpf(lr) / 2))
                    assert abs(pv - float(want)) <= 2e-16
        assert min(lrs) < 1e-9 and max(lrs) > 900.0 and len(lrs) > 2000

    def test_exact_coverage_is_zero_for_all_counts(self):
        for x, t in [(1, 10), (3, 30), (25, 100)]:
            lr, _ = kupiec_test(x, t, x / t)
            assert lr == pytest.approx(0.0, abs=1e-12)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            kupiec_test(5, 4, 0.05)
        with pytest.raises(ValueError):
            kupiec_test(1, 10, 1.5)


class TestBacktest:
    def test_uniform_model_coverage(self):
        fit = make_fit([np.zeros(6)])
        rng = np.random.default_rng(31)
        returns = rng.uniform(-1, 1, size=(10_000, 1))
        result = backtest(fit, IDENTITY, returns, alphas=(0.95,))
        assert result.coverage[0, 0] == pytest.approx(0.05, abs=0.007)

    def test_no_violations_when_returns_above_threshold(self):
        fit = make_fit([np.zeros(6)])
        returns = np.full((50, 1), 0.2)
        result = backtest(fit, IDENTITY, returns, alphas=(0.95,))
        assert result.violations[0, 0] == 0

    def test_deterministic(self):
        lam = [[0.0, 8.0, 0, 0, 0, 0], [0.0, 2.0, 0, 0, 0, 0]]
        fit = make_fit(lam, hard_path=[0] * 50 + [1] * 50)
        rng = np.random.default_rng(41)
        returns = rng.normal(scale=0.2, size=(500, 1)).clip(-0.99, 0.99)
        r1 = backtest(fit, IDENTITY, returns)
        r2 = backtest(fit, IDENTITY, returns)
        np.testing.assert_array_equal(r1.violations, r2.violations)
        np.testing.assert_array_equal(r1.p_value, r2.p_value)

    def test_violation_indicator_scale_invariant(self):
        fit = make_fit([[0.0, 3.0, 0, 0, 0, 0]])
        rng = np.random.default_rng(51)
        raw = rng.normal(scale=0.3, size=(300, 1)).clip(-0.99, 0.99)
        base = backtest(fit, IDENTITY, raw, alphas=(0.95,))
        # the same data expressed in different units, with matching scaling map
        factor = 7.5
        scaled_map = ScalingMap(a=np.array([1.0 / factor]), b=np.array([0.0]))
        scaled_returns = raw * factor
        other = backtest(fit, scaled_map, scaled_returns, alphas=(0.95,))
        np.testing.assert_array_equal(base.violations, other.violations)

    def test_one_dimensional_series(self):
        fit = make_fit([[0.0, 2.0, 0, 0, 0, 0]])
        x = np.random.default_rng(3).uniform(-1, 1, size=60)
        flat = backtest(fit, IDENTITY, x, alphas=(0.9,))
        column = backtest(fit, IDENTITY, x[:, None], alphas=(0.9,))
        assert flat.t_out == 60 and flat.labels == ("x1",)
        np.testing.assert_array_equal(flat.violations, column.violations)
        np.testing.assert_array_equal(flat.p_value, column.p_value)

    @pytest.mark.parametrize("shape", [(0,), (0, 1)])
    def test_empty_series_rejected(self, shape):
        with pytest.raises(ValueError, match="empty"):
            backtest(make_fit([[0.0, 2.0]]), IDENTITY, np.zeros(shape))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_return_rejected(self, bad):
        returns = np.full((20, 1), 0.1)
        returns[7] = bad
        with pytest.raises(ValueError, match="finite"):
            backtest(make_fit([[0.0, 2.0], [0.0, 6.0]]), IDENTITY, returns)

    def test_column_count_must_match_model(self):
        with pytest.raises(ValueError, match="2 column.*model has 1"):
            backtest(make_fit([[0.0, 2.0]]), IDENTITY, np.zeros((10, 2)))

    def test_two_dimensional_panel(self):
        # each column is scaled with its own map and tracked on its own
        lam = [[0.0, 8.0, 0, 0], [0.0, 2.0, 0, 0]]
        fit = make_fit(lam)
        fit.gamma = np.repeat(fit.gamma, 2, axis=2)
        scaling = ScalingMap(a=np.array([1.0, 0.5]), b=np.array([0.0, 0.1]))
        x = np.random.default_rng(5).uniform(-0.9, 0.9, size=(80, 2))
        both = backtest(fit, scaling, x, alphas=(0.9,))
        for i in range(2):
            one = make_fit(lam)
            one_map = ScalingMap(a=scaling.a[i:i + 1], b=scaling.b[i:i + 1])
            alone = backtest(one, one_map, x[:, i], alphas=(0.9,))
            np.testing.assert_array_equal(both.violations[i], alone.violations[0])

    def test_rows_iteration(self):
        fit = make_fit([np.zeros(4)])
        returns = np.zeros((10, 1)) + 0.1
        result = backtest(fit, IDENTITY, returns, alphas=(0.95, 0.99),
                          labels=("asset",))
        rows = list(result.rows())
        assert len(rows) == 2
        assert rows[0]["dimension"] == "asset"
        assert rows[0]["t_out"] == 10
