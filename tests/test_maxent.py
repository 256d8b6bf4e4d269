"""Density engine tests: closed forms, independent quadrature oracles,
round trips and distributional laws."""

import math

import numpy as np
import pytest
from scipy.special import erf, logsumexp

from tventropy import (
    DomainError,
    QuadratureRule,
    cdf,
    density,
    entropy,
    gauss_legendre,
    log_partition,
    moments,
    quantile,
    sample,
)
from tests.helpers import quantile_by_cdf, sample_searchsorted

LN2 = math.log(2.0)


def simpson_log_integral(lam, n_panels=100_000, g=None):
    """Independent oracle: composite Simpson of exp(-poly) in the log domain."""
    lam = np.asarray(lam, dtype=float)
    xs = np.linspace(-1.0, 1.0, 2 * n_panels + 1)
    s = -np.power.outer(xs, np.arange(1, lam.size + 1)) @ lam
    if g is not None:
        gv = g(xs)
    h = (xs[-1] - xs[0]) / (xs.size - 1)
    w = np.ones(xs.size)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    w *= h / 3.0
    if g is None:
        return logsumexp(s, b=w)
    return float(np.sum(w * gv * np.exp(s - s.max()))) * math.exp(s.max())


class TestLogPartition:
    def test_uniform(self):
        assert log_partition(np.zeros(6)) == pytest.approx(LN2, abs=1e-12)

    def test_exponential_segment(self):
        expected = math.log(math.e - math.exp(-1.0))
        assert log_partition([1, 0, 0, 0, 0, 0]) == pytest.approx(expected, abs=1e-9)

    def test_gaussian_segment(self):
        expected = math.log(math.sqrt(math.pi) * erf(1.0))
        assert log_partition([0, 1, 0, 0, 0, 0]) == pytest.approx(expected, abs=1e-9)

    def test_matches_simpson_oracle_random(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            lam = rng.uniform(-10, 10, size=6)
            assert log_partition(lam) == pytest.approx(simpson_log_integral(lam), abs=1e-9)

    def test_extreme_coefficients_stay_finite(self):
        for lam in ([500.0] * 6, [-500.0] * 6, [500, -500, 500, -500, 500, -500]):
            assert np.isfinite(log_partition(lam))


class TestDensity:
    def test_uniform_density(self):
        xs = np.linspace(-1, 1, 7)
        np.testing.assert_allclose(density(np.zeros(6), xs), 0.5, atol=1e-12)

    def test_gaussian_segment_at_zero(self):
        expected = 1.0 / (math.sqrt(math.pi) * erf(1.0))
        assert density([0, 1, 0, 0, 0, 0], 0.0) == pytest.approx(expected, abs=1e-10)

    def test_normalisation_random(self):
        rng = np.random.default_rng(7)
        quad = gauss_legendre(400)
        for _ in range(25):
            lam = rng.uniform(-3, 3, size=6)
            total = np.dot(quad.weights, density(lam, quad.nodes))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_outside_domain_rejected(self):
        with pytest.raises(DomainError):
            density(np.zeros(3), 1.5)


class TestMoments:
    def test_uniform_moments(self):
        mom = moments(np.zeros(6), j_max=4)
        np.testing.assert_allclose(mom, [0.0, 1 / 3, 0.0, 0.2], atol=1e-12)

    def test_even_density_has_zero_mean(self):
        assert moments([0, 1, 0, 0, 0, 0], j_max=1)[0] == pytest.approx(0.0, abs=1e-12)

    def test_matches_simpson_oracle(self):
        lam = np.array([1.0, 0, 0, 0, 0, 0])
        z = math.exp(simpson_log_integral(lam))
        for j in (1, 2, 3):
            direct = simpson_log_integral(lam, g=lambda x: x ** j) / z
            assert moments(lam, j_max=j)[j - 1] == pytest.approx(direct, abs=1e-9)

    def test_riemann_oracle_million_panels(self):
        # midpoint rule with 10^6 panels, fully independent of Gauss nodes
        lam = np.array([0.5, 2.0, -0.3, 1.0, 0.0, 0.2])
        xs = -1.0 + (np.arange(1_000_000) + 0.5) * 2e-6
        s = -np.power.outer(xs, np.arange(1, 7)) @ lam
        w = np.exp(s - s.max())
        mom_oracle = (w @ np.power.outer(xs, np.arange(1, 7))) / w.sum()
        np.testing.assert_allclose(moments(lam, j_max=6), mom_oracle, atol=1e-7)

    def test_parity_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mom = moments(rng.uniform(-5, 5, size=6), j_max=6)
            assert np.all(np.abs(mom[0::2]) <= 1.0)
            assert np.all((mom[1::2] >= 0.0) & (mom[1::2] <= 1.0))


class TestCdfQuantile:
    def test_uniform_quantiles(self):
        assert quantile(np.zeros(6), 0.5) == pytest.approx(0.0, abs=1e-9)
        assert quantile(np.zeros(6), 0.05) == pytest.approx(-0.9, abs=1e-9)

    def test_cdf_endpoints(self):
        lam = np.array([1.0, -2.0, 0.5, 0, 0, 0])
        assert cdf(lam, -1.0) == 0.0
        assert cdf(lam, 1.0) == pytest.approx(1.0, abs=1e-12)

    def test_cdf_monotone(self):
        lam = np.array([2.0, -1.0, 0.0, 3.0, 0, 0])
        xs = np.linspace(-1, 1, 101)
        vals = [cdf(lam, x) for x in xs]
        assert np.all(np.diff(vals) >= -1e-12)

    def test_symmetric_median_is_zero(self):
        for lam in ([0, 1, 0, 0, 0, 0], [0, -0.5, 0, 2.0, 0, 0]):
            assert quantile(lam, 0.5) == pytest.approx(0.0, abs=1e-8)

    def test_round_trip(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            lam = rng.uniform(-3, 3, size=6)
            for alpha in (0.01, 0.05, 0.5, 0.95):
                assert cdf(lam, quantile(lam, alpha)) == pytest.approx(alpha, abs=1e-6)

    def test_identical_to_bisection_on_cdf(self):
        rng = np.random.default_rng(17)
        quad = gauss_legendre(64)
        for _ in range(12):
            lam = rng.normal(0.0, 4.0, size=int(rng.integers(1, 9)))
            for alpha in (0.01, 0.05, 0.5, 0.95, 0.99):
                assert quantile(lam, alpha) == quantile_by_cdf(lam, alpha)
                assert quantile(lam, alpha, quad) == quantile_by_cdf(lam, alpha, quad)


class TestSample:
    def test_matches_searchsorted_interpolation(self):
        rng = np.random.default_rng(18)
        for seed in range(10):
            lam = rng.normal(0.0, 4.0, size=int(rng.integers(1, 9)))
            np.testing.assert_allclose(sample(lam, 50_000, seed=seed),
                                       sample_searchsorted(lam, 50_000, seed=seed),
                                       rtol=0, atol=np.finfo(float).eps)

    def test_uniform_law(self):
        draws = sample(np.zeros(6), 100_000, seed=5)
        assert abs(draws.mean()) < 0.01
        assert np.mean(draws ** 2) == pytest.approx(1 / 3, abs=0.01)

    def test_deterministic(self):
        a = sample([0, 2, 0, 0, 0, 0], 1000, seed=9)
        b = sample([0, 2, 0, 0, 0, 0], 1000, seed=9)
        np.testing.assert_array_equal(a, b)

    def test_variance_matches_moments(self):
        lam = np.array([0.0, 5.0, 0, 0, 0, 0])
        draws = sample(lam, 100_000, seed=13)
        mom = moments(lam, j_max=2)
        model_var = mom[1] - mom[0] ** 2
        assert np.var(draws) == pytest.approx(model_var, rel=0.02)

    def test_support(self):
        draws = sample([3.0, -4.0, 1.0, 0, 0, 0], 10_000, seed=1)
        assert draws.min() >= -1.0 and draws.max() <= 1.0


class TestEntropy:
    def test_uniform_entropy(self):
        assert entropy(np.zeros(6)) == pytest.approx(LN2, abs=1e-12)

    def test_upper_bound(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            lam = rng.uniform(-10, 10, size=6)
            assert entropy(lam) <= LN2 + 1e-10

    def test_matches_direct_quadrature(self):
        quad = gauss_legendre()
        for lam in ([0, 1, 0, 0, 0, 0], [1.5, -0.5, 2.0, 0, 0, 0]):
            f = density(lam, quad.nodes)
            direct = -np.dot(quad.weights, f * np.log(f))
            assert entropy(lam) == pytest.approx(direct, abs=1e-8)


class TestQuadratureRule:
    def test_weights_sum_to_two(self):
        for order in (50, 200, 400):
            quad = gauss_legendre(order)
            assert quad.weights.sum() == pytest.approx(2.0, abs=1e-12)
            assert np.all(quad.weights > 0)

    def test_cached_instances_shared(self):
        assert gauss_legendre(200) is gauss_legendre(200)

    def test_power_table_belongs_to_its_rule(self):
        # a rule of the same order on [-0.5, 0.5], used after the Gauss rule
        g = gauss_legendre(200)
        lam = np.array([0.3, 2.0, -0.5, 1.0])
        log_partition(lam, g)
        half = QuadratureRule(nodes=g.nodes * 0.5, weights=g.weights * 0.5, order=200)
        x = half.nodes
        s = -np.power.outer(x, np.arange(1, 5)) @ lam
        z = np.dot(half.weights, np.exp(s))
        assert log_partition(lam, half) == pytest.approx(math.log(z), abs=1e-12)
        direct = (half.weights * np.exp(s)) @ np.power.outer(x, np.arange(1, 5)) / z
        np.testing.assert_allclose(moments(lam, half), direct, rtol=0, atol=1e-12)
