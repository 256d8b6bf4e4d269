"""Density engine tests: closed forms, independent quadrature oracles,
round trips and distributional laws."""

import math
import warnings

import numpy as np
import pytest
from scipy.special import erf, erfinv, logsumexp

from tventropy import (
    DomainError,
    cdf,
    density,
    entropy,
    log_partition,
    maxent,
    moments,
    quantile,
    sample,
)
from tests.helpers import invert_searchsorted, quantile_by_cdf, sample_searchsorted

LN2 = math.log(2.0)


def simpson_log_integral(lam, n_panels=100_000, g=None):
    """Independent oracle: composite Simpson of exp(-poly) in the log domain.

    It only holds for bounded lambda: a spike narrower than the grid step,
    as in a diverged regime with |lambda|_1 near 1e11, is undersampled, and
    the estimate does not converge as the panel count grows.
    """
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
        nodes, weights = np.polynomial.legendre.leggauss(400)
        for _ in range(25):
            lam = rng.uniform(-3, 3, size=6)
            total = np.dot(weights, density(lam, nodes))
            assert total == pytest.approx(1.0, abs=1e-10)

    def test_outside_domain_rejected(self):
        for x in (1.5, math.nan, [0.0, math.nan]):
            with pytest.raises(DomainError):
                density(np.zeros(3), x)


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

    def test_order_beyond_the_power_table_rejected(self):
        assert moments(np.zeros(6), j_max=24).shape == (24,)
        with pytest.raises(ValueError, match="j_max"):
            moments(np.zeros(6), j_max=25)

    def test_parity_bounds(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            mom = moments(rng.uniform(-5, 5, size=6), j_max=6)
            assert np.all(np.abs(mom[0::2]) <= 1.0)
            assert np.all((mom[1::2] >= 0.0) & (mom[1::2] <= 1.0))


NARROW = ([0.0, 2e4], [0.0, 1e6], [0.0, 3e3, 0.0, 0.0, 0.0, 0.0], [-900.0, 450.0])


# |lambda|_1 from 1e9 up to the 2.5e11 of the diverged regime in the strict
# xfail of tests/test_estimator.py: far narrower than one CDF table cell.
EXTREME = ([0.0, 1e9], [0.0, 1e11], [5e10, -3e10, 0.0, 0.0, 0.0, 1e10],
           [0.0, 0.0, 0.0, 0.0, 0.0, 2.5e11])


class TestCdfQuantile:
    def test_uniform_quantiles(self):
        assert quantile(np.zeros(6), 0.5) == pytest.approx(0.0, abs=1e-9)
        assert quantile(np.zeros(6), 0.05) == pytest.approx(-0.9, abs=1e-9)

    def test_cdf_endpoints(self):
        lam = np.array([1.0, -2.0, 0.5, 0, 0, 0])
        assert cdf(lam, -1.0) == 0.0
        assert cdf(lam, 1.0) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("x", [-1.5, 1.5, math.nan])
    def test_cdf_outside_domain_rejected(self, x):
        with pytest.raises(DomainError):
            cdf(np.zeros(3), x)

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
        lams = [rng.normal(0.0, 4.0, size=int(rng.integers(1, 9))) for _ in range(12)]
        for lam in lams + [np.array(v) for v in NARROW]:
            for alpha in (0.01, 0.05, 0.5, 0.95, 0.99):
                assert quantile(lam, alpha) == quantile_by_cdf(lam, alpha)

    @pytest.mark.parametrize("a", [50.0, 2000.0, 2e4, 1e6])
    def test_gaussian_segment_cdf_closed_form(self, a):
        lam = np.array([0.0, a])
        r = math.sqrt(a)
        xs = maxent._cdf_grid(lam)[0]
        near = np.arange(2048 - 48, 2048 + 48)              # the cells around the peak
        knots = np.unique(np.concatenate((np.arange(0, xs.size, 64), near, [xs.size - 1])))
        x = np.concatenate((xs[knots], 0.5 * (xs[near] + xs[near + 1])))
        exact = (erf(r * x) + erf(r)) / (2.0 * erf(r))
        np.testing.assert_allclose([cdf(lam, v) for v in x], exact, rtol=0, atol=1e-13)
        assert quantile(lam, 0.975) == pytest.approx(erfinv(0.95) / r, rel=0, abs=1e-12)

    @pytest.mark.parametrize("lam", [[0.0, 5.0, 1.0], [2.0, -1.0, 0.0, 3.0], [0.0, 2e4]])
    def test_cdf_is_the_table_at_its_knots(self, lam):
        lam = np.array(lam)
        xs, cg = maxent._cdf_grid(lam)
        assert [maxent._cdf_in_table(lam, xs, cg, x) for x in xs] == cg.tolist()
        assert [cdf(lam, x) for x in xs[::8]] == cg[::8].tolist()

    @pytest.mark.parametrize("lam", EXTREME)
    def test_extreme_lambda_finite_and_monotone(self, lam):
        xs, cg = maxent._cdf_grid(np.array(lam))
        cells = np.flatnonzero(np.diff(cg))                 # the cells that hold the mass
        dense = [np.linspace(xs[c], xs[c + 1], 201) for c in cells[[0, cells.size // 2, -1]]]
        grid = np.unique(np.concatenate([np.linspace(-1.0, 1.0, 401)] + dense))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            qs = [quantile(lam, alpha) for alpha in (0.01, 0.5, 0.99)]
            vals = np.array([cdf(lam, x) for x in grid])
        assert all(math.isfinite(q) and -1.0 <= q <= 1.0 for q in qs)
        assert np.all(np.isfinite(vals)) and vals[0] == 0.0 and vals[-1] == 1.0
        assert np.all(np.diff(vals) >= 0.0)


class TestCdfTable:
    @pytest.mark.parametrize("a", [1.0, 50.0, 2000.0, 2e4, 1e6])
    def test_gaussian_segment_closed_form(self, a):
        xs, cg = maxent._cdf_grid(np.array([0.0, a]))
        r = math.sqrt(a)
        exact = (erf(r * xs) + erf(r)) / (2.0 * erf(r))
        np.testing.assert_allclose(cg, exact, rtol=0, atol=1e-13)

    def test_starts_at_zero_ends_at_one_never_falls(self):
        rng = np.random.default_rng(23)
        for scale in (1.0, 30.0, 1e3):
            for _ in range(20):
                lam = rng.uniform(-scale, scale, size=int(rng.integers(1, 13)))
                xs, cg = maxent._cdf_grid(lam)
                assert xs.shape == cg.shape == (maxent.CDF_GRID_SIZE,)
                assert cg[0] == 0.0 and cg[-1] == 1.0
                assert np.all(np.diff(cg) >= 0.0)


class TestSample:
    def test_matches_searchsorted_interpolation(self):
        rng = np.random.default_rng(18)
        lams = [rng.normal(0.0, 4.0, size=int(rng.integers(1, 9))) for _ in range(10)]
        for seed, lam in enumerate(lams + [np.array(v) for v in NARROW]):
            np.testing.assert_array_equal(sample(lam, 50_000, seed=seed),
                                          sample_searchsorted(lam, 50_000, seed=seed))

    @pytest.mark.parametrize("lam", [[0.0, 5.0, 1.0], *NARROW])
    def test_inversion_at_knots_and_bucket_edges(self, lam):
        xs, cg = maxent._cdf_grid(np.array(lam))
        edges = np.arange(maxent.GUIDE_SIZE) / maxent.GUIDE_SIZE
        u = np.concatenate(([0.0, 1.0 - 2.0 ** -53], cg[cg < 1.0], edges))
        np.testing.assert_array_equal(maxent._invert(xs, cg, u.copy()),
                                      invert_searchsorted(xs, cg, u))

    def test_narrow_density_variance(self):
        draws = sample([0.0, 2e4, 0, 0, 0, 0], 200_000, seed=4)
        assert np.var(draws) == pytest.approx(1.0 / 4e4, rel=0.02)

    @pytest.mark.parametrize("count", [2.5, 0, -3, True, None])
    def test_bad_count_named(self, count):
        with pytest.raises(ValueError, match="count"):
            sample([0.0, 1.0], count, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1.5, False, None])
    def test_bad_seed_named(self, seed):
        with pytest.raises(ValueError, match="seed"):
            sample([0.0, 1.0], 10, seed=seed)

    def test_numpy_integers_accepted(self):
        np.testing.assert_array_equal(sample([0.0, 1.0], np.int64(10), seed=np.uint32(3)),
                                      sample([0.0, 1.0], 10, seed=3))

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
        for lam in ([0, 1, 0, 0, 0, 0], [1.5, -0.5, 2.0, 0, 0, 0]):
            f = density(lam, maxent.NODES)
            direct = -np.dot(maxent.WEIGHTS, f * np.log(f))
            assert entropy(lam) == pytest.approx(direct, abs=1e-8)


class TestQuadratureRule:
    def test_weights_sum_to_two(self):
        assert maxent.NODES.shape == maxent.WEIGHTS.shape == (200,)
        assert maxent.WEIGHTS.sum() == pytest.approx(2.0, abs=1e-12)
        assert np.all(maxent.WEIGHTS > 0)

    def test_power_table_holds_the_node_powers(self):
        np.testing.assert_allclose(maxent.NODE_POWERS,
                                   np.power.outer(maxent.NODES, np.arange(1, 25)),
                                   rtol=1e-14, atol=0)
        assert not maxent.NODE_POWERS.flags.writeable
