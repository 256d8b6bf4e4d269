"""Regime subproblem: objective, gradient oracle, constrained fitting."""

import math

import numpy as np
import pytest

from tventropy import (
    EmptyRegime,
    feature_matrix,
    fit_lambda,
    lambda_step,
    log_partition,
    loglik_gradient,
    moments,
    project_l1_ball,
    sample,
    sparsify,
    weighted_loglik,
)
from tests.helpers import fit_lambda_two_loops

LN2 = math.log(2.0)


def brute_loglik(lam, values, w):
    """Direct per-point summation, independent of the vectorised path."""
    lam = np.asarray(lam, dtype=float)
    total = 0.0
    log_z = log_partition(lam)
    for t in range(values.shape[0]):
        for i in range(values.shape[1]):
            poly = sum(lam[j] * values[t, i] ** (j + 1) for j in range(lam.size))
            total -= w[t, i] * (poly + log_z)
    return total


def mixed_problems():
    """60 regime subproblems: m in 2..12, heavy-tailed data, unbounded and
    l1-bounded, cold and far warm starts."""
    rng = np.random.default_rng(23)
    for trial in range(60):
        m, T = int(rng.integers(2, 13)), int(rng.integers(50, 301))
        x = np.clip(rng.standard_t(4, size=(T, 1)) * rng.uniform(0.05, 0.4), -1, 1)
        w = rng.uniform(0, 1, size=(T, 1))
        c = math.inf if trial % 4 < 2 else 10 ** rng.uniform(-0.5, 1.5)
        warm = rng.normal(0, 10, size=m) if trial % 2 else None
        yield feature_matrix(x, m), w, c, warm


class TestWeightedLoglik:
    def test_uniform_lambda(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(-1, 1, size=(10, 2))
        w = rng.uniform(0, 2, size=(10, 2))
        F = feature_matrix(values, 4)
        assert weighted_loglik(np.zeros(4), F, w) == pytest.approx(-w.sum() * LN2)

    def test_zero_weights(self):
        values = np.array([[0.1], [0.5], [-0.3]])
        F = feature_matrix(values, 3)
        assert weighted_loglik([1.0, -2.0, 0.5], F, np.zeros((3, 1))) == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(-1, 1, size=(5, 1))
        w = rng.uniform(0, 1, size=(5, 1))
        lam = rng.normal(size=2)
        F = feature_matrix(values, 2)
        assert weighted_loglik(lam, F, w) == pytest.approx(
            brute_loglik(lam, values, w), abs=1e-12)


class TestGradient:
    def test_zero_at_unconstrained_optimum(self):
        rng = np.random.default_rng(2)
        values = rng.uniform(-1, 1, size=(500, 1))
        w = np.ones((500, 1))
        F = feature_matrix(values, 4)
        res = fit_lambda(F, w, tol=1e-10)
        grad = loglik_gradient(res.lam, F, w)
        assert np.abs(grad).max() < 1e-6 * w.sum()

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        h = 1e-5
        for _ in range(100):
            m = rng.integers(1, 7)
            values = rng.uniform(-1, 1, size=(rng.integers(5, 30), rng.integers(1, 3)))
            w = rng.uniform(0, 1, size=values.shape)
            lam = rng.uniform(-2, 2, size=m)
            F = feature_matrix(values, m)
            grad = loglik_gradient(lam, F, w)
            fd = np.empty(m)
            for j in range(m):
                e = np.zeros(m)
                e[j] = h
                fd[j] = (weighted_loglik(lam + e, F, w)
                         - weighted_loglik(lam - e, F, w)) / (2 * h)
            scale = max(1.0, np.abs(grad).max())
            np.testing.assert_allclose(grad, fd, atol=1e-6 * scale)

    def test_uniform_lambda_symmetric_data(self):
        values = np.array([[-0.8], [-0.4], [0.4], [0.8]])
        w = np.ones((4, 1))
        F = feature_matrix(values, 4)
        grad = loglik_gradient(np.zeros(4), F, w)
        mu_hat = F.mean(axis=(0, 1))
        uniform_moments = np.array([0.0, 1 / 3, 0.0, 0.2])
        np.testing.assert_allclose(grad, 4 * (uniform_moments - mu_hat), atol=1e-12)

    def test_empty_regime_raises(self):
        F = feature_matrix(np.array([[0.1], [0.2]]), 2)
        with pytest.raises(EmptyRegime):
            loglik_gradient(np.zeros(2), F, np.zeros((2, 1)))

    @pytest.mark.parametrize("lam", [[0.5], np.zeros(7)])
    def test_coefficient_length_must_match_features(self, lam):
        x = np.array([[0.1], [-0.4], [0.7]])
        F, w = feature_matrix(x, 6), np.ones((3, 1))
        for fn in (loglik_gradient, weighted_loglik):
            with pytest.raises(ValueError, match="feature order"):
                fn(lam, F, w)
        with pytest.raises(ValueError, match="feature order"):
            fit_lambda(F, w, warm_start=lam)


class TestProjectL1Ball:
    def test_inside_unchanged(self):
        v = np.array([0.2, -0.3, 0.1])
        np.testing.assert_array_equal(project_l1_ball(v, 1.0), v)

    def test_radius_zero(self):
        np.testing.assert_array_equal(project_l1_ball(np.array([5.0, -2.0]), 0.0),
                                      np.zeros(2))

    def test_projection_properties(self):
        rng = np.random.default_rng(4)
        for _ in range(200):
            v = rng.normal(scale=3.0, size=rng.integers(1, 10))
            r = rng.uniform(0.1, 5.0)
            p = project_l1_ball(v, r)
            assert np.abs(p).sum() <= r + 1e-9
            # projection is the closest feasible point: check against random
            # feasible alternatives
            for _ in range(5):
                q = rng.normal(size=v.size)
                q = q / max(1.0, np.abs(q).sum() / r)
                assert np.linalg.norm(v - p) <= np.linalg.norm(v - q) + 1e-9

    def test_infinite_radius_returns_a_copy(self):
        # fit_lambda's unbounded path relies on this: the projection is a no-op
        v = np.array([1e6, -3.0, 0.0, 2.5])
        p = project_l1_ball(v, np.inf)
        np.testing.assert_array_equal(p, v)
        assert p is not v and not np.shares_memory(p, v)

    @pytest.mark.parametrize("radius", [math.nan, -1.0])
    def test_invalid_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="radius"):
            project_l1_ball(np.array([1.0, 2.0]), radius)


class TestFitLambda:
    def test_uniform_data_gives_zero(self):
        rng = np.random.default_rng(5)
        values = rng.uniform(-1, 1, size=(10_000, 1))
        F = feature_matrix(values, 2)
        res = fit_lambda(F, np.ones_like(values))
        assert res.converged
        assert np.abs(res.lam).max() <= 0.05

    def test_series_input_is_its_column(self):
        draws = sample([0.0, 4.0, 0.5], 500, seed=6)
        F = feature_matrix(draws, 3)
        np.testing.assert_array_equal(F, feature_matrix(draws[:, None], 3))
        w = np.random.default_rng(6).uniform(0.0, 1.0, draws.size)
        flat, column = fit_lambda(F, w), fit_lambda(F, w[:, None])
        np.testing.assert_array_equal(flat.lam, column.lam)
        assert flat.trace == column.trace

    def test_truncated_gaussian_recovery(self):
        lam_true = np.array([0.0, 4.0])
        draws = sample(lam_true, 10_000, seed=6)
        F = feature_matrix(draws[:, None], 2)
        res = fit_lambda(F, np.ones((draws.size, 1)))
        assert res.converged
        assert res.lam[1] == pytest.approx(4.0, rel=0.05)
        assert abs(res.lam[0]) < 0.2

    def test_c_zero_returns_zero(self):
        F = feature_matrix(np.array([[0.3], [-0.7], [0.5]]), 4)
        for warm_start in (None, [0.4, -2.0, 1.5, 0.1]):
            res = fit_lambda(F, np.ones((3, 1)), c_lambda=0.0, warm_start=warm_start)
            np.testing.assert_array_equal(res.lam, np.zeros(4))
            assert res.converged
            assert res.log_z == pytest.approx(math.log(2.0), abs=1e-14)
            assert res.trace[-1] == -3.0 * res.log_z

    def test_constraint_respected(self):
        rng = np.random.default_rng(7)
        draws = sample([0.0, 6.0, 0, 0, 0, 0], 2000, seed=8)
        F = feature_matrix(draws[:, None], 6)
        w = np.ones((draws.size, 1))
        for c in (0.5, 1.0, 3.0):
            res = fit_lambda(F, w, c_lambda=c)
            assert np.abs(res.lam).sum() <= c + 1e-9

    def test_monotone_trace(self):
        rng = np.random.default_rng(9)
        for trial in range(10):
            values = rng.uniform(-1, 1, size=(50, 1))
            w = rng.uniform(0, 1, size=(50, 1))
            res = fit_lambda(feature_matrix(values, 5), w, c_lambda=2.0)
            diffs = np.diff(res.trace)
            assert np.all(diffs >= -1e-12)

    def test_interior_optimum_matches_moments(self):
        rng = np.random.default_rng(10)
        draws = sample([0.5, 1.0, 0, 0, 0, 0], 10_000, seed=11)
        F = feature_matrix(draws[:, None], 6)
        w = np.ones((draws.size, 1))
        res = fit_lambda(F, w, tol=1e-9)
        assert res.converged
        mu_hat = F.mean(axis=(0, 1))
        np.testing.assert_allclose(moments(res.lam, j_max=6), mu_hat, atol=1e-7)

    def test_warm_start_converges_immediately(self):
        draws = sample([0.0, 3.0], 5000, seed=12)
        F = feature_matrix(draws[:, None], 2)
        w = np.ones((draws.size, 1))
        first = fit_lambda(F, w, tol=1e-9)
        again = fit_lambda(F, w, tol=1e-9, warm_start=first.lam)
        assert again.n_iter <= 2
        np.testing.assert_allclose(again.lam, first.lam, atol=1e-8)

    def test_far_warm_start_converges(self):
        # ill-conditioned m=6 moments: the full Newton step overshoots from
        # here, so only a damped Newton step converges within the budget
        x = np.clip(np.random.default_rng(0).normal(0, 0.3, (500, 1)), -1, 1)
        res = fit_lambda(feature_matrix(x, 6), np.ones((500, 1)),
                         warm_start=[-7.65, 19.2, 16.4, 112.1, -733.5, 966.3])
        assert res.converged
        assert np.all(np.diff(res.trace) >= 0)

    def test_bounded_kkt(self, monkeypatch):
        # every point a line search evaluates lies in the l1 ball, every trace
        # is nondecreasing (the Armijo test alone keeps it so), and every
        # converged result is feasible with a projected-gradient residual <= tol
        kernel, norms = lambda_step.log_z_and_moments, []

        def spy(lam, j_max):
            norms.append(np.abs(lam).sum())
            return kernel(lam, j_max)

        monkeypatch.setattr(lambda_step, "log_z_and_moments", spy)
        rng = np.random.default_rng(17)
        tol = lambda_step.DEFAULT_TOL
        on_boundary = converged = 0
        for trial in range(40):
            m, T = int(rng.integers(2, 13)), int(rng.integers(50, 301))
            x = np.clip(rng.standard_t(4, size=(T, 1)) * rng.uniform(0.05, 0.4), -1, 1)
            w = rng.uniform(0, 1, size=(T, 1))
            c = 10 ** rng.uniform(-0.5, 1.5)
            F = feature_matrix(x, m)
            norms.clear()
            res = fit_lambda(F, w, c_lambda=c, tol=tol,
                             warm_start=rng.normal(0, 3, size=m) if trial % 2 else None)
            assert max(norms) <= c * (1 + 1e-12)
            assert np.all(np.diff(res.trace) >= 0)
            if not res.converged:
                continue
            converged += 1
            lam = res.lam
            assert np.abs(lam).sum() <= c * (1 + 1e-12)
            g = loglik_gradient(lam, F, w) / w.sum()
            if np.abs(lam).sum() < c - tol:
                resid = g
            else:
                on_boundary += 1
                resid = project_l1_ball(lam + g, c) - lam
            assert np.abs(resid).max() <= tol
        assert converged >= 35 and on_boundary >= 10

    def test_trace_monotone_through_negative_gains(self, monkeypatch):
        # at tol=1e-300 on the l1 boundary the projected-gradient gain rounds
        # below 0 (to -2e-17 here); 1e-4 of it is below the resolution of h,
        # so the Armijo test alone keeps every accepted step from lowering h
        search, gains = lambda_step._armijo_search, []

        def spy(path, *args):
            def logged(t):
                cand, gain = path(t)
                gains.append(gain)
                return cand, gain
            return search(logged, *args)

        monkeypatch.setattr(lambda_step, "_armijo_search", spy)
        rng = np.random.default_rng(0)
        x = np.clip(rng.standard_t(4, size=(100, 1)) * rng.uniform(0.05, 0.4), -1, 1)
        w = rng.uniform(0, 1, size=(100, 1))
        res = fit_lambda(feature_matrix(x, 11), w, c_lambda=2.0, tol=1e-300, max_iter=60)
        assert min(gains) < 0
        assert np.all(np.diff(res.trace) >= 0)

    def test_matches_two_loop_reference(self, monkeypatch):
        # one search over two step paths takes the same steps, bit for bit, as
        # two loops with one path each; the problems reach all three branches
        search, calls = lambda_step._armijo_search, []

        def spy(path, t, tries, *args):
            found = search(path, t, tries, *args)
            calls.append((tries, found is not None))
            return found

        monkeypatch.setattr(lambda_step, "_armijo_search", spy)
        branches = set()
        for F, w, c, warm in mixed_problems():
            calls.clear()
            res = fit_lambda(F, w, c_lambda=c, warm_start=warm)
            ref = fit_lambda_two_loops(F, w, c_lambda=c, warm_start=warm)
            for field in ("lam", "log_z", "n_iter", "trace", "converged"):
                assert np.array_equal(getattr(res, field), getattr(ref, field)), field
            # 30 tries is the Newton path, 60 the projected-gradient path,
            # which follows a failed Newton search in the same iteration
            for before, (tries, ok) in zip([None] + calls, calls):
                if tries == 30:
                    branches.add("newton accepted" if ok else "newton rejected")
                elif before == (30, False):
                    branches.add("gradient after newton")
                else:
                    branches.add("gradient only")
        assert branches == {"newton accepted", "newton rejected",
                            "gradient after newton", "gradient only"}

    def test_no_improving_step_exit_keeps_last_accepted_iterate(self, monkeypatch):
        # at tol=1e-300, problem 39 of the mixed set ends when neither path
        # finds an improving step at float resolution, which counts as stationary
        search, accepted, last = lambda_step._armijo_search, [], []

        def spy(path, t, tries, *args):
            found = search(path, t, tries, *args)
            if found is not None:
                accepted.append(found)
            last[:] = [(tries, found is None)]
            return found

        monkeypatch.setattr(lambda_step, "_armijo_search", spy)
        F, w, c, warm = list(mixed_problems())[39]
        res = fit_lambda(F, w, c_lambda=c, warm_start=warm, tol=1e-300)
        assert last == [(60, True)]
        assert res.converged and np.all(np.diff(res.trace) >= 0)
        _, lam, log_z, _, h = accepted[-1]
        assert res.lam is lam and res.log_z == log_z
        assert res.trace[-1] == w.sum() * h and len(res.trace) == len(accepted) + 1

    def test_failed_newton_solve_falls_back_to_gradient(self, monkeypatch):
        # a LinAlgError leaves the Newton direction non-finite, so that
        # iteration takes a projected-gradient step and Newton resumes after it
        rng = np.random.default_rng(5)
        x = np.clip(rng.standard_normal((200, 1)) * 0.3, -1, 1)
        w = rng.uniform(0, 1, size=(200, 1))
        F = feature_matrix(x, 4)
        ref = fit_lambda(F, w, tol=1e-11)
        solve, raised = np.linalg.solve, []

        def solve_failing_once(a, b):
            if not raised:
                raised.append(True)
                raise np.linalg.LinAlgError("Singular matrix")
            return solve(a, b)

        monkeypatch.setattr(np.linalg, "solve", solve_failing_once)
        res = fit_lambda(F, w, tol=1e-11)
        assert raised and res.converged and np.all(np.diff(res.trace) >= 0)
        assert np.abs(loglik_gradient(res.lam, F, w) / w.sum()).max() <= 1e-11
        np.testing.assert_allclose(res.lam, ref.lam, rtol=0, atol=1e-8)

    def test_empty_regime_raises(self):
        F = feature_matrix(np.array([[0.1], [0.2]]), 2)
        with pytest.raises(EmptyRegime):
            fit_lambda(F, np.zeros((2, 1)))

    @pytest.mark.parametrize("c_lambda", [math.inf, 0.5])
    def test_warm_start_is_not_modified(self, c_lambda):
        F = feature_matrix(np.array([[0.3], [-0.7], [0.5], [0.1]]), 3)
        w0 = np.array([0.4, -1.0, 0.2])
        res = fit_lambda(F, np.ones((4, 1)), c_lambda=c_lambda, warm_start=w0)
        np.testing.assert_array_equal(w0, [0.4, -1.0, 0.2])
        assert res.lam is not w0 and not np.shares_memory(res.lam, w0)

    def test_nan_bound_rejected(self):
        F = feature_matrix(np.array([[0.1], [0.2]]), 2)
        with pytest.raises(ValueError, match="radius"):
            fit_lambda(F, np.ones((2, 1)), c_lambda=math.nan)

    @pytest.mark.parametrize("c_lambda", [math.inf, 2.0])
    def test_nan_input_rejected(self, c_lambda):
        F = feature_matrix(np.array([[0.1], [0.2], [0.0]]), 2)
        with pytest.raises(ValueError, match="finite"):
            fit_lambda(F, np.array([[1.0], [math.nan], [1.0]]), c_lambda=c_lambda)
        F[1, 0, :] = math.nan
        with pytest.raises(ValueError, match="finite"):
            fit_lambda(F, np.ones((3, 1)), c_lambda=c_lambda)

    def test_concave_along_segments(self):
        # the objective restricted to any segment is concave: sampled at 11
        # interior points, the second differences are nonpositive
        rng = np.random.default_rng(13)
        values = rng.uniform(-1, 1, size=(40, 1))
        w = rng.uniform(0, 1, size=(40, 1))
        F = feature_matrix(values, 4)
        for _ in range(20):
            lam_a = rng.uniform(-3, 3, size=4)
            lam_b = rng.uniform(-3, 3, size=4)
            ts = np.linspace(0, 1, 11)
            vals = [weighted_loglik(lam_a + t * (lam_b - lam_a), F, w) for t in ts]
            second = np.diff(vals, 2)
            assert np.all(second <= 1e-8)


class TestSparsify:
    def test_threshold(self):
        lam, count = sparsify([3.0, 1e-9, 2.0, 0.0, 0.0, 0.0], 1e-5)
        np.testing.assert_array_equal(lam, [3.0, 0.0, 2.0, 0.0, 0.0, 0.0])
        assert count == 2

    def test_zero_vector(self):
        _, count = sparsify(np.zeros(6), 1e-5)
        assert count == 0

    def test_eps_zero_is_identity(self):
        lam = np.array([1e-12, -2.0, 0.5])
        out, count = sparsify(lam, 0.0)
        np.testing.assert_array_equal(out, lam)
        assert count == 3
