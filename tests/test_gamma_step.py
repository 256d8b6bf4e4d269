"""Affiliation LP: feasibility invariants and the exhaustive binary oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tventropy import build_scores, feature_matrix, log_partition, solve_gamma, tv_norm
from tventropy import gamma_step
from tventropy.gamma_step import AffiliationSolver
from tests.helpers import affiliation_lp_optimum

LN2 = math.log(2.0)


def enumerate_binary_max(scores, c_gamma):
    """Exhaustive maximum over binary feasible affiliations.

    Paths enumerate per dimension; dimensions couple only through the shared
    per-regime budgets, so each dimension reduces to (objective, tv-vector)
    groups that combine across dimensions.
    """
    K, T, n = scores.shape
    per_dim = []
    for i in range(n):
        groups = {}
        for path in itertools.product(range(K), repeat=T):
            arr = np.asarray(path)
            obj = float(scores[arr, np.arange(T), i].sum())
            tv = tuple(int(np.sum(np.abs(np.diff(arr == k).astype(int)))) for k in range(K))
            if tv not in groups or obj > groups[tv]:
                groups[tv] = obj
        per_dim.append(groups)
    best = -np.inf
    for combo in itertools.product(*[g.items() for g in per_dim]):
        tv_total = np.sum([np.asarray(tv) for tv, _ in combo], axis=0)
        if np.all(tv_total <= c_gamma + 1e-12):
            best = max(best, sum(obj for _, obj in combo))
    return best


def check_feasible(gamma, c_gamma):
    K = gamma.shape[0]
    np.testing.assert_allclose(gamma.sum(axis=0), 1.0, atol=1e-9)
    assert gamma.min() >= -1e-12
    for k in range(K):
        assert tv_norm(gamma, k) <= c_gamma + 1e-7


class TestBuildScores:
    def test_uniform_regime(self):
        values = np.array([[0.2], [-0.5], [0.9]])
        F = feature_matrix(values, 3)
        scores = build_scores(np.zeros((1, 3)), F, [LN2])
        np.testing.assert_allclose(scores, -LN2, atol=1e-12)

    def test_single_point_closed_form(self):
        x = 0.37
        F = feature_matrix(np.array([[x], [-x]]), 2)
        lam = np.array([[0.0, 1.0]])
        log_z = log_partition(lam[0])
        scores = build_scores(lam, F, [log_z])
        assert scores[0, 0, 0] == pytest.approx(-(x ** 2 + log_z), abs=1e-12)

    def test_identical_regimes_identical_slices(self):
        rng = np.random.default_rng(0)
        F = feature_matrix(rng.uniform(-1, 1, size=(6, 2)), 4)
        lam = np.array([[1.0, -0.5, 0.2, 0.0]] * 2)
        lz = log_partition(lam[0])
        scores = build_scores(lam, F, [lz, lz])
        np.testing.assert_array_equal(scores[0], scores[1])


class TestTvNorm:
    def test_constant_zero(self):
        gamma = np.ones((1, 10, 2))
        assert tv_norm(gamma, 0) == 0.0

    def test_single_switch(self):
        gamma = np.zeros((2, 6, 1))
        gamma[0, :3, 0] = 1.0
        gamma[1, 3:, 0] = 1.0
        assert tv_norm(gamma, 0) == 1.0
        assert tv_norm(gamma, 1) == 1.0

    def test_additive_over_dimensions(self):
        gamma = np.zeros((2, 9, 2))
        # two switches in each of the two dimensions
        for i in range(2):
            gamma[0, :, i] = [1, 1, 1, 0, 0, 0, 1, 1, 1]
            gamma[1, :, i] = 1 - gamma[0, :, i]
        assert tv_norm(gamma, 0) == 4.0


class TestSolveGamma:
    def test_single_regime(self):
        scores = np.random.default_rng(1).normal(size=(1, 8, 2))
        gamma = solve_gamma(scores, 0.0)
        np.testing.assert_array_equal(gamma, np.ones((1, 8, 2)))

    def test_binary_switch_instance(self):
        # regime 0 better on t in {0,1}, regime 1 better on t in {2,3}
        scores = np.zeros((2, 4, 1))
        scores[0, :, 0] = [1.0, 1.0, 0.0, 0.0]
        scores[1, :, 0] = [0.0, 0.0, 1.0, 1.0]
        gamma = solve_gamma(scores, 1.0)
        check_feasible(gamma, 1.0)
        objective = float((gamma * scores).sum())
        assert objective == pytest.approx(enumerate_binary_max(scores, 1.0), abs=1e-9)
        assert objective == pytest.approx(4.0, abs=1e-9)
        np.testing.assert_allclose(gamma[0, :, 0], [1, 1, 0, 0], atol=1e-9)

    def test_budget_zero_forces_constant(self):
        scores = np.zeros((2, 4, 1))
        scores[0, :, 0] = [1.0, 1.0, 0.0, 0.0]
        scores[1, :, 0] = [0.0, 0.0, 1.5, 1.5]
        gamma = solve_gamma(scores, 0.0)
        check_feasible(gamma, 0.0)
        # constant in t; the winning constant path takes regime 1 (total 3 > 2)
        np.testing.assert_allclose(gamma[1, :, 0], 1.0, atol=1e-9)
        assert float((gamma * scores).sum()) == pytest.approx(
            enumerate_binary_max(scores, 0.0), abs=1e-9)

    def test_slack_budget_gives_argmax_with_low_tie(self):
        rng = np.random.default_rng(2)
        scores = rng.normal(size=(3, 6, 1))
        scores[:, 2, 0] = 0.7                    # three-way tie at t=2
        gamma = solve_gamma(scores, 100.0)
        hard = gamma.argmax(axis=0)
        expected = scores.argmax(axis=0)
        np.testing.assert_array_equal(hard, expected)
        assert gamma[0, 2, 0] == 1.0             # tie broken to lowest index

    def test_matches_enumeration_small_random(self):
        rng = np.random.default_rng(3)
        for trial in range(40):
            K = int(rng.integers(2, 4))
            n = int(rng.integers(1, 3))
            T = int(rng.integers(2, 6 if n == 2 else 8))
            c_gamma = float(rng.choice([0, 1, 2, 3, 0.5, 1.5]))
            scores = rng.normal(size=(K, T, n))
            gamma = solve_gamma(scores, c_gamma)
            check_feasible(gamma, c_gamma)
            lp_obj = float((gamma * scores).sum())
            binary_max = enumerate_binary_max(scores, c_gamma)
            assert lp_obj >= binary_max - 1e-9
            frac = np.abs(gamma - np.round(gamma)).max()
            if frac <= 1e-7:
                assert lp_obj == pytest.approx(binary_max, abs=1e-9)

    def test_monotone_outer_improvement(self):
        rng = np.random.default_rng(4)
        for trial in range(20):
            K, T, n = 2, int(rng.integers(3, 10)), 1
            scores = rng.normal(size=(K, T, n))
            c_gamma = float(rng.integers(0, 4))
            prev = solve_gamma(rng.normal(size=(K, T, n)), c_gamma)
            new = solve_gamma(scores, c_gamma, gamma_prev=prev)
            check_feasible(new, c_gamma)
            assert float((new * scores).sum()) >= float((prev * scores).sum()) - 1e-12

    def test_preference_keeps_previous_among_ties(self):
        scores = np.zeros((2, 5, 1))          # all regimes identical
        prev = np.zeros((2, 5, 1))
        prev[1, :, 0] = 1.0
        gamma = solve_gamma(scores, 10.0, gamma_prev=prev)
        np.testing.assert_allclose(gamma, prev, atol=1e-9)

    def test_rejects_negative_budget(self):
        with pytest.raises(ValueError):
            solve_gamma(np.zeros((2, 3, 1)), -1.0)


class TestAffiliationSolver:
    def test_reused_solver_matches_enumeration(self):
        # one LP session re-solved with changing scores, as in the outer fit
        rng = np.random.default_rng(5)
        for K, T, n, c_gamma in [(2, 7, 1, 1.0), (3, 5, 1, 2.0), (2, 4, 2, 1.5)]:
            solver = AffiliationSolver(K, T, n, c_gamma)
            for _ in range(8):
                scores = rng.normal(size=(K, T, n))
                gamma = solver.solve(scores)
                check_feasible(gamma, c_gamma)
                lp_obj = float((gamma * scores).sum())
                assert lp_obj >= enumerate_binary_max(scores, c_gamma) - 1e-9

    @settings(derandomize=True, database=None, deadline=None)
    @given(K=st.integers(2, 4), T=st.integers(2, 8), n=st.integers(1, 3),
           c_gamma=st.floats(0.0, 4.0), use_prev=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_reused_solver_matches_linprog_oracle(self, K, T, n, c_gamma, use_prev, seed):
        # one hot-started session over several score draws; with use_prev each
        # solve gets the previous result as gamma_prev, as in the outer fit
        rng = np.random.default_rng(seed)
        solver = AffiliationSolver(K, T, n, c_gamma)
        prev = None
        for _ in range(4):
            scores = rng.normal(size=(K, T, n))
            gamma = solver.solve(scores, gamma_prev=prev)
            check_feasible(gamma, c_gamma)
            obj = float((gamma * scores).sum())
            want = affiliation_lp_optimum(scores, c_gamma)
            if prev is None:
                assert abs(obj - want) <= 1e-9
            else:
                # the tie-break term may cost at most PREFERENCE_WEIGHT per point
                slack = gamma_step.PREFERENCE_WEIGHT * T * n
                assert want - slack - 1e-9 <= obj <= want + 1e-9
                assert obj >= float((prev * scores).sum()) - 1e-12
            if use_prev:
                prev = gamma
