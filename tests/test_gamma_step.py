"""Affiliation LP: feasibility invariants and the exhaustive binary oracle."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tventropy import build_scores, feature_matrix, log_partition, solve_gamma, tv_norm
from tventropy import gamma_step
from tventropy.estimator import random_block_gamma
from tventropy.gamma_step import AffiliationSolver
from tests.helpers import affiliation_lp_optimum, lp_rows_blocks

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
    @example(K=2, T=8, n=2, c_gamma=1.0, use_prev=True, use_start=True, seed=3)
    @given(K=st.integers(2, 4), T=st.integers(2, 8), n=st.integers(1, 3),
           # integer budgets (what `grid` runs) give the most degenerate LPs
           c_gamma=st.one_of(st.integers(0, 4).map(float), st.floats(0.0, 4.0)),
           use_prev=st.booleans(), use_start=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_reused_solver_matches_linprog_oracle(self, K, T, n, c_gamma, use_prev,
                                                  use_start, seed):
        # one hot-started session over several score draws; with use_prev each
        # solve gets the previous result as gamma_prev, as in the outer fit;
        # with use_start the first solve starts from a within-budget random
        # block field, as the first solve of a fit does
        rng = np.random.default_rng(seed)
        solver = AffiliationSolver(K, T, n, c_gamma)
        prev = random_block_gamma(K, T, n, c_gamma, seed) if use_start else None
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

    def test_start_just_over_budget_still_solves(self):
        # a start up to 1e-7 over budget counts as feasible and is handed to
        # HiGHS; the solve must still reach an optimal, feasible vertex
        K, T, n = 3, 12, 2
        prev = random_block_gamma(K, T, n, 4.0, 12)
        c_gamma = max(tv_norm(prev, k) for k in range(K)) - 9e-8
        assert c_gamma > 0
        scores = np.random.default_rng(12).normal(size=(K, T, n))
        solver = AffiliationSolver(K, T, n, c_gamma)
        gamma = solver.solve(scores, gamma_prev=prev)
        assert solver.lp_solves == 1
        check_feasible(gamma, c_gamma)
        obj = float((gamma * scores).sum())
        assert abs(obj - affiliation_lp_optimum(scores, c_gamma)) <= 1e-9

    def test_identical_rescore_keeps_hot_start(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(3, 20, 1))
        solver = AffiliationSolver(3, 20, 1, 2.0)
        first = solver.solve(scores)
        assert solver.lp_solves == 1 and solver.simplex_iterations > 0
        iterations = solver.simplex_iterations
        again = solver.solve(scores)
        assert solver.lp_solves == 2 and solver.simplex_iterations == iterations
        np.testing.assert_array_equal(again, first)

    def test_shortcut_leaves_counters(self):
        # K=1 takes the shortcut too: one regime has all ones and zero TV
        for K, lead in ((3, 1), (1, 0)):
            rng = np.random.default_rng(8)
            solver = AffiliationSolver(K, 20, 1, 2.0)
            solver.solve(rng.normal(size=(K, 20, 1)))
            counts = (solver.lp_solves, solver.simplex_iterations)
            scores = rng.normal(size=(K, 20, 1))
            scores[lead] += 10.0                 # argmax is regime `lead` throughout
            gamma = solver.solve(scores)
            np.testing.assert_array_equal(gamma, gamma_step.hard_assignment(scores))
            assert (solver.lp_solves, solver.simplex_iterations) == counts
        np.testing.assert_array_equal(gamma, np.ones((1, 20, 1)))
        assert counts == (0, 0) and solver._highs is None

    def test_counts_shortcut_hits(self):
        rng = np.random.default_rng(8)
        solver = AffiliationSolver(2, 20, 1, 2.0)
        solver.solve(rng.normal(size=(2, 20, 1)))
        assert (solver.lp_solves, solver.shortcut_hits) == (1, 0)
        scores = rng.normal(size=(2, 20, 1))
        scores[0] += 10.0
        solver.solve(scores)
        solver.solve(scores, gamma_prev=gamma_step.hard_assignment(scores))
        assert (solver.lp_solves, solver.shortcut_hits) == (1, 2)

    @pytest.mark.parametrize("n", [1, 3])
    def test_two_regimes_single_step(self, n):
        # T=1 leaves the K=2 LP with no difference rows and an empty budget row
        A, lower, upper = gamma_step._lp_rows(2, 1, n, 1.0)
        assert A.shape == (1, n) and A.nnz == 0
        assert lower.tolist() == [-np.inf] and upper.tolist() == [1.0]
        scores = np.random.default_rng(n).normal(size=(2, 1, n))
        solver = AffiliationSolver(2, 1, n, 1.0)
        want = gamma_step.hard_assignment(scores)
        np.testing.assert_array_equal(solver.solve(scores), want)
        assert solver.shortcut_hits == 1
        gamma = solver._solve_lp(scores, want)       # the LP itself, started at its optimum
        assert solver.lp_solves == 1
        np.testing.assert_allclose(gamma, want, atol=1e-12)


class TestLpRows:
    @pytest.mark.parametrize("K", [2, 3, 4, 5])
    def test_matches_block_builder_byte_for_byte(self, K):
        # HiGHS's pivot path depends on the row and column order, so the
        # closed-form rows must reproduce the block assembly exactly
        for T in (2, 3, 4, 7, 20, 50):
            for n in (1, 2, 3):
                A, lower, upper = gamma_step._lp_rows(K, T, n, 2.5)
                B, want_lower, want_upper = lp_rows_blocks(K, T, n, 2.5)
                assert A.format == "csc" and A.shape == B.shape
                if K == 2:   # regime 0's differences and budget only
                    assert A.shape == ((T - 1) * n + 1, T * n + 2 * (T - 1) * n)
                else:
                    assert A.shape == (K * (T - 1) * n + T * n + K,
                                       (K - 1) * T * n + 2 * K * (T - 1) * n)
                for got, ref in [(A.indptr, B.indptr), (A.indices, B.indices),
                                 (A.data, B.data), (lower, want_lower),
                                 (upper, want_upper)]:
                    assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    def test_start_point_satisfies_every_row(self):
        # a start that breaks a row is not an error in HiGHS, only slower
        rng = np.random.default_rng(14)
        for K, T, n in itertools.product(range(2, 5), range(2, 9), range(1, 4)):
            c_gamma = float(rng.uniform(0.0, 4.0))
            a = random_block_gamma(K, T, n, c_gamma, int(rng.integers(2**32)))
            b = random_block_gamma(K, T, n, c_gamma, int(rng.integers(2**32)))
            w = rng.uniform()
            A, lower, upper = gamma_step._lp_rows(K, T, n, c_gamma)
            budgeted = 1 if K == 2 else K
            for gamma in (a, w * a + (1.0 - w) * b):
                x = gamma_step._start_point(gamma)
                assert x.shape == (A.shape[1],)
                Ax = A @ x
                assert np.all(lower - 1e-12 <= Ax) and np.all(Ax <= upper + 1e-12)
                # the budget rows carry each budgeted regime's TV
                np.testing.assert_allclose(
                    Ax[-budgeted:], [tv_norm(gamma, k) for k in range(budgeted)],
                    rtol=1e-12, atol=1e-12)
                n_gamma = (K - 1) * T * n
                assert x.min() >= 0.0 and x[:n_gamma].max() <= 1.0

    def test_no_module_cache(self):
        assert not any(hasattr(v, "cache_info") for v in vars(gamma_step).values())
