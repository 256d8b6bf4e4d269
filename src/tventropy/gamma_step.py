"""Affiliation update: a linear program over regime weights.

For fixed per-regime coefficient vectors the outer objective is linear in the
affiliation field gamma, so the best gamma solves

    max  sum_k sum_{t,i} gamma[k,t,i] * scores[k,t,i]
    s.t. sum_k gamma[k,t,i] = 1,   gamma >= 0,
         sum_i sum_t |gamma[k,t+1,i] - gamma[k,t,i]| <= c_gamma   for every k.

``scores[k,t,i]`` is the log-density of observation (t,i) under regime k.
The simplex constraint lets us eliminate the last regime's weights; auxiliary
variables bound the absolute temporal differences, giving one budget row per
regime.  The LP is solved exactly with HiGHS dual simplex through scipy's
vendored HiGHS bindings (``scipy.optimize._highspy``, scipy >= 1.15); there
is no other solve path.  When the per-point argmax assignment already
satisfies every budget the LP is skipped: that assignment is optimal by
construction.

``AffiliationSolver`` keeps one HiGHS session alive across repeated solves
with changing scores, so the simplex restarts from the previous basis; the
outer alternation changes the objective only a little per iteration, which
makes the warm-started re-solves far cheaper than cold ones.  The LP's
constraint matrix depends only on the shape (K, T, n); a small bounded cache
keeps the last few shapes, so solvers of one shape share one matrix.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.sparse as sp
from scipy.optimize._highspy import _core as _hc

from .errors import SolverError

PREFERENCE_WEIGHT = 1e-9    # infinitesimal pull toward the previous affiliation


def build_scores(lambdas, features: np.ndarray, log_zs) -> np.ndarray:
    """Per-point log-densities, shape (K, T, n)."""
    lambdas = np.atleast_2d(np.asarray(lambdas, dtype=float))
    log_zs = np.asarray(log_zs, dtype=float)
    if lambdas.shape[0] != log_zs.size:
        raise ValueError("one log-partition value per regime is required")
    if lambdas.shape[1] != features.shape[2]:
        raise ValueError("coefficient length does not match feature order")
    lin = np.einsum("tnm,km->ktn", features, lambdas)
    return -(lin + log_zs[:, None, None])


def tv_norm(gamma: np.ndarray, k: int) -> float:
    """Summed absolute consecutive-time changes of regime k's weights."""
    return float(np.abs(np.diff(gamma[k], axis=0)).sum())


def hard_assignment(scores: np.ndarray) -> np.ndarray:
    """Binary field putting full mass on the per-point argmax (ties -> lowest k)."""
    K = scores.shape[0]
    return (scores.argmax(axis=0) == np.arange(K)[:, None, None]).astype(float)


@lru_cache(maxsize=8)
def _constraint_matrix(K: int, T: int, n: int) -> sp.csc_matrix:
    """Inequality matrix for the reduced LP (last regime eliminated).

    Variable order: gamma[k,t,i] for k = 0..K-2 (row-major in (t,i)), then
    eta[k,t,i] for k = 0..K-1 over t = 0..T-2.
    Rows: +-difference bounds per regime, the "weights sum <= 1" rows, and
    one TV budget row per regime.
    """
    D = sp.kron(
        sp.diags([-np.ones(T), np.ones(T - 1)], [0, 1], shape=(T - 1, T)),
        sp.identity(n), format="csc")                    # (T-1)n x Tn temporal difference
    Zg = sp.csc_matrix(((T - 1) * n, T * n))
    Ze = sp.csc_matrix(((T - 1) * n, (T - 1) * n))
    Ie = sp.identity((T - 1) * n, format="csc")
    rows = []
    for k in range(K - 1):
        gblk = [Zg] * (K - 1)
        eblk = [Ze] * K
        gblk[k] = D
        eblk[k] = -Ie
        rows.append(sp.hstack(gblk + eblk))
        gblk = [Zg] * (K - 1)
        gblk[k] = -D
        rows.append(sp.hstack(gblk + eblk))
    # eliminated regime: |sum_{k<K-1} d gamma_k| <= eta_{K-1}
    eblk = [Ze] * K
    eblk[K - 1] = -Ie
    rows.append(sp.hstack([D] * (K - 1) + eblk))
    rows.append(sp.hstack([-D] * (K - 1) + eblk))
    rows.append(sp.hstack([sp.identity(T * n, format="csc")] * (K - 1)
                          + [sp.csc_matrix((T * n, K * (T - 1) * n))]))
    ones = sp.csc_matrix(np.ones((1, (T - 1) * n)))
    zero1 = sp.csc_matrix((1, (T - 1) * n))
    for k in range(K):
        eblk = [zero1] * K
        eblk[k] = ones
        rows.append(sp.hstack([sp.csc_matrix((1, T * n))] * (K - 1) + eblk))
    return sp.vstack(rows, format="csc")


class AffiliationSolver:
    """Reusable affiliation subproblem for fixed shape and switch budget.

    One instance per estimation run: repeated ``solve`` calls share the
    underlying LP model, so HiGHS hot-starts from the last basis.
    """

    def __init__(self, K: int, T: int, n: int, c_gamma: float):
        if c_gamma < 0:
            raise ValueError("c_gamma must be nonnegative")
        if K < 1:
            raise ValueError("need at least one regime")
        self.K, self.T, self.n = K, T, n
        self.c_gamma = float(c_gamma)
        self._highs = None
        self._n_gamma = (K - 1) * T * n
        self._n_eta = K * (T - 1) * n
        self._gamma_cols = np.arange(self._n_gamma, dtype=np.int32)

    def _build_highs(self):
        K, T, n = self.K, self.T, self.n
        A = _constraint_matrix(K, T, n)
        lp = _hc.HighsLp()
        lp.num_col_ = self._n_gamma + self._n_eta
        lp.num_row_ = A.shape[0]
        lp.col_cost_ = np.zeros(lp.num_col_)
        lp.col_lower_ = np.zeros(lp.num_col_)
        lp.col_upper_ = np.concatenate([
            np.ones(self._n_gamma), np.full(self._n_eta, np.inf)])
        lp.row_lower_ = np.full(A.shape[0], -np.inf)
        # difference rows <= 0, simplex rows <= 1, one budget row per regime
        lp.row_upper_ = np.concatenate([
            np.zeros(2 * K * (T - 1) * n), np.ones(T * n), np.full(K, self.c_gamma)])
        lp.a_matrix_.format_ = _hc.MatrixFormat.kColwise
        lp.a_matrix_.start_ = A.indptr.astype(np.int64)
        lp.a_matrix_.index_ = A.indices.astype(np.int32)
        lp.a_matrix_.value_ = A.data
        lp.sense_ = _hc.ObjSense.kMinimize
        h = _hc._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("threads", 1)
        h.setOptionValue("primal_feasibility_tolerance", 1e-9)
        h.setOptionValue("dual_feasibility_tolerance", 1e-9)
        h.passModel(lp)
        return h

    def _solve_lp(self, eff: np.ndarray) -> np.ndarray:
        diff = eff[:-1] - eff[-1]
        cost_gamma = -diff.reshape(self._n_gamma)
        if self._highs is None:
            self._highs = self._build_highs()
        h = self._highs
        # set form (count, indices, costs); the interval form is not bound
        status = h.changeColsCost(self._n_gamma, self._gamma_cols, cost_gamma)
        if status != _hc.HighsStatus.kOk:
            raise SolverError("affiliation LP rejected the objective update")
        h.run()
        if h.getModelStatus() != _hc.HighsModelStatus.kOptimal:
            raise SolverError(
                f"affiliation LP failed: {h.modelStatusToString(h.getModelStatus())}")
        x = np.asarray(h.getSolution().col_value)
        top = x[: self._n_gamma].reshape(self.K - 1, self.T, self.n)
        gamma = np.concatenate([top, (1.0 - top.sum(axis=0))[None]], axis=0)
        gamma = np.clip(gamma, 0.0, None)
        gamma /= gamma.sum(axis=0)
        return gamma

    def solve(self, scores: np.ndarray,
              gamma_prev: np.ndarray | None = None) -> np.ndarray:
        """Optimal affiliations for the given scores.

        With ``gamma_prev`` supplied, ties break toward it (an infinitesimal
        preference in the objective) and the result never scores below
        ``gamma_prev`` when that field is feasible.
        """
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (self.K, self.T, self.n):
            raise ValueError(
                f"scores must have shape {(self.K, self.T, self.n)}, got {scores.shape}")
        if self.K == 1:
            return np.ones((1, self.T, self.n))

        eff = scores if gamma_prev is None else scores + PREFERENCE_WEIGHT * gamma_prev
        gamma = hard_assignment(eff)
        if max(tv_norm(gamma, k) for k in range(self.K)) <= self.c_gamma:
            return gamma

        gamma = self._solve_lp(eff)
        if gamma_prev is not None:
            feasible = max(tv_norm(gamma_prev, k)
                           for k in range(self.K)) <= self.c_gamma + 1e-7
            if feasible and float((gamma * scores).sum()) < float(
                    (gamma_prev * scores).sum()):
                return gamma_prev.copy()
        return gamma


def solve_gamma(scores: np.ndarray, c_gamma: float,
                gamma_prev: np.ndarray | None = None) -> np.ndarray:
    """One-shot affiliation solve (fresh LP session)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 3:
        raise ValueError(f"scores must have shape (K, T, n), got {scores.shape}")
    K, T, n = scores.shape
    return AffiliationSolver(K, T, n, c_gamma).solve(scores, gamma_prev)
