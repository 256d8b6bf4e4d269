"""Affiliation update: a linear program over regime weights.

For fixed per-regime coefficient vectors the outer objective is linear in the
affiliation field gamma, so the best gamma solves

    max  sum_k sum_{t,i} gamma[k,t,i] * scores[k,t,i]
    s.t. sum_k gamma[k,t,i] = 1,   gamma >= 0,
         sum_i sum_t |gamma[k,t+1,i] - gamma[k,t,i]| <= c_gamma   for every k.

``scores[k,t,i]`` is the log-density of observation (t,i) under regime k.
The simplex constraint lets us eliminate the last regime's weights.  Each
temporal difference is split into nonnegative ``up`` and ``down`` parts tied
to it by one equality row, and each regime's budget row bounds the sum of its
parts.  The cheapest split of a difference d is (max(d, 0), max(-d, 0)), so a
field fits the budget rows exactly when its TV is within budget.  That gives
K(T-1)n + Tn + K rows.  For K = 2 the eliminated regime's weights are
1 - gamma[0], whose TV equals gamma[0]'s, so only regime 0 keeps difference
rows and a budget row, and "weights sum <= 1" is gamma[0]'s column bound:
(T-1)n + 1 rows.  The LP is solved exactly with HiGHS primal simplex
through scipy's vendored HiGHS bindings (``scipy.optimize._highspy``,
scipy >= 1.15); there is no other solve path.  Those bindings, and
``scipy.sparse`` for the constraint matrix, are imported when the first LP is
built, not with this module, and the model reaches HiGHS in one array call.
When the per-point argmax assignment already satisfies every budget the LP is
skipped: that assignment is optimal by construction.

``AffiliationSolver`` keeps one HiGHS session alive across repeated solves
with changing scores.  Only the objective changes between solves, never the
constraints, so every basis HiGHS keeps stays primal feasible and primal
simplex restarts from it; the outer alternation changes the objective only
a little per iteration, which makes these hot re-solves far cheaper than
cold ones.  The first LP of a session starts from ``gamma_prev`` (with the
cheapest split of its differences) when that field is within budget, which
in a fit it is: the random block start is feasible by construction and a
warm start comes from a cell whose budget was no larger.  The solver counts
its LP runs (``lp_solves``), their simplex iterations
(``simplex_iterations``) and the solves the shortcut answered
(``shortcut_hits``).
Each solver builds its constraint matrix and row bounds once, from index
arithmetic (``_lp_rows``); there is no module-level cache.
"""

from __future__ import annotations

import numpy as np

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


def _lp_rows(K: int, T: int, n: int, c_gamma: float):
    """Constraint matrix (CSC) and row lower and upper bounds of the reduced LP.

    Variable order: gamma[k,t,i] for k = 0..K-2 (row-major in (t,i)), then
    up[k,t,i] for every budgeted regime k over t = 0..T-2, then down[k,t,i]
    in the same order.  Rows: the difference equalities
    gamma[k,t+1,i] - gamma[k,t,i] - up[k,t,i] + down[k,t,i] = 0 per regime
    (the eliminated regime last, its difference being minus the sum of the
    others'), the "weights sum <= 1" rows, and one budget row
    sum_{t,i} up[k,t,i] + down[k,t,i] <= c_gamma per regime: K(T-1)n + Tn + K
    rows in all.  For K = 2 only regime 0 is budgeted, since
    gamma[1] = 1 - gamma[0] has the same TV, and the "weights sum <= 1" rows
    are gamma[0]'s column bound: (T-1)n + 1 rows.
    """
    import scipy.sparse as sp

    budgeted, n_simplex = (1, 0) if K == 2 else (K, T * n)
    m = (T - 1) * n                         # differences per regime
    d = np.arange(m)                        # difference (t, i) -> t*n + i
    g = np.arange(n_simplex)
    n_gamma = (K - 1) * T * n
    up, down = n_gamma, n_gamma + budgeted * m   # first up and first down column
    blocks = []                             # (rows, cols, value) triplet groups
    for k in range(budgeted):
        r = k * m + d
        regimes, sign = ([k], 1.0) if k < K - 1 else (range(K - 1), -1.0)
        for j in regimes:                   # sign * (gamma[j,t+1,i] - gamma[j,t,i])
            blocks += [(r, j * T * n + d + n, sign), (r, j * T * n + d, -sign)]
        blocks += [(r, up + k * m + d, -1.0), (r, down + k * m + d, 1.0)]
    blocks += [(budgeted * m + g, j * T * n + g, 1.0) for j in range(K - 1)]
    blocks += [(np.full(m, budgeted * m + n_simplex + k), first + k * m + d, 1.0)
               for k in range(budgeted) for first in (up, down)]
    rows = np.concatenate([b[0] for b in blocks])
    cols = np.concatenate([b[1] for b in blocks])
    vals = np.concatenate([np.full(b[0].size, b[2]) for b in blocks])
    # difference rows = 0, simplex rows <= 1, one budget row per budgeted regime
    lower = np.concatenate([np.zeros(budgeted * m), np.full(n_simplex + budgeted, -np.inf)])
    upper = np.concatenate([np.zeros(budgeted * m), np.ones(n_simplex),
                            np.full(budgeted, float(c_gamma))])
    A = sp.csc_matrix((vals, (rows, cols)), shape=(upper.size, n_gamma + 2 * budgeted * m))
    return A, lower, upper


def _highs_core():
    """scipy's vendored HiGHS binding, imported on first use.

    Only an LP build and solve need it, so importing the package (and every
    command that never solves an affiliation LP) loads no scipy module.
    """
    try:
        import scipy.optimize._highspy._core as core
    except ImportError as exc:
        raise SolverError(
            "affiliation LP needs scipy>=1.15 (scipy.optimize._highspy)") from exc
    return core


def _start_point(gamma: np.ndarray) -> np.ndarray:
    """``gamma`` as column values of the ``_lp_rows`` LP: the kept regimes'
    weights, then the cheapest up and down split of every budgeted regime's
    differences (for K = 2, regime 0's only)."""
    diff = np.diff(gamma[:1] if gamma.shape[0] == 2 else gamma, axis=1)
    return np.concatenate([gamma[:-1].ravel(), np.maximum(diff, 0.0).ravel(),
                           np.maximum(-diff, 0.0).ravel()])


class AffiliationSolver:
    """Reusable affiliation subproblem for fixed shape and switch budget.

    One instance per estimation run: repeated ``solve`` calls share the
    underlying LP model, so HiGHS hot-starts from the last basis.
    """

    def __init__(self, K: int, T: int, n: int, c_gamma: float):
        if not c_gamma >= 0:
            raise ValueError(f"c_gamma must be nonnegative, got {c_gamma}")
        if K < 1:
            raise ValueError("need at least one regime")
        self.K, self.T, self.n = K, T, n
        self.c_gamma = float(c_gamma)
        self._highs = None
        self._n_gamma = (K - 1) * T * n
        self._gamma_cols = np.arange(self._n_gamma, dtype=np.int32)
        self.lp_solves = 0              # HiGHS runs; shortcut hits add none
        self.simplex_iterations = 0     # summed over those runs
        self.shortcut_hits = 0          # solves answered by the argmax assignment

    def _build_highs(self):
        """A HiGHS session with this solver's LP and zero costs, passed in one
        array call; ``integrality`` is ``n_col`` zeros (all continuous), since
        HiGHS rejects an empty array there with ``kError``."""
        hc = _highs_core()
        A, row_lower, row_upper = _lp_rows(self.K, self.T, self.n, self.c_gamma)
        n_row, n_col = A.shape
        col_upper = np.concatenate([   # gamma in [0, 1], up and down unbounded above
            np.ones(self._n_gamma), np.full(n_col - self._n_gamma, np.inf)])
        h = hc._Highs()
        h.setOptionValue("output_flag", False)
        h.setOptionValue("presolve", "off")
        h.setOptionValue("threads", 1)
        # only costs change between solves: kept bases and starts stay primal feasible
        h.setOptionValue("simplex_strategy", 4)
        h.setOptionValue("primal_feasibility_tolerance", 1e-9)
        h.setOptionValue("dual_feasibility_tolerance", 1e-9)
        status = h.passModel(
            n_col, n_row, A.nnz, hc.MatrixFormat.kColwise, hc.ObjSense.kMinimize, 0.0,
            np.zeros(n_col), np.zeros(n_col), col_upper, row_lower, row_upper,
            A.indptr.astype(np.int32), A.indices.astype(np.int32), A.data,
            np.zeros(n_col, dtype=np.int32))
        if status != hc.HighsStatus.kOk:
            raise SolverError("affiliation LP model was rejected by HiGHS")
        return h

    def _solve_lp(self, eff: np.ndarray, start: np.ndarray | None) -> np.ndarray:
        diff = eff[:-1] - eff[-1]
        cost_gamma = -diff.reshape(self._n_gamma)
        first = self._highs is None
        if first:
            self._highs = self._build_highs()
        h, hc = self._highs, _highs_core()
        # set form (count, indices, costs); the interval form is not bound
        status = h.changeColsCost(self._n_gamma, self._gamma_cols, cost_gamma)
        if status != hc.HighsStatus.kOk:
            raise SolverError("affiliation LP rejected the objective update")
        if first and start is not None:
            # after the costs: the start then needs about a third fewer iterations
            sol = hc.HighsSolution()
            sol.col_value = _start_point(start)
            if h.setSolution(sol) == hc.HighsStatus.kError:
                raise SolverError("affiliation LP rejected the start point")
        h.run()
        self.lp_solves += 1
        self.simplex_iterations += h.getInfo().simplex_iteration_count
        if h.getModelStatus() != hc.HighsModelStatus.kOptimal:
            raise SolverError(
                f"affiliation LP failed: {h.modelStatusToString(h.getModelStatus())}")
        x = np.asarray(h.getSolution().col_value)
        top = x[: self._n_gamma].reshape(self.K - 1, self.T, self.n)
        gamma = np.concatenate([top, (1.0 - top.sum(axis=0))[None]], axis=0)
        gamma = np.clip(gamma, 0.0, None)   # HiGHS leaves weights down to -3e-14
        gamma /= gamma.sum(axis=0)
        return gamma

    def solve(self, scores: np.ndarray,
              gamma_prev: np.ndarray | None = None) -> np.ndarray:
        """Optimal affiliations for the given scores.

        With ``gamma_prev`` supplied, ties break toward it (an infinitesimal
        preference in the objective) and the result never scores below
        ``gamma_prev`` when that field is feasible (within 1e-7 of the
        budget); a feasible ``gamma_prev`` is also the start point of the
        session's first LP.
        """
        scores = np.asarray(scores, dtype=float)
        if scores.shape != (self.K, self.T, self.n):
            raise ValueError(
                f"scores must have shape {(self.K, self.T, self.n)}, got {scores.shape}")
        eff = scores if gamma_prev is None else scores + PREFERENCE_WEIGHT * gamma_prev
        gamma = hard_assignment(eff)
        if max(tv_norm(gamma, k) for k in range(self.K)) <= self.c_gamma:
            self.shortcut_hits += 1
            return gamma

        feasible = gamma_prev is not None and max(
            tv_norm(gamma_prev, k) for k in range(self.K)) <= self.c_gamma + 1e-7
        gamma = self._solve_lp(eff, gamma_prev if feasible else None)
        if feasible and float((gamma * scores).sum()) < float((gamma_prev * scores).sum()):
            return gamma_prev.copy()    # a tied optimum: the vertex can score 3e-12 lower
        return gamma


def solve_gamma(scores: np.ndarray, c_gamma: float,
                gamma_prev: np.ndarray | None = None) -> np.ndarray:
    """One-shot affiliation solve (fresh LP session)."""
    scores = np.asarray(scores, dtype=float)
    if scores.ndim != 3:
        raise ValueError(f"scores must have shape (K, T, n), got {scores.shape}")
    K, T, n = scores.shape
    return AffiliationSolver(K, T, n, c_gamma).solve(scores, gamma_prev)
