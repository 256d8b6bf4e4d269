"""Shared fixtures for the acceptance studies (top-level so worker processes
can import them)."""

from __future__ import annotations

import numpy as np

import tventropy as tv
from tventropy import ModelConfig


def synthetic_study(args):
    """One seed of the two-regime recovery study: BIC-select the switch
    budget for K=2 over c_gamma in 1..10 and score the winner."""
    seed, v2, n_anneal = args
    case = tv.gen_two_regime_gaussian(v2, T=1000, switch_period=250, seed=seed)
    scaled, scaling = tv.rescale(case.panel)
    report = tv.grid_search(scaled.values, [2], list(range(1, 11)),
                            config=ModelConfig(m=6, n_anneal=n_anneal, seed=seed),
                            stage2_points=0)
    best = report.best_fit
    ce = tv.classification_error(case.gamma_true, best.gamma)
    v_est = tv.variance_path(best, scaling, 0)
    re_tv = tv.relative_error(case.v_true, v_est)
    re_gmw = tv.relative_error(case.v_true,
                               tv.gmw_variance(case.panel.values[:, 0], 50))
    return ce, re_tv, re_gmw


def selection_study(args):
    """One seed of stage-1 model selection over {K=1..3} x {c_gamma=1..10}."""
    seed, v2, n_anneal = args
    case = tv.gen_two_regime_gaussian(v2, T=1000, switch_period=250, seed=seed)
    scaled, _ = tv.rescale(case.panel)
    report = tv.grid_search(scaled.values, [1, 2, 3], list(range(1, 11)),
                            config=ModelConfig(m=6, n_anneal=n_anneal, seed=seed),
                            stage2_points=0)
    return report.chosen_k


def random_fit_trace(args):
    """Trace of one randomised fit, for the monotonicity sweep."""
    seed, = args if isinstance(args, tuple) else (args,)
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 4))
    n = int(rng.integers(1, 3))
    T = int(rng.integers(120, 320))
    v2 = float(rng.uniform(1.5, 8.0))
    period = int(rng.integers(30, 120))
    cols = []
    for i in range(n):
        case = tv.gen_two_regime_gaussian(v2, T=T, switch_period=period,
                                          seed=seed + 31 * i)
        cols.append(case.panel.values[:, 0])
    panel = tv.Panel(values=np.column_stack(cols))
    scaled, _ = tv.rescale(panel)
    config = ModelConfig(k=k, c_gamma=float(rng.integers(0, 7)),
                         m=int(rng.integers(2, 7)), seed=seed)
    result = tv.fit(scaled.values, config)
    return result.trace


def random_block_gamma_loop(k: int, T: int, n: int, c_gamma: float, seed) -> np.ndarray:
    """Reference loop for ``estimator.random_block_gamma``: one ``bincount``
    majority vote per (dimension, time block)."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=(T, n))
    n_blocks = int(c_gamma // max(n, 1)) + 1
    gamma = np.zeros((k, T, n))
    for i in range(n):
        for blk in np.array_split(np.arange(T), min(n_blocks, T)):
            counts = np.bincount(labels[blk, i], minlength=k)
            gamma[counts.argmax(), blk, i] = 1.0
    return gamma


def acf_abs_loop(x, d: float, max_lag: int) -> np.ndarray:
    """Reference for ``diagnostics.acf_abs`` on one series: one dot product
    per lag."""
    y = np.abs(np.asarray(x, dtype=float)) ** d
    yc = y - y.mean()
    denom = float(yc @ yc)
    return np.array([float(yc[:-lag] @ yc[lag:]) / denom
                     for lag in range(1, max_lag + 1)])


def jump_series_loop(hard: np.ndarray, v_k: np.ndarray):
    """Reference for ``diagnostics.jump_series``: a loop over the points where
    the hard regime path changes, comparing the two regimes' variances."""
    up = np.zeros(hard.size, dtype=int)
    down = np.zeros(hard.size, dtype=int)
    for t in np.nonzero(np.diff(hard) != 0)[0] + 1:
        if v_k[hard[t]] > v_k[hard[t - 1]]:
            up[t] = 1
        elif v_k[hard[t]] < v_k[hard[t - 1]]:
            down[t] = 1
    return up, down


def quantile_by_cdf(lam, alpha: float) -> float:
    """Reference for ``maxent.quantile``: bisection on the public ``cdf``,
    which recomputes log Z at every step."""
    lo, hi = -1.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if tv.cdf(lam, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def sample_searchsorted(lam, count: int, seed: int) -> np.ndarray:
    """Reference for ``maxent.sample``: the CDF table inverted by
    ``searchsorted`` and a hand-written linear interpolation."""
    xs, cg = tv.maxent._cdf_grid(tv.maxent.validate_lambda(lam))
    return invert_searchsorted(xs, cg, np.random.default_rng(seed).random(count))


def invert_searchsorted(xs: np.ndarray, cg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reference for ``maxent._invert``: the table (xs, cg) inverted at u by
    ``searchsorted`` and a hand-written linear interpolation."""
    idx = np.clip(np.searchsorted(cg, u, side="right"), 1, len(xs) - 1)
    c0, c1 = cg[idx - 1], cg[idx]
    x0, x1 = xs[idx - 1], xs[idx]
    frac = np.where(c1 > c0, (u - c0) / np.where(c1 > c0, c1 - c0, 1.0), 0.0)
    return x0 + frac * (x1 - x0)


def affiliation_lp_optimum(scores: np.ndarray, c_gamma: float) -> float:
    """Reference optimum of the affiliation LP, solved by ``linprog``.

    Written apart from ``gamma_step._lp_rows``: every regime keeps
    its own weights (no elimination), the simplex rows are equalities, and
    one auxiliary d[k,t,i] >= |gamma[k,t+1,i] - gamma[k,t,i]| per difference
    feeds the budget row sum_{t,i} d[k,t,i] <= c_gamma of regime k.
    """
    from scipy.optimize import linprog

    K, T, n = scores.shape
    g = np.arange(K * T * n).reshape(K, T, n)                 # gamma columns
    d = K * T * n + np.arange(K * (T - 1) * n).reshape(K, T - 1, n)
    n_var = K * T * n + K * (T - 1) * n
    A_ub, b_ub = [], []
    for k in range(K):
        for t in range(T - 1):
            for i in range(n):
                for sign in (1.0, -1.0):
                    row = np.zeros(n_var)
                    row[g[k, t + 1, i]] = sign
                    row[g[k, t, i]] = -sign
                    row[d[k, t, i]] = -1.0
                    A_ub.append(row)
                    b_ub.append(0.0)
        row = np.zeros(n_var)
        row[d[k].ravel()] = 1.0
        A_ub.append(row)
        b_ub.append(c_gamma)
    A_eq = np.zeros((T * n, n_var))
    for t in range(T):
        for i in range(n):
            A_eq[t * n + i, g[:, t, i]] = 1.0
    cost = np.zeros(n_var)
    cost[: K * T * n] = -scores.ravel()
    res = linprog(cost, A_ub=np.array(A_ub), b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(T * n),
                  bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    assert res.status == 0, res.message
    return -res.fun


def log_integral_converged(lam) -> float:
    """log of the integral of exp(-sum_j lam_j x^j) over [-1, 1] by mpmath's
    tanh-sinh rule at 40 digits, split at the integrand's peak on a fine grid
    and refined by the rule's own degree doubling until its error estimate
    converges; a spike narrower than any fixed grid is still resolved."""
    import mpmath

    lam = np.asarray(lam, dtype=float)
    xs = np.linspace(-1.0, 1.0, 200_001)
    peak = float(xs[np.argmax(-np.power.outer(xs, np.arange(1, lam.size + 1)) @ lam)])
    coeffs = [-float(v) for v in lam[::-1]] + [0.0]      # highest degree first
    with mpmath.workdps(40):
        s_max = mpmath.polyval(coeffs, peak)
        points = [mpmath.mpf(x) for x in sorted({-1.0, peak, 1.0})]
        value, err = mpmath.quad(lambda x: mpmath.exp(mpmath.polyval(coeffs, x) - s_max),
                                 points, error=True)
        assert err <= 1e-15 * value, "tanh-sinh rule did not converge"
        return float(mpmath.log(value) + s_max)


def rle_encode_loop(gamma: np.ndarray) -> list:
    """Reference for ``model_io._rle_encode``: grow each run one time step at
    a time with ``np.array_equal``."""
    K, T, n = gamma.shape
    dims = []
    for i in range(n):
        runs = []
        t = 0
        while t < T:
            vec = gamma[:, t, i]
            length = 1
            while t + length < T and np.array_equal(gamma[:, t + length, i], vec):
                length += 1
            runs.append([length, [float(v) for v in vec]])
            t += length
        dims.append(runs)
    return dims


def lp_rows_blocks(K: int, T: int, n: int, c_gamma: float):
    """Reference for ``gamma_step._lp_rows``: the reduced LP's matrix put
    together from ``sp.kron`` / ``sp.hstack`` / ``sp.vstack`` blocks, and its
    row lower and upper bounds.  For K = 2 only regime 0 gets difference rows,
    up and down columns and a budget row, and there are no simplex rows."""
    import scipy.sparse as sp

    B, n_simplex = (1, 0) if K == 2 else (K, T * n)     # budgeted regimes, simplex rows
    D = sp.kron(
        sp.diags([-np.ones(T), np.ones(T - 1)], [0, 1], shape=(T - 1, T)),
        sp.identity(n), format="csc")                    # (T-1)n x Tn temporal difference
    Zg = sp.csc_matrix(((T - 1) * n, T * n))
    Ze = sp.csc_matrix(((T - 1) * n, (T - 1) * n))
    Ie = sp.identity((T - 1) * n, format="csc")
    rows = []
    for k in range(B):
        # gamma[k,t+1,i] - gamma[k,t,i] - up[k,t,i] + down[k,t,i] = 0; the
        # eliminated regime's difference is minus the sum of the others'
        if k < K - 1:
            gblk = [Zg] * (K - 1)
            gblk[k] = D
        else:
            gblk = [-D] * (K - 1)
        ublk, dblk = [Ze] * B, [Ze] * B
        ublk[k], dblk[k] = -Ie, Ie
        rows.append(sp.hstack(gblk + ublk + dblk))
    if n_simplex:
        rows.append(sp.hstack([sp.identity(T * n, format="csc")] * (K - 1)
                              + [sp.csc_matrix((T * n, 2 * K * (T - 1) * n))]))
    ones = sp.csc_matrix(np.ones((1, (T - 1) * n)))
    zero1 = sp.csc_matrix((1, (T - 1) * n))
    for k in range(B):
        eblk = [zero1] * B
        eblk[k] = ones
        rows.append(sp.hstack([sp.csc_matrix((1, T * n))] * (K - 1) + eblk + eblk))
    m = B * (T - 1) * n
    lower = np.concatenate([np.zeros(m), np.full(n_simplex + B, -np.inf)])
    upper = np.concatenate([np.zeros(m), np.ones(n_simplex), np.full(B, float(c_gamma))])
    return sp.vstack(rows, format="csc"), lower, upper


def fit_lambda_two_loops(features: np.ndarray, w, c_lambda: float = np.inf,
                         tol: float = 1e-7, max_iter: int = 5000, warm_start=None):
    """Reference for ``lambda_step.fit_lambda``: the damped-Newton search and
    the projected-gradient search written as two loops, each with its own
    candidate evaluation, Armijo test, state update and trace append."""
    from tventropy.errors import EmptyRegime
    from tventropy.lambda_step import LambdaFit, _weighted_sums, project_l1_ball
    from tventropy.maxent import log_z_and_moments, validate_lambda

    m = features.shape[2]
    lam = np.zeros(m) if warm_start is None else validate_lambda(warm_start)
    S, W = _weighted_sums(features, w, lam)
    if W <= 0:
        raise EmptyRegime("cannot fit a regime with zero total weight")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu_hat = S / W
    lam = project_l1_ball(lam, c_lambda)

    log_z, mom = log_z_and_moments(lam, 2 * m)
    h = -(lam @ mu_hat + log_z)
    trace = [W * h]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = mom[:m] - mu_hat
        if np.abs(lam).sum() < c_lambda - tol:
            resid = g
        else:
            resid = project_l1_ball(lam + g, c_lambda) - lam
        if np.abs(resid).max() <= tol:
            converged = True
            break

        accepted = False
        idx = np.arange(m)
        H = mom[idx[:, None] + idx[None, :] + 1] - np.outer(mom[:m], mom[:m])
        try:
            d = np.linalg.solve(H + 1e-13 * np.eye(m), g)
        except np.linalg.LinAlgError:
            d = np.full(m, np.nan)
        if np.all(np.isfinite(d)) and g @ d > 0 and np.abs(lam + d).sum() <= c_lambda:
            t = 1.0
            for _ in range(30):
                cand = lam + t * d
                lz_n, mom_n = log_z_and_moments(cand, 2 * m)
                h_n = -(cand @ mu_hat + lz_n)
                if h_n >= h + 1e-4 * t * (g @ d) and h_n >= h:
                    lam, log_z, mom, h = cand, lz_n, mom_n, h_n
                    trace.append(W * h)
                    accepted = True
                    break
                t *= 0.5

        if not accepted:
            t = step
            for _ in range(60):
                cand = project_l1_ball(lam + t * g, c_lambda)
                delta = cand - lam
                lz_n, mom_n = log_z_and_moments(cand, 2 * m)
                h_n = -(cand @ mu_hat + lz_n)
                if h_n >= h + 1e-4 * (g @ delta) and h_n >= h:
                    lam, log_z, mom, h = cand, lz_n, mom_n, h_n
                    trace.append(W * h)
                    accepted = True
                    step = min(t * 2.0, 1e6)
                    break
                t *= 0.5
            if not accepted:
                converged = True
                break

    return LambdaFit(lam=lam, log_z=log_z, converged=converged, n_iter=it,
                     trace=trace, objective=W * h)
