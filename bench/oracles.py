"""Reference computations that the benchmark checks the program against.

Nothing here calls into ``tventropy``: the quadrature is a composite
Simpson rule on uniform grids refined until converged (the package uses
200 Gauss-Legendre nodes), the
affiliation LP keeps all K regimes with explicit simplex equalities (the
package eliminates the last regime), and the tests use ``scipy.stats``.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

SIMPSON_INTERVALS = 1 << 14          # first grid; doubled until converged
MAX_INTERVALS = 1 << 22
CONVERGED = 1e-13                     # change between grids, relative to the mass


def _poly(lam, x):
    """sum_j lam_j x^j for j = 1..m, by Horner's rule."""
    acc = np.zeros_like(x)
    for c in np.asarray(lam, dtype=float)[::-1]:
        acc = acc * x + c
    return acc * x


def _simpson(lo: float, hi: float, intervals: int):
    x = np.linspace(lo, hi, intervals + 1)
    w = np.full(intervals + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return x, w * (hi - lo) / (3.0 * intervals)


def _shift(lam) -> float:
    return float((-_poly(lam, np.linspace(-1.0, 1.0, SIMPSON_INTERVALS + 1))).max())


def _integrals(lam, lo: float, hi: float, j_max: int, shift: float) -> np.ndarray:
    """Integrals of x^j exp(-sum lam x^j - shift) over [lo, hi], j = 0..j_max.

    Simpson's rule on a grid that doubles until two successive results
    differ by less than CONVERGED times the zeroth integral; for large
    coefficients the first grid alone can be off by 1e-10.
    """
    prev = None
    n = SIMPSON_INTERVALS
    while n <= MAX_INTERVALS:
        x, w = _simpson(lo, hi, n)
        ew = w * np.exp(-_poly(lam, x) - shift)
        vals = np.array([ew.sum()] + [ew @ x ** j for j in range(1, j_max + 1)])
        if prev is not None and np.abs(vals - prev).max() <= CONVERGED * abs(vals[0]):
            return vals
        prev, n = vals, 2 * n
    raise RuntimeError(f"reference quadrature did not converge for lambda = {lam}")


def log_z(lam) -> float:
    """ln of the integral of exp(-sum_j lam_j x^j) over [-1, 1]."""
    shift = _shift(lam)
    return float(np.log(_integrals(lam, -1.0, 1.0, 0, shift)[0]) + shift)


def moments(lam, j_max: int) -> np.ndarray:
    """E[X^j], j = 1..j_max, under the density with coefficients lam."""
    vals = _integrals(lam, -1.0, 1.0, j_max, _shift(lam))
    return vals[1:] / vals[0]


def cdf(lam, q: float) -> float:
    """P(X <= q) for the density with coefficients lam, q in [-1, 1]."""
    if q <= -1.0:
        return 0.0
    shift = _shift(lam)
    total = _integrals(lam, -1.0, 1.0, 0, shift)[0]
    return float(_integrals(lam, -1.0, min(q, 1.0), 0, shift)[0] / total)


def log_density(lam, x, lz: float) -> np.ndarray:
    return -_poly(lam, np.asarray(x, dtype=float)) - lz


# ---------------------------------------------------------------- affiliations

def tv(gamma: np.ndarray) -> np.ndarray:
    """Per-regime total variation sum_{t,i} |gamma[k,t+1,i] - gamma[k,t,i]|."""
    return np.abs(np.diff(gamma, axis=1)).sum(axis=(1, 2))


def gamma_feasible(gamma: np.ndarray, c_gamma: float, tol: float = 1e-7) -> str | None:
    """None when gamma lies on the simplex and within every TV budget."""
    if gamma.min() < -1e-9:
        return f"negative affiliation {gamma.min():.3g}"
    dev = float(np.abs(gamma.sum(axis=0) - 1.0).max())
    if dev > 1e-9:
        return f"affiliations leave the simplex by {dev:.3g}"
    worst = float(tv(gamma).max())
    if worst > c_gamma + tol:
        return f"regime TV {worst:.9g} exceeds budget {c_gamma:.9g}"
    return None


def affiliation_lp(eff: np.ndarray, c_gamma: float) -> float:
    """Optimal value of max sum gamma * eff over the TV-budgeted simplex field.

    All K regimes are kept; the simplex is imposed by equality rows and the
    absolute differences by auxiliary variables eta >= |d gamma|.
    """
    K, T, n = eff.shape
    n_g = K * T * n
    n_e = K * (T - 1) * n
    g_idx = np.arange(n_g).reshape(K, T, n)
    e_idx = n_g + np.arange(n_e).reshape(K, T - 1, n)
    rows, cols, vals = [], [], []
    r = 0
    for sign in (1.0, -1.0):       # +-(gamma[t+1] - gamma[t]) - eta <= 0
        nxt, cur, eta = g_idx[:, 1:].ravel(), g_idx[:, :-1].ravel(), e_idx.ravel()
        ids = r + np.arange(nxt.size)
        rows += [ids, ids, ids]
        cols += [nxt, cur, eta]
        vals += [np.full(ids.size, sign), np.full(ids.size, -sign), np.full(ids.size, -1.0)]
        r += ids.size
    for k in range(K):             # sum_{t,i} eta[k] <= c_gamma
        rows.append(np.full(e_idx[k].size, r))
        cols.append(e_idx[k].ravel())
        vals.append(np.ones(e_idx[k].size))
        r += 1
    A_ub = sp.csr_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                         shape=(r, n_g + n_e))
    b_ub = np.concatenate([np.zeros(r - K), np.full(K, float(c_gamma))])
    eq_rows = np.tile(np.arange(T * n), K)
    A_eq = sp.csr_matrix((np.ones(n_g), (eq_rows, g_idx.ravel())), shape=(T * n, n_g + n_e))
    cost = np.concatenate([-eff.ravel(), np.zeros(n_e)])
    from scipy.optimize import linprog
    res = linprog(cost, A_ub=A_ub, b_ub=b_ub, A_eq=A_eq, b_eq=np.ones(T * n),
                  bounds=(0.0, None), method="highs",
                  options={"primal_feasibility_tolerance": 1e-10,
                           "dual_feasibility_tolerance": 1e-10})
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return -float(res.fun)


def lp_gap(eff: np.ndarray, c_gamma: float, gamma: np.ndarray) -> float:
    """Relative shortfall of gamma's objective against the reference optimum."""
    opt = affiliation_lp(eff, c_gamma)
    got = float((gamma * eff).sum())
    return (opt - got) / max(1.0, abs(opt))


# ------------------------------------------------------------- model counting

def segments(hard: np.ndarray) -> int:
    """Maximal constant runs of a (T, n) label path, summed over dimensions."""
    return int(hard.shape[1] + (np.diff(hard, axis=0) != 0).sum())


def param_count(lambdas: np.ndarray, gamma: np.ndarray, eps_sparse: float) -> int:
    active = int((np.abs(lambdas) >= eps_sparse).sum())
    return active + (gamma.shape[0] - 1) * segments(gamma.argmax(axis=0))


def objective(lambdas: np.ndarray, gamma: np.ndarray, scaled: np.ndarray) -> float:
    """sum_k sum_{t,i} gamma[k,t,i] ln f_k(x_{t,i}) with reference log Z."""
    return float(sum((gamma[k] * log_density(lambdas[k], scaled, log_z(lambdas[k]))).sum()
                     for k in range(gamma.shape[0])))


def close(a: float, b: float, rel: float, abs_: float = 0.0) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


# --------------------------------------------------------------- coverage

def kupiec(x: int, t_out: int, p: float) -> tuple[float, float]:
    """Kupiec unconditional-coverage LR and its chi-square(1) p-value."""
    def xlogy(a, b):
        return 0.0 if a == 0 else a * math.log(b)
    p_hat = x / t_out
    lr = (-2.0 * (xlogy(t_out - x, 1.0 - p) + xlogy(x, p))
          + 2.0 * (xlogy(t_out - x, 1.0 - p_hat) + xlogy(x, p_hat)))
    lr = max(lr, 0.0)
    from scipy.stats import chi2
    return lr, float(chi2.sf(lr, 1))
