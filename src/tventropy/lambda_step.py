"""Regime-wise density fitting: maximise the weight-averaged log-likelihood.

For one regime with point weights w >= 0 over the scaled panel, the objective

    g(lam) = -sum_{t,i} w_{t,i} (sum_j lam_j x_{t,i}^j + ln Z(lam))
           = -(lam . S + W ln Z),   S_j = sum w x^j,  W = sum w,

is concave in lam (ln Z is a log-partition).  ``fit_lambda`` maximises it
subject to |lam|_1 <= c_lambda with a projected ascent scheme: one Armijo
backtracking search over one of two step paths.  When the full Newton point
lies in the l1 ball, the path is the damped Newton step (the ball is convex,
so every candidate lies in it).  Otherwise, or when no Newton candidate
passes, it is the projected-gradient step, which owns the boundary.  The
damping matters for high moment orders, whose monomial covariance is badly
conditioned: from a far start the full step overshoots, and plain gradient
ascent crawls.  A candidate is accepted when h_new >= h + 1e-4 gain, with
gain the step's first-order increase.  The Newton gain is positive (the
search runs only when g . d > 0), and the projected-gradient gain is
nonnegative in exact arithmetic; where rounding makes it negative, 1e-4 gain
lies far below the resolution of h, so h + 1e-4 gain rounds to h.  Either
way the test asks h_new >= h, and the iterate trace is monotone.  An
infinite ``c_lambda`` runs the same code: the ball test always passes and
projecting is a copy.

log Z and the moments, and so the Newton system's monomial covariance, come
from the density engine's one kernel, :func:`.maxent.log_z_and_moments`,
over its fixed 200-node Gauss-Legendre rule.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyRegime
from .maxent import MAX_ORDER, log_z_and_moments, validate_lambda

DEFAULT_TOL = 1e-7
DEFAULT_MAX_ITER = 5000


def feature_matrix(values: np.ndarray, m: int) -> np.ndarray:
    """Monomial features x_{t,i}^j for j = 1..m; shape (T, n, m)."""
    values = np.asarray(values, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    if not 1 <= m <= MAX_ORDER:
        raise ValueError(f"moment order must be in 1..{MAX_ORDER}, got {m}")
    if not np.all(np.abs(values) <= 1.0 + 1e-12):
        raise ValueError("feature matrix requires finite values scaled into [-1, 1]; "
                         "run rescale first")
    return np.power.outer(np.clip(values, -1.0, 1.0), np.arange(1, m + 1))


def _weighted_sums(features: np.ndarray, w: np.ndarray, lam: np.ndarray):
    """S and W, once w and the coefficient length are checked against the features."""
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    if w.shape != features.shape[:2]:
        raise ValueError(f"weight shape {w.shape} does not match features {features.shape[:2]}")
    if np.any(w < 0):
        raise ValueError("weights must be nonnegative")
    S = np.tensordot(w, features, axes=([0, 1], [0, 1]))
    if not np.all(np.isfinite(S)):
        raise ValueError("features and weights must be finite")
    if lam.size != features.shape[2]:
        raise ValueError("coefficient length does not match feature order")
    return S, float(w.sum())


def weighted_loglik(lam, features: np.ndarray, w) -> float:
    """-(lam . S + W ln Z): the gamma-weighted log-likelihood of one regime."""
    lam = validate_lambda(lam)
    S, W = _weighted_sums(features, w, lam)
    log_z, _ = log_z_and_moments(lam, lam.size)
    return float(-(lam @ S + W * log_z))


def loglik_gradient(lam, features: np.ndarray, w) -> np.ndarray:
    """Gradient of the objective: component j is W * (E_lam[X^j] - mu_hat_j)."""
    lam = validate_lambda(lam)
    S, W = _weighted_sums(features, w, lam)
    if W <= 0:
        raise EmptyRegime("gradient undefined for zero total weight")
    _, mom = log_z_and_moments(lam, lam.size)
    return W * mom - S


def project_l1_ball(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto {x : |x|_1 <= radius} (sort-based, exact)."""
    v = np.asarray(v, dtype=float)
    if not radius >= 0:
        raise ValueError(f"radius must be nonnegative, got {radius}")
    if radius == 0:
        return np.zeros_like(v)
    a = np.abs(v)
    if a.sum() <= radius:
        return v.copy()
    u = np.sort(a)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    rho = np.nonzero(u - (css - radius) / ks > 0)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(a - theta, 0.0)


@dataclass
class LambdaFit:
    """Solution of one regime subproblem."""

    lam: np.ndarray
    log_z: float
    converged: bool
    n_iter: int
    trace: list[float]          # weighted log-likelihood after each accepted step
    objective: float


def _armijo_search(path, t: float, tries: int, h: float, mu_hat: np.ndarray, j_max: int):
    """The first of path(t), path(t/2), ... (at most ``tries``), each a
    (candidate, gain) pair, with h_new >= h + 1e-4 gain, as (t, candidate,
    log Z, moments, h_new); None when every try fails.  The gains
    ``fit_lambda`` passes make this test imply h_new >= h (module docstring)."""
    for _ in range(tries):
        cand, gain = path(t)
        log_z, mom = log_z_and_moments(cand, j_max)
        h_new = -(cand @ mu_hat + log_z)
        if h_new >= h + 1e-4 * gain:
            return t, cand, log_z, mom, h_new
        t *= 0.5
    return None


def fit_lambda(features: np.ndarray, w, c_lambda: float = np.inf,
               tol: float = DEFAULT_TOL, max_iter: int = DEFAULT_MAX_ITER,
               warm_start=None) -> LambdaFit:
    """Maximise the weighted log-likelihood subject to |lam|_1 <= c_lambda.

    Each iteration backtracks from a first step t, halving it, to the first
    candidate with h_new >= h + 1e-4 gain: lam + t d with gain t (g . d) > 0
    from t = 1 when the full Newton point lam + d lies in the l1 ball;
    otherwise, or when no Newton candidate passes, P(lam + t g) with gain
    g . (P(lam + t g) - lam), which is >= 0 up to rounding, from twice the
    last accepted such t.  No accepted step lowers h, so ``trace`` is
    nondecreasing.

    Raises EmptyRegime when the weights carry no mass.  If the iteration
    budget runs out the best iterate is returned with ``converged=False``
    rather than raising.
    """
    m = features.shape[2]
    lam = np.zeros(m) if warm_start is None else validate_lambda(warm_start)
    S, W = _weighted_sums(features, w, lam)
    if W <= 0:
        raise EmptyRegime("cannot fit a regime with zero total weight")
    if tol <= 0:
        raise ValueError("tol must be positive")
    mu_hat = S / W
    lam = project_l1_ball(lam, c_lambda)        # a new array: never aliases warm_start

    log_z, mom = log_z_and_moments(lam, 2 * m)
    h = -(lam @ mu_hat + log_z)                 # objective per unit weight
    trace = [W * h]
    step = 1.0
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        g = mom[:m] - mu_hat                    # ascent gradient of h

        # stationarity: plain gradient when strictly interior, projected
        # gradient residual when the l1 constraint may be active
        if np.abs(lam).sum() < c_lambda - tol:
            resid = g
        else:
            resid = project_l1_ball(lam + g, c_lambda) - lam
        if np.abs(resid).max() <= tol:
            converged = True
            break

        # Newton candidate: Hessian of ln Z is the monomial covariance matrix
        idx = np.arange(m)
        H = mom[idx[:, None] + idx[None, :] + 1] - np.outer(mom[:m], mom[:m])
        try:
            d = np.linalg.solve(H + 1e-13 * np.eye(m), g)
        except np.linalg.LinAlgError:
            d = np.full(m, np.nan)
        found = None
        if np.all(np.isfinite(d)) and g @ d > 0 and np.abs(lam + d).sum() <= c_lambda:
            # damped Newton; the ball is convex, so every lam + t d (t <= 1) is in it
            found = _armijo_search(lambda t: (lam + t * d, t * (g @ d)), 1.0, 30, h, mu_hat, 2 * m)
        if found is None:
            def gradient_path(t):
                cand = project_l1_ball(lam + t * g, c_lambda)
                return cand, g @ (cand - lam)
            found = _armijo_search(gradient_path, step, 60, h, mu_hat, 2 * m)
            if found is None:
                # no improving step at float resolution: treat as stationary
                converged = True
                break
            step = min(found[0] * 2.0, 1e6)
        _, lam, log_z, mom, h = found
        trace.append(W * h)

    return LambdaFit(lam=lam, log_z=log_z, converged=converged, n_iter=it,
                     trace=trace, objective=W * h)


def sparsify(lam, eps_sparse: float = 1e-5):
    """Zero out coefficients below eps_sparse; returns (vector, active count)."""
    lam = validate_lambda(lam)
    if eps_sparse < 0:
        raise ValueError("eps_sparse must be nonnegative")
    out = np.where(np.abs(lam) < eps_sparse, 0.0, lam)
    return out, int(np.count_nonzero(out))
