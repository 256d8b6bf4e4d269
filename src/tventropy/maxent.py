"""Exponential-family maximum-entropy densities on [-1, 1].

A density is parameterised by a coefficient vector ``lam`` of length m,

    f(x) = exp(-(lam_1 x + lam_2 x^2 + ... + lam_m x^m)) / Z,
    Z    = integral_{-1}^{1} exp(-sum_j lam_j x^j) dx,

so the normalisation constant is never stored: log Z plays the role of the
zeroth coefficient.  One kernel, :func:`log_z_and_moments`, computes log Z
and the moments over a quadrature rule's nodes; the partition function, the
moments, the entropy and the lambda step all call it.  Values away from the
nodes (density, CDF, sampling grid) come from one integrand helper that
evaluates the polynomial by Horner's rule.  Every exponential is evaluated
with a shift so the routines stay finite for any coefficient magnitude.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError

MAX_ORDER = 12          # highest supported monomial degree
DEFAULT_QUAD_ORDER = 200
CDF_GRID_SIZE = 4097    # points of the tabulated CDF that ``sample`` inverts


@dataclass(frozen=True)
class QuadratureRule:
    """Quadrature nodes and weights on [-1, 1] with their node-power table.

    The table holds x_q^j for j = 1..2 * MAX_ORDER, built once per rule from
    its own nodes by repeated multiplication, since the solvers request node
    powers in tight loops.
    """

    nodes: np.ndarray
    weights: np.ndarray
    order: int
    _powers: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        table = np.empty((self.nodes.size, 2 * MAX_ORDER))
        table[:, 0] = self.nodes
        for j in range(1, 2 * MAX_ORDER):
            table[:, j] = table[:, j - 1] * self.nodes
        table.setflags(write=False)
        object.__setattr__(self, "_powers", table)

    def node_powers(self, j_max: int) -> np.ndarray:
        """Matrix of node powers x_q^j for j = 1..j_max, shape (order, j_max)."""
        if j_max <= 2 * MAX_ORDER:
            return self._powers[:, :j_max]
        return np.power.outer(self.nodes, np.arange(1, j_max + 1))


# cached: a pure function of one integer, rebuilt by every fit otherwise (~8 ms at 200 nodes)
@lru_cache(maxsize=32)
def gauss_legendre(order: int = DEFAULT_QUAD_ORDER) -> QuadratureRule:
    if order < 2:
        raise ValueError(f"quadrature order must be >= 2, got {order}")
    nodes, weights = np.polynomial.legendre.leggauss(order)
    nodes.setflags(write=False)
    weights.setflags(write=False)
    return QuadratureRule(nodes=nodes, weights=weights, order=order)


def validate_lambda(lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim != 1 or not 1 <= lam.size <= MAX_ORDER:
        raise ValueError(
            f"coefficient vector must be 1-D with 1..{MAX_ORDER} entries, got shape {lam.shape}"
        )
    if not np.isfinite(lam).all():
        raise ValueError("coefficient vector contains non-finite entries")
    return lam


def log_z_and_moments(lam: np.ndarray, quad: QuadratureRule, j_max: int):
    """ln Z and E[X^j] for j = 1..j_max (j_max >= lam.size) over the rule's nodes.

    The integrand s_q = -sum_j lam_j x_q^j is shifted by its maximum before
    exponentiating, and the weighted terms are normalised by their sum.
    """
    P = quad.node_powers(j_max)
    s = -P[:, : lam.size] @ lam
    smax = s.max()
    ew = quad.weights * np.exp(s - smax)
    z = ew.sum()
    return float(np.log(z)) + smax, (ew @ P) / z


def _neg_poly(lam: np.ndarray, x):
    """-sum_j lam_j x^j at any array of points, by Horner's rule."""
    return -np.polynomial.polynomial.polyval(x, np.concatenate(([0.0], lam)))


def _cdf_at(lam: np.ndarray, log_z: float, x: np.ndarray, quad: QuadratureRule):
    """P(X <= x) for points x in [-1, 1], the rule mapped onto each [-1, x].

    Reuses the same rule order on the subinterval, so x = 1 reproduces the
    full-interval normalisation up to rounding.
    """
    half = 0.5 * (x + 1.0)
    u = half[..., None] * (quad.nodes + 1.0) - 1.0          # [-1, 1] -> [-1, x]
    return half * (np.exp(_neg_poly(lam, u) - log_z) @ quad.weights)


def log_partition(lam, quad: QuadratureRule | None = None) -> float:
    """ln Z = ln integral exp(-sum_j lam_j x^j) dx over [-1, 1]."""
    lam = validate_lambda(lam)
    return log_z_and_moments(lam, quad or gauss_legendre(), lam.size)[0]


def density(lam, x, quad: QuadratureRule | None = None):
    """Density values at x (scalar or array); x must lie in [-1, 1]."""
    lam = validate_lambda(lam)
    quad = quad or gauss_legendre()
    x = np.asarray(x, dtype=float)
    if np.any(x < -1.0) or np.any(x > 1.0):
        raise DomainError("density evaluated outside [-1, 1]")
    out = np.exp(_neg_poly(lam, x) - log_partition(lam, quad))
    return float(out) if x.ndim == 0 else out


def moments(lam, quad: QuadratureRule | None = None, j_max: int | None = None) -> np.ndarray:
    """E[X^j] for j = 1..j_max under the density defined by ``lam``."""
    lam = validate_lambda(lam)
    quad = quad or gauss_legendre()
    j_max = j_max if j_max is not None else lam.size
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    return log_z_and_moments(lam, quad, max(j_max, lam.size))[1][:j_max]


def cdf(lam, x, quad: QuadratureRule | None = None) -> float:
    """P(X <= x), computed by mapping the quadrature rule onto [-1, x]."""
    lam = validate_lambda(lam)
    quad = quad or gauss_legendre()
    x = float(x)
    if x < -1.0 or x > 1.0:
        raise DomainError("cdf argument outside [-1, 1]")
    if x == -1.0:
        return 0.0
    val = _cdf_at(lam, log_partition(lam, quad), np.asarray(x), quad)
    return float(min(max(val, 0.0), 1.0))


def quantile(lam, alpha: float, quad: QuadratureRule | None = None) -> float:
    """Inverse CDF by bisection; alpha must lie strictly inside (0, 1).

    log Z is computed once and every step evaluates the CDF at the midpoint
    with :func:`_cdf_at`.  The bracket [-1, 1] halves exactly, so the loop
    stops after 45 halvings, once its width is at most 1e-13.
    """
    lam = validate_lambda(lam)
    quad = quad or gauss_legendre()
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {alpha}")
    log_z = log_z_and_moments(lam, quad, lam.size)[0]
    lo, hi = -1.0, 1.0
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _cdf_at(lam, log_z, np.asarray(mid), quad) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cdf_grid(lam: np.ndarray, quad: QuadratureRule):
    """CDF sampled on a uniform grid, for bulk inverse-CDF sampling."""
    xs = np.linspace(-1.0, 1.0, CDF_GRID_SIZE)
    vals = _cdf_at(lam, log_partition(lam, quad), xs, quad)
    vals[0], vals[-1] = 0.0, 1.0
    return xs, np.maximum.accumulate(np.clip(vals, 0.0, 1.0))


def sample(lam, count: int, seed: int, quad: QuadratureRule | None = None) -> np.ndarray:
    """i.i.d. draws by inverse-CDF applied to seeded uniform variates.

    The CDF is tabulated on a uniform grid of ``CDF_GRID_SIZE`` points over
    [-1, 1] and inverted by linear interpolation with ``np.interp``.
    """
    lam = validate_lambda(lam)
    quad = quad or gauss_legendre()
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    u = rng.random(count)
    xs, cg = _cdf_grid(lam, quad)
    return np.interp(u, cg, xs)


def entropy(lam, quad: QuadratureRule | None = None) -> float:
    """Differential entropy H = sum_j lam_j E[X^j] + ln Z."""
    lam = validate_lambda(lam)
    log_z, mom = log_z_and_moments(lam, quad or gauss_legendre(), lam.size)
    return float(lam @ mom) + log_z
