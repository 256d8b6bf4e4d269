"""Exponential-family maximum-entropy densities on [-1, 1].

A density is parameterised by a coefficient vector ``lam`` of length m,

    f(x) = exp(-(lam_1 x + lam_2 x^2 + ... + lam_m x^m)) / Z,
    Z    = integral_{-1}^{1} exp(-sum_j lam_j x^j) dx,

so the normalisation constant is never stored: log Z plays the role of the
zeroth coefficient.  Two fixed rules share the work.  The 200-node
Gauss-Legendre rule, built once at import with its node-power table, gives
log Z and the moments through one kernel, :func:`log_z_and_moments`, which
the partition function, the moments, the entropy, the lambda step and
``density``'s normaliser all call.  One CDF table gives ``cdf``,
``quantile`` and ``sample``: on a uniform grid of ``CDF_GRID_SIZE`` points,
each cell's mass is an 8-node Gauss-Legendre rule mapped onto the cell, and
inside a cell the same rule splits that mass at x.  Against closed forms
this CDF is accurate to about 1e-14, down to densities about as narrow as
one grid cell (4.9e-4).  Values away from the 200 nodes come from one
integrand helper that evaluates the polynomial by Horner's rule, and every
exponential is shifted so the routines stay finite for any coefficient
magnitude.  ``sample`` inverts the table through a guide table (:func:`_invert`).
"""

from __future__ import annotations

import numbers

import numpy as np

from .errors import DomainError

MAX_ORDER = 12          # highest supported monomial degree
CDF_GRID_SIZE = 4097    # points of the CDF table behind cdf, quantile and sample
GUIDE_SIZE = 2 ** 16    # buckets of u; a power of two keeps u * GUIDE_SIZE exact


def _build_rule():
    """The 200-node Gauss-Legendre rule with its node powers x^1..x^(2 MAX_ORDER).

    The power table is built by repeated multiplication of the nodes, since
    the solvers read node powers in tight loops.
    """
    nodes, weights = np.polynomial.legendre.leggauss(200)
    powers = np.empty((nodes.size, 2 * MAX_ORDER))
    powers[:, 0] = nodes
    for j in range(1, 2 * MAX_ORDER):
        powers[:, j] = powers[:, j - 1] * nodes
    for arr in (nodes, weights, powers):
        arr.setflags(write=False)
    return nodes, weights, powers


NODES, WEIGHTS, NODE_POWERS = _build_rule()
CELL_NODES, CELL_WEIGHTS = np.polynomial.legendre.leggauss(8)   # one CDF table cell


def validate_lambda(lam) -> np.ndarray:
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.ndim != 1 or not 1 <= lam.size <= MAX_ORDER:
        raise ValueError(
            f"coefficient vector must be 1-D with 1..{MAX_ORDER} entries, got shape {lam.shape}"
        )
    if not np.isfinite(lam).all():
        raise ValueError("coefficient vector contains non-finite entries")
    return lam


def log_z_and_moments(lam: np.ndarray, j_max: int):
    """ln Z and E[X^j] for j = 1..j_max (lam.size <= j_max <= 2 MAX_ORDER) over the nodes.

    The integrand s_q = -sum_j lam_j x_q^j is shifted by its maximum before
    exponentiating, and the weighted terms are normalised by their sum.
    """
    P = NODE_POWERS[:, :j_max]
    s = -P[:, : lam.size] @ lam
    smax = s.max()
    ew = WEIGHTS * np.exp(s - smax)
    z = ew.sum()
    return float(np.log(z)) + smax, (ew @ P) / z


def _neg_poly(lam: np.ndarray, x):
    """-sum_j lam_j x^j at any array of points, by Horner's rule."""
    return -np.polynomial.polynomial.polyval(x, np.concatenate(([0.0], lam)))


def log_partition(lam) -> float:
    """ln Z = ln integral exp(-sum_j lam_j x^j) dx over [-1, 1]."""
    lam = validate_lambda(lam)
    return log_z_and_moments(lam, lam.size)[0]


def density(lam, x):
    """Density values at x (scalar or array); x must lie in [-1, 1]."""
    lam = validate_lambda(lam)
    x = np.asarray(x, dtype=float)
    if not np.all((-1.0 <= x) & (x <= 1.0)):
        raise DomainError("density evaluated outside [-1, 1]")
    out = np.exp(_neg_poly(lam, x) - log_partition(lam))
    return float(out) if x.ndim == 0 else out


def moments(lam, j_max: int | None = None) -> np.ndarray:
    """E[X^j] for j = 1..j_max (at most 2 MAX_ORDER) under the density ``lam``."""
    lam = validate_lambda(lam)
    j_max = j_max if j_max is not None else lam.size
    if not 1 <= j_max <= 2 * MAX_ORDER:
        raise ValueError(f"j_max must be in 1..{2 * MAX_ORDER}, got {j_max}")
    return log_z_and_moments(lam, max(j_max, lam.size))[1][:j_max]


def cdf(lam, x) -> float:
    """P(X <= x), read from the per-cell CDF table; x must lie in [-1, 1]."""
    lam = validate_lambda(lam)
    x = float(x)
    if not -1.0 <= x <= 1.0:
        raise DomainError("cdf argument outside [-1, 1]")
    return _cdf_in_table(lam, *_cdf_grid(lam), x)


def quantile(lam, alpha: float) -> float:
    """Inverse CDF by bisection on the per-cell CDF table; alpha in (0, 1).

    The bracket starts at the table cell whose knot values enclose alpha:
    bisecting [-1, 1] lands on knots for 12 halvings and reaches the same
    cell.  It halves until its width is at most 1e-13, as that bisection would.
    """
    lam = validate_lambda(lam)
    if not 0.0 < alpha < 1.0:
        raise DomainError(f"quantile level must be in (0, 1), got {alpha}")
    xs, cg = _cdf_grid(lam)
    i = int(np.searchsorted(cg, alpha)) - 1
    lo, hi = float(xs[i]), float(xs[i + 1])
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        if _cdf_in_table(lam, xs, cg, mid) < alpha:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _cdf_grid(lam: np.ndarray):
    """The CDF on a uniform grid of ``CDF_GRID_SIZE`` points.

    Each cell's mass is the 8-node rule mapped onto the cell, with the
    integrand shifted by its maximum over all cells; the table is the
    cumulative sum of the masses from 0, divided by the total.  It thus
    starts at exactly 0, ends at exactly 1 and never falls.
    """
    xs = np.linspace(-1.0, 1.0, CDF_GRID_SIZE)
    s = _neg_poly(lam, xs[:-1, None] + (xs[1] - xs[0]) * 0.5 * (CELL_NODES + 1.0))
    mass = np.exp(s - s.max()) @ CELL_WEIGHTS
    cg = np.empty(CDF_GRID_SIZE)
    cg[0] = 0.0
    np.cumsum(mass, out=cg[1:])
    cg /= cg[-1]
    return xs, cg


def _cdf_in_table(lam: np.ndarray, xs: np.ndarray, cg: np.ndarray, x: float) -> float:
    """P(X <= x) from the table (xs, cg) of :func:`_cdf_grid`; x in [-1, 1].

    A knot gives its table value.  Inside cell i the cell's table mass is
    split in the ratio of the 8-node rule mapped onto [x_i, x] and onto
    [x, x_(i+1)], both shifted by their common maximum.  That share lies in
    [0, 1] by construction; a ratio to the whole cell's rule can pass 1 and
    falls with x inside a cell for densities narrower than the cell.
    """
    i = int(np.searchsorted(xs, x, side="right")) - 1
    if xs[i] == x:
        return float(cg[i])
    lo, width = np.array([xs[i], x]), np.array([x - xs[i], xs[i + 1] - x])
    s = _neg_poly(lam, lo[:, None] + width[:, None] * (0.5 * (CELL_NODES + 1.0)))
    below, above = width * (np.exp(s - s.max()) @ CELL_WEIGHTS)
    return float(cg[i] + below / (below + above) * (cg[i + 1] - cg[i]))


def _invert(xs: np.ndarray, cg: np.ndarray, u: np.ndarray) -> np.ndarray:
    """x with CDF(x) = u by linear interpolation in the table (xs, cg), in place on u.

    Each u in [0, 1) lies in the cell [cg[i], cg[i+1]) with i the last knot
    at or below u.  Bucket b of the guide table holds the u in
    [b, b + 1) / GUIDE_SIZE; if no knot falls in it, i is the same for all
    of its u and is read off the table, and the u of the other buckets are
    binary-searched.  The interpolation runs in the order
    x_i + (u - c_i) / (c_(i+1) - c_i) * (x_(i+1) - x_i).
    """
    edges = np.searchsorted(cg, np.arange(GUIDE_SIZE + 1) / GUIDE_SIZE, side="right")
    bucket = (u * GUIDE_SIZE).astype(np.intp)
    hit = np.flatnonzero((edges[1:] != edges[:-1])[bucket])
    idx = edges[bucket] - 1
    del bucket              # one array of count fewer at the peak of the gathers below
    idx[hit] = np.searchsorted(cg, u[hit], side="right") - 1
    u -= cg[idx]
    u /= np.diff(cg)[idx]
    u *= xs[1] - xs[0]      # every cell of the grid is 2 / (CDF_GRID_SIZE - 1) wide, exactly
    u += xs[idx]
    return u


def _require_integer(name: str, value, least: int) -> None:
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")


def sample(lam, count: int, seed: int) -> np.ndarray:
    """``count`` i.i.d. draws by inverse CDF applied to ``default_rng(seed).random(count)``.

    ``count`` must be a positive and ``seed`` a nonnegative integer.  The
    CDF table of :func:`_cdf_grid` is inverted by linear interpolation, with
    a guide table finding each draw's cell (:func:`_invert`).
    """
    lam = validate_lambda(lam)
    _require_integer("count", count, 1)
    _require_integer("seed", seed, 0)
    u = np.random.default_rng(seed).random(count)
    return _invert(*_cdf_grid(lam), u)


def entropy(lam) -> float:
    """Differential entropy H = sum_j lam_j E[X^j] + ln Z."""
    lam = validate_lambda(lam)
    log_z, mom = log_z_and_moments(lam, lam.size)
    return float(lam @ mom) + log_z
