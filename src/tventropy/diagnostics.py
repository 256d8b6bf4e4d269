"""Validation tooling: synthetic cases, error metrics, ACF analysis and the
latent transition graph.

The synthetic generator reproduces the two-regime Gaussian test system
(variance 1 against a chosen variance, switching every ``switch_period``
points).  Classification error compares hardened regime paths up to label
permutation; relative error compares reconstructed variance signals.  The
Gaussian moving window estimator serves as the rolling-variance baseline.

The transition analysis turns each asset's fitted regime path into binary
up/down volatility jump series and tests lagged co-occurrence between assets
with Fisher's exact test (computed exactly in integer arithmetic).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass

import numpy as np

from .errors import DegenerateSeries
from .estimator import FitResult
from .maxent import gauss_legendre, moments, sample
from .panel import Panel, ScalingMap


@dataclass(frozen=True)
class SyntheticCase:
    """A generated panel with its ground-truth regime path and variance."""

    panel: Panel
    gamma_true: np.ndarray      # (K, T, 1) binary
    v_true: np.ndarray          # (T,) variance of the generating regime


def gen_two_regime_gaussian(v2: float, T: int = 1000, switch_period: int = 250,
                            seed: int = 0) -> SyntheticCase:
    """Alternating-block sample: N(0,1) blocks and N(0, v2) blocks.

    Blocks of ``switch_period`` points alternate between the two regimes,
    so T = 1000 with period 250 gives three transitions.
    """
    if v2 <= 0:
        raise ValueError("v2 must be positive")
    rng = np.random.default_rng(seed)
    regime = (np.arange(T) // switch_period) % 2
    v_true = np.where(regime == 0, 1.0, float(v2))
    x = rng.standard_normal(T) * np.sqrt(v_true)
    gamma_true = np.zeros((2, T, 1))
    gamma_true[regime, np.arange(T), 0] = 1.0
    return SyntheticCase(panel=Panel(values=x[:, None]), gamma_true=gamma_true,
                         v_true=v_true)


def classification_error(gamma_true: np.ndarray, gamma_est: np.ndarray) -> float:
    """Fraction of mismatched hard labels, minimised over label permutations."""
    if gamma_true.shape != gamma_est.shape:
        raise ValueError("affiliation fields must have identical shapes")
    true_hard = gamma_true.argmax(axis=0)
    est_hard = gamma_est.argmax(axis=0)
    K = gamma_true.shape[0]
    best = 1.0
    for perm in itertools.permutations(range(K)):
        relabeled = np.asarray(perm)[est_hard]
        best = min(best, float(np.mean(relabeled != true_hard)))
    return best


def relative_error(v_true, v_est) -> float:
    """||v_est - v_true||_2 / ||v_true||_2."""
    v_true = np.asarray(v_true, dtype=float)
    v_est = np.asarray(v_est, dtype=float)
    if v_true.shape != v_est.shape:
        raise ValueError("variance signals must have identical shapes")
    denom = np.linalg.norm(v_true)
    if denom == 0:
        raise ValueError("true variance signal has zero norm")
    return float(np.linalg.norm(v_est - v_true) / denom)


def regime_variances(fit_result: FitResult, scaling: ScalingMap, i: int = 0) -> np.ndarray:
    """Per-regime variance in return units: Var_scaled / a_i^2."""
    quad = gauss_legendre(fit_result.config.quad_order)
    out = np.empty(fit_result.k)
    for k in range(fit_result.k):
        mom = moments(fit_result.lambdas[k], quad, 2)
        out[k] = (mom[1] - mom[0] ** 2) / scaling.a[i] ** 2
    return out


def variance_path(fit_result: FitResult, scaling: ScalingMap, i: int = 0) -> np.ndarray:
    """Affiliation-weighted variance signal v_t = sum_k gamma[k,t,i] v_k."""
    v_k = regime_variances(fit_result, scaling, i)
    return fit_result.gamma[:, :, i].T @ v_k


def gmw_variance(x, bandwidth: int = 50) -> np.ndarray:
    """Centred rolling sample variance with window 2b+1, truncated at borders."""
    x = np.asarray(x, dtype=float)
    if bandwidth < 2:
        raise ValueError("bandwidth must be >= 2")
    T = x.size
    out = np.empty(T)
    for t in range(T):
        lo = max(0, t - bandwidth)
        hi = min(T, t + bandwidth + 1)
        out[t] = np.var(x[lo:hi], ddof=1)
    return out


def acf_abs(x, d: float = 1.0, max_lag: int = 50) -> np.ndarray:
    """Sample autocorrelation of |x|^d at lags 1..max_lag, along the last axis.

    ``x`` is one series of shape (T,) or a stack of series of shape (S, T);
    the result has shape (max_lag,) or (S, max_lag).  Raises
    DegenerateSeries if any series has constant |x|^d.
    """
    x = np.asarray(x, dtype=float)
    T = x.shape[-1]
    if max_lag >= T:
        raise ValueError("max_lag must be smaller than the series length")
    y = np.abs(x) ** d
    yc = y - y.mean(axis=-1, keepdims=True)
    denom = np.einsum("...t,...t->...", yc, yc)
    if np.any(denom <= 1e-300 * T):
        raise DegenerateSeries("series |x|^d is constant; autocorrelation undefined")
    lags = [np.einsum("...t,...t->...", yc[..., :-lag], yc[..., lag:])
            for lag in range(1, max_lag + 1)]
    return np.stack(lags, axis=-1) / denom[..., None]


def acf_bands(rho, T: int) -> tuple[np.ndarray, np.ndarray]:
    """Half-widths of the 95% confidence bands at each lag.

    The i.i.d. band is the constant 1.96/sqrt(T); the Bartlett band at lag l
    assumes an MA(l-1) process, 1.96 * sqrt((1 + 2 sum_{j<l} rho_j^2) / T).
    """
    rho = np.asarray(rho, dtype=float)
    iid = np.full(rho.size, 1.96 / math.sqrt(T))
    cum = np.concatenate([[0.0], np.cumsum(rho ** 2)[:-1]])
    ma = 1.96 * np.sqrt((1.0 + 2.0 * cum) / T)
    return iid, ma


def _simulate_dim(fit_result: FitResult, i: int, n_samples: int, seed: int) -> np.ndarray:
    """(n_samples, T) scaled draws along dimension i's fitted hard regime path."""
    hard = fit_result.hard_path()[:, i]
    quad = gauss_legendre(fit_result.config.quad_order)
    sims = np.empty((n_samples, hard.size))
    for k in range(fit_result.k):
        pos = np.nonzero(hard == k)[0]
        if pos.size == 0:
            continue
        draws = sample(fit_result.lambdas[k], n_samples * pos.size,
                       seed=seed + k, quad=quad)
        sims[:, pos] = draws.reshape(n_samples, pos.size)
    return sims


def simulate_panels(fit_result: FitResult, scaling: ScalingMap | None = None,
                    n_samples: int = 1, seed: int = 0) -> np.ndarray:
    """(n_samples, T, n) draws from the fitted model along its regime paths.

    With a scaling map the draws are mapped back into return units.
    """
    out = np.stack([_simulate_dim(fit_result, i, n_samples, seed + 1000003 * i)
                    for i in range(fit_result.shape[1])], axis=-1)
    return out if scaling is None else scaling.invert(out)


def simulated_acf(fit_result: FitResult, n_samples: int = 1000, d: float = 1.0,
                  max_lag: int = 50, seed: int = 0, i: int = 0,
                  scaling: ScalingMap | None = None) -> np.ndarray:
    """Mean sample ACF of |x|^d over panels simulated from the fitted model.

    The fitted regime path is held fixed (the model is conditionally i.i.d.
    given the affiliations); each simulated panel draws every observation
    from its regime's density, and :func:`acf_abs` takes the ACF of each.
    Passing the scaling map computes the ACF in return units, matching an
    ACF taken on the raw data.
    """
    if max_lag >= fit_result.shape[0]:
        raise ValueError("max_lag must be smaller than the fitted length")
    sims = _simulate_dim(fit_result, i, n_samples, seed)
    if scaling is not None:
        sims = (sims - scaling.b[i]) / scaling.a[i]
    return acf_abs(sims, d, max_lag).mean(axis=0)


def jump_series(fit_result: FitResult, scaling: ScalingMap, i: int = 0):
    """Binary up/down volatility jump indicators along the hard regime path.

    With v_t the variance of the regime that ``fit_result.hard_path()[:, i]``
    holds at t, up[t] = 1 where v_t > v_{t-1} and down[t] = 1 where
    v_t < v_{t-1}; both are 0 at t = 0 and wherever the variance is equal.
    """
    v = regime_variances(fit_result, scaling, i)[fit_result.hard_path()[:, i]]
    up = np.concatenate(([0], v[1:] > v[:-1])).astype(int)
    down = np.concatenate(([0], v[1:] < v[:-1])).astype(int)
    return up, down


@dataclass(frozen=True)
class ContingencyTable2x2:
    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if min(self.a, self.b, self.c, self.d) < 0:
            raise ValueError("contingency counts must be nonnegative")
        if self.a + self.b + self.c + self.d < 1:
            raise ValueError("contingency table must contain at least one count")


def fisher_exact(table: ContingencyTable2x2) -> float:
    """Two-sided Fisher's exact test, computed in exact integer arithmetic.

    Sums the hypergeometric probabilities of every table with the observed
    margins whose probability does not exceed the observed one.  Because all
    candidate probabilities share the denominator C(N, r1), the comparison
    and the sum run over integer numerators, so ties are resolved exactly.
    """
    a, b, c, d = table.a, table.b, table.c, table.d
    r1, c1, N = a + b, a + c, a + b + c + d
    lo = max(0, r1 + c1 - N)
    hi = min(r1, c1)
    if lo == hi:
        return 1.0
    num_obs = math.comb(c1, a) * math.comb(N - c1, r1 - a)
    total = 0
    for aa in range(lo, hi + 1):
        num = math.comb(c1, aa) * math.comb(N - c1, r1 - aa)
        if num <= num_obs:
            total += num
    return float(total / math.comb(N, r1))


@dataclass(frozen=True)
class GraphEdge:
    source: str
    target: str
    direction: str              # "up/up", "up/down", "down/up", "down/down"
    lag: int
    p_value: float


@dataclass
class RelationGraph:
    nodes: tuple[str, ...]
    edges: list[GraphEdge]

    def to_json_obj(self) -> dict:
        return {
            "schema": 1,
            "nodes": list(self.nodes),
            "edges": [asdict(e) for e in self.edges],
        }

    def to_dot(self) -> str:
        lines = ["digraph transitions {"]
        for node in self.nodes:
            lines.append(f'  "{node}";')
        for e in self.edges:
            lines.append(
                f'  "{e.source}" -> "{e.target}" '
                f'[label="{e.direction} lag={e.lag} p={e.p_value:.2e}"];')
        lines.append("}")
        return "\n".join(lines) + "\n"


def lagged_table(source: np.ndarray, target: np.ndarray, lag: int) -> ContingencyTable2x2:
    """2x2 co-occurrence table of (source jump at t, target jump at t + lag)."""
    if lag < 0:
        raise ValueError("lag must be nonnegative")
    s = source[: source.size - lag] if lag else source
    t = target[lag:]
    a = int(np.sum((s == 1) & (t == 1)))
    b = int(np.sum((s == 1) & (t == 0)))
    c = int(np.sum((s == 0) & (t == 1)))
    d = int(np.sum((s == 0) & (t == 0)))
    return ContingencyTable2x2(a, b, c, d)


def transition_graph(jumps: dict[str, tuple[np.ndarray, np.ndarray]],
                     max_lag: int = 5, p_threshold: float = 0.01) -> RelationGraph:
    """Relation graph over assets from their up/down jump series.

    For every ordered pair of assets, direction pair and lag in 0..max_lag,
    the lagged co-occurrence table is tested with Fisher's exact test; an
    edge is kept at the lag minimising the p-value when that minimum is at or
    below the threshold.
    """
    names = tuple(jumps.keys())
    lengths = {name: jumps[name][0].size for name in names}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"jump series must share one length, got {lengths}")
    if len(names) < 2:
        return RelationGraph(nodes=names, edges=[])
    edges: list[GraphEdge] = []
    directions = [("up", 0), ("down", 1)]
    for src, tgt in itertools.permutations(names, 2):
        for (dname_s, ds), (dname_t, dt) in itertools.product(directions, directions):
            best_p, best_lag = 2.0, -1
            for lag in range(max_lag + 1):
                tab = lagged_table(jumps[src][ds], jumps[tgt][dt], lag)
                p = fisher_exact(tab)
                if p < best_p:
                    best_p, best_lag = p, lag
            if best_p <= p_threshold:
                edges.append(GraphEdge(source=src, target=tgt,
                                       direction=f"{dname_s}/{dname_t}",
                                       lag=best_lag, p_value=best_p))
    edges.sort(key=lambda e: (e.p_value, e.source, e.target, e.direction))
    return RelationGraph(nodes=names, edges=edges)
