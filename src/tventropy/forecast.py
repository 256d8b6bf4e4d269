"""Online regime tracking, one-day-ahead VaR and the coverage backtest."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .estimator import FitResult
from .maxent import quantile
from .panel import ScalingMap


def assign_regime_online(fit_result: FitResult, x_new: float, k_prev: int = 0,
                         switch_penalty: float = 0.0) -> int:
    """Most likely regime for one new scaled observation, in any dimension.

    Pure per-point maximum likelihood under the regime coefficients, which
    every dimension shares; ties go to the previous regime, then to the
    lowest index.  ``switch_penalty`` (log-density units) is
    subtracted from every regime other than ``k_prev`` to add persistence.
    """
    if not np.isfinite(x_new):
        raise ValueError(f"observation must be finite, got {x_new}")
    x = float(np.clip(x_new, -1.0, 1.0))
    K, m = fit_result.lambdas.shape
    powers = x ** np.arange(1, m + 1)
    scores = -(fit_result.lambdas @ powers + fit_result.log_z)
    scores = scores - switch_penalty * (np.arange(K) != k_prev)
    best = scores.max()
    tied = np.nonzero(scores >= best - 1e-12)[0]
    if k_prev in tied:
        return int(k_prev)
    return int(tied[0])


def var_forecast(fit_result: FitResult, k: int, alpha: float,
                 scaling: ScalingMap, i: int = 0) -> float:
    """Value-at-Risk at coverage ``alpha`` under regime k, in return units.

    The left-tail quantile at level 1 - alpha is mapped back through the
    inverse scaling; a violation at t+1 means return_{t+1} < -VaR.  ``k``
    must index a regime and ``i`` a dimension of the scaling.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0 <= k < fit_result.k:
        raise ValueError(f"regime k must be in 0..{fit_result.k - 1}, got {k}")
    if not 0 <= i < scaling.a.size:
        raise ValueError(f"dimension i must be in 0..{scaling.a.size - 1}, got {i}")
    q_scaled = quantile(fit_result.lambdas[k], 1.0 - alpha)
    q_return = (q_scaled - scaling.b[i]) / scaling.a[i]
    return -q_return


def kupiec_test(x: int, t_out: int, p_target: float) -> tuple[float, float]:
    """Unconditional coverage likelihood-ratio test.

    LR = -2 [ (T-x) ln(1-p) + x ln p ] + 2 [ (T-x) ln(1-x/T) + x ln(x/T) ],
    with the convention 0 * ln 0 = 0; the p-value is the chi-square(1) upper
    tail of LR, Q(1/2, LR/2) = erfc(sqrt(LR/2)) in closed form.
    """
    if not 0 <= x <= t_out or t_out < 1:
        raise ValueError("violation count must satisfy 0 <= x <= t_out")
    if not 0.0 < p_target < 1.0:
        raise ValueError("p_target must be in (0, 1)")

    def xlogy(a: float, b: float) -> float:
        return 0.0 if a == 0 else a * np.log(b)

    p_hat = x / t_out
    lr = (-2.0 * (xlogy(t_out - x, 1.0 - p_target) + xlogy(x, p_target))
          + 2.0 * (xlogy(t_out - x, 1.0 - p_hat) + xlogy(x, p_hat)))
    lr = max(lr, 0.0)
    p_value = math.erfc(math.sqrt(lr / 2.0))
    return float(lr), p_value


@dataclass
class VarBacktestResult:
    """Kupiec test per (dimension, coverage level)."""

    labels: tuple[str, ...]
    alphas: tuple[float, ...]
    t_out: int
    violations: np.ndarray        # (n, len(alphas)) integer counts
    coverage: np.ndarray          # violations / t_out
    lr: np.ndarray
    p_value: np.ndarray

    def rows(self):
        for i, label in enumerate(self.labels):
            for j, alpha in enumerate(self.alphas):
                yield {
                    "dimension": label,
                    "alpha": alpha,
                    "violations": int(self.violations[i, j]),
                    "t_out": self.t_out,
                    "coverage": float(self.coverage[i, j]),
                    "lr": float(self.lr[i, j]),
                    "p_value": float(self.p_value[i, j]),
                }


def backtest(fit_result: FitResult, scaling: ScalingMap, panel_out,
             alphas=(0.95, 0.99), switch_penalty: float = 0.0,
             labels=None) -> VarBacktestResult:
    """Walk-forward VaR backtest on out-of-sample returns.

    For each test point the VaR comes from the regime tracked so far (seeded
    by the last in-sample argmax regime); the regime is then confirmed or
    corrected with the newly observed point.  Violations aggregate into the
    Kupiec unconditional coverage test per dimension and level.
    """
    out = np.asarray(panel_out, dtype=float)
    if out.ndim == 1:
        out = out[:, None]
    t_out, n = out.shape
    if t_out < 1:
        raise ValueError("out-of-sample panel is empty")
    if n != fit_result.shape[1]:
        raise ValueError(f"out-of-sample panel has {n} column(s) but the model has "
                         f"{fit_result.shape[1]}")
    if not np.all(np.isfinite(out)):
        raise ValueError("out-of-sample panel must be finite")
    alphas = tuple(float(a) for a in alphas)
    labels = tuple(labels) if labels else tuple(f"x{i + 1}" for i in range(n))

    # per-regime VaR thresholds are constant over the walk; precompute
    thresholds = np.empty((fit_result.k, n, len(alphas)))
    for k in range(fit_result.k):
        for i in range(n):
            for j, alpha in enumerate(alphas):
                thresholds[k, i, j] = var_forecast(fit_result, k, alpha, scaling, i)

    violations = np.zeros((n, len(alphas)), dtype=int)
    scaled = scaling.apply(out, clip=True)
    for i in range(n):
        k_cur = int(fit_result.gamma[:, -1, i].argmax())
        for t in range(t_out):
            violations[i] += out[t, i] < -thresholds[k_cur, i]
            k_cur = assign_regime_online(fit_result, scaled[t, i], k_cur,
                                         switch_penalty=switch_penalty)

    coverage = violations / t_out
    lr = np.zeros_like(coverage)
    p_value = np.zeros_like(coverage)
    for i in range(n):
        for j, alpha in enumerate(alphas):
            lr[i, j], p_value[i, j] = kupiec_test(int(violations[i, j]), t_out,
                                                  1.0 - alpha)
    return VarBacktestResult(labels=labels, alphas=alphas, t_out=t_out,
                             violations=violations, coverage=coverage,
                             lr=lr, p_value=p_value)
