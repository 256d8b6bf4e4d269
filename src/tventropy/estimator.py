"""Alternating estimation of regime densities and affiliations.

``fit`` runs the subspace iteration: with the affiliation field fixed, each
regime's coefficient vector solves an independent concave problem
(:mod:`.lambda_step`); with the coefficients fixed, the affiliations solve a
linear program (:mod:`.gamma_step`).  Both half-steps can only improve the
joint objective

    L = sum_k sum_{t,i} gamma[k,t,i] * ln f_k(x_{t,i}),

so the iteration trace is monotone and converges to a local maximum.

``anneal`` restarts the iteration from random block-constant affiliations and
keeps the best local optimum.  ``grid_search`` wraps the two-stage model
selection: regimes and switch budget first (no l1 bound), then the l1 bounds,
both chosen by BIC.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .gamma_step import AffiliationSolver, build_scores
from .lambda_step import DEFAULT_TOL, feature_matrix, fit_lambda, project_l1_ball, sparsify
from .maxent import MAX_ORDER, log_partition
from .panel import Panel


@dataclass(frozen=True)
class ModelConfig:
    """Estimation settings for one model cell."""

    k: int = 2                      # number of regimes
    c_gamma: float = 3.0            # switch budget per regime
    c_lambda: tuple | float = math.inf   # l1 bound(s); scalar broadcasts over regimes
    m: int = 6                      # moment order
    n_anneal: int = 10
    seed: int = 0
    eps_sparse: float = 1e-5
    tol_lambda: float = DEFAULT_TOL

    def __post_init__(self):
        if self.k < 1:
            raise ValueError("need at least one regime")
        if not 1 <= self.m <= MAX_ORDER:
            raise ValueError(f"moment order must be in 1..{MAX_ORDER}")
        if self.n_anneal < 1:
            raise ValueError("n_anneal must be >= 1")
        if math.isinf(self.c_gamma):
            raise ValueError("c_gamma must be finite; a budget of (T-1)n already leaves "
                             "switching free")
        if not (self.c_gamma >= 0 and self.eps_sparse >= 0 and self.tol_lambda > 0):
            raise ValueError("c_gamma and eps_sparse must be nonnegative, tol_lambda positive")
        self.c_lambda_per_regime()

    def c_lambda_per_regime(self) -> np.ndarray:
        c = np.asarray(self.c_lambda, dtype=float)
        if c.ndim == 0:
            c = np.full(self.k, float(c))
        if c.size != self.k or not np.all(c >= 0):
            raise ValueError("c_lambda must be a nonnegative scalar or one value per regime")
        return c


@dataclass
class FitResult:
    """One converged (or budget-exhausted) estimation run."""

    gamma: np.ndarray               # (K, T, n)
    lambdas: np.ndarray             # (K, m)
    log_z: np.ndarray               # (K,)
    objective: float
    bic: float
    param_count: int
    trace: list[float]
    converged: bool
    degenerate: bool
    config: ModelConfig
    n_outer: int
    # what the fit did; not written to model files
    lp_solves: int = 0              # affiliation LPs run (shortcut hits add none)
    simplex_iterations: int = 0     # summed over those LPs
    shortcut_hits: int = 0          # affiliation solves the argmax assignment answered
    lambda_unconverged: int = 0     # lambda subproblems that ran out of iterations

    @property
    def k(self) -> int:
        return self.gamma.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        """(T, n) of the fitted panel."""
        return self.gamma.shape[1], self.gamma.shape[2]

    def hard_path(self) -> np.ndarray:
        """Argmax regime per (t, i)."""
        return self.gamma.argmax(axis=0)


def compose_lambda(weights, lambdas) -> np.ndarray:
    """Convex combination sum_k weights[k] * lambdas[k]."""
    weights = np.asarray(weights, dtype=float)
    lambdas = np.atleast_2d(np.asarray(lambdas, dtype=float))
    if weights.shape != (lambdas.shape[0],):
        raise ValueError("one weight per regime is required")
    if np.any(weights < -1e-12) or abs(weights.sum() - 1.0) > 1e-9:
        raise ValueError("weights must lie on the probability simplex")
    return weights @ lambdas


def _as_values(panel) -> np.ndarray:
    values = panel.values if isinstance(panel, Panel) else np.asarray(panel, dtype=float)
    if values.ndim == 1:
        values = values[:, None]
    return values


def random_block_gamma(k: int, T: int, n: int, c_gamma: float, seed) -> np.ndarray:
    """Random binary affiliation repaired to satisfy the switch budget.

    Draws a uniform regime label per (t, i), then majority-smooths each
    dimension over contiguous time blocks.  The block count caps the per-dim
    switches at floor(c_gamma / n), so every regime's total variation stays
    within the budget.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, size=(T, n))
    n_blocks = min(int(c_gamma // max(n, 1)) + 1, T)
    sizes = np.full(n_blocks, T // n_blocks)
    sizes[: T % n_blocks] += 1                      # the np.array_split sizes
    block = np.repeat(np.arange(n_blocks), sizes)   # block id per time step
    cell = (block[:, None] * n + np.arange(n)) * k + labels
    counts = np.bincount(cell.ravel(), minlength=n_blocks * n * k)
    winner = counts.reshape(n_blocks, n, k).argmax(axis=2)   # ties -> lowest k
    gamma = np.zeros((k, T, n))
    gamma[winner[block], np.arange(T)[:, None], np.arange(n)] = 1.0
    return gamma


TOL_OUTER = 1e-6
MAX_OUTER_ITER = 200


def fit(panel, config: ModelConfig, gamma0: np.ndarray | None = None,
        lambda0: np.ndarray | None = None) -> FitResult:
    """Alternate the regime and affiliation subproblems until the objective
    stalls.  ``panel`` must already be scaled into [-1, 1].

    Regimes whose weight mass drops below a small floor (m + 2 points) are
    frozen for the iteration, mirroring the empty-regime rule; this keeps the
    likelihood bounded when the affiliation hands a regime only a sliver of
    the data.  It stops when nothing moves or the objective changes by less
    than ``TOL_OUTER`` (1e-6) relative.  ``converged`` is False when that
    takes over ``MAX_OUTER_ITER`` (200) outer iterations, or when a regime
    subproblem of the last one hit ``lambda_step.DEFAULT_MAX_ITER`` (5000).
    """
    values = _as_values(panel)
    T, n = values.shape
    K, m = config.k, config.m
    F = feature_matrix(values, m)
    c_lam = config.c_lambda_per_regime()
    mass_floor = m + 2.0

    if gamma0 is None:
        gamma = random_block_gamma(K, T, n, config.c_gamma, config.seed)
    else:
        gamma = np.asarray(gamma0, dtype=float).copy()
        if gamma.shape != (K, T, n):
            raise ValueError(f"gamma0 must have shape {(K, T, n)}, got {gamma.shape}")

    if lambda0 is None:
        lambdas = np.zeros((K, m))
    else:
        lambdas = np.array(lambda0, dtype=float, copy=True).reshape(K, m)
        for k in range(K):
            lambdas[k] = project_l1_ball(lambdas[k], c_lam[k])
    log_zs = np.array([log_partition(lambdas[k]) for k in range(K)])

    scores = build_scores(lambdas, F, log_zs)
    solver = AffiliationSolver(K, T, n, config.c_gamma)   # one LP session per fit
    trace: list[float] = []
    L_prev = -np.inf
    converged = False
    lambda_unconverged = 0
    for _ in range(MAX_OUTER_ITER):
        lam_moved = 0.0
        stalled = 0                           # lambda subproblems out of iterations
        for k in range(K):
            w = gamma[k]
            if w.sum() < mass_floor:
                continue                      # frozen for this iteration
            res = fit_lambda(F, w, c_lambda=c_lam[k], tol=config.tol_lambda,
                             warm_start=lambdas[k])
            stalled += not res.converged
            new_scores_k = -(F @ res.lam + res.log_z)
            # guard against float-order regressions of the shared objective
            if float((w * new_scores_k).sum()) >= float((w * scores[k]).sum()):
                lam_moved = max(lam_moved, float(np.abs(res.lam - lambdas[k]).max()))
                lambdas[k] = res.lam
                log_zs[k] = res.log_z
                scores[k] = new_scores_k

        lambda_unconverged += stalled
        gamma_new = solver.solve(scores, gamma_prev=gamma)
        moved = float(np.abs(gamma_new - gamma).max())
        gamma = gamma_new
        L = float((gamma * scores).sum())
        trace.append(L)
        if (moved < 1e-12 and lam_moved < 1e-12) or (
                abs(L - L_prev) < TOL_OUTER * (1.0 + abs(L))):
            converged = stalled == 0
            break
        L_prev = L

    hard = gamma.argmax(axis=0)
    degenerate = K > 1 and np.unique(hard).size == 1
    p = _param_count(gamma, lambdas, config.eps_sparse)
    return FitResult(
        gamma=gamma, lambdas=lambdas, log_z=log_zs, objective=L,
        bic=_bic(L, p, T * n), param_count=p, trace=trace,
        converged=converged, degenerate=degenerate, config=config,
        n_outer=len(trace), lp_solves=solver.lp_solves,
        simplex_iterations=solver.simplex_iterations,
        shortcut_hits=solver.shortcut_hits,
        lambda_unconverged=lambda_unconverged)


def _k_star(lambdas: np.ndarray, eps_sparse: float) -> tuple:
    """Active coefficients per regime, by ``sparsify``'s threshold rule."""
    return tuple(sparsify(lam, eps_sparse)[1] for lam in lambdas)


def _param_count(gamma: np.ndarray, lambdas: np.ndarray, eps_sparse: float) -> int:
    hard = gamma.argmax(axis=0)
    n_seg = hard.shape[1] + int(np.count_nonzero(np.diff(hard, axis=0)))
    return sum(_k_star(lambdas, eps_sparse)) + (gamma.shape[0] - 1) * n_seg


def _bic(objective: float, p: int, n_points: int) -> float:
    return -2.0 * objective + p * math.log(n_points)


def param_count(fit_result: FitResult) -> int:
    """Effective parameter number: active coefficients plus segment cost.

    p = sum_k ||lam_k||_0 + (K - 1) * S, with S the total count of maximal
    constant-in-time segments of the argmax regime path over all dimensions.
    """
    return _param_count(fit_result.gamma, fit_result.lambdas, fit_result.config.eps_sparse)


def bic(fit_result: FitResult) -> float:
    """Bayesian information criterion: -2 L + p ln(n T)."""
    return _bic(fit_result.objective, param_count(fit_result), fit_result.gamma[0].size)


def schwarz_weights(bics) -> np.ndarray:
    """Posterior model probabilities exp(-delta/2), delta = BIC - min BIC."""
    b = np.asarray(bics, dtype=float)
    if b.size < 1 or not np.isfinite(b).all():
        raise ValueError("need at least one finite BIC value")
    delta = b - b.min()
    w = np.exp(-0.5 * delta)
    return w / w.sum()


def anneal(panel, config: ModelConfig) -> FitResult:
    """Best of ``config.n_anneal`` restarts by objective value.

    Restart r draws its initial affiliation with seed ``config.seed + r``;
    ties keep the earliest restart, so the result is reproducible.  ``fit``
    is deterministic in its start, so a restart whose start repeats an
    earlier one's is skipped: it could only tie.
    """
    values = _as_values(panel)
    T, n = values.shape
    best: FitResult | None = None
    seen = set()
    for r in range(config.n_anneal):
        gamma0 = random_block_gamma(config.k, T, n, config.c_gamma, config.seed + r)
        key = gamma0.tobytes()
        if key in seen:
            continue
        seen.add(key)
        result = fit(values, config, gamma0=gamma0)
        if best is None or result.objective > best.objective:
            best = result
    return best


@dataclass(frozen=True)
class GridCell:
    k: int
    c_gamma: float
    objective: float
    bic: float
    converged: bool
    schwarz: float = math.nan


@dataclass(frozen=True)
class Stage2Cell:
    scale: float
    c_lambda: tuple
    objective: float
    bic: float
    k_star: tuple


@dataclass
class SelectionReport:
    """Both stages' cells and the winning fit, whose settings are the choice."""

    stage1: list[GridCell]
    stage2: list[Stage2Cell]
    best_fit: FitResult

    @property
    def chosen_k(self) -> int:
        return self.best_fit.config.k

    @property
    def chosen_c_gamma(self) -> float:
        return self.best_fit.config.c_gamma

    @property
    def chosen_c_lambda(self) -> tuple | None:
        """Per-regime l1 bounds; None when the unregularised fit won."""
        c = self.best_fit.config.c_lambda_per_regime()
        return None if np.isinf(c).all() else tuple(c.tolist())

    @property
    def chosen_k_star(self) -> tuple:
        return _k_star(self.best_fit.lambdas, self.best_fit.config.eps_sparse)

    @property
    def chosen_bic(self) -> float:
        return self.best_fit.bic


def _anneal_or_continue(values, cfg: ModelConfig, warm: FitResult | None) -> FitResult:
    """``anneal`` under ``cfg``; with ``warm`` given, also one fit started from
    its solution, kept only if its objective is strictly higher."""
    result = anneal(values, cfg)
    if warm is not None:
        cont = fit(values, cfg, gamma0=warm.gamma, lambda0=warm.lambdas)
        if cont.objective > result.objective:
            result = cont
    return result


def _fit_lane(args):
    values, base, k, c_grid = args
    lane = []
    prev: FitResult | None = None
    for c in c_grid:
        cfg = replace(base, k=k, c_gamma=float(c), c_lambda=math.inf)
        prev = _anneal_or_continue(values, cfg, prev)
        lane.append(prev)
    return lane


def grid_search(panel, k_grid, c_gamma_grid, config: ModelConfig | None = None,
                stage2_points: int = 12, jobs: int = 1) -> SelectionReport:
    """Two-stage model selection by BIC.

    Stage 1 sweeps (K, c_gamma) with no l1 bound; within each K lane the
    previous cell's solution seeds a warm-started candidate, which keeps the
    objective monotone along the budget axis.  Stage 2 fixes the winner and
    sweeps a logarithmic grid of l1 bounds scaled per regime from the stage-1
    coefficient norms; the unregularised winner stays in the candidate set,
    so sparsification is kept only when it lowers the BIC.
    """
    values = _as_values(panel)
    base = config or ModelConfig()
    k_grid = [int(k) for k in k_grid]
    c_gamma_grid = [float(c) for c in c_gamma_grid]
    if not k_grid or not c_gamma_grid:
        raise ValueError("model grids must be nonempty")
    if stage2_points < 0:
        raise ValueError(f"stage2_points must be nonnegative, got {stage2_points}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")

    lane_args = [(values, base, k, c_gamma_grid) for k in k_grid]
    if jobs > 1 and len(k_grid) > 1:
        with ProcessPoolExecutor(max_workers=min(jobs, len(k_grid))) as pool:
            lanes = list(pool.map(_fit_lane, lane_args))
    else:
        lanes = [_fit_lane(a) for a in lane_args]

    fits: list[FitResult] = [f for lane in lanes for f in lane]
    bics = np.array([f.bic for f in fits])
    weights = schwarz_weights(bics)
    stage1 = [GridCell(k=f.config.k, c_gamma=f.config.c_gamma, objective=f.objective,
                       bic=f.bic, converged=f.converged, schwarz=float(wt))
              for f, wt in zip(fits, weights)]
    winner = fits[int(np.argmin(bics))]

    stage2: list[Stage2Cell] = []
    best_fit = winner
    norms = np.abs(winner.lambdas).sum(axis=1)
    if stage2_points > 0 and norms.sum() > 1e-12:
        scales = np.geomspace(0.05, 1.5, stage2_points)
        for s in scales:
            c_lam = tuple(float(s) * norms)
            cfg = replace(base, k=winner.config.k, c_gamma=winner.config.c_gamma,
                          c_lambda=c_lam)
            result = _anneal_or_continue(values, cfg, winner)
            stage2.append(Stage2Cell(scale=float(s), c_lambda=c_lam,
                                     objective=result.objective, bic=result.bic,
                                     k_star=_k_star(result.lambdas, cfg.eps_sparse)))
            if result.bic < best_fit.bic:
                best_fit = result

    return SelectionReport(stage1=stage1, stage2=stage2, best_fit=best_fit)
