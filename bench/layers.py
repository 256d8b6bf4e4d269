"""Where each package module is entered, and the per-layer metrics.

``instrument`` patches the callables of every layer at the attribute its
callers look up.  ``layer_metrics`` reduces one round's spans to the metrics
named in ``PER_LAYER``; a metric of a layer that a workload never enters
reads 0, and so does a percentile with no sample.
"""

from __future__ import annotations

import os
import weakref

import numpy as np

# (name, unit, better).  ``*_s`` is self time: span time minus the time of
# the traced callables it called.
PER_LAYER = [
    ("gamma_step.solve_calls", "count", "lower"),
    ("gamma_step.solve_s", "s", "lower"),
    ("gamma_step.lp_solves", "count", "lower"),
    ("gamma_step.shortcut_hits", "count", "higher"),
    ("gamma_step.lp_cold_ms_p50", "ms", "lower"),
    ("gamma_step.lp_hot_ms_p50", "ms", "lower"),
    ("gamma_step.lp_hot_ms_p90", "ms", "lower"),
    ("gamma_step.k2.lp_hot_ms_p50", "ms", "lower"),
    ("gamma_step.k3.lp_hot_ms_p50", "ms", "lower"),
    ("gamma_step.build_scores_s", "s", "lower"),
    ("lambda_step.calls", "count", "lower"),
    ("lambda_step.s", "s", "lower"),
    ("lambda_step.iters", "count", "lower"),
    ("lambda_step.unconverged", "count", "lower"),
    ("lambda_step.ms_p50", "ms", "lower"),
    ("lambda_step.ms_p90", "ms", "lower"),
    ("estimator.grid_search_s", "s", "lower"),
    ("estimator.anneal_calls", "count", "lower"),
    ("estimator.anneal_s", "s", "lower"),
    ("estimator.fit_calls", "count", "lower"),
    ("estimator.fit_self_s", "s", "lower"),
    ("estimator.outer_iters", "count", "lower"),
    ("estimator.fits_unconverged", "count", "lower"),
    ("maxent.sample_calls", "count", "lower"),
    ("maxent.sample_s", "s", "lower"),
    ("maxent.quantile_calls", "count", "lower"),
    ("maxent.quantile_s", "s", "lower"),
    ("maxent.cdf_calls", "count", "lower"),
    ("maxent.log_partition_calls", "count", "lower"),
    ("maxent.moments_calls", "count", "lower"),
    ("diagnostics.simulated_acf_s", "s", "lower"),
    ("diagnostics.acf_abs_s", "s", "lower"),
    ("diagnostics.transition_graph_s", "s", "lower"),
    ("diagnostics.fisher_tests", "count", "lower"),
    ("forecast.backtest_s", "s", "lower"),
    ("forecast.var_forecast_calls", "count", "lower"),
    ("forecast.online_assignments", "count", "lower"),
    ("model_io.load_s", "s", "lower"),
    ("model_io.save_s", "s", "lower"),
    ("model_io.bytes", "B", "lower"),
    ("panel.load_csv_s", "s", "lower"),
    ("panel.rescale_s", "s", "lower"),
    ("cli.grid_s", "s", "lower"),
    ("run.cpu_s", "s", "lower"),
    ("run.tracing_overhead_s", "s", "lower"),
]


class SolveProbe:
    """Classifies each ``AffiliationSolver.solve`` call as LP or shortcut.

    The test is the solver's own: the argmax of the effective scores (with
    the ``PREFERENCE_WEIGHT`` pull toward ``gamma_prev``) breaks some
    regime's budget.  ``keep`` receives (eff, c_gamma, gamma) of LP calls.
    """

    def __init__(self, gamma_step, keep=None):
        self.g = gamma_step
        self.keep = keep
        self.lp_seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()

    def before(self, args, kwargs):
        solver, scores = args[0], np.asarray(args[1], dtype=float)
        gamma_prev = args[2] if len(args) > 2 else kwargs.get("gamma_prev")
        if solver.K == 1:
            return None
        eff = scores.copy() if gamma_prev is None else scores + self.g.PREFERENCE_WEIGHT * gamma_prev
        hard = self.g.hard_assignment(eff)
        lp = max(self.g.tv_norm(hard, k) for k in range(solver.K)) > solver.c_gamma
        return eff, lp

    def after(self, gamma, args, kwargs, pre, extra):
        solver = args[0]
        extra["k"] = solver.K
        if pre is None:
            return
        eff, lp = pre
        extra["lp"] = lp
        extra["shortcut"] = not lp
        if lp:
            seen = self.lp_seen.get(solver, 0)
            extra["cold"] = seen == 0
            self.lp_seen[solver] = seen + 1
            if self.keep is not None:
                self.keep(eff, solver.c_gamma, gamma)


def _chain(first, second):
    if first is None or second is None:
        return first or second

    def both(*args):
        first(*args)
        second(*args)
    return both


def instrument(rec, tv, probe: SolveProbe | None = None, hooks: dict | None = None):
    """Patch every layer.

    ``hooks`` maps a span name to ``(before, after)`` callables that also
    run with tracing off, for the checks; ``probe`` replaces the default
    ``SolveProbe`` (and runs with tracing off when given).
    """
    C, E, G, M = tv.cli, tv.estimator, tv.gamma_step, tv.maxent
    D, F, IO = tv.diagnostics, tv.forecast, tv.model_io
    hooks = dict(hooks or {})
    if probe is not None:
        hooks["gamma_step.solve"] = (probe.before, probe.after)
    probe = probe or SolveProbe(G)

    def patch(owner, attr, name, span=True, before=None, after=None):
        more_before, more_after = hooks.get(name, (None, None))
        if before and more_before and before != more_before:
            raise ValueError(f"two before-hooks for {name}")
        rec.patch(owner, attr, name, span=span, before=before or more_before,
                  after=after if after == more_after else _chain(after, more_after),
                  always=name in hooks)

    def add_bytes(path):
        rec.totals["model_io.bytes"] += os.path.getsize(path)

    def fit_after(res, args, kwargs, pre, extra):
        extra["outer"] = res.n_outer
        extra["converged"] = res.converged

    def lam_after(res, args, kwargs, pre, extra):
        extra["iters"] = res.n_iter
        extra["converged"] = res.converged

    patch(C, "main", "cli.main")
    patch(C, "load_csv", "panel.load_csv")
    patch(C, "rescale", "panel.rescale")
    patch(C, "grid_search", "estimator.grid_search")
    patch(E, "anneal", "estimator.anneal")
    patch(E, "fit", "estimator.fit", after=fit_after)
    patch(E, "fit_lambda", "lambda_step.fit_lambda", after=lam_after)
    patch(E, "build_scores", "gamma_step.build_scores")
    patch(G.AffiliationSolver, "solve", "gamma_step.solve", before=probe.before,
          after=probe.after)

    for owner in (E, M):
        patch(owner, "log_partition", "maxent.log_partition", span=False)
    for owner in (D, M):
        patch(owner, "moments", "maxent.moments", span=False)
    patch(M, "cdf", "maxent.cdf", span=False)
    patch(D, "sample", "maxent.sample")
    patch(F, "quantile", "maxent.quantile")

    patch(D, "simulated_acf", "diagnostics.simulated_acf")
    patch(D, "acf_abs", "diagnostics.acf_abs")
    patch(D, "jump_series", "diagnostics.jump_series")
    patch(D, "transition_graph", "diagnostics.transition_graph")
    patch(D, "fisher_exact", "diagnostics.fisher_exact", span=False)

    patch(F, "backtest", "forecast.backtest")
    patch(F, "var_forecast", "forecast.var_forecast", span=False)
    patch(F, "assign_regime_online", "forecast.assign_regime_online", span=False)

    patch(IO, "load_model", "model_io.load_model",
          before=lambda args, kwargs: add_bytes(args[0]))
    patch(IO, "save_model", "model_io.save_model",
          after=lambda res, args, kwargs, pre, extra: add_bytes(args[0]))


def _pct(durations, q) -> float:
    return float(np.percentile(durations, q)) * 1e3 if durations else 0.0


def layer_metrics(win) -> dict:
    solves = win.where("gamma_step.solve")
    lp = [(d, e) for d, e in solves if e.get("lp")]
    cold = [d for d, e in lp if e["cold"]]
    hot = [(d, e["k"]) for d, e in lp if not e["cold"]]
    lam = [d for d, _ in win.where("lambda_step.fit_lambda")]
    fits = win.where("estimator.fit")
    s = win.self_s
    return {
        "gamma_step.solve_calls": len(solves),
        "gamma_step.solve_s": s["gamma_step.solve"],
        "gamma_step.lp_solves": len(lp),
        "gamma_step.shortcut_hits": sum(1 for _, e in solves if e.get("shortcut")),
        "gamma_step.lp_cold_ms_p50": _pct(cold, 50),
        "gamma_step.lp_hot_ms_p50": _pct([d for d, _ in hot], 50),
        "gamma_step.lp_hot_ms_p90": _pct([d for d, _ in hot], 90),
        "gamma_step.k2.lp_hot_ms_p50": _pct([d for d, k in hot if k == 2], 50),
        "gamma_step.k3.lp_hot_ms_p50": _pct([d for d, k in hot if k == 3], 50),
        "gamma_step.build_scores_s": s["gamma_step.build_scores"],
        "lambda_step.calls": len(lam),
        "lambda_step.s": s["lambda_step.fit_lambda"],
        "lambda_step.iters": int(win.total("lambda_step.fit_lambda", "iters")),
        "lambda_step.unconverged": sum(1 for _, e in win.where("lambda_step.fit_lambda")
                                       if not e["converged"]),
        "lambda_step.ms_p50": _pct(lam, 50),
        "lambda_step.ms_p90": _pct(lam, 90),
        "estimator.grid_search_s": s["estimator.grid_search"],
        "estimator.anneal_calls": win.calls["estimator.anneal"],
        "estimator.anneal_s": s["estimator.anneal"],
        "estimator.fit_calls": len(fits),
        "estimator.fit_self_s": s["estimator.fit"],
        "estimator.outer_iters": int(win.total("estimator.fit", "outer")),
        "estimator.fits_unconverged": sum(1 for _, e in fits if not e["converged"]),
        "maxent.sample_calls": win.calls["maxent.sample"],
        "maxent.sample_s": s["maxent.sample"],
        "maxent.quantile_calls": win.calls["maxent.quantile"],
        "maxent.quantile_s": s["maxent.quantile"],
        "maxent.cdf_calls": win.counts.get("maxent.cdf", 0),
        "maxent.log_partition_calls": win.counts.get("maxent.log_partition", 0),
        "maxent.moments_calls": win.counts.get("maxent.moments", 0),
        "diagnostics.simulated_acf_s": s["diagnostics.simulated_acf"],
        "diagnostics.acf_abs_s": s["diagnostics.acf_abs"],
        "diagnostics.transition_graph_s": s["diagnostics.transition_graph"],
        "diagnostics.fisher_tests": win.counts.get("diagnostics.fisher_exact", 0),
        "forecast.backtest_s": s["forecast.backtest"],
        "forecast.var_forecast_calls": win.counts.get("forecast.var_forecast", 0),
        "forecast.online_assignments": win.counts.get("forecast.assign_regime_online", 0),
        "model_io.load_s": s["model_io.load_model"],
        "model_io.save_s": s["model_io.save_model"],
        "model_io.bytes": int(win.totals.get("model_io.bytes", 0)),
        "panel.load_csv_s": s["panel.load_csv"],
        "panel.rescale_s": s["panel.rescale"],
        "cli.grid_s": s["cli.main"],
    }
