"""``analyse``: post-fit analysis of seven saved two-regime models.

Set-up writes seven model files, one per index, without fitting: each
regime's coefficients are those of the density the returns were drawn
from, the affiliations are the true regime path, and log Z, the objective
and the BIC come from the benchmark's own quadrature.  So set-up time does
not depend on the LP or the lambda step.

Each index has m=6 densities, a low- and a high-volatility regime, and a
T=1000 path of which the first 750 points are in-sample and the last 250
are held out.  All seven share seven market switch times, each index
lagging them by 0..3 days, plus one short excursion of its own; the shared
switches give the transition graph edges to find.

One operation is one index: ``model_io.load_model``, ``diagnostics.acf_abs``
of its returns, ``diagnostics.simulated_acf`` over 1000 simulated panels,
``forecast.var_forecast`` and ``forecast.backtest`` at 95% and 99%, and
``diagnostics.jump_series``.  One more operation builds
``diagnostics.transition_graph`` over the seven.
"""

from __future__ import annotations

import hashlib

import numpy as np

import oracles
from layers import instrument

ASSETS, M, T_ALL, T_IN = 7, 6, 1000, 750
SWITCHES, MIN_GAP, MAX_LAG_SHIFT = 7, 60, 3
N_SIM, ACF_LAGS, ALPHAS = 1000, 50, (0.95, 0.99)
GRAPH_LAGS, P_THRESHOLD = 5, 0.01
Z_BOUND = 5.0                          # standard errors allowed for draw moments


def draw(lam, count, rng) -> np.ndarray:
    """Inverse-CDF draws on a 2^16-interval grid (set-up only)."""
    x = np.linspace(-1.0, 1.0, (1 << 16) + 1)
    s = -oracles._poly(lam, x)
    f = np.exp(s - s.max())
    cdf = np.concatenate([[0.0], np.cumsum(0.5 * (f[1:] + f[:-1]))])
    return np.interp(rng.random(count), cdf / cdf[-1], x)


def regime_lambdas(rng) -> np.ndarray:
    lams = np.zeros((2, M))
    for k, (lo, hi) in enumerate([(0.07, 0.10), (0.18, 0.25)]):
        sigma = rng.uniform(lo, hi)
        lams[k, 0] = rng.uniform(-0.5, 0.5)
        lams[k, 1] = 0.5 / sigma ** 2
        lams[k, 2] = rng.uniform(-2.0, 2.0)
        lams[k, 3] = rng.uniform(0.0, 4.0)
        lams[k, 5] = rng.uniform(0.0, 4.0)
    return lams


def switch_times(rng) -> np.ndarray:
    while True:
        t = np.sort(rng.choice(np.arange(MIN_GAP, T_ALL - MIN_GAP), SWITCHES, replace=False))
        if np.diff(t).min() >= MIN_GAP:
            return t


class Analyse:
    name = "analyse"
    ops_per_round = ASSETS + 1

    def __init__(self, seed: int, workdir, tv):
        self.seed, self.dir, self.tv = seed, workdir, tv
        self.rec = None
        self.draws: dict = {}

    def params(self) -> dict:
        return {"assets": ASSETS, "K": 2, "m": M, "T_in": T_IN, "T_out": T_ALL - T_IN,
                "switches": SWITCHES, "n_sim": N_SIM, "acf_lags": ACF_LAGS,
                "alphas": list(ALPHAS), "graph_lags": GRAPH_LAGS}

    def setup(self):
        tv = self.tv
        rng = np.random.default_rng([303, self.seed])
        market = switch_times(rng)
        self.assets = []
        for i in range(ASSETS):
            lams = regime_lambdas(rng)
            flips = np.concatenate([market + rng.integers(0, MAX_LAG_SHIFT + 1),
                                    rng.integers(MIN_GAP, T_ALL - MIN_GAP) + [0, 12]])
            change = np.zeros(T_ALL, dtype=int)
            np.add.at(change, np.clip(flips, 1, T_ALL - 1), 1)
            path = (np.cumsum(change) + rng.integers(0, 2)) % 2
            scaled = np.empty(T_ALL)
            for k in range(2):
                pos = np.nonzero(path == k)[0]
                scaled[pos] = draw(lams[k], pos.size, rng)
            a, b = rng.uniform(15.0, 25.0), rng.uniform(-0.02, 0.02)
            raw = (scaled - b) / a
            gamma = np.zeros((2, T_IN, 1))
            gamma[path[:T_IN], np.arange(T_IN), 0] = 1.0
            log_z = np.array([oracles.log_z(lams[k]) for k in range(2)])
            L = oracles.objective(lams, gamma, scaled[:T_IN, None])
            p = oracles.param_count(lams, gamma, 1e-5)
            config = tv.estimator.ModelConfig(
                k=2, c_gamma=float(max(1.0, oracles.tv(gamma).max())), m=M, n_anneal=1)
            fit = tv.estimator.FitResult(
                gamma=gamma, lambdas=lams, log_z=log_z, objective=L,
                bic=-2.0 * L + p * np.log(T_IN), param_count=p, trace=[L],
                converged=True, degenerate=False, config=config, n_outer=1)
            label = f"IDX{i + 1}"
            path_file = self.dir / f"{label}.model.json"
            tv.model_io.save_model(str(path_file), fit,
                                   tv.panel.ScalingMap(a=np.array([a]), b=np.array([b])),
                                   labels=[label])
            self.assets.append({"label": label, "file": str(path_file), "lambdas": lams,
                                "gamma": gamma, "a": a, "b": b, "raw_in": raw[:T_IN],
                                "raw_out": raw[T_IN:],
                                "sim_seed": int(rng.integers(0, 2**31))})

    # -- capture --------------------------------------------------------

    def _sample_stats(self, draws, args, kwargs, pre, extra):
        self.draws.setdefault(self.rec.op, []).append(
            (tuple(np.asarray(args[0], dtype=float)), draws.size, float(draws.min()),
             float(draws.max()), float(draws.mean()), float(draws.var())))

    def instrument(self, rec):
        self.rec = rec
        instrument(rec, self.tv, hooks={"maxent.sample": (None, self._sample_stats)})

    # -- timed part -----------------------------------------------------

    def round(self, rec):
        D, F, IO = self.tv.diagnostics, self.tv.forecast, self.tv.model_io
        self.draws = {}
        per_asset, jumps = [], {}
        for op, asset in enumerate(self.assets):
            rec.op = op
            fit, scaling, labels = IO.load_model(asset["file"])
            rho = D.acf_abs(asset["raw_in"], d=1.0, max_lag=ACF_LAGS)
            rho_model = D.simulated_acf(fit, n_samples=N_SIM, d=1.0, max_lag=ACF_LAGS,
                                        seed=asset["sim_seed"], scaling=scaling)
            var = np.array([[F.var_forecast(fit, k, alpha, scaling) for alpha in ALPHAS]
                            for k in range(fit.k)])
            bt = F.backtest(fit, scaling, asset["raw_out"], alphas=ALPHAS, labels=labels)
            up, down = D.jump_series(fit, scaling, 0)
            jumps[labels[0]] = (up, down)
            per_asset.append({"fit": fit, "scaling": scaling, "labels": labels, "rho": rho,
                              "rho_model": rho_model, "var": var, "bt": bt,
                              "up": up, "down": down})
        rec.op = ASSETS
        graph = D.transition_graph(jumps, max_lag=GRAPH_LAGS, p_threshold=P_THRESHOLD)
        return {"assets": per_asset, "graph": graph, "draws": self.draws}

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for r in out["assets"]:
            for arr in (r["rho"], r["rho_model"], r["var"], r["bt"].violations,
                        r["bt"].lr, r["bt"].p_value, r["up"], r["down"]):
                h.update(np.ascontiguousarray(arr).tobytes())
        h.update(repr(out["graph"].to_json_obj()).encode())
        h.update(repr(sorted(out["draws"].items())).encode())
        return h.hexdigest()

    # -- checks ---------------------------------------------------------

    def check(self, out) -> dict[int, str]:
        bad = {}
        for op, (asset, r) in enumerate(zip(self.assets, out["assets"])):
            why = self._check_asset(asset, r, out["draws"].get(op, []))
            if why:
                bad[op] = f"{asset['label']}: {why}"
        why = self._check_graph(out["graph"], {r["labels"][0]: (r["up"], r["down"])
                                               for r in out["assets"]})
        if why:
            bad[ASSETS] = "transition graph: " + why
        return bad

    def _check_asset(self, asset, r, draws) -> str | None:
        fit, lams, a, b = r["fit"], asset["lambdas"], asset["a"], asset["b"]
        if not (np.array_equal(fit.lambdas, lams) and np.array_equal(fit.gamma, asset["gamma"])
                and r["scaling"].a[0] == a and r["scaling"].b[0] == b):
            return "loaded model differs from the one written"

        y = np.abs(asset["raw_in"])
        yc = y - y.mean()
        rho = np.array([yc[:-l] @ yc[l:] for l in range(1, ACF_LAGS + 1)]) / (yc @ yc)
        if not np.allclose(r["rho"], rho, rtol=1e-9, atol=1e-12):
            return "data ACF differs from the reference"
        rm = np.asarray(r["rho_model"])
        if rm.shape != (ACF_LAGS,) or not np.isfinite(rm).all() or np.abs(rm).max() > 1:
            return "simulated ACF is not a finite vector of correlations"

        hard = fit.gamma[:, :, 0].argmax(axis=0)
        counts = np.bincount(hard, minlength=2)
        if sorted(d[0] for d in draws) != sorted(tuple(lams[k]) for k in range(2) if counts[k]):
            return "simulation did not sample each occupied regime once"
        for lam, size, lo, hi, mean, var in draws:
            k = next(k for k in range(2) if tuple(lams[k]) == lam)
            if size != N_SIM * counts[k]:
                return f"regime {k}: {size} draws, expected {N_SIM * counts[k]}"
            if lo < -1.0 or hi > 1.0:
                return f"regime {k}: draws leave [-1, 1] ({lo!r}, {hi!r})"
            m1, m2, m3, m4 = oracles.moments(lams[k], 4)
            v = m2 - m1 ** 2
            mu4 = m4 - 4 * m3 * m1 + 6 * m2 * m1 ** 2 - 3 * m1 ** 4
            if abs(mean - m1) > Z_BOUND * np.sqrt(v / size):
                return f"regime {k}: draw mean {mean:.6g} vs model {m1:.6g}"
            if abs(var - v) > Z_BOUND * np.sqrt((mu4 - v ** 2) / size):
                return f"regime {k}: draw variance {var:.6g} vs model {v:.6g}"

        lz = [oracles.log_z(lams[k]) for k in range(2)]
        for k in range(2):
            for j, alpha in enumerate(ALPHAS):
                q = b - a * r["var"][k, j]
                err = oracles.cdf(lams[k], q) - (1.0 - alpha)
                if abs(err) > 1e-9:
                    return f"VaR regime {k} at {alpha}: F(q) - (1 - alpha) = {err:.3g}"

        bt = r["bt"]
        out = asset["raw_out"]
        scaled = np.clip(a * out + b, -1.0, 1.0)
        k_cur = int(hard[-1])
        viol = np.zeros(len(ALPHAS), dtype=int)
        for t in range(out.size):
            viol += out[t] < -r["var"][k_cur]
            score = np.array([oracles.log_density(lams[k], scaled[t], lz[k]) for k in range(2)])
            tied = np.nonzero(score >= score.max() - 1e-12)[0]
            k_cur = k_cur if k_cur in tied else int(tied[0])
        if not np.array_equal(bt.violations[0], viol):
            return f"violations {bt.violations[0].tolist()} vs recount {viol.tolist()}"
        for j, alpha in enumerate(ALPHAS):
            lr, p = oracles.kupiec(int(viol[j]), out.size, 1.0 - alpha)
            if not (oracles.close(bt.lr[0, j], lr, 1e-9, 1e-12)
                    and oracles.close(bt.p_value[0, j], p, 1e-9, 1e-12)
                    and bt.coverage[0, j] == viol[j] / out.size):
                return (f"Kupiec at {alpha}: LR {bt.lr[0, j]!r}, p {bt.p_value[0, j]!r}; "
                        f"reference {lr!r}, {p!r}")

        var_k = [(oracles.moments(lams[k], 2)[1] - oracles.moments(lams[k], 1)[0] ** 2)
                 for k in range(2)]
        up = np.zeros(T_IN, dtype=int)
        down = np.zeros(T_IN, dtype=int)
        for t in np.nonzero(np.diff(hard))[0] + 1:
            (up if var_k[hard[t]] > var_k[hard[t - 1]] else down)[t] = 1
        if not (np.array_equal(r["up"], up) and np.array_equal(r["down"], down)):
            return "jump series differ from the regime path"
        return None

    @staticmethod
    def _check_graph(graph, jumps) -> str | None:
        from scipy.stats import fisher_exact
        edges = {(e.source, e.target, e.direction): e for e in graph.edges}
        if len(edges) != len(graph.edges):
            return "duplicate edges"
        names = list(jumps)
        for src in names:
            for tgt in names:
                if src == tgt:
                    continue
                for ds, s_name in enumerate(("up", "down")):
                    for dt, t_name in enumerate(("up", "down")):
                        s, t = jumps[src][ds], jumps[tgt][dt]
                        ps = []
                        for lag in range(GRAPH_LAGS + 1):
                            ss, tt = (s[:s.size - lag], t[lag:]) if lag else (s, t)
                            table = [[int(np.sum((ss == 1) & (tt == 1))),
                                      int(np.sum((ss == 1) & (tt == 0)))],
                                     [int(np.sum((ss == 0) & (tt == 1))),
                                      int(np.sum((ss == 0) & (tt == 0)))]]
                            ps.append(float(fisher_exact(table)[1]))
                        best = min(ps)
                        e = edges.pop((src, tgt, f"{s_name}/{t_name}"), None)
                        if e is None:
                            if best <= P_THRESHOLD * (1 - 1e-9):
                                return f"missing edge {src}->{tgt} {s_name}/{t_name} (p={best:.6g})"
                            continue
                        if not oracles.close(e.p_value, best, 1e-9, 1e-300):
                            return (f"edge {src}->{tgt} {s_name}/{t_name}: p {e.p_value!r}, "
                                    f"scipy {best!r}")
                        if not oracles.close(ps[e.lag], best, 1e-9, 1e-300):
                            return f"edge {src}->{tgt}: lag {e.lag} does not minimise p"
                        if best > P_THRESHOLD * (1 + 1e-9):
                            return f"edge {src}->{tgt} kept at p={best:.6g}"
        if edges:
            return f"{len(edges)} edge(s) between unknown nodes"
        return None
