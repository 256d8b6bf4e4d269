"""``sparse-fit``: l1-bounded fits of a multivariate heavy-tailed panel.

Input: six n=3, T=1000 panels of Student-t(4) noise whose scale switches
between 1 and 2.5 every 150 points, with a phase drawn per dimension.  The
t draws are truncated at 6 and every panel is mapped onto [-1, 1] by the
fixed map x / 15, so the scaled shape does not hinge on each sample's
extreme value.  The timed part calls ``tventropy.estimator.anneal`` with
K=2, m=12, 2 restarts and C_gamma = (T-1)*n, so the affiliation step always
takes its hard-assignment shortcut, over c_lambda = 2..8 (six points,
geometric).  One operation is one ``anneal``.

Bounds above about 10 are left out: from there on the l1-bounded lambda
step starts to crawl along the ball on some panels, and one fit costs from
0.05 s to 25 s depending on the seed.
"""

from __future__ import annotations

import hashlib
from collections import deque

import numpy as np

import oracles
from layers import instrument

T, N, K, M, RESTARTS = 1000, 3, 2, 12, 2
PANELS, SWITCH, HIGH, CUT = 6, 150, 2.5, 6.0
C_LAMBDA = tuple(float(c) for c in np.geomspace(2.0, 8.0, 6))
KKT_FACTOR = 10.0


def project_l1(v: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the l1 ball (Duchi et al. 2008)."""
    if np.abs(v).sum() <= radius:
        return v.copy()
    u = np.sort(np.abs(v))[::-1]
    css = np.cumsum(u)
    rho = np.nonzero(u * np.arange(1, v.size + 1) > css - radius)[0][-1]
    theta = (css[rho] - radius) / (rho + 1.0)
    return np.sign(v) * np.maximum(np.abs(v) - theta, 0.0)


class SparseFit:
    name = "sparse-fit"
    ops_per_round = PANELS * len(C_LAMBDA)

    def __init__(self, seed: int, workdir, tv):
        self.seed, self.dir, self.tv = seed, workdir, tv
        self.rec = None
        self.weights: dict = {}
        self._calls: deque = deque(maxlen=2 * K)
        self._fits: list = []

    def params(self) -> dict:
        return {"T": T, "n": N, "K": K, "m": M, "anneal": RESTARTS, "panels": PANELS,
                "c_lambda": list(C_LAMBDA), "c_gamma": (T - 1) * N, "t_dof": 4,
                "truncate": CUT, "switch": SWITCH, "high_scale": HIGH}

    def setup(self):
        rng = np.random.default_rng([202, self.seed])
        self.panels = []
        for _ in range(PANELS):
            x = np.empty((T, N))
            for i in range(N):
                phase = rng.integers(0, SWITCH)
                scale = np.where(((np.arange(T) + phase) // SWITCH) % 2 == 0, 1.0, HIGH)
                z = rng.standard_t(4, size=T)
                out = np.abs(z) > CUT
                while out.any():
                    z[out] = rng.standard_t(4, size=int(out.sum()))
                    out = np.abs(z) > CUT
                x[:, i] = z * scale / (CUT * HIGH)
            self.panels.append(x)
        self.restart_seeds = rng.integers(0, 2**31, size=PANELS)

    # -- capture: the weights of each regime's last lambda subproblem ----

    def _fit_start(self, args, kwargs):
        self._calls.clear()

    def _fit_done(self, res, args, kwargs, pre, extra):
        self._fits.append((res, list(self._calls)))

    def _lambda_done(self, res, args, kwargs, pre, extra):
        self._calls.append((args[1], res.lam))

    def _anneal_done(self, res, args, kwargs, pre, extra):
        calls = next(c for r, c in self._fits if r is res)
        self.weights[self.rec.op] = [
            next((w for w, lam in reversed(calls) if np.array_equal(lam, res.lambdas[k])), None)
            for k in range(res.k)]
        self._fits = []

    def instrument(self, rec):
        self.rec = rec
        instrument(rec, self.tv, hooks={
            "estimator.fit": (self._fit_start, self._fit_done),
            "lambda_step.fit_lambda": (None, self._lambda_done),
            "estimator.anneal": (None, self._anneal_done)})

    def configs(self):
        ModelConfig = self.tv.estimator.ModelConfig
        for p in range(PANELS):
            for c in C_LAMBDA:
                yield p, ModelConfig(k=K, c_gamma=float((T - 1) * N), c_lambda=c, m=M,
                                     n_anneal=RESTARTS, seed=int(self.restart_seeds[p]))

    def round(self, rec):
        self.weights = {}
        results = []
        for op, (p, cfg) in enumerate(self.configs()):
            rec.op = op
            results.append((p, cfg, self.tv.estimator.anneal(self.panels[p], cfg)))
        return {"fits": results, "weights": self.weights}

    def digest(self, out) -> str:
        h = hashlib.sha256()
        for _, _, res in out["fits"]:
            for arr in (res.lambdas, res.gamma, np.asarray(res.trace)):
                h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()

    def check(self, out) -> dict[int, str]:
        bad = {}
        for op, (p, cfg, res) in enumerate(out["fits"]):
            why = self.check_fit(self.panels[p], cfg, res.lambdas, res.gamma,
                                 res.objective, res.trace, out["weights"][op])
            if why:
                bad[op] = why
        return bad

    @staticmethod
    def check_fit(x, cfg, lambdas, gamma, objective, trace, weights=None) -> str | None:
        """Checks one fit.  The KKT residual of regime k is taken on
        ``weights[k]``, the affiliations its last lambda subproblem saw
        (the fit may stop right after a gamma step moved them); it is
        skipped for a regime without one (frozen, or its update rejected)."""
        c_lam = np.broadcast_to(np.asarray(cfg.c_lambda, dtype=float), (cfg.k,))
        for k in range(cfg.k):
            norm = float(np.abs(lambdas[k]).sum())
            if norm > c_lam[k] * (1 + 1e-12) + 1e-12:
                return f"regime {k}: |lambda|_1 = {norm!r} exceeds c_lambda = {c_lam[k]!r}"
        why = oracles.gamma_feasible(gamma, cfg.c_gamma)
        if why:
            return why
        tr = np.asarray(trace)
        drop = tr[:-1] - tr[1:] - 1e-9 * (1 + np.abs(tr[:-1]))
        if drop.size and drop.max() > 0:
            return f"objective trace falls at outer iteration {int(drop.argmax()) + 1}"
        L = oracles.objective(lambdas, gamma, x)
        if not oracles.close(objective, L, 1e-9, 1e-9):
            return f"objective {objective!r} differs from reference {L!r}"
        feats = np.power.outer(x, np.arange(1, cfg.m + 1))
        if weights is None:
            weights = list(gamma)
        for k in range(cfg.k):
            w = weights[k]
            if w is None:
                continue
            W = float(w.sum())
            mu_hat = np.tensordot(w, feats, axes=([0, 1], [0, 1])) / W
            g = oracles.moments(lambdas[k], cfg.m) - mu_hat
            lam = lambdas[k]
            if np.abs(lam).sum() < c_lam[k] - cfg.tol_lambda:
                resid = float(np.abs(g).max())
            else:
                resid = float(np.abs(project_l1(lam + g, c_lam[k]) - lam).max())
            if resid > KKT_FACTOR * cfg.tol_lambda:
                return f"regime {k}: KKT residual {resid:.3g} above {KKT_FACTOR:g} x tol_lambda"
        return None
