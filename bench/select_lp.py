"""``select-lp``: BIC model selection through the CLI, as a user runs it.

Input: eight independent T=500 series, each in four blocks of 125 points
that alternate between N(0, 1) and N(0, 6) (three switches, as in the
paper's T=1000 test system), written as CSV files.  The timed part is one
``tventropy.cli.main(["grid", ...])`` per series over K = 1..3 and
C_gamma = 1..4 with m = 6, 4 restarts and no stage 2.  One operation is one
stage-1 grid cell (96 per round); the affiliation LP does almost all of
the work.

The LP work of one grid moves with the noise draw by 10-25% (the K=3 lane
dominates), and one T=1000, C_gamma = 1..10 grid takes about 40 s here.
Eight short series give a round of the same length whose time is an
average over eight draws.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

import oracles
from layers import SolveProbe, instrument

T, V2, PERIOD = 500, 6.0, 125
SERIES, K_MAX, C_MAX, M, RESTARTS = 8, 3, 4, 6, 4
LP_GAP = 1e-7


class SelectLP:
    name = "select-lp"

    def __init__(self, seed: int, workdir, tv, t=T, series=SERIES, k_max=K_MAX, c_max=C_MAX):
        self.seed, self.dir, self.tv = seed, workdir, tv
        self.t, self.series, self.k_max, self.c_max = t, series, k_max, c_max
        self.cells = k_max * c_max               # per series
        self.ops_per_round = series * self.cells
        self.lp_inst: dict = {}
        self.rec = None

    def params(self) -> dict:
        return {"series": self.series, "T": self.t, "v2": V2, "period": PERIOD,
                "k_max": self.k_max, "c_gamma_max": self.c_max, "m": M, "anneal": RESTARTS}

    def setup(self):
        rng = np.random.default_rng([101, self.seed])
        regime = (np.arange(self.t) // PERIOD) % 2
        self.raw = []
        for j in range(self.series):
            x = rng.standard_normal(self.t) * np.sqrt(np.where(regime == 0, 1.0, V2))
            with open(self.dir / f"series{j}.csv", "w", encoding="utf-8") as fh:
                fh.writelines(f"{float(v)!r}\n" for v in x)
            self.raw.append(x)

    # -- capture --------------------------------------------------------

    def _next_cell(self, args, kwargs):
        self.rec.op += 1

    def _keep(self, eff, c_gamma, gamma):
        self.lp_inst[self.rec.op] = (eff, c_gamma, gamma)   # last LP call of the cell

    def instrument(self, rec):
        self.rec = rec
        instrument(rec, self.tv, probe=SolveProbe(self.tv.gamma_step, keep=self._keep),
                   hooks={"estimator.anneal": (self._next_cell, None)})

    # -- timed part -----------------------------------------------------

    def round(self, rec):
        self.lp_inst = {}
        rec.op = -1
        runs = []
        for j in range(self.series):
            out, model = self.dir / f"grid{j}.json", self.dir / f"best{j}.json"
            rc = self.tv.cli.main([
                "grid", str(self.dir / f"series{j}.csv"), "--kmax", str(self.k_max),
                "--cgamma-max", str(self.c_max), "--m", str(M), "--anneal", str(RESTARTS),
                "--stage2-points", "0", "--jobs", "1", "--seed", str((self.seed + j) % 2**31),
                "-o", str(out), "--output-csv", str(self.dir / f"grid{j}.csv"),
                "--model-output", str(model)])
            with open(out, encoding="utf-8") as fh:
                grid = json.load(fh)
            with open(model, encoding="utf-8") as fh:
                best = json.load(fh)
            runs.append({"rc": rc, "grid": grid, "best": best})
        return {"runs": runs, "cells": rec.op + 1, "lp": self.lp_inst}

    def digest(self, out) -> str:
        h = hashlib.sha256(json.dumps([out["runs"], out["cells"]], sort_keys=True).encode())
        for op in sorted(out["lp"]):
            h.update(np.ascontiguousarray(out["lp"][op][2]).tobytes())
        return h.hexdigest()

    # -- checks ---------------------------------------------------------

    def check(self, out) -> dict[int, str]:
        """Failure reason per failed operation (grid cell index)."""
        n = self.cells
        if out["cells"] != self.ops_per_round or any(
                r["rc"] != 0 or len(r["grid"]["stage1"]) != n for r in out["runs"]):
            return {i: f"grid runs incomplete ({out['cells']} cells)"
                    for i in range(self.ops_per_round)}
        bad: dict[int, str] = {}
        for op, (eff, c_gamma, gamma) in out["lp"].items():
            why = oracles.gamma_feasible(gamma, c_gamma)
            if why is None:
                gap = oracles.lp_gap(eff, c_gamma, gamma)
                if gap > LP_GAP:
                    why = f"LP objective {gap:.3g} (relative) below the reference optimum"
            if why:
                bad[op] = "affiliation LP: " + why
        for j, run in enumerate(out["runs"]):
            base = j * n
            cells = run["grid"]["stage1"]
            for i in range(1, n):
                a, b = cells[i - 1], cells[i]
                if a["k"] == b["k"] and b["objective"] < a["objective"] - 1e-9 * (1 + abs(a["objective"])):
                    bad.setdefault(base + i, f"stage-1 objective fell along C_gamma: "
                                             f"{a['objective']!r} -> {b['objective']!r} (K={b['k']})")
            winner = min(range(n), key=lambda i: cells[i]["bic"])
            why = self._check_best(self.raw[j], run["best"], run["grid"], cells[winner])
            if why:
                bad.setdefault(base + winner, "best model: " + why)
        return bad

    def _check_best(self, raw, best: dict, grid: dict, cell: dict) -> str | None:
        cfg = best["config"]
        if (cfg["k"], cfg["c_gamma"]) != (cell["k"], cell["c_gamma"]):
            return f"saved model is K={cfg['k']}, C_gamma={cfg['c_gamma']}, not the min-BIC cell"
        if grid["chosen"]["bic"] != cell["bic"]:
            return "chosen BIC is not the smallest stage-1 BIC"
        lo, hi = raw.min(), raw.max()
        a, b = 2.0 / (hi - lo), -(hi + lo) / (hi - lo)
        if not (oracles.close(best["scaling"]["a"][0], a, 1e-12)
                and oracles.close(best["scaling"]["b"][0], b, 1e-12, 1e-15)):
            return "scaling map differs from min/max scaling of the input"
        scaled = np.clip(raw * a + b, -1.0, 1.0)[:, None]
        lambdas = np.asarray(best["lambda"], dtype=float)
        K = lambdas.shape[0]
        gamma = np.empty((K, self.t, 1))
        t = 0
        for length, vec in best["gamma_rle"][0]:
            gamma[:, t:t + length, 0] = np.asarray(vec)[:, None]
            t += length
        if t != self.t:
            return f"affiliation path covers {t} points, not {self.t}"
        why = oracles.gamma_feasible(gamma, cfg["c_gamma"])
        if why:
            return why
        for k in range(K):
            lz = oracles.log_z(lambdas[k])
            if not oracles.close(best["log_z"][k], lz, 1e-10, 1e-10):
                return f"log Z of regime {k}: file {best['log_z'][k]!r}, reference {lz!r}"
        L = oracles.objective(lambdas, gamma, scaled)
        if not oracles.close(best["objective"], L, 1e-9, 1e-9):
            return f"objective: file {best['objective']!r}, reference {L!r}"
        p = oracles.param_count(lambdas, gamma, cfg["eps_sparse"])
        if best["param_count"] != p:
            return f"parameter count: file {best['param_count']}, reference {p}"
        bic = -2.0 * L + p * math.log(self.t)
        if not oracles.close(best["bic"], bic, 1e-9, 1e-9):
            return f"BIC: file {best['bic']!r}, reference {bic!r}"
        return None
