"""The benchmark's own tests: every check must catch a corrupted output.

    python3 bench/selftest.py

Each test takes a real output of the program, corrupts one value the way a
fault would, and asserts that the workload's check reports the operation
as failed.  ``test_reduced_select_lp_is_correct`` runs a small grid
(T=500, K=1..2, C_gamma=1..4) and asserts that no operation fails; on a
tree whose affiliation LP returns non-optimal vertices it reports the
failed cells instead.
"""

from __future__ import annotations

import copy
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import ROOT, import_package  # noqa: E402

tv = import_package()

import numpy as np  # noqa: E402

import oracles  # noqa: E402
from analyse import Analyse  # noqa: E402
from select_lp import SelectLP  # noqa: E402
from sparse_fit import SparseFit  # noqa: E402
from tracing import Recorder  # noqa: E402

OFF = 1e-6


def run_round(wl):
    rec = Recorder(tracing=False)
    wl.instrument(rec)
    try:
        return wl.round(rec)
    finally:
        rec.restore()


class OneRound(unittest.TestCase):
    """Runs ``make(workdir)``'s workload for one round, once per class."""

    make = None

    @classmethod
    def setUpClass(cls):
        (ROOT / ".bench_runs").mkdir(exist_ok=True)
        cls._tmp = tempfile.TemporaryDirectory(dir=ROOT / ".bench_runs", prefix="selftest-")
        cls.wl = cls.make(Path(cls._tmp.name))
        cls.wl.setup()
        cls.out = run_round(cls.wl)

    @classmethod
    def tearDownClass(cls):
        cls._tmp.cleanup()

    def corrupt(self, fn):
        out = copy.deepcopy(self.out)
        fn(out)
        return self.wl.check(out)


class TestOracles(unittest.TestCase):
    def test_reference_quadrature_matches_closed_form(self):
        lam = np.array([0.0, 0.5])                     # exp(-x^2 / 2) on [-1, 1]
        from scipy.special import erf
        z = np.sqrt(2 * np.pi) * erf(1 / np.sqrt(2))
        self.assertAlmostEqual(oracles.log_z(lam), np.log(z), places=13)
        self.assertAlmostEqual(oracles.cdf(lam, 0.0), 0.5, places=13)

    def test_lp_gap_flags_a_non_optimal_vertex(self):
        rng = np.random.default_rng(7)
        scores = rng.normal(size=(3, 40, 2))
        gamma = tv.gamma_step.solve_gamma(scores, 3.0)
        self.assertLessEqual(oracles.lp_gap(scores, 3.0, gamma), 1e-9)
        vertex = np.zeros_like(gamma)
        vertex[0] = 1.0                                # feasible: no switch at all
        self.assertIsNone(oracles.gamma_feasible(vertex, 3.0))
        self.assertGreater(oracles.lp_gap(scores, 3.0, vertex), 1e-7)


class TestSelectLP(OneRound):
    make = staticmethod(lambda d: SelectLP(3, d, tv, t=500, series=1, k_max=2, c_max=4))

    def test_reduced_select_lp_is_correct(self):
        bad = self.wl.check(self.out)
        self.assertEqual(bad, {}, f"{len(bad)} of {self.wl.ops_per_round} operations failed")
        self.assertTrue(self.out["lp"], "no LP instance was captured")

    def test_non_optimal_lp_vertex(self):
        op = max(self.out["lp"])

        def stay_put(out):
            eff, c, gamma = out["lp"][op]
            flat = np.zeros_like(gamma)
            flat[int(gamma.sum(axis=(1, 2)).argmax())] = 1.0
            out["lp"][op] = (eff, c, flat)
        self.assertIn(op, self.corrupt(stay_put))

    def test_gamma_over_budget(self):
        def extra_switches(out):
            runs = out["runs"][0]["best"]["gamma_rle"][0]
            length, vec = runs[0]
            other = [1.0 - v for v in vec] if len(vec) == 2 else vec[1:] + vec[:1]
            runs[0:1] = [[1, vec], [1, other]] * 3 + [[length - 6, vec]]
        self.assertTrue(self.corrupt(extra_switches))

    def test_objective_off(self):
        def nudge(out):
            out["runs"][0]["best"]["objective"] *= 1 + OFF
        self.assertTrue(self.corrupt(nudge))

    def test_lane_objective_falls(self):
        def drop(out):
            cells = out["runs"][0]["grid"]["stage1"]
            cells[-1]["objective"] = cells[-2]["objective"] - OFF * (1 + abs(cells[-2]["objective"]))
        self.assertIn(self.wl.ops_per_round - 1, self.corrupt(drop))


class TestSparseFit(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        wl = SparseFit(5, None, tv)
        wl.setup()
        cls.x = wl.panels[0][:300]
        cls.cfg = tv.estimator.ModelConfig(k=2, c_gamma=299.0 * 3, c_lambda=4.0, m=12,
                                           n_anneal=1, seed=1)
        cls.res = tv.estimator.anneal(cls.x, cls.cfg)

    def check(self, lambdas=None, gamma=None, objective=None, trace=None):
        r = self.res
        return SparseFit.check_fit(
            self.x, self.cfg, r.lambdas if lambdas is None else lambdas,
            r.gamma if gamma is None else gamma,
            r.objective if objective is None else objective,
            r.trace if trace is None else trace)

    def test_real_fit_passes(self):
        self.assertIsNone(self.check())

    def test_lambda_outside_l1_ball(self):
        self.assertIn("exceeds c_lambda", self.check(lambdas=self.res.lambdas * (1 + OFF)))

    def test_lambda_not_stationary(self):
        lam = self.res.lambdas.copy()
        lam[0] = lam[0] * (1 - 1e-3)                   # inside the ball, off the optimum
        L = oracles.objective(lam, self.res.gamma, self.x)
        self.assertIn("KKT", self.check(lambdas=lam, objective=L, trace=[L]))

    def test_gamma_off_simplex(self):
        self.assertIn("simplex", self.check(gamma=self.res.gamma * (1 + OFF)))

    def test_objective_off(self):
        self.assertIn("reference", self.check(objective=self.res.objective * (1 + OFF)))

    def test_trace_falls(self):
        self.assertIn("trace", self.check(trace=list(self.res.trace) + [self.res.trace[-1] - 1]))


class TestAnalyse(OneRound):
    make = staticmethod(lambda d: Analyse(11, d, tv))

    def test_real_round_passes(self):
        self.assertEqual(self.wl.check(self.out), {})
        self.assertTrue(self.out["graph"].edges, "the shared switches gave no edge")

    def test_var_threshold_off(self):
        def nudge(out):
            out["assets"][2]["var"][1, 0] += OFF
        self.assertIn(2, self.corrupt(nudge))

    def test_kupiec_p_value_off(self):
        def nudge(out):
            out["assets"][4]["bt"].p_value[0, 1] += OFF
        self.assertIn(4, self.corrupt(nudge))

    def test_violation_count_off(self):
        def nudge(out):
            out["assets"][1]["bt"].violations[0, 0] += 1
        self.assertIn(1, self.corrupt(nudge))

    def test_edge_p_value_off(self):
        def nudge(out):
            e = out["graph"].edges[0]
            out["graph"].edges[0] = type(e)(e.source, e.target, e.direction, e.lag,
                                            e.p_value + OFF)
        self.assertIn(len(self.wl.assets), self.corrupt(nudge))

    def test_draws_off(self):
        def shift(out):
            lam, size, lo, hi, mean, var = out["draws"][0][0]
            out["draws"][0][0] = (lam, size, lo, hi, mean + 10 * np.sqrt(var / size), var)
        self.assertIn(0, self.corrupt(shift))

    def test_draws_outside_domain(self):
        def widen(out):
            lam, size, lo, hi, mean, var = out["draws"][3][0]
            out["draws"][3][0] = (lam, size, lo, 1.0 + OFF, mean, var)
        self.assertIn(3, self.corrupt(widen))


if __name__ == "__main__":
    unittest.main(verbosity=2)
