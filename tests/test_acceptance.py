"""Acceptance gate: one test per criterion, printed as a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the criterion
lines as they complete.  The heavy studies (7, 8) parallelise over seeds
with two worker processes and stay deterministic: every worker result is
keyed by seed and reduced in seed order.
"""

import math
import time
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from scipy.special import erf, logsumexp

import tventropy as tv
from tventropy import ModelConfig
from tventropy.cli import main as cli_main
from tests.helpers import random_fit_trace, selection_study, synthetic_study
from tests.test_gamma_step import enumerate_binary_max

WORKERS = 2


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:2d} ({name}): {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def pooled(fn, argslist):
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        return list(pool.map(fn, argslist))


def test_criterion_01_density_engine_exactness():
    # the 1 s gate times only the library's log_partition calls, not the
    # reference integrals below
    elapsed = 0.0

    def timed_log_partition(lam):
        nonlocal elapsed
        t0 = time.perf_counter()
        value = tv.log_partition(lam)
        elapsed += time.perf_counter() - t0
        return value

    closed = [
        (np.zeros(6), math.log(2.0)),
        (np.array([1.0, 0, 0, 0, 0, 0]), math.log(math.e - math.exp(-1.0))),
        (np.array([0.0, 1.0, 0, 0, 0, 0]), math.log(math.sqrt(math.pi) * erf(1.0))),
    ]
    worst_closed = max(abs(timed_log_partition(lam) - want) for lam, want in closed)

    # normalisation against an independent composite-Simpson integral; the
    # boundary-peaked integrands at |lam|_1 ~ 300 need a dense grid
    rng = np.random.default_rng(2024)
    xs = np.linspace(-1.0, 1.0, 131073)
    w = np.ones(xs.size)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    w *= (xs[1] - xs[0]) / 3.0
    P = np.power.outer(xs, np.arange(1, 7))
    worst_norm = 0.0
    for _ in range(100):
        lam = rng.uniform(-50.0, 50.0, size=6)
        s = -P @ lam
        log_int = logsumexp(s, b=w)          # ln of the Simpson integral
        worst_norm = max(worst_norm, abs(math.exp(log_int - timed_log_partition(lam)) - 1.0))

    ok = worst_closed <= 1e-9 and worst_norm <= 1e-9 and elapsed < 1.0
    report(1, "density engine exactness", ok,
           f"closed-form err {worst_closed:.2e}, normalisation err {worst_norm:.2e}, "
           f"{elapsed:.2f}s")


def test_criterion_02_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(7)
    h = 1e-5
    worst = 0.0
    for _ in range(100):
        m = int(rng.integers(1, 7))
        shape = (int(rng.integers(5, 40)), int(rng.integers(1, 3)))
        values = rng.uniform(-1, 1, size=shape)
        w = rng.uniform(0, 1, size=shape)
        lam = rng.uniform(-2, 2, size=m)
        F = tv.feature_matrix(values, m)
        grad = tv.loglik_gradient(lam, F, w)
        fd = np.empty(m)
        for j in range(m):
            e = np.zeros(m)
            e[j] = h
            fd[j] = (tv.weighted_loglik(lam + e, F, w)
                     - tv.weighted_loglik(lam - e, F, w)) / (2 * h)
        worst = max(worst, float(np.abs(grad - fd).max()
                                 / max(1.0, np.abs(grad).max())))
    elapsed = time.time() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(2, "gradient vs finite differences", ok,
           f"worst relative error {worst:.2e} over 100 instances, {elapsed:.1f}s")


def test_criterion_03_moment_matching():
    t0 = time.time()
    draws = tv.sample(np.array([0.8, 2.5, -0.4, 0.9, 0.1, 0.3]), 10_000, seed=99)
    rng = np.random.default_rng(5)
    w = rng.uniform(0.5, 1.5, size=(draws.size, 1))
    F = tv.feature_matrix(draws[:, None], 6)
    res = tv.fit_lambda(F, w, tol=1e-9)
    mu_hat = np.tensordot(w, F, axes=([0, 1], [0, 1])) / w.sum()
    gap = float(np.abs(tv.moments(res.lam, j_max=6) - mu_hat).max())
    elapsed = time.time() - t0
    ok = res.converged and gap <= 1e-5 and elapsed < 30.0
    report(3, "moment matching at the optimum", ok,
           f"max |E[X^j] - mu_hat_j| = {gap:.2e} on 10^4 weighted samples, "
           f"{elapsed:.1f}s")


def test_criterion_04_lp_optimality():
    t0 = time.time()
    rng = np.random.default_rng(11)
    worst_gap = -np.inf
    n_binary = 0
    for _ in range(200):
        K = int(rng.integers(1, 4))
        n = int(rng.integers(1, 3))
        T = int(rng.integers(2, 6 if (K == 3 and n == 2) else 8))
        c_gamma = float(rng.choice([0.0, 1.0, 2.0, 3.0, 0.5, 1.5]))
        scores = rng.normal(size=(K, T, n))
        gamma = tv.solve_gamma(scores, c_gamma)
        lp_obj = float((gamma * scores).sum())
        binary_max = enumerate_binary_max(scores, c_gamma)
        worst_gap = max(worst_gap, binary_max - lp_obj)
        if np.abs(gamma - np.round(gamma)).max() <= 1e-7:
            n_binary += 1
            assert abs(lp_obj - binary_max) <= 1e-9
    elapsed = time.time() - t0
    ok = worst_gap <= 1e-9 and elapsed < 60.0
    report(4, "LP optimality vs exhaustive binary paths", ok,
           f"worst (binary - LP) gap {worst_gap:.2e}, {n_binary}/200 binary optima "
           f"matched exactly, {elapsed:.1f}s")


def test_criterion_05_outer_monotonicity():
    t0 = time.time()
    traces = pooled(random_fit_trace, list(range(50)))
    worst_drop = 0.0
    for trace in traces:
        if len(trace) > 1:
            worst_drop = max(worst_drop, float(-np.min(np.diff(trace))))
    elapsed = time.time() - t0
    ok = worst_drop <= 1e-9 and elapsed < 300.0
    report(5, "outer iteration monotonicity", ok,
           f"worst objective drop {worst_drop:.2e} over 50 random fits, "
           f"{elapsed:.0f}s")


def test_criterion_06_decoupling_into_1d_problems():
    case = tv.gen_two_regime_gaussian(5.0, T=600, switch_period=150, seed=17)
    scaled, _ = tv.rescale(case.panel)
    values_1d = scaled.values
    config_1d = ModelConfig(k=2, c_gamma=4.0, m=6, n_anneal=4, seed=17)
    fit_1d = tv.anneal(values_1d, config_1d)

    values_2d = np.column_stack([values_1d[:, 0], values_1d[:, 0]])
    config_2d = ModelConfig(k=2, c_gamma=8.0, m=6, seed=17)
    gamma0 = np.concatenate([fit_1d.gamma, fit_1d.gamma], axis=2)
    fit_2d = tv.fit(values_2d, config_2d, gamma0=gamma0, lambda0=fit_1d.lambdas)

    gap = abs(fit_2d.objective - 2.0 * fit_1d.objective)
    ok = gap <= 1e-6
    report(6, "decoupling across dimensions", ok,
           f"|L_2d - 2 L_1d| = {gap:.2e} (L_1d = {fit_1d.objective:.4f})")


N_STUDY_SEEDS = 20


@pytest.mark.slow
def test_criterion_07_synthetic_study():
    t0 = time.time()
    out = {}
    for v2 in (4.0, 2.0, 8.0):
        results = pooled(synthetic_study,
                         [(seed, v2, 4) for seed in range(N_STUDY_SEEDS)])
        ces = [r[0] for r in results]
        res_tv = [r[1] for r in results]
        res_gmw = [r[2] for r in results]
        out[v2] = (float(np.median(ces)), float(np.median(res_tv)),
                   float(np.median(res_gmw)))
    elapsed = time.time() - t0
    med_ce, med_re, med_gmw = out[4.0]
    ok = (med_ce <= 0.05 and med_re < med_gmw
          and out[8.0][0] <= out[2.0][0] and elapsed < 900.0)
    report(7, "synthetic two-regime study", ok,
           f"v2=4: median CE {med_ce:.4f} (<=0.05), median RE {med_re:.3f} vs "
           f"GMW {med_gmw:.3f}; trend CE(8)={out[8.0][0]:.4f} <= "
           f"CE(2)={out[2.0][0]:.4f}; {elapsed:.0f}s")


@pytest.mark.slow
def test_criterion_08_model_selection_sanity():
    t0 = time.time()
    chosen = pooled(selection_study,
                    [(seed, 6.0, 3) for seed in range(N_STUDY_SEEDS)])
    hits = sum(1 for k in chosen if k == 2)
    elapsed = time.time() - t0
    ok = hits >= 18
    report(8, "stage-1 selection picks K*=2", ok,
           f"{hits}/{N_STUDY_SEEDS} seeds chose K*=2 (grid K=1..3 x C=1..10, "
           f"v2=6); {elapsed:.0f}s")


def test_criterion_09_kupiec_and_fisher_oracles():
    t0 = time.time()
    # Kupiec against 60-digit arithmetic
    rng = np.random.default_rng(23)
    worst = 0.0
    with mp.workdps(60):
        for _ in range(1000):
            t_out = int(rng.integers(5, 3000))
            x = int(rng.integers(0, t_out + 1))
            p = float(rng.uniform(0.002, 0.25))
            lr, pv = tv.kupiec_test(x, t_out, p)
            xm, tm, pm = mp.mpf(x), mp.mpf(t_out), mp.mpf(p)
            ll0 = (tm - xm) * mp.log(1 - pm) + (xm * mp.log(pm) if x else 0)
            ph = xm / tm
            ll1 = ((tm - xm) * mp.log(1 - ph) if x < t_out else 0) \
                + (xm * mp.log(ph) if x else 0)
            lr_ref = float(-2 * ll0 + 2 * ll1)
            pv_ref = float(mp.gammainc(mp.mpf("0.5"), mp.mpf(lr_ref) / 2, mp.inf,
                                       regularized=True))
            worst = max(worst, abs(lr - lr_ref) / max(1.0, abs(lr_ref)),
                        abs(pv - pv_ref))
    kupiec_ok = worst <= 1e-10

    # Fisher against exact rational enumeration for every table with total <= 40
    mismatches = 0
    checked = 0
    for total in range(1, 41):
        for a in range(total + 1):
            for b in range(total - a + 1):
                for c in range(total - a - b + 1):
                    d = total - a - b - c
                    got = tv.fisher_exact(tv.ContingencyTable2x2(a, b, c, d))
                    r1, r2, c1 = a + b, c + d, a + c
                    denom = math.comb(total, c1)
                    lo, hi = max(0, c1 - r2), min(r1, c1)
                    nums = [math.comb(r1, aa) * math.comb(r2, c1 - aa)
                            for aa in range(lo, hi + 1)]
                    obs = math.comb(r1, a) * math.comb(r2, c1 - a)
                    want = float(Fraction(sum(v for v in nums if v <= obs), denom))
                    checked += 1
                    if got != want:
                        mismatches += 1
    fisher_ok = mismatches == 0
    elapsed = time.time() - t0
    report(9, "Kupiec and Fisher oracles", kupiec_ok and fisher_ok,
           f"kupiec worst err {worst:.1e} (1000 draws); fisher exact on "
           f"{checked} tables, {mismatches} mismatches; {elapsed:.0f}s")


def test_criterion_10_var_self_consistency():
    case = tv.gen_two_regime_gaussian(1.0, T=1200, switch_period=300, seed=29)
    scaled, scaling = tv.rescale(case.panel)
    fitted = tv.fit(scaled.values, ModelConfig(k=1, c_gamma=1.0, m=6, seed=0))
    draws = tv.sample(fitted.lambdas[0], 5000, seed=31)
    returns = scaling.invert(draws[:, None])
    result = tv.backtest(fitted, scaling, returns, alphas=(0.95, 0.99))
    cov95 = float(result.coverage[0, 0])
    cov99 = float(result.coverage[0, 1])
    ok = abs(cov95 - 0.05) <= 0.01 and abs(cov99 - 0.01) <= 0.005
    report(10, "VaR self-consistency", ok,
           f"coverage {cov95:.4f} (target 0.05 +-0.01) and {cov99:.4f} "
           f"(target 0.01 +-0.005) at T_out=5000")


def test_criterion_11_acf_reproduction():
    case = tv.gen_two_regime_gaussian(4.0, T=1000, switch_period=250, seed=0)
    scaled, scaling = tv.rescale(case.panel)
    report_sel = tv.grid_search(scaled.values, [2], list(range(1, 11)),
                                config=ModelConfig(m=6, n_anneal=4, seed=0),
                                stage2_points=0)
    best = report_sel.best_fit
    x = case.panel.values[:, 0]
    rho_data = tv.acf_abs(x, d=1.0, max_lag=50)
    _, ma = tv.acf_bands(rho_data, len(x))
    rho_model = tv.simulated_acf(best, n_samples=500, d=1.0, max_lag=50,
                                 seed=0, scaling=scaling)
    frac = float(np.mean(np.abs(rho_model - rho_data) <= ma))
    ok = frac >= 0.80
    report(11, "model ACF inside the Bartlett band", ok,
           f"{100 * frac:.0f}% of lags 1..50 inside the MA band (need >= 80%)")


def test_criterion_12_grid_determinism(tmp_path):
    data = tmp_path / "panel.csv"
    case = tv.gen_two_regime_gaussian(4.0, T=300, switch_period=100, seed=41)
    data.write_text("\n".join(repr(float(v)) for v in case.panel.values[:, 0]) + "\n")
    outputs = []
    for run in range(2):
        out = tmp_path / f"report{run}.json"
        csv_out = tmp_path / f"report{run}.csv"
        rc = cli_main(["grid", str(data), "--kmax", "2", "--cgamma-max", "3",
                       "--m", "4", "--anneal", "2", "--seed", "13",
                       "--stage2-points", "2", "--jobs", str(run + 1),
                       "-o", str(out), "--output-csv", str(csv_out)])
        assert rc == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1]
    report(12, "grid command determinism", ok,
           f"two runs with identical inputs and seed produced "
           f"{'identical' if ok else 'DIFFERENT'} {len(outputs[0])}-byte reports")
