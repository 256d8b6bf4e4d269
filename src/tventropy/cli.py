"""Command-line front end.

Subcommands cover the full pipeline: ``fit`` and ``grid`` estimate models
from a CSV panel, ``gen-synthetic`` produces the two-regime test system,
``simulate`` draws panels from a saved model, ``acf`` compares data and
model autocorrelation, ``var`` runs the walk-forward VaR backtest, and
``graph`` builds the latent transition relation graph from saved models.

All randomised steps take an explicit ``--seed`` (default 0); outputs are
deterministic functions of the inputs and flags.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys
from dataclasses import asdict, fields

from . import diagnostics, forecast, model_io
from .errors import TvEntropyError
from .estimator import ModelConfig, anneal, grid_search
from .panel import Panel, load_csv, rescale


def _config_from_args(args) -> ModelConfig:
    """The model settings a subcommand takes; the rest keep their defaults."""
    return ModelConfig(**{f.name: getattr(args, f.name)
                          for f in fields(ModelConfig) if hasattr(args, f.name)})


def _default(fn, name: str):
    """The library's own default of ``fn``'s parameter ``name``."""
    return inspect.signature(fn).parameters[name].default


def _add_model_opts(p):
    p.add_argument("--k", type=int, default=ModelConfig.k, help="number of regimes")
    p.add_argument("--cgamma", type=float, default=ModelConfig.c_gamma, dest="c_gamma",
                   metavar="CGAMMA", help="switch budget per regime")
    p.add_argument("--clambda", type=float, default=ModelConfig.c_lambda, dest="c_lambda",
                   metavar="CLAMBDA", help="l1 bound (default unbounded)")


def _add_common(p):
    p.add_argument("--m", type=int, default=ModelConfig.m,
                   help=f"moment order (default {ModelConfig.m})")
    p.add_argument("--anneal", type=int, default=ModelConfig.n_anneal, dest="n_anneal",
                   metavar="ANNEAL", help=f"annealing restarts (default {ModelConfig.n_anneal})")
    p.add_argument("--seed", type=int, default=ModelConfig.seed)


def _add_csv_opts(p):
    p.add_argument("csv", help="input CSV panel (rows = time, columns = dimensions)")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--header", action="store_true", help="first row holds labels")


def _write_csv(path: str, header: list[str], rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_fit(args) -> int:
    panel = load_csv(args.csv, delimiter=args.delimiter, header=args.header)
    scaled, scaling = rescale(panel)
    config = _config_from_args(args)
    result = anneal(scaled.values, config)
    model_io.save_model(args.output, result, scaling, labels=panel.labels)
    print(f"K={result.k} L={result.objective:.4f} BIC={result.bic:.4f} "
          f"p={result.param_count} converged={result.converged} "
          f"degenerate={result.degenerate} lambda_unconverged={result.lambda_unconverged}")
    print(f"model written to {args.output}")
    return 0


def cmd_grid(args) -> int:
    panel = load_csv(args.csv, delimiter=args.delimiter, header=args.header)
    scaled, scaling = rescale(panel)
    # grid_search sets K, C_gamma and the l1 bounds of every cell itself
    report = grid_search(
        scaled.values,
        k_grid=range(1, args.kmax + 1),
        c_gamma_grid=range(1, args.cgamma_max + 1),
        config=_config_from_args(args),
        stage2_points=args.stage2_points,
        jobs=args.jobs,
    )
    best = report.best_fit
    obj = {
        "schema": 1,
        "stage1": [asdict(c) for c in report.stage1],
        "stage2": [asdict(c) for c in report.stage2],
        "chosen": {
            "k": best.config.k,
            "c_gamma": best.config.c_gamma,
            "c_lambda": report.chosen_c_lambda,
            "k_star": report.chosen_k_star,
            "bic": best.bic,
        },
    }
    model_io.write_json_atomic(args.output, obj)
    _write_csv(args.output_csv, ["k", "c_gamma", "bic"],
               [[c.k, c.c_gamma, c.bic] for c in report.stage1])
    if args.model_output:
        model_io.save_model(args.model_output, best, scaling, labels=panel.labels)
    print(f"chosen K={best.config.k} C_gamma={best.config.c_gamma} "
          f"k*={list(report.chosen_k_star)} BIC={best.bic:.4f}")
    return 0


def cmd_gen_synthetic(args) -> int:
    case = diagnostics.gen_two_regime_gaussian(
        args.v2, T=args.t, switch_period=args.switch_period, seed=args.seed)
    with open(args.output, "w", newline="", encoding="utf-8") as fh:
        fh.writelines(f"{float(v)!r}\n" for v in case.panel.values[:, 0])
    truth_path = args.output + ".truth.csv"
    hard = case.gamma_true.argmax(axis=0)[:, 0]
    _write_csv(truth_path, ["regime", "variance"],
               [[int(r), float(v)] for r, v in zip(hard, case.v_true)])
    print(f"wrote {args.output} and {truth_path}")
    return 0


def cmd_simulate(args) -> int:
    fit_result, scaling, labels = model_io.load_model(args.model)
    sims = diagnostics.simulate_panels(fit_result, scaling,
                                       n_samples=args.n_samples, seed=args.seed)
    rows = []
    for s in range(sims.shape[0]):
        for t in range(sims.shape[1]):
            rows.append([s, t] + [float(v) for v in sims[s, t]])
    _write_csv(args.output, ["sample", "t"] + labels, rows)
    print(f"wrote {sims.shape[0]} simulated panel(s) to {args.output}")
    return 0


def cmd_acf(args) -> int:
    panel = load_csv(args.csv, delimiter=args.delimiter, header=args.header)
    if not 0 <= args.dim < panel.n:
        raise TvEntropyError(f"--dim must be in [0, {panel.n - 1}], got {args.dim}")
    x = panel.values[:, args.dim]
    rho = diagnostics.acf_abs(x, d=args.d, max_lag=args.max_lag)
    iid, ma = diagnostics.acf_bands(rho, panel.T)
    rho_model = None
    if args.model:
        fit_result, scaling, _ = model_io.load_model(args.model)
        rho_model = diagnostics.simulated_acf(
            fit_result, n_samples=args.n_samples, d=args.d, max_lag=args.max_lag,
            seed=args.seed, i=args.dim, scaling=scaling)
    header = ["lag", "rho", "iid_half_width", "ma_half_width"]
    rows = [[lag + 1, float(rho[lag]), float(iid[lag]), float(ma[lag])]
            for lag in range(args.max_lag)]
    if rho_model is not None:
        header.append("rho_model")
        for lag in range(args.max_lag):
            rows[lag].append(float(rho_model[lag]))
    _write_csv(args.output, header, rows)
    print(f"wrote {args.max_lag} lags to {args.output}")
    return 0


def cmd_var(args) -> int:
    panel = load_csv(args.csv, delimiter=args.delimiter, header=args.header)
    split = args.train_split
    if not 2 <= split < panel.T:
        raise TvEntropyError(f"--train-split must be in [2, {panel.T - 1}]")
    train = Panel(values=panel.values[:split], labels=panel.labels)
    test_values = panel.values[split:]
    if args.model:
        fit_result, scaling, _ = model_io.load_model(args.model)
    else:
        scaled, scaling = rescale(train)
        fit_result = anneal(scaled.values, _config_from_args(args))
    result = forecast.backtest(fit_result, scaling, test_values,
                               alphas=args.alpha or _default(forecast.backtest, "alphas"),
                               labels=panel.labels)
    rows = list(result.rows())
    _write_csv(args.output, list(rows[0]), [list(r.values()) for r in rows])
    for r in rows:
        print(f"{r['dimension']} alpha={r['alpha']}: coverage={r['coverage']:.4f} "
              f"LR={r['lr']:.4f} p={r['p_value']:.4f}")
    return 0


def cmd_graph(args) -> int:
    jumps = {}
    for path in args.models:
        fit_result, scaling, labels = model_io.load_model(path)
        for i, label in enumerate(labels):
            name = label if label not in jumps else f"{label}:{path}"
            jumps[name] = diagnostics.jump_series(fit_result, scaling, i)
    graph = diagnostics.transition_graph(jumps, max_lag=args.lag_max,
                                         p_threshold=args.p_threshold)
    model_io.write_json_atomic(args.output + ".json", graph.to_json_obj())
    with open(args.output + ".dot", "w", encoding="utf-8") as fh:
        fh.write(graph.to_dot())
    print(f"{len(graph.edges)} edge(s); wrote {args.output}.json and {args.output}.dot")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tventropy",
        description="Sparse nonstationary maximum-entropy regime switching")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fit", help="estimate one model from a CSV panel")
    _add_csv_opts(p)
    _add_model_opts(p)
    _add_common(p)
    p.add_argument("-o", "--output", default="model.json")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("grid", help="two-stage (K, C_gamma) then C_lambda selection")
    _add_csv_opts(p)
    p.add_argument("--kmax", type=int, default=4)
    p.add_argument("--cgamma-max", type=int, default=50)
    p.add_argument("--stage2-points", type=int, default=_default(grid_search, "stage2_points"),
                   help="l1 grid size for stage 2 (0 disables)")
    p.add_argument("--jobs", type=int, default=_default(grid_search, "jobs"))
    _add_common(p)
    p.add_argument("-o", "--output", default="grid.json")
    p.add_argument("--output-csv", default="grid.csv")
    p.add_argument("--model-output", default=None, help="also save the chosen model here")
    p.set_defaults(func=cmd_grid)

    p = sub.add_parser("gen-synthetic", help="two-regime Gaussian test panel")
    p.add_argument("--v2", type=float, default=4.0, help="variance of the second regime")
    gen = diagnostics.gen_two_regime_gaussian
    p.add_argument("--t", type=int, default=_default(gen, "T"))
    p.add_argument("--switch-period", type=int, default=_default(gen, "switch_period"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="synthetic.csv")
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("simulate", help="draw panels from a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--n-samples", type=int,
                   default=_default(diagnostics.simulate_panels, "n_samples"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="simulated.csv")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("acf", help="|x|^d autocorrelation with confidence bands")
    _add_csv_opts(p)
    p.add_argument("--d", type=float, default=_default(diagnostics.acf_abs, "d"))
    p.add_argument("--max-lag", type=int, default=100)
    p.add_argument("--dim", type=int, default=0)
    p.add_argument("--model", default=None, help="add the model-simulated mean ACF")
    p.add_argument("--n-samples", type=int,
                   default=_default(diagnostics.simulated_acf, "n_samples"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", default="acf.csv")
    p.set_defaults(func=cmd_acf)

    p = sub.add_parser("var", help="walk-forward VaR backtest with Kupiec test")
    _add_csv_opts(p)
    p.add_argument("--train-split", type=int, required=True,
                   help="row index where the test window starts")
    alphas = " and ".join(map(str, _default(forecast.backtest, "alphas")))
    p.add_argument("--alpha", type=float, action="append", default=None,
                   help=f"coverage level; repeatable (default {alphas})")
    p.add_argument("--model", default=None, help="reuse a saved model instead of fitting")
    _add_model_opts(p)
    _add_common(p)
    p.add_argument("-o", "--output", default="var.csv")
    p.set_defaults(func=cmd_var)

    p = sub.add_parser("graph", help="latent transition relation graph")
    p.add_argument("--models", nargs="+", required=True,
                   help="saved per-asset model files")
    graph = diagnostics.transition_graph
    p.add_argument("--lag-max", type=int, default=_default(graph, "max_lag"))
    p.add_argument("--p-threshold", type=float, default=_default(graph, "p_threshold"))
    p.add_argument("-o", "--output", default="graph",
                   help="output prefix for .json and .dot")
    p.set_defaults(func=cmd_graph)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (TvEntropyError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
