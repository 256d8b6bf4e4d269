"""Benchmark entry point: one workload, one seed, one process.

    python3 bench/run.py --workload select-lp --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from its
``src`` directory.  Set-up (imports, inputs, files) is timed from the start
of the process.  Then whole rounds of the workload run while the next one
is expected to end within ``--seconds`` (at least one round).  Every round
is checked against the benchmark's own references; a round whose outputs
differ from the first round's, on the same inputs, fails every operation.

With ``--trace 0`` the last line of stdout holds the end-to-end metrics.
With ``--trace 1`` one untraced round runs first, then traced rounds, and
the last line holds the per-layer metrics.  A report with the run metadata
(and, when traced, the span dump) is written under ``.bench_runs/``.
"""

from __future__ import annotations

import time

_T_IMPORT = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

WORKLOADS = ("select-lp", "sparse-fit", "analyse")


def since_process_start() -> float:
    """Seconds since this process was created, from /proc when available."""
    try:
        with open("/proc/self/stat", encoding="ascii") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        elapsed = time.clock_gettime(time.CLOCK_BOOTTIME) - started
        if 0.0 <= elapsed < 3600.0:
            return elapsed
    except (OSError, ValueError, IndexError, AttributeError):
        pass
    return time.perf_counter() - _T_IMPORT


def git_sha(root: Path) -> str:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        path = root / ".git" / name
        if path.is_file():
            return path.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def import_package():
    src = ROOT / "src"
    if not (src / "tventropy" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {src / 'tventropy'}; "
                 "run from the root of a tventropy checkout")
    sys.path.insert(0, str(src))
    import tventropy
    # the workloads reach every module as an attribute of the package
    from tventropy import cli, model_io  # noqa: F401
    if Path(tventropy.__file__).resolve().parent != (src / "tventropy").resolve():
        sys.exit(f"error: imported tventropy from {tventropy.__file__}, not from {src}")
    return tventropy


def make_workload(name, seed, workdir, tv):
    if name == "select-lp":
        from select_lp import SelectLP
        return SelectLP(seed, workdir, tv)
    if name == "sparse-fit":
        from sparse_fit import SparseFit
        return SparseFit(seed, workdir, tv)
    from analyse import Analyse
    return Analyse(seed, workdir, tv)


def measure(wl, rec, budget_s: float):
    """Whole rounds, at least one, while the next is expected to end within
    budget_s.  Only the first round's outputs are kept; every round keeps a
    digest of its outputs, taken outside the timed part."""
    rounds = []
    start = time.perf_counter()
    while True:
        mark0, c0, t0 = rec.mark(), time.process_time(), time.perf_counter()
        out = wl.round(rec)
        t1, c1, mark1 = time.perf_counter(), time.process_time(), rec.mark()
        rounds.append({"wall_s": t1 - t0, "cpu_s": c1 - c0, "digest": wl.digest(out),
                       "out": None if rounds else out,
                       "window": rec.window(mark0, mark1) if rec.tracing else None})
        del out
        if (t1 - start) + (t1 - t0) > budget_s:
            return rounds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    tv = import_package()
    import numpy as np
    import scipy
    from layers import PER_LAYER, layer_metrics
    from tracing import Recorder

    workdir = ROOT / ".bench_runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    wl = make_workload(args.workload, args.seed, workdir, tv)
    wl.setup()
    setup_s = since_process_start()

    rec = Recorder(tracing=False)
    wl.instrument(rec)
    try:
        rounds = measure(wl, rec, 0.0 if args.trace else args.seconds)
    finally:
        rec.restore()
    traced = []
    if args.trace:
        rec = Recorder(tracing=True)
        wl.instrument(rec)
        try:
            traced = measure(wl, rec, args.seconds - rounds[0]["wall_s"])
        finally:
            rec.restore()
        rec.dump(workdir / "spans.jsonl")
    peak_rss_mb = max(resource.getrusage(who).ru_maxrss / 1024.0
                      for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))

    # checks: the first round in full, the others by comparison with it
    every = rounds + traced
    failures = wl.check(every[0]["out"])
    per_round = len(failures)
    failed = 0
    for r in every:
        if r["digest"] == every[0]["digest"]:
            failed += per_round
        else:
            failed += wl.ops_per_round
            failures["rounds"] = "a round's outputs differ from the first round's"
    attempted = wl.ops_per_round * len(every)
    for op, why in sorted(failures.items(), key=str)[:10]:
        print(f"check failed (op {op}): {why}", file=sys.stderr)

    if args.trace:
        layers = [layer_metrics(r["window"]) for r in traced]
        values = {name: statistics.median(m[name] for m in layers) for name in layers[0]}
        values["run.cpu_s"] = rounds[0]["cpu_s"]
        values["run.tracing_overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                                            - rounds[0]["wall_s"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in rounds), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(ROOT), "cores": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "params": wl.params(),
        "rounds": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"]} for r in rounds],
        "traced_rounds": [{"wall_s": r["wall_s"], "cpu_s": r["cpu_s"]} for r in traced],
        "failures": {str(k): v for k, v in failures.items()},
    }
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(workdir / "report.json", "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "result": result}, fh, indent=1)
    print(json.dumps(meta, separators=(",", ":")), file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
