"""Lossless JSON serialisation of fitted models.

The document stores the scaling maps, per-regime coefficients with their
log-partitions, the affiliation field (run-length encoded per dimension),
every ``ModelConfig`` field and the fit summary.  Serialisation is
canonical (sorted keys, no whitespace), so write -> read -> write is
byte-identical.
"""

from __future__ import annotations

import json
import math
import os
from contextlib import suppress
from dataclasses import fields

import numpy as np

from .estimator import FitResult, ModelConfig, _k_star
from .panel import ScalingMap

SCHEMA_VERSION = 1


def _rle_encode(gamma: np.ndarray) -> list:
    """Per dimension: runs of consecutive equal affiliation vectors."""
    dims = []
    for g in gamma.transpose(2, 1, 0):                  # (T, K) per dimension
        starts = np.flatnonzero(np.r_[True, (g[1:] != g[:-1]).any(axis=1)])
        lengths = np.diff(np.r_[starts, len(g)])
        dims.append([[int(length), g[t].tolist()] for t, length in zip(starts, lengths)])
    return dims


def _rle_decode(dims: list, K: int) -> np.ndarray:
    """Inverse of ``_rle_encode``; a malformed run list raises ``ValueError``."""
    if not dims:
        raise ValueError("model file has no affiliation dimensions")
    cols = []
    for i, runs in enumerate(dims):
        if not runs:
            raise ValueError(f"affiliation dimension {i} has no runs")
        lengths = np.asarray([length for length, _ in runs])
        if lengths.dtype.kind not in "iu" or lengths.min() < 1:
            raise ValueError(f"affiliation dimension {i} has a run length that is "
                             "not a positive integer")
        if any(not isinstance(vec, list) or len(vec) != K for _, vec in runs):
            raise ValueError(f"affiliation dimension {i} has a vector whose length "
                             f"is not K={K}")
        cols.append(np.repeat(np.asarray([vec for _, vec in runs], dtype=float).T,
                              lengths, axis=1))     # (K, T)
    totals = sorted({col.shape[1] for col in cols})
    if len(totals) > 1:
        raise ValueError(f"affiliation dimensions have unequal lengths {totals}")
    return np.stack(cols, axis=2)


def model_to_obj(fit_result: FitResult, scaling: ScalingMap, labels=None) -> dict:
    cfg = fit_result.config
    config = {f.name: getattr(cfg, f.name) for f in fields(ModelConfig)}
    config["c_lambda"] = [None if math.isinf(v) else float(v)
                          for v in cfg.c_lambda_per_regime()]
    return {
        "schema": SCHEMA_VERSION,
        "labels": list(labels) if labels else [f"x{i + 1}" for i in range(fit_result.shape[1])],
        "scaling": {"a": [float(v) for v in scaling.a],
                    "b": [float(v) for v in scaling.b]},
        "config": config,
        "lambda": [[float(v) for v in row] for row in fit_result.lambdas],
        "log_z": [float(v) for v in fit_result.log_z],
        "gamma_rle": _rle_encode(fit_result.gamma),
        "objective": float(fit_result.objective),
        "bic": float(fit_result.bic),
        "param_count": fit_result.param_count,
        "k_star": list(_k_star(fit_result.lambdas, cfg.eps_sparse)),
        "converged": fit_result.converged,
        "degenerate": fit_result.degenerate,
        "trace": [float(v) for v in fit_result.trace],
    }


def obj_to_model(obj: dict) -> tuple[FitResult, ScalingMap, list[str]]:
    if not isinstance(obj, dict):
        raise ValueError("malformed model file: the top level is not a JSON object")
    if obj.get("schema") != SCHEMA_VERSION:
        raise ValueError(f"unsupported model schema: {obj.get('schema')!r}")
    try:
        cfg_obj = obj["config"]
        # older files name the quadrature order; only the fixed 200-node rule
        # reproduces their lambda and log Z
        if "quad_order" in cfg_obj and cfg_obj["quad_order"] != 200:
            raise ValueError(f"model file was fitted with a {cfg_obj['quad_order']}-node "
                             "quadrature rule; this version uses 200 nodes, refit the model")
        # keys absent from older schema-1 files take their defaults
        settings = {f.name: cfg_obj[f.name] for f in fields(ModelConfig) if f.name in cfg_obj}
        settings["c_lambda"] = tuple(math.inf if v is None else float(v)
                                     for v in cfg_obj["c_lambda"])
        config = ModelConfig(**settings)
        fit_result = FitResult(
            gamma=_rle_decode(obj["gamma_rle"], config.k),
            lambdas=np.asarray(obj["lambda"], dtype=float),
            log_z=np.asarray(obj["log_z"], dtype=float),
            objective=obj["objective"],
            bic=obj["bic"],
            param_count=obj["param_count"],
            trace=list(obj["trace"]),
            converged=obj["converged"],
            degenerate=obj["degenerate"],
            config=config,
            n_outer=len(obj["trace"]),
        )
        scaling = ScalingMap(a=np.asarray(obj["scaling"]["a"], dtype=float),
                             b=np.asarray(obj["scaling"]["b"], dtype=float))
        labels = list(obj["labels"])
        n = fit_result.shape[1]
        for part, got, want in [("lambda", fit_result.lambdas.shape, (config.k, config.m)),
                                ("log_z", fit_result.log_z.shape, (config.k,)),
                                ("labels", (len(labels),), (n,)),
                                ("scaling", scaling.a.shape, (n,))]:
            if got != want:
                raise ValueError(f"malformed model file: {part} has shape {got}, "
                                 f"the model needs {want}")
        return fit_result, scaling, labels
    except KeyError as exc:
        raise ValueError(f"model file has no key {exc}") from None
    except TypeError as exc:            # a part of the wrong JSON type
        raise ValueError(f"malformed model file: {exc}") from None


def dumps_canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def write_text_atomic(path: str, text: str) -> None:
    """Replace ``path`` in one step by ``text`` (UTF-8, newlines as given) at the
    mode ``open(path, "w")`` gives: an existing file's, else 0o666 less the umask."""
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"       # beside it, so the rename is atomic
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", newline="", encoding="utf-8") as fh:
            with suppress(FileNotFoundError):
                os.chmod(tmp, os.stat(path).st_mode & 0o7777)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def write_json_atomic(path: str, obj) -> None:
    """Serialise canonically and replace the target file in one step."""
    write_text_atomic(path, dumps_canonical(obj))


def save_model(path: str, fit_result: FitResult, scaling: ScalingMap, labels=None) -> None:
    write_json_atomic(path, model_to_obj(fit_result, scaling, labels))


def load_model(path: str):
    with open(path, encoding="utf-8") as fh:
        return obj_to_model(json.load(fh))
