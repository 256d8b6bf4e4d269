"""Panel data model: CSV ingestion and rescaling to [-1, 1]."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDimension, EmptyInput, ParseError

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class Panel:
    """T x n matrix of observations with per-dimension labels.

    ``values[t, i]`` is the observation of dimension i at time t.
    """

    values: np.ndarray
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2:
            raise ValueError(f"panel values must be 2-D, got shape {values.shape}")
        if values.shape[0] < 2 or values.shape[1] < 1:
            raise ValueError(f"panel needs T >= 2 rows and n >= 1 columns, got {values.shape}")
        if not np.isfinite(values).all():
            bad = np.argwhere(~np.isfinite(values))[0]
            raise ValueError(f"panel contains a non-finite entry at (t={bad[0]}, i={bad[1]})")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        labels = tuple(self.labels) or tuple(f"x{i + 1}" for i in range(values.shape[1]))
        if len(labels) != values.shape[1]:
            raise ValueError("label count does not match column count")
        object.__setattr__(self, "labels", labels)

    @property
    def T(self) -> int:
        return self.values.shape[0]

    @property
    def n(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class ScalingMap:
    """Per-dimension affine maps x' = a_i * x + b_i taking data into [-1, 1]."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a, dtype=float)
        b = np.asarray(self.b, dtype=float)
        if a.shape != b.shape or a.ndim != 1:
            raise ValueError("scaling coefficients must be equal-length 1-D arrays")
        if np.any(a <= 0):
            raise ValueError("scaling slopes must be positive")
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def apply(self, values: np.ndarray, clip: bool = False) -> np.ndarray:
        """Scale raw values; with clip=True out-of-range points snap to +-1."""
        scaled = np.asarray(values, dtype=float) * self.a + self.b
        if clip:
            n_out = int(np.sum((scaled < -1.0) | (scaled > 1.0)))
            if n_out:
                logger.warning("clipped %d out-of-sample point(s) to [-1, 1]", n_out)
            scaled = np.clip(scaled, -1.0, 1.0)
        return scaled

    def invert(self, scaled: np.ndarray) -> np.ndarray:
        return (np.asarray(scaled, dtype=float) - self.b) / self.a


def load_csv(path, delimiter: str = ",", header: bool = False) -> Panel:
    """Read a numeric CSV into a Panel.

    Every cell must parse as a finite real; the first offending cell raises
    ParseError with 1-based coordinates, so a row of empty or blank cells
    raises too.  Only empty lines are skipped.  Rows must have a consistent
    column count.
    """
    rows: list[list[float]] = []
    labels: tuple[str, ...] = ()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for r, raw in enumerate(reader, start=1):
            if not raw:
                continue
            if header and not rows and not labels:
                labels = tuple(cell.strip() for cell in raw)
                continue
            parsed = []
            for c, cell in enumerate(raw, start=1):
                try:
                    v = float(cell)
                except ValueError:
                    raise ParseError(r, c, cell) from None
                if not np.isfinite(v):
                    raise ParseError(r, c, cell, f"non-finite value at row {r}, column {c}")
                parsed.append(v)
            if rows and len(parsed) != len(rows[0]):
                raise ParseError(
                    r, len(parsed), "",
                    f"row {r} has {len(parsed)} columns, expected {len(rows[0])}")
            rows.append(parsed)
    if not rows:
        raise EmptyInput(f"no data rows in {path}")
    values = np.asarray(rows, dtype=float)
    if labels and len(labels) != values.shape[1]:
        raise ParseError(1, len(labels), "", "header width does not match data width")
    return Panel(values=values, labels=labels)


def rescale(panel: Panel) -> tuple[Panel, ScalingMap]:
    """Affinely map each dimension onto [-1, 1] (min -> -1, max -> +1)."""
    lo = panel.values.min(axis=0)
    hi = panel.values.max(axis=0)
    flat = np.nonzero(hi <= lo)[0]
    if flat.size:
        raise DegenerateDimension(
            f"dimension {panel.labels[flat[0]]!r} is constant and cannot be rescaled")
    a = 2.0 / (hi - lo)
    b = -(hi + lo) / (hi - lo)
    scaling = ScalingMap(a=a, b=b)
    scaled = np.clip(scaling.apply(panel.values), -1.0, 1.0)  # guard rounding at the ends
    return Panel(values=scaled, labels=panel.labels), scaling

