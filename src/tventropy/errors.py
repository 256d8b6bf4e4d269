"""Exception types shared across the package."""


class TvEntropyError(Exception):
    """Base class for all package errors."""


class ParseError(TvEntropyError):
    """A CSV cell failed to parse; carries 1-based row/column coordinates."""

    def __init__(self, row: int, col: int, value: str, message: str = ""):
        self.row = row
        self.col = col
        self.value = value
        super().__init__(
            message or f"cannot parse cell {value!r} at row {row}, column {col}"
        )


class EmptyInput(TvEntropyError):
    """Input file or array contains no usable data."""


class DegenerateDimension(TvEntropyError):
    """A dimension has max == min and cannot be rescaled."""


class DomainError(TvEntropyError):
    """Argument outside the supported domain (e.g. x not in [-1, 1])."""


class EmptyRegime(TvEntropyError):
    """A regime received zero total weight; the caller must skip or freeze it."""


class SolverError(TvEntropyError):
    """The underlying LP solver reported a failure."""


class DegenerateSeries(TvEntropyError):
    """A series is constant and the requested statistic is undefined."""
