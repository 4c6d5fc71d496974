"""Exception types shared across the package, and the default caps behind ResourceCapError."""

from __future__ import annotations

# Default caps: on the elements that `order` lists (`interval`, `boundary`,
# `ball`) and on conjugate sets in `conjugacy`.  The CLI shows them as
# option defaults without importing those modules.
DEFAULT_INTERVAL_CAP = 20_000
DEFAULT_CONJUGACY_CAP = 100_000


class RaagError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(RaagError):
    """Malformed graph file or word text. Carries a 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class GraphMismatchError(RaagError):
    """Two elements from different presentations were combined."""


class ResourceCapError(RaagError):
    """An enumeration or an input exceeded its cap. Never a silent truncation."""

    def __init__(self, what: str, cap: int, unit: str = "elements"):
        self.what = what
        self.cap = cap
        super().__init__(f"{what} exceeded the cap of {cap} {unit}")


class InvariantViolationError(RaagError):
    """An internal invariant failed; indicates a bug or a broken caller-supplied predicate."""
