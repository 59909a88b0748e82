"""Exception types shared across the package.

The split matters to the command-line front end, which maps each class to a
distinct exit code: format errors, unmet preconditions, and failed internal
certificates are different kinds of bad news.
"""

from __future__ import annotations


class GraphFormatError(ValueError):
    """A graph or decomposition file could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the input.

    Carries the report that documents the failure (a condition report, a
    degree-symmetry report, ...) when one exists.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report


class ConstructionError(RuntimeError):
    """An internal certificate failed during a certified construction.

    This is never a normal rejection of unsuitable input; it signals either
    a gap in the hypotheses the construction relies on or a bug, and the
    residual, when one was computed, is attached for inspection.
    """

    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual
