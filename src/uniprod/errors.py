"""Exception hierarchy shared across the package."""

from __future__ import annotations


class UniprodError(Exception):
    """Base class for all package-specific errors."""


class StructuralError(UniprodError, ValueError):
    """Malformed input: dimension mismatch, non-finite values, bad schema."""


class MissingDataError(UniprodError):
    """A required year or snapshot is absent from the ingested data."""


class DegenerateDmuError(UniprodError):
    """A DMU cannot be evaluated (all-zero output vector)."""


class AreaNotAnalyzableError(UniprodError):
    """Fewer than two DMUs survive the exclusion rules for an area."""

    def __init__(self, message: str, exclusions=()):
        super().__init__(message)
        self.exclusions = list(exclusions)


class InvariantViolationError(UniprodError, RuntimeError):
    """An internal consistency check failed; indicates a bug or broken data."""


class IngestError(UniprodError):
    """Fatal input-file problem, carrying per-line diagnostics."""

    def __init__(self, message: str, diagnostics):
        super().__init__(message)
        self.diagnostics = list(diagnostics)

    def __str__(self) -> str:  # diagnostics inline so CLI users see them
        return "\n".join([super().__str__(),
                          *("  " + d for d in self.diagnostics)])
