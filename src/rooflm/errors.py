"""Exception types shared across the package."""

from __future__ import annotations


class ConfigValidationError(ValueError):
    """One or more config invariants failed; carries the aggregated issue list.

    Each issue is a (code, message) pair, e.g. ("dimension_mismatch", ...).
    """

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(msg for _, msg in self.issues))

    def codes(self):
        return tuple(code for code, _ in self.issues)


class NonPositiveIntensity(ValueError):
    """Arithmetic intensity must be strictly positive for roofline placement."""


class EmptyRowSet(ValueError):
    """Report emission was asked to write zero rows."""
