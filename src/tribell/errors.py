"""Shared exception types."""

__all__ = ["ValidationError", "NumericError"]


class ValidationError(ValueError):
    """Input violates a documented precondition or invariant."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or to bracket a root."""
