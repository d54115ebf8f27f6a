"""Exception types shared across the toolkit.

Plain ``ValueError`` is raised for caller bugs (bad argument ranges); the
classes here mark data-level problems that the CLI maps to nonzero exits.
"""


class FrameBiasError(Exception):
    """Base class for all toolkit errors."""


REPORTED = (FrameBiasError, ValueError, OSError)  # what a command reports as exit 1; a fork_map process stops at one


class AnnotationParseError(FrameBiasError):
    """Malformed annotation input (wrong columns, bad field types)."""


class ValidationError(FrameBiasError):
    """Structurally parsable input that violates a dataset invariant."""


class NotFoundError(FrameBiasError):
    """A referenced id or action class does not exist."""


class ShapeMismatchError(FrameBiasError):
    """Matrices with incompatible dimensions or id mappings."""


class DegenerateInputError(FrameBiasError):
    """Input on which the requested statistic is undefined."""
