"""Exception hierarchy shared by all modules.

Every error raised on a validated code path derives from DsvKernelError; the
CLI exits with its class's ``exit_code`` after one stderr line led by ``label``.
"""


#: What reading a missing or ill-typed field of a JSON document raises.
MALFORMED_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class DsvKernelError(Exception):
    """Base class for all package errors."""

    exit_code = 2
    label = "error"


class InvalidInputError(DsvKernelError):
    """A value is outside its documented domain (non-finite, wrong sign, ...)."""


class InvalidDimensionError(DsvKernelError):
    """Array shapes or basis cutoffs do not line up."""


class CutoffExceededError(DsvKernelError):
    """Requested operator parameters would push significant amplitude past the
    basis cutoff; results would be silently wrong, so we refuse instead."""


class DegenerateLabelsError(DsvKernelError):
    """A training set or split has too few classes or class members."""


class DatasetParseError(DsvKernelError):
    """A CSV file exists but its content cannot be interpreted.  Messages
    carry row/column context."""


class NonConvergenceError(DsvKernelError):
    """Optimization stopped before reaching its tolerance."""

    exit_code = 3
    label = "non-convergence"
