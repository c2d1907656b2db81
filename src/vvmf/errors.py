"""Exception types shared across the package."""


class VvmfError(Exception):
    """Base class for all package-specific errors."""


class ConsistencyError(VvmfError):
    """An internal cross-check failed; indicates an engine bug, not bad input."""


class UsageError(VvmfError):
    """A refused request (exit 2): bad arguments or files, a number too long to write."""


class PrecisionError(VvmfError):
    """A result is indistinguishable from zero (or a comparison window is
    empty) at the available truncation order.  Raising instead of guessing
    keeps truncation from turning into silent wrongness."""


class RepValidationError(VvmfError):
    """A representation failed one of the defining matrix relations."""
