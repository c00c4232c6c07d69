"""Exception types shared across the package."""


class EdlaeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EdlaeError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(EdlaeError):
    """A symmetric factorization failed; the matrix is not positive definite."""


class NoConvergence(EdlaeError):
    """The symmetric eigensolver failed to converge."""


class OracleCapExceeded(EdlaeError):
    """A verification-only routine was called on an instance above its size cap."""


class InvalidDropout(EdlaeError):
    """Dropout probability outside [0, 1)."""


class ParseError(EdlaeError):
    """An input file row could not be parsed; ``file`` names the file when
    the message would not otherwise say which one."""

    def __init__(self, message, line, file=None):
        where = f"line {line}" if file is None else f"{file}, line {line}"
        super().__init__(f"{where}: {message}")
        self.line = line


class EmptyDataset(EdlaeError):
    """The input file contains no interactions."""


class InsufficientUsers(EdlaeError):
    """Not enough eligible users to populate the requested holdout groups."""


class EmptyHoldout(EdlaeError):
    """A held-out user has no holdout items to rank against."""


class Divergence(EdlaeError):
    """Gradient descent produced a non-finite loss and could not recover."""


class ModelFormatError(EdlaeError):
    """A serialized model file has a bad magic, version, size, or payload."""


class ConfigError(EdlaeError):
    """A job configuration is invalid."""
