"""Exception types shared across the package."""


class EdlaeError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatch(EdlaeError):
    """Operands have incompatible shapes."""


class NotPositiveDefinite(EdlaeError):
    """A symmetric matrix is not positive definite to working precision."""


class NoConvergence(EdlaeError):
    """The symmetric eigensolver failed to converge."""


class InvalidDropout(EdlaeError):
    """Dropout probability outside [0, 1)."""


class ParseError(EdlaeError):
    """An input file could not be parsed.  ``line`` is the bad line's number,
    or None when no single line is at fault; ``file`` names the file when
    the message would not otherwise say which one."""

    def __init__(self, message, line=None, file=None):
        if line is None:
            where = file
        else:
            where = f"line {line}" if file is None else f"{file}, line {line}"
        super().__init__(f"{where}: {message}" if where else message)
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
