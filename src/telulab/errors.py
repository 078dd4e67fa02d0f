"""Shared exception types.

The CLI maps these onto its exit-code contract: configuration and usage
problems exit 2, verification failures exit 1, divergence is data and
exits 0, and any other exception exits 3.
"""


class ConfigError(ValueError):
    """A run configuration is malformed; message carries the field path."""


class FormatError(ValueError):
    """An on-disk artifact (dataset binary, checkpoint) is malformed."""


class DataError(ValueError):
    """In-memory data violates a contract (e.g. label out of range)."""


class DomainError(ValueError):
    """A numeric argument is outside the function's domain (NaN/Inf input)."""


class UnsupportedOperationError(RuntimeError):
    """The requested operation is not defined for this activation kind."""


class DivergenceError(ArithmeticError):
    """First non-finite value seen in a forward/backward pass or update.

    Raised at the point of detection; the training harness converts it
    into a recorded divergence event rather than letting it escape.
    """
