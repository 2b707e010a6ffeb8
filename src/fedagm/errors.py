"""Exception hierarchy shared by all fedagm modules."""


class FedAgmError(Exception):
    """Base class for every error raised by this package; `key` names the
    field at fault when the message alone does not."""

    def __init__(self, message: str, key: str | None = None):
        super().__init__(message)
        self.key = key


class StructuralError(FedAgmError, ValueError):
    """Shape, length, or wiring mismatch (wrong dimensions, missing state)."""


class NumericError(FedAgmError, ArithmeticError):
    """Invalid numeric content: division by zero, negative variance, non-finite values."""


class ParameterError(FedAgmError, ValueError):
    """Hyperparameter outside its admissible range."""


class ConfigError(FedAgmError, ValueError):
    """Malformed or inconsistent experiment configuration."""
