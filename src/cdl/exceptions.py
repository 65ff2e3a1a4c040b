"""Exception types shared across the package."""


class CdlError(Exception):
    """Base class for all package errors."""


class ParseError(CdlError):
    """A data file could not be parsed; the message carries file and line."""


class ValidationError(CdlError):
    """Input data violates a structural constraint."""


class ArgumentError(CdlError):
    """An argument lies outside its documented domain; ``fields`` names the
    offending hyperparameter fields, when the argument is one."""

    def __init__(self, message, fields=()):
        super().__init__(message)
        self.fields = tuple(fields)


class ShapeError(CdlError):
    """Matrix dimensions do not line up."""


class NumericError(CdlError):
    """A computation produced or received non-finite values."""


class ConfigError(CdlError):
    """A config file has missing or unknown keys."""

    def __init__(self, message, bad_keys=()):
        super().__init__(message)
        self.bad_keys = tuple(bad_keys)


class TrainingError(CdlError):
    """Training diverged beyond recovery; carries the last finite state."""

    def __init__(self, message, checkpoint=None):
        super().__init__(message)
        self.checkpoint = checkpoint
