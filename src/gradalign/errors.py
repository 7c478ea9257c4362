"""Exception taxonomy shared across the package.

CLI exit codes map onto these: ConfigError-family -> 2, DivergenceError -> 3.
A verification run with a failing verdict exits 4.
"""


class DimensionError(ValueError):
    """Vector/matrix shapes do not line up."""


class UsageError(ValueError):
    """An operation was called outside its contract (empty input, K too large, ...)."""


class ConfigError(ValueError):
    """Invalid experiment configuration (unknown key, bad value, missing file)."""


class DataFormatError(ConfigError):
    """Malformed data file; message carries the offending line number."""


class NumericError(ArithmeticError):
    """A computation produced non-finite values."""


class DivergenceError(NumericError):
    """An optimization iterate left the trust region (norm > 1e8 or non-finite)."""

    def __init__(self, message, *, algorithm=None, round_index=None, step=None):
        super().__init__(message)
        self.algorithm = algorithm
        self.round_index = round_index
        self.step = step
