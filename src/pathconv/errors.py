"""Exception types shared across the package, and :func:`check_count`, the
one rule for every integer argument: a size, count, cutoff, seed or index.

The CLI maps these onto exit codes: configuration errors exit 1, dataset
errors exit 2, numerical failures exit 3.
"""


class ConfigError(ValueError):
    """Invalid hyper-parameters, splits, or an architecture that cannot be built."""


class DatasetError(Exception):
    """Missing or malformed benchmark dataset files."""


class NumericalError(ArithmeticError):
    """Non-finite values encountered during training or optimization."""


def check_count(name: str, value, least: int) -> None:
    """ConfigError ``need NAME >= LEAST, got NAME=VALUE`` unless ``value``
    is an int (not a bool, not a numpy integer) of at least ``least``."""
    if type(value) is not int or value < least:
        raise ConfigError(f"need {name} >= {least}, got {name}={value!r}")
