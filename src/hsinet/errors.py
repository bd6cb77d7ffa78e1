"""Exception types shared across the package, and the one file reader that
raises them.

The CLI maps these onto exit codes: ConfigError -> 1, DataError (and its
subclasses) -> 2, NumericError -> 3.
"""
from pathlib import Path


class HsinetError(Exception):
    """Base class for all package errors."""


class ConfigError(HsinetError):
    """Invalid configuration: bad spec fields, malformed config files, bad flags."""


class DataError(HsinetError):
    """Invalid or inconsistent data: parse failures, label problems, empty splits."""


class ShapeError(DataError):
    """Tensor shape mismatch; the message names both shapes."""


class CheckpointError(DataError):
    """Corrupt, truncated, or incompatible checkpoint file."""


class NumericError(HsinetError):
    """Non-finite value encountered during training."""


def read_file(path, what, error=DataError):
    """The bytes of the file at `path`. Any OSError (missing file, directory,
    no permission) becomes `error` naming `what` and the path."""
    try:
        return Path(path).read_bytes()
    except FileNotFoundError:
        raise error(f"{what} '{path}' does not exist") from None
    except OSError as e:
        raise error(f"{what} '{path}' cannot be read: {e.strerror or e}") from None
