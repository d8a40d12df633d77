"""Exception hierarchy shared across the package.

Each error class names its kind (``label``) and the process exit code the
CLI ends with: config errors exit 2, data errors exit 3, numeric failures
exit 4.
"""


class EcnnError(Exception):
    """Base class for all package-specific errors."""

    label: str
    exit_code: int


class ConfigError(EcnnError):
    """Invalid configuration value or flag combination."""

    label = "config error"
    exit_code = 2


class DataError(EcnnError):
    """Problem with input data: missing files, unparseable cells, degenerate datasets."""

    label = "data error"
    exit_code = 3


class NumericError(EcnnError):
    """Numerical failure during fitting: non-finite values, unsolvable updates."""

    label = "numeric error"
    exit_code = 4
