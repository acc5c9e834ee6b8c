"""Exception types shared across the package.

Each family declares its CLI exit code and the prefix of its stderr line:
usage (1), data/parse (2), model store (3), numeric (4).
"""


class UsageError(Exception):
    """Bad command line or run configuration."""

    exit_code = 1
    prefix = "usage error"


class DataError(Exception):
    """Input data violates a documented contract (bad values, empty sets)."""

    exit_code = 2
    prefix = "data error"


class CsvParseError(DataError):
    """Structurally invalid CSV; carries the 1-based record number."""

    prefix = "parse error"

    def __init__(self, message, record_number=None):
        if record_number is not None:
            message = f"record {record_number}: {message}"
        super().__init__(message)
        self.record_number = record_number


class ModelStoreError(Exception):
    """A saved model bundle is missing, corrupt, or incompatible."""

    exit_code = 3
    prefix = "model store error"


class NumericError(ArithmeticError):
    """Non-finite values where finite ones are required."""

    exit_code = 4
    prefix = "numeric error"


class ShapeError(ValueError):
    """Tensor or matrix shapes violate an operation's contract."""

    exit_code = 4
    prefix = "numeric error"
