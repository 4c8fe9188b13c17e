"""Exception taxonomy shared across the package.

The CLI maps these onto exit codes: usage errors -> 1, DataError -> 2,
NumericalError -> 3.
"""


class SydesError(Exception):
    """Base class for all package errors."""


class ShapeError(SydesError):
    """Operands have incompatible shapes."""


class ContractError(SydesError):
    """A documented precondition was violated."""


class DegenerateInputError(SydesError):
    """Numerically degenerate input (e.g. zero vector to l2_normalize)."""


class DataError(SydesError):
    """Bad manifest row, unknown label, unresolvable image, duplicate id."""


class ConfigError(SydesError):
    """Invalid or unknown configuration value."""


class NumericalError(SydesError):
    """Non-finite loss or gradient, or failed gradient verification."""
