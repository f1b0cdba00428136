"""Exception types shared across the package, and the one integer-argument rule.

Every integer argument of a public entry point (a degree, a weight k, a part,
a truncation) is checked by `integer`, so a float, bool, string or None, or a
value below the entry point's bound, raises ParameterError with one wording.
"""


class SymconError(Exception):
    """Base class for all library errors."""


class ParameterError(SymconError, ValueError):
    """An argument violates a precondition (bad partition, size mismatch, ...)."""


class DegreeError(SymconError, ValueError):
    """An operation requiring homogeneous input received mixed degrees."""


class TruncationError(SymconError, ValueError):
    """A graded series was queried beyond its truncation degree."""


class CapacityError(SymconError, ValueError):
    """A request exceeds the configured size limits."""


class CatalogError(SymconError, LookupError):
    """An unknown identity-catalog key or selector."""


def integer(x, what: str, lo: int | None = None) -> int:
    """x itself if its type is int (a bool is not) and, given lo, x >= lo;
    else ParameterError("{what} must be an integer[ >= lo], got {x!r}")."""
    if type(x) is int and (lo is None or x >= lo):
        return x
    bound = "" if lo is None else f" >= {lo}"
    raise ParameterError(f"{what} must be an integer{bound}, got {x!r}")
