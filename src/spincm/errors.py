"""Exception types shared across the package, and the number checks of outside input."""

import math


class ValidationError(ValueError):
    """Malformed input: bad sizes, non-traceless matrices, invalid root subsets."""


class DomainError(ValueError):
    """Input outside the domain of an operation (singular configuration, outside U)."""


class PoleError(DomainError):
    """Evaluation at (or too close to) a pole.

    ``nearest`` carries the offending lattice / pi*Z point.
    """

    def __init__(self, message, nearest=None):
        super().__init__(message)
        self.nearest = nearest


class ContractError(ValueError):
    """A precondition stated by the caller-facing contract was violated."""


class BreakdownError(RuntimeError):
    """Matrix factorization breakdown (eigenvalue collision) of an exact solver.

    Attributes: ``time`` (estimated collision time), ``gap`` (minimal eigenvalue
    gap found), ``partial`` (trajectory computed before breakdown, may be None),
    ``factors`` (factorization path so far, may be None).
    """

    def __init__(self, message, time=None, gap=None, partial=None, factors=None):
        super().__init__(message)
        self.time = time
        self.gap = gap
        self.partial = partial
        self.factors = factors


def require_keys(d, keys, what):
    """Raise ValidationError naming the first of `keys` missing from the JSON
    object `d` (a `what` record)."""
    for key in keys:
        if key not in d:
            raise ValidationError(f"{what} JSON lacks the key {key!r}")


def _finite(val):
    """val if it is a finite real number; a bool or a string is not one."""
    if isinstance(val, bool) or not isinstance(val, (int, float)) \
            or not math.isfinite(val):
        raise ValueError(f"{val!r} is not a finite number")
    return val


def _integral(val):
    """A finite integral number as an int."""
    if _finite(val) != int(val):
        raise ValueError(f"{val!r} is not an integer")
    return int(val)
