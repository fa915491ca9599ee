"""Shared numerical primitives: log-factorials, the integer check of index
parameters, the truncation policy of the certified Fock-weight series, the
domain errors of the open-system observables, and Frozen, the base of every
value type.

Everything here is safe to call from any number of threads; the one piece
of shared state, the ln k! table, is only ever replaced whole.
"""

from __future__ import annotations

import math
import numbers

__all__ = [
    "Frozen",
    "MIN_REL_EPS",
    "MismatchedConfig",
    "NonConvergent",
    "SeriesTolerance",
    "DEFAULT_TOLERANCE",
    "ZeroEnergy",
    "is_integer",
    "log_factorial",
    "log_factorials",
]


# Stores a field past Frozen.__setattr__; the value types' __init__ use it.
_set = object.__setattr__


class Frozen:
    """Base of the value types: plain __slots__ classes whose fields are the
    names in __slots__, in constructor order.

    Each subclass's __init__ checks its arguments and stores every field
    with object.__setattr__ (as _set); after that the object is immutable.
    Objects are equal, and hash alike, when their types and field values
    are; the repr is Name(field=value, ...). Copies and pickles rebuild the
    object through its constructor, so they pass its checks again.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r} of {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r} of {type(self).__name__}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash((self.__class__, self._values()))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, self._values()


class NonConvergent(ArithmeticError):
    """A series hit its term cap before the certified stopping rule fired.

    Raised instead of returning a partial sum, so a bad parameter regime
    surfaces as an error rather than as silently wrong numbers.
    """


# The diffusive observables raise these two; they live here so that the
# command line can name them without importing any open-system module.
class MismatchedConfig(ValueError):
    """Two configurations that must share kappa, omega, lam do not."""


class ZeroEnergy(ArithmeticError):
    """<H0> vanishes (b = 0 at t = 0, or omega = lam = 0), so the
    period estimate 2 pi <N> / <H0> is undefined."""


# Smallest rel_eps a tail bound may claim. Against 50-digit mpmath at the
# exact double kappa*t, the weights of the 133,175 rows of `evolve --b 15`
# (kappa*t up to 100) carry at most 2.7e-13 relative error,
# nearly all of it the rounding of the kernel gamma = 2kt/(1+2kt) raised to
# powers n of several thousand; the b-ladder itself adds under 2e-15. A tail
# certified below that error would certify nothing, so the floor sits about
# four times above it.
MIN_REL_EPS = 1e-12


class SeriesTolerance(Frozen):
    """Truncation policy of the level populations.

    rel_eps: bound on the proven tail beyond the cut, relative to the full
        sum (the trace, and each of the first two moments), in
        [MIN_REL_EPS, 1).
    max_terms: hard cap on the number of levels kept.
    """

    __slots__ = ("rel_eps", "max_terms")

    def __init__(self, rel_eps: float = 1e-10, max_terms: int = 1_000_000) -> None:
        if not rel_eps > 0.0:
            raise ValueError("rel_eps must be positive")
        if not MIN_REL_EPS <= rel_eps < 1.0:
            raise ValueError(
                f"rel_eps must lie in [{MIN_REL_EPS:g}, 1): the weights carry about "
                f"2.7e-13 relative rounding, got {rel_eps:g}"
            )
        if max_terms < 1:
            raise ValueError("max_terms must be at least 1")
        _set(self, "rel_eps", rel_eps)
        _set(self, "max_terms", max_terms)


DEFAULT_TOLERANCE = SeriesTolerance()


# ln(k!) for k = 0..20, evaluated from the exact integer factorials.
_LOG_FACT_TABLE = tuple(math.log(math.factorial(k)) if k > 1 else 0.0 for k in range(21))


def log_factorial(k: int) -> float:
    """Natural log of k! (exact table below 21, lgamma above).

    Relative error stays below 1e-12 across the whole integer range of
    interest (checked against big-integer factorials in the test suite).
    """
    if k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    if k < len(_LOG_FACT_TABLE):
        return _LOG_FACT_TABLE[k]
    return math.lgamma(k + 1.0)


# ln(k!) for k = 0 .. len - 1, entry for entry equal to log_factorial(k). It
# is grown only to the size a caller asks for, and by replacing it whole, so
# a reader holds a complete table even while another thread grows it. Two
# threads growing it at once may store the shorter table last; that costs a
# later regrowth, never a wrong entry, so no lock is taken.
_log_factorials: tuple[float, ...] = _LOG_FACT_TABLE


def log_factorials(size: int) -> tuple[float, ...]:
    """The shared ln k! table, holding at least k = 0 .. size - 1."""
    global _log_factorials
    table = _log_factorials
    if len(table) < size:
        table = table + tuple(math.lgamma(k + 1.0) for k in range(len(table), size))
        _log_factorials = table
    return table


def is_integer(value: object) -> bool:
    """True for an int or another Integral type (numpy integers), False for a
    bool, a float (even 2.0) and anything else."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
