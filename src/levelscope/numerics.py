"""Shared numerical primitives: log-factorials, the integer check of index
parameters, the truncation defaults of the b-ladder and the check of its
tolerance, the domain errors of the open-system observables, and Frozen,
the base of every value type.

The module holds no mutable state, so everything here is safe to call
from any number of threads.
"""

from __future__ import annotations

import math
import numbers
from collections import _tuplegetter

__all__ = [
    "Frozen",
    "MAX_TERMS",
    "MIN_REL_EPS",
    "MismatchedConfig",
    "NonConvergent",
    "REL_EPS",
    "ZeroEnergy",
    "check_rel_eps",
    "is_integer",
    "log_factorial",
]


class Frozen(tuple):
    """Base of the value types: each value is the tuple of its fields, the
    names in the class's _fields, in constructor order.

    A subclass declares _fields and __slots__ = (), and builds its value in
    __new__: it checks its arguments and returns tuple.__new__(cls, fields).
    Each field reads through the C getter namedtuple uses, and assigning to
    it raises AttributeError. A value is equal to another, and hashes alike,
    only when their types and field values are; it is never equal to a plain
    tuple, and values do not order. The repr is Name(field=value, ...), and
    unpacking yields the fields in _fields order. Copies and pickles rebuild
    the value through its constructor, so they pass its checks again.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        if cls.__dict__.get("__slots__") != ():
            raise TypeError(f"{cls.__name__} must set __slots__ = ()")
        for index, name in enumerate(cls.__dict__.get("_fields", ())):
            if hasattr(Frozen, name):
                raise TypeError(f"field {name!r} of {cls.__name__} would shadow "
                                f"the inherited attribute of that name")
            setattr(cls, name, _tuplegetter(index, name))

    def __eq__(self, other: object) -> bool:
        return other.__class__ is self.__class__ and tuple.__eq__(self, other)

    def __ne__(self, other: object) -> bool:
        return not self == other

    def __lt__(self, other: object) -> bool:
        raise TypeError(f"{type(self).__name__} values are not ordered")

    __le__ = __gt__ = __ge__ = __lt__

    def __hash__(self) -> int:
        return hash((self.__class__, tuple(self)))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self))
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return self.__class__, tuple(self)


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


# The b-ladder's truncation defaults: the tail it proves beyond its level cut,
# relative to the full sum, and the most levels a row may keep.
REL_EPS = 1e-10
MAX_TERMS = 1_000_000


def check_rel_eps(rel_eps: float) -> None:
    """Raise ValueError unless rel_eps, the ladder's bound on the proven tail
    beyond its cut relative to the full sum, lies in [MIN_REL_EPS, 1)."""
    if not rel_eps > 0.0:
        raise ValueError("rel_eps must be positive")
    if not MIN_REL_EPS <= rel_eps < 1.0:
        raise ValueError(
            f"rel_eps must lie in [{MIN_REL_EPS:g}, 1): the weights carry about "
            f"2.7e-13 relative rounding, got {rel_eps:g}"
        )


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


def is_integer(value: object) -> bool:
    """True for an int or another Integral type (numpy integers), False for a
    bool, a float (even 2.0) and anything else."""
    return type(value) is int or (
        isinstance(value, numbers.Integral) and not isinstance(value, bool)
    )
