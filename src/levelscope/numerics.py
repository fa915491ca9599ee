"""Shared numerical primitives: the integer check of index parameters, the
truncation defaults of the level distributions and the check of their
tolerance, the domain errors of the open-system observables, Frozen, the
base of every value type, and the fixed format of every float the command
line prints.

The module holds no mutable state, so everything here is safe to call
from any number of threads.
"""

from __future__ import annotations

from collections import _tuplegetter

__all__ = [
    "FLOAT_FMT",
    "Frozen",
    "MAX_TERMS",
    "MIN_REL_EPS",
    "MismatchedConfig",
    "NonConvergent",
    "REL_EPS",
    "ZeroEnergy",
    "check_rel_eps",
    "fmt",
    "is_integer",
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


# The one format of every float the command line prints or writes, so that
# identical flags give byte-identical output.
FLOAT_FMT = "%.12g"


def fmt(value: object) -> str:
    """A value as the command line prints it: floats in FLOAT_FMT, bools as
    true/false, anything else as str()."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return FLOAT_FMT % value
    return str(value)


# Smallest rel_eps a tail bound may claim. Against 50-digit mpmath at the
# exact double kappa*t, the weights of the 133,175 rows of `evolve --b 15`
# (kappa*t up to 100) carry at most 1.6e-14 relative error, nearly all of it
# the rounding of the exponent of their prefactor, -log1p(u) - (b+n)
# log1p(1/u) at u = 2 kappa*t, which grows with the level n. A tail
# certified below that error would certify nothing; the floor sits well
# above it.
MIN_REL_EPS = 1e-12


# The truncation defaults of the level distributions: the tail proven beyond
# a row's level cut, relative to the full sum, and the most levels a row may
# keep.
REL_EPS = 1e-10
MAX_TERMS = 1_000_000


def check_rel_eps(rel_eps: float) -> None:
    """Raise ValueError unless rel_eps, a distribution's bound on the proven
    tail beyond its cut relative to the full sum, lies in [MIN_REL_EPS, 1).
    The one chained comparison also rejects 0, negatives, NaN and inf."""
    if not MIN_REL_EPS <= rel_eps < 1.0:
        raise ValueError(
            f"rel_eps must lie in [{MIN_REL_EPS:g}, 1): the weights carry about "
            f"1.6e-14 relative rounding, got {rel_eps:g}"
        )


def is_integer(value: object) -> bool:
    """True for an int or another Integral type (numpy integers), False for a
    bool, a float (even 2.0) and anything else."""
    if type(value) is int:
        return True
    # Loaded only here: every command line index is a plain int.
    import numbers

    return isinstance(value, numbers.Integral) and not isinstance(value, bool)
