"""Shared numerical primitives: log-factorials, the integer check of index
parameters, the truncation policy of the certified Fock-weight series, and
the domain errors of the open-system observables.

Everything here is safe to call from any number of threads; the one piece
of shared state, the ln k! table, is only ever replaced whole.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

__all__ = [
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


@dataclass(frozen=True)
class SeriesTolerance:
    """Truncation policy of the level populations.

    rel_eps: bound on the proven tail beyond the cut, relative to the full
        sum (the trace, and each of the first two moments), in
        [MIN_REL_EPS, 1).
    max_terms: hard cap on the number of levels kept.
    """

    rel_eps: float = 1e-10
    max_terms: int = 1_000_000

    def __post_init__(self) -> None:
        if not self.rel_eps > 0.0:
            raise ValueError("rel_eps must be positive")
        if not MIN_REL_EPS <= self.rel_eps < 1.0:
            raise ValueError(
                f"rel_eps must lie in [{MIN_REL_EPS:g}, 1): the weights carry about "
                f"2.7e-13 relative rounding, got {self.rel_eps:g}"
            )
        if self.max_terms < 1:
            raise ValueError("max_terms must be at least 1")


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
