"""Diffusive relaxation of an initial Fock state of the quartic oscillator.

The evolved state stays diagonal in the Fock basis; this module computes its
weights P_b(n, t) as whole rows (distributions, and distribution for one
time), the one open-system computation that needs arrays; only `evolve`
runs it. The truncation in n is a saddle-point bound on the generating
function, computed for every time before any weight; each weight is then
the terminating sum of diffusive.fock_weight, evaluated element by element
over flat vectors of levels a fixed number at a time. The level
populations depend only on the initial index b and on the dimensionless
time kappa*t; omega and lam ride along in the configuration because energy
observables need them. This module owns the rows and their cut, which
derives its own kernels and moments; from diffusive, home of the
configuration and fock_weight, it borrows only the time and level checks
and the rescale constants that the scalar and array sums must share bit
for bit, and it re-exports nothing. The cut is the one truncation, so
distributions alone takes a tolerance: its rel_eps argument (default
numerics.REL_EPS), with at most numerics.MAX_TERMS levels per row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .diffusive import _BIG, _SHRINK, _SPAN, check_level, check_time
from .numerics import MAX_TERMS, REL_EPS, Frozen, NonConvergent, check_rel_eps

# Type checkers read this TYPE_CHECKING as typing's; typing stays unloaded.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .diffusive import DiffusiveConfig

__all__ = ["FockDistribution", "distribution", "distributions"]


class FockDistribution(Frozen):
    """Diagonal weights of the evolved state at one time.

    weights[n] holds P_b(n, t) for n = 0 .. n_cut, as a read-only array;
    tail_bound is a proven upper bound on the probability beyond n_cut.
    The weights plus the tail account for the full unit trace to within the
    rel_eps they were computed with. Equality compares the weights by value;
    the hash leaves them out, so equal distributions hash alike.
    """

    __slots__ = ()
    _fields = ("t", "weights", "n_cut", "tail_bound")

    def __new__(cls, t: float, weights: np.ndarray, n_cut: int,
                tail_bound: float) -> FockDistribution:
        return tuple.__new__(cls, (t, weights, n_cut, tail_bound))

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return False
        return ((self.t, self.n_cut, self.tail_bound) == (other.t, other.n_cut, other.tail_bound)
                and np.array_equal(self.weights, other.weights))

    def __hash__(self) -> int:
        return hash((self.__class__, self.t, self.n_cut, self.tail_bound))

    def trace(self) -> float:
        return float(self.weights.sum())

    def weight(self, n: int) -> float:
        check_level(n)
        if n > self.n_cut:
            return 0.0
        return float(self.weights[n])


# The cut. G_b has positive coefficients P_b(n), so for every s in (1, 1/g)
# each tail is at most its full sum weighted by s^(n - L - 1) or s^(n - L)
# (Chernoff, Ann. Math. Statist. 23, 1952; Flajolet & Sedgewick, Analytic
# Combinatorics, 2009, ch. VIII):
#
#     sum_{n>L} P(n)     <= G(s) / s^(L+1),
#     sum_{n>L} n P(n)   <= G'(s) / s^L,
#     sum_{n>L} n^2 P(n) <= (G'(s) + s G''(s)) / s^L.
#
# With A = z - g, phi = ln G = ln z + b ln(g + A s) - (b+1) ln(1 - g s),
# q = g / (1 - g s) and r = z^2 / ((g + A s)(1 - g s)), the derivative of
# ln((g + A s) / (1 - g s)), both positive on (1, 1/g):
#
#     G' = G phi',  phi' = b r + q,
#     G'' = G (phi'' + phi'^2),  phi'' + phi'^2 = b (b-1) r^2 + 4 b r q + 2 q^2,
#
# sums of positive terms; the bounds are evaluated in logs. s is the saddle
# of the trace bound, s phi'(s) = M = L + 1: the root in (1, 1/g) of
#
#     A g (1+M) s^2 + (b A + (b+1) g^2 - M (A - g^2)) s - M g = 0,
#
# which exists once M exceeds the mean b + 2kt. Any s in (1, 1/g) proves
# the bounds, so the root is taken in the form that does not cancel, and is
# capped at 1e300, below 1/g whenever the cap applies (g < 1e-300).
def _bounds(b: int, g: float, z: float, L: int) -> tuple[float, float, float] | None:
    """The trace, first- and second-moment tail bounds past level L at the
    trace bound's saddle point, or None when there is none."""
    a, m = z - g, L + 1
    quad, lin, const = a * g * (1 + m), b * a + (b + 1) * g * g - m * (a - g * g), m * g
    root = math.sqrt(max(lin * lin + 4.0 * quad * const, 0.0))
    if lin > 0.0:
        s = 2.0 * const / (lin + root)
    elif quad > 0.0:
        s = min((root - lin) / (2.0 * quad), 1e300)
    else:
        return None
    w, v = 1.0 - g * s, g + a * s
    if not (s > 1.0 and w > 0.0 and v > 0.0):
        return None
    q, r = g / w, z * z / (v * w)
    d1 = b * r + q
    # s (phi'' + phi'^2), with s taken into one factor of each product: r
    # falls like 1/s, and r^2 underflows for kappa*t below about 1e-154.
    sr, sq = s * r, s * q
    d2 = b * (b - 1) * sr * r + 4.0 * b * sr * q + 2.0 * sq * q
    ln_s = math.log(s)
    head = math.log(z) + b * math.log(v) - (b + 1) * math.log(w) - L * ln_s
    return (
        math.exp(head - ln_s),
        math.exp(head + math.log(d1)),
        math.exp(head + math.log(d1 + d2)),
    )


def _cut(b: int, kt: float, eps: float) -> tuple[int, float]:
    """(n_cut, trace tail bound) of row P_b at kappa*t = kt, before any weight.

    With u = 2kt, the kernels are gamma = u / (1 + u) and zeta = 1 / (1 + u)
    (the paper's at delta = 0), and G's derivatives at s = 1 give the exact
    moments <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u. n_cut is the
    smallest L >= b found at which the trace bound is at most eps and each
    moment bound at most eps * max(m, 1): by doubling, then by bisection
    that keeps the passing end, so every cut returned is proven, with
    n_cut + 1 <= MAX_TERMS. Raises ValueError when <N^2> overflows (kt past
    about 4.74e153, or inf).
    """
    u = 2.0 * kt
    m1 = b + u
    m2 = b * b + 4.0 * b * u + 2.0 * u * u + u
    if not math.isfinite(m2):
        raise ValueError(f"<N^2> overflows at kappa*t = {kt:g}")
    g, z = u / (1.0 + u), 1.0 / (1.0 + u)
    targets = (eps, eps * max(m1, 1.0), eps * max(m2, 1.0))

    def tail(L: int) -> float | None:
        bounds = _bounds(b, g, z, L)
        if bounds is None or any(x > t for x, t in zip(bounds, targets)):
            return None
        return bounds[0]

    cap = MAX_TERMS - 1
    lo, hi = b - 1, b  # lo is below every cut
    while hi > cap or (bound := tail(hi)) is None:
        if hi >= cap:
            raise NonConvergent(
                f"level cut for b={b}, kappa*t={kt} exceeded max_terms={MAX_TERMS}"
            )
        lo, hi = hi, min(hi + 2 * (hi - lo), cap)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if (found := tail(mid)) is None:
            lo = mid
        else:
            hi, bound = mid, found
    return hi, bound


def _delta(b: int, t: float) -> FockDistribution:
    weights = np.zeros(b + 1)
    weights[b] = 1.0
    weights.setflags(write=False)
    return FockDistribution(t=t, weights=weights, n_cut=b, tail_bound=0.0)


# The weights. Each is diffusive's terminating sum P_b(n) = z g^(b+n) S(b, n, w),
# evaluated element by element over flat vectors of levels: the rows laid end
# to end in one array, _CHUNK_LEVELS levels at a time, so the temporaries stay
# the same size however long the grid or its rows. Nothing mixes elements, so
# neither the budget nor the other rows of a call move a bit of a row.
_CHUNK_LEVELS = 1 << 13


def _horner_args(kt: float) -> tuple[bool, float, float, float]:
    """(forward, w, log1p(u), log1p(1/u)) of the weight sums at u = 2kt > 0:
    forward is u >= 1, where the sums run in w = 1/u^2, and below they run
    reversed in w = u^2; log1p(u) and log1p(1/u) are -ln zeta and -ln gamma.
    Where 1/u overflows (u below 2^-1024), log1p(1/u) is taken as -log(u),
    which it equals to within u, relative. diffusive._weight runs the same
    operations inline."""
    u = 2.0 * kt
    inv = 1.0 / u
    forward = u >= 1.0
    return (forward, 1.0 / (u * u) if forward else u * u, math.log1p(u),
            math.log1p(inv) if inv < math.inf else -math.log(u))


def _leads(b: int, count: int) -> np.ndarray:
    """ln C(max(b, j), min(b, j)) for j < count, the lead of the reversed
    sums, from the exact integers of Pascal's rule one level to the next:
    the integers of math.comb, so math.log gives the same bits."""
    leads, c = [], 1
    for j in range(count):
        leads.append(math.log(c))
        c = c * (b - j) // (j + 1) if j < b else c * (j + 1) // (j + 1 - b)
    return np.array(leads)


def _populations(b: int, n: np.ndarray, forward: bool, w: np.ndarray, l1: np.ndarray,
                 l2: np.ndarray, leads: np.ndarray) -> np.ndarray:
    """P_b(n) at each level of n, with the w, log1p(u) and log1p(1/u) of its
    row (_horner_args), every row of one direction; the reversed rows read
    ln C(M, m) from leads (_leads).

    Per element these are the operations of diffusive._weight, in its order,
    rescaling included, in one loop over p for all elements: a ratio past
    min(b, n) is zero and leaves the sum at 1. Each weight is therefore
    bitwise fock_weight's.
    """
    m = np.minimum(n, b)
    if forward:
        scale = -l1 - (b + n) * l2
    else:
        d = np.abs(n - b)
        scale = leads[n] - (2 * m + 1) * l1 - (b + n - 2 * m) * l2
    acc, one = np.ones(n.shape), np.ones(n.shape)
    for p in range(m.max() - 1, -1, -1):
        if forward:
            r = (b - p) * np.maximum(n - p, 0) / ((p + 1) * (p + 1))
        else:
            k = np.maximum(m - p, 0)
            r = k * k / ((p + 1) * (d + p + 1))
        r *= w
        r *= acc
        acc = np.add(one, r, out=r)
        big = acc > _BIG
        if big.any():
            acc[big] *= _SHRINK
            one[big] *= _SHRINK
            scale[big] += _SPAN
    # libm's exp, as fock_weight takes it: numpy's own may round differently,
    # and differently again on another CPU.
    return np.fromiter(map(math.exp, scale.tolist()), float, n.shape[0]) * acc


def distributions(cfg: DiffusiveConfig, ts: Sequence[float],
                  rel_eps: float = REL_EPS) -> list[FockDistribution]:
    """All level populations at each time in ts, truncated with a proven tail.

    The cut n_cut comes first, from saddle-point bounds on the generating
    function: the trace beyond it is at most tail_bound <= rel_eps, and each
    of the first two moments beyond it at most rel_eps times the moment (or
    rel_eps, below 1), so downstream energy averages inherit the bound.
    rel_eps must lie in [MIN_REL_EPS, 1) (numerics.check_rel_eps), else
    ValueError. Raises NonConvergent, before any weight is computed, when no
    cut within MAX_TERMS levels passes at some time. The weights are those
    of fock_weight on levels 0 .. n_cut, bit for bit, so a row's bits do not
    depend on the other times in ts. They are read-only; nothing is shared
    between calls, so they do not depend on earlier ones.
    """
    check_rel_eps(rel_eps)
    for t in ts:
        check_time(t)
    b = cfg.b
    kts = [cfg.kappa * float(t) for t in ts]
    cuts = [None if kt == 0.0 else _cut(b, kt, rel_eps) for kt in kts]
    # The kept rows end to end in one array, those summed in reverse first.
    kept = sorted(((_horner_args(kt), i, cut[0] + 1)
                   for i, (kt, cut) in enumerate(zip(kts, cuts)) if cut is not None),
                  key=lambda row: row[0][0])
    lengths = [length for _, _, length in kept]
    ends = np.cumsum(lengths, dtype=np.int64)
    starts = ends - lengths
    store = np.empty(sum(lengths))
    split = sum(length for args, _, length in kept if not args[0])
    leads = _leads(b, max((length for args, _, length in kept if not args[0]), default=0))
    w, l1, l2 = (np.array([args[k] for args, _, _ in kept]) for k in (1, 2, 3))
    for forward, lo, hi in ((False, 0, split), (True, split, store.shape[0])):
        for start in range(lo, hi, _CHUNK_LEVELS):
            stop = min(start + _CHUNK_LEVELS, hi)
            flat = np.arange(start, stop)
            row = np.searchsorted(ends, flat, side="right")
            store[start:stop] = _populations(b, flat - starts[row], forward, w[row], l1[row],
                                             l2[row], leads)
    store.setflags(write=False)
    views = {i: store[s:e] for (_, i, _), s, e in zip(kept, starts.tolist(), ends.tolist())}
    return [
        _delta(b, t) if cut is None
        else FockDistribution(t=t, weights=views[i], n_cut=cut[0], tail_bound=cut[1])
        for i, (t, cut) in enumerate(zip(ts, cuts))
    ]


def distribution(cfg: DiffusiveConfig, t: float, rel_eps: float = REL_EPS) -> FockDistribution:
    """All level populations at time t: distributions(cfg, [t], rel_eps)[0]."""
    return distributions(cfg, [t], rel_eps)[0]
