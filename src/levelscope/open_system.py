"""Diffusive relaxation of an initial Fock state of the quartic oscillator.

The evolved state stays diagonal in the Fock basis; this module computes its
weights P_b(n, t) as whole rows of the b-ladder recurrence (distributions,
and distribution for one time), the one open-system computation that needs
arrays; only `evolve` runs it. The truncation in n is a saddle-point bound
on the generating function, computed for every time before any weight, so
each row is climbed once, on the levels it keeps rounded up to whole filter
blocks; rows of one block size climb together, padded to at most 1.5 times
their length, and each keeps the weights it would have climbed alone. The
level populations depend only on the initial index b and on the
dimensionless time kappa*t; omega and lam ride along in the configuration
because energy observables need them. The configuration, the kernels and
the single-level weight fock_weight live in the numpy-free diffusive module
and are re-exported here. The ladder is the one truncated series, so it
alone takes a tolerance: the rel_eps argument of distributions (default
numerics.REL_EPS), with at most numerics.MAX_TERMS levels per row.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from .diffusive import (DiffusiveConfig, _kernels, _moments, check_level, check_time,
                        fock_weight)
from .numerics import MAX_TERMS, REL_EPS, Frozen, NonConvergent, check_rel_eps

__all__ = ["DiffusiveConfig", "FockDistribution", "fock_weight", "distribution", "distributions"]


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


# The b-ladder. The generating function G_b(s) = z (g + (z-g)s)^b / (1-gs)^(b+1)
# of the populations (g, z = gamma, zeta) obeys G_b = G_{b-1} (g + (z-g)s)/(1-gs),
# and since g^2 - g + z = z^2 that factor is g + z^2 sum_{k>=1} g^(k-1) s^k, all
# of whose coefficients are positive. Hence, summing positive terms only,
#
#     P_0(n) = z g^n,
#     P_b(n) = g P_{b-1}(n) + z^2 S(n),   S(0) = 0,  S(n+1) = g S(n) + P_{b-1}(n),
#
# the degree recurrence of the Meixner-type sum z g^(b+n) 2F1(-b, -n; 1; (z/g)^2)
# (Koekoek, Lesky & Swarttouw, Hypergeometric Orthogonal Polynomials, 2010,
# sec. 9.10). P_b(n) needs only P_{b-1}(m <= n), so a row computed on more
# levels has a bitwise identical prefix.
#
# The filter S runs in blocks of K levels laid out from n = 0, each the scaled
# cumsum g^j sum_{i<=j} g^-i x(o+i) plus the carry g^(j+1) S(o). K depends on
# g alone: g^-K stays below e^_BLOCK_SPAN, so no scaled sum overflows, and K
# stays at most _BLOCK_MAX, which bounds the rounding a block's cumsum adds.
_BLOCK_SPAN = 600.0
_BLOCK_MAX = 128


def _block_size(g: float) -> int:
    span = -math.log(g)
    return _BLOCK_MAX if span * _BLOCK_MAX <= _BLOCK_SPAN else max(1, int(_BLOCK_SPAN / span))


def _climb(b: int, k: int, blocks: int, gs: list[float], zs: list[float]) -> np.ndarray:
    """Rows P_b on blocks * k levels, one per kernel pair (g, z) of block size
    k, climbed together from P_0(n) = z g^n as one read-only array.

    Every row gets its own powers g^j (j = 0..k) and g^-j (j = 0..k-1) and
    the same operations, in the same order, as when climbed alone, so it is
    bitwise the row climbed alone on the same levels.
    """
    up = np.array([[math.pow(g, j) for j in range(k + 1)] for g in gs])
    down = np.array([[math.pow(g, -j) for j in range(k)] for g in gs])
    starts = np.array([[z * math.pow(g, k * i) for i in range(blocks)] for g, z in zip(gs, zs)])
    rows = (starts[:, :, None] * up[:, None, :k]).reshape(len(gs), -1)
    g = np.array(gs)[:, None]
    zz = np.array([z * z for z in zs])[:, None]
    scratch = np.empty((len(gs), blocks, k))
    for _ in range(b):
        _step(rows, scratch, g, zz, up, down)
    rows.setflags(write=False)
    return rows


def _step(rows: np.ndarray, scratch: np.ndarray, g: np.ndarray, zz: np.ndarray,
          up: np.ndarray, down: np.ndarray) -> None:
    """One ladder step of every row in place, P_{b-1} to P_b on the same
    levels; scratch holds the filter blocks, shaped (rows, blocks, k)."""
    k = down.shape[1]
    blocks = np.multiply(rows.reshape(scratch.shape), down[:, None, :], out=scratch)
    np.add.accumulate(blocks, axis=2, out=blocks)
    blocks *= up[:, None, :k]
    # Block o now holds g^j C(j), C(j) = sum_{i<=j} g^-i x(o+i), and adding
    # the carry g^(j+1) S(o) gives S(o+j+1); S(o) runs from S(0) = 0.
    if blocks.shape[1] > 1:
        starts = []
        for gk, ends in zip(up[:, k].tolist(), blocks[:, :-1, -1].tolist()):
            carry, row = 0.0, []
            for end in ends:
                carry = gk * carry + end
                row.append(carry)
            starts.append(row)
        blocks[:, 1:] += np.array(starts)[:, :, None] * up[:, None, 1:]
    s_next = blocks.reshape(rows.shape)
    s_next *= zz
    rows *= g
    rows[:, 1:] += s_next[:, :-1]


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

    n_cut is the smallest L >= b found at which the trace bound is at most
    eps and each moment bound at most eps * max(m, 1), with m the
    closed-form moment <N> or <N^2> of diffusive._moments: by doubling,
    then by bisection that keeps the passing end, so every cut returned is
    proven. The row then spans n_cut + 1 <= MAX_TERMS levels. Raises
    ValueError when <N^2> overflows.
    """
    g, z = _kernels(kt)
    # kt as the rate over unit time: a kappa*t that overflowed to inf is then
    # reported as an overflowing <N^2>, like any kt past about 4.74e153.
    m1, m2 = _moments(b, kt, 1.0)
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


def distributions(cfg: DiffusiveConfig, ts: Sequence[float],
                  rel_eps: float = REL_EPS) -> list[FockDistribution]:
    """All level populations at each time in ts, truncated with a proven tail.

    The cut n_cut comes first, from saddle-point bounds on the generating
    function: the trace beyond it is at most tail_bound <= rel_eps, and each
    of the first two moments beyond it at most rel_eps times the moment (or
    rel_eps, below 1), so downstream energy averages inherit the bound.
    rel_eps must lie in [MIN_REL_EPS, 1) (numerics.check_rel_eps), else
    ValueError. Raises NonConvergent, before any weight is computed, when no
    cut within MAX_TERMS levels passes at some time. The weights are row b
    of the b-ladder P_b = g P_{b-1} + z^2 S, climbed from P_0 in b O(n_cut)
    steps. They are read-only views; nothing is shared between calls, so
    they do not depend on earlier ones.
    """
    check_rel_eps(rel_eps)
    for t in ts:
        check_time(t)
    kts = [cfg.kappa * t for t in ts]
    cuts = [None if kt == 0.0 else _cut(cfg.b, kt, rel_eps) for kt in kts]
    groups: dict[int, list[tuple[int, int, float, float]]] = {}
    for i, (kt, cut) in enumerate(zip(kts, cuts)):
        if cut is not None:
            g, z = _kernels(kt)
            k = _block_size(g)
            groups.setdefault(k, []).append((-(-(cut[0] + 1) // k), i, g, z))
    # Rows of one block size climb together: sorted by length, in chunks whose
    # longest row is at most 1.5 times the shortest, each chunk as one array
    # on the levels of its longest row. Short rows then share each step's
    # array operations, padding adds at most half of a row's work, and by the
    # prefix property every kept weight is that of its row climbed alone.
    rows: dict[int, np.ndarray] = {}
    for k, points in groups.items():
        points.sort()
        start = 0
        while start < len(points):
            end, shortest = start + 1, points[start][0]
            while end < len(points) and 2 * points[end][0] <= 3 * shortest:
                end += 1
            chunk = points[start:end]
            climbed = _climb(cfg.b, k, chunk[-1][0], [p[2] for p in chunk], [p[3] for p in chunk])
            rows.update(zip([p[1] for p in chunk], climbed))
            start = end
    return [
        _delta(cfg.b, t) if cut is None
        else FockDistribution(t=t, weights=rows[i][: cut[0] + 1], n_cut=cut[0], tail_bound=cut[1])
        for i, (t, cut) in enumerate(zip(ts, cuts))
    ]


def distribution(cfg: DiffusiveConfig, t: float, rel_eps: float = REL_EPS) -> FockDistribution:
    """All level populations at time t: distributions(cfg, [t], rel_eps)[0]."""
    return distributions(cfg, [t], rel_eps)[0]
