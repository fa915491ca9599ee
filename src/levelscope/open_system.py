"""Diffusive relaxation of an initial Fock state of the quartic oscillator.

The evolved state stays diagonal in the Fock basis; this module computes its
weights P_b(n, t) as whole rows of the b-ladder recurrence with a certified
truncation in n (distribution), the one open-system computation that needs
arrays; only `evolve` runs it. The level populations depend only on the
initial index b and on the dimensionless time kappa*t; omega and lam ride
along in the configuration because energy observables need them. The
configuration, the kernels and the single-level weight fock_weight live in
the numpy-free diffusive module and are re-exported here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffusive import DiffusiveConfig, _kernels, check_level, check_time, fock_weight
from .numerics import NonConvergent, SeriesTolerance

__all__ = ["DiffusiveConfig", "FockDistribution", "fock_weight", "distribution"]


@dataclass(frozen=True)
class FockDistribution:
    """Diagonal weights of the evolved state at one time.

    weights[n] holds P_b(n, t) for n = 0 .. n_cut, as a read-only array;
    tail_bound is a certified upper bound on the probability beyond n_cut.
    The weights plus the tail account for the full unit trace to within the
    configured tolerance.
    """

    t: float
    weights: np.ndarray
    n_cut: int
    tail_bound: float

    def trace(self) -> float:
        return float(self.weights.sum())

    def weight(self, n: int) -> float:
        check_level(n)
        if n > self.n_cut:
            return 0.0
        return float(self.weights[n])

    def moments(self) -> tuple[float, float, float]:
        """(sum P, sum n P, sum n^2 P) over the stored range."""
        n = np.arange(self.weights.shape[0], dtype=float)
        return (
            float(self.weights.sum()),
            float(n @ self.weights),
            float((n * n) @ self.weights),
        )


# Geometric tail bounds for the zeroth, first and second moments past index
# L, given the last weight w and a ratio r valid for every later step:
#   sum_{j>=1} w r^j            = w r/(1-r)
#   sum_{j>=1} (L+j) w r^j      = w (L r/(1-r) + r/(1-r)^2)
#   sum_{j>=1} (L+j)^2 w r^j    = w (L^2 r/(1-r) + 2 L r/(1-r)^2 + r(1+r)/(1-r)^3)
def _tail_bounds(w: float, r: float, L: int) -> tuple[float, float, float]:
    q = r / (1.0 - r)
    q2 = q / (1.0 - r)
    q3 = (1.0 + r) * q2 / (1.0 - r)
    return w * q, w * (L * q + q2), w * (L * L * q + 2.0 * L * q2 + q3)


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


class _Filter(NamedTuple):
    """Block size K and the powers g^j (j = 0..K) and g^-j (j = 0..K-1)."""

    size: int
    up: np.ndarray
    down: np.ndarray


class _RangeTooShort(Exception):
    """A certification round needs more levels than the ladder row spans."""

    def __init__(self, levels: int) -> None:
        super().__init__(levels)
        self.levels = levels


def _filter(g: float) -> _Filter:
    span = -math.log(g)
    size = _BLOCK_MAX if span * _BLOCK_MAX <= _BLOCK_SPAN else max(1, int(_BLOCK_SPAN / span))
    up = np.array([math.pow(g, j) for j in range(size + 1)])
    down = np.array([math.pow(g, -j) for j in range(size)])
    return _Filter(size, up, down)


def _first_row(levels: int, g: float, z: float, filt: _Filter) -> np.ndarray:
    """P_0(n) = z g^n for n < levels, a multiple of the block size."""
    k = filt.size
    starts = [z * math.pow(g, k * i) for i in range(levels // k)]
    row = np.multiply.outer(starts, filt.up[:k]).reshape(-1)
    row.setflags(write=False)
    return row


def _next_row(prev: np.ndarray, g: float, zz: float, filt: _Filter) -> np.ndarray:
    """P_b from P_{b-1} = prev, one ladder step on the same levels."""
    k, up, down = filt
    blocks = prev.reshape(-1, k) * down
    np.add.accumulate(blocks, axis=1, out=blocks)
    blocks *= up[:k]
    # Block o now holds g^j C(j), C(j) = sum_{i<=j} g^-i x(o+i), and adding
    # the carry g^(j+1) S(o) gives S(o+j+1); S(o) runs from S(0) = 0.
    if blocks.shape[0] > 1:
        gk, starts, carry = float(up[k]), [], 0.0
        for end in blocks[:-1, -1].tolist():
            carry = gk * carry + end
            starts.append(carry)
        blocks[1:] += np.multiply.outer(starts, up[1:])
    s_next = blocks.reshape(-1)
    s_next *= zz
    row = prev * g
    row[1:] += s_next[:-1]
    row.setflags(write=False)
    return row


def _first_cut(b: int, g: float, tol: SeriesTolerance) -> int:
    """Leading-order guess for the cut: the far tail decays like g^n, so aim
    for g^n ~ rel_eps and pad for the polynomial prefactor in n."""
    if g < 1.0:
        n_hat = b + 32 + int(math.ceil(-math.log(tol.rel_eps) / -math.log(g)))
    else:
        n_hat = tol.max_terms
    return min(max(n_hat, b + 8), tol.max_terms)


def _next_cut(n_hat: int, tol: SeriesTolerance) -> int:
    """The level cut of the certification round after the one at n_hat."""
    return min(max(2 * n_hat, n_hat + 64), tol.max_terms + 1)


def _first_range(b: int, kt: float, tol: SeriesTolerance) -> int:
    """Levels for ladder row b at kappa*t = kt: the cut of the first round
    at which _certify is expected to pass for it, or max_terms.

    The round's test is run on single-level weights (the same populations
    by the scalar p-sum, four per round) against the closed-form moments,
    so a row is seldom climbed twice for want of levels. This sizes the
    rows only: certification still starts at _first_cut, and a row's prefix
    does not depend on its length, so every n_cut, tail bound and weight is
    the same whatever this returns.
    """
    eps = tol.rel_eps
    g, z = _kernels(kt)
    lg, lz = math.log(g), math.log(z)
    # P_b(n) is fock_weight's p-sum, sum_p exp(c(n) + a(p) - ln (n-p)!), here
    # with ln k! from lgamma rather than the shared table, which a cut of
    # many levels would grow for good.
    lf = [math.lgamma(k + 1.0) for k in range(b + 1)]
    a = [2 * p * (lz - lg) - 2.0 * lf[p] - lf[b - p] for p in range(b + 1)]

    def weights(top: int) -> list[float]:
        """P_b(n) for the four levels n = top - 4 .. top - 1, all >= b."""
        lo = top - 4 - b
        ln = [math.lgamma(m + 1.0) for m in range(lo, top)]
        out = []
        for n in range(top - 4, top):
            c = lf[b] + ln[n - lo] + (b + n) * lg + lz
            out.append(sum(math.exp(c + a[p] - ln[n - p - lo]) for p in range(b + 1)))
        return out

    # The closed-form moments <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u.
    u = 2.0 * kt
    m1, m2 = b + u, b * b + 4.0 * b * u + 2.0 * u * u + u
    n_hat = _first_cut(b, g, tol)
    while n_hat <= tol.max_terms:
        if n_hat >= max(b + 4, 8):
            w0, w1, w2, w3 = weights(n_hat)
            if w0 > 0.0 and w1 > 0.0 and w2 > 0.0:
                r = max(w1 / w0, w2 / w1, w3 / w2)
                if r < tol.tail_ratio_guard:
                    t0, t1, t2 = _tail_bounds(w3, r, n_hat - 1)
                    if t0 <= eps and t1 <= eps * max(m1, 1.0) and t2 <= eps * max(m2, 1.0):
                        return n_hat
            elif w0 == w1 == w2 == w3 == 0.0:
                return n_hat
        n_hat = _next_cut(n_hat, tol)
    return tol.max_terms


# The level indices n and n^2 as read-only floats, on as many levels as the
# longest row certified so far; replaced whole when a longer row needs them
# (a racing thread may store a shorter pair, which is regrown on demand).
_level_powers: tuple[np.ndarray, np.ndarray] = (np.empty(0), np.empty(0))


def _powers(levels: int) -> tuple[np.ndarray, np.ndarray]:
    global _level_powers
    powers = _level_powers
    if powers[0].shape[0] < levels:
        n = np.arange(levels, dtype=float)
        powers = n, n * n
        for array in powers:
            array.setflags(write=False)
        _level_powers = powers
    return powers


def _certify(
    row: np.ndarray, b: int, kt: float, g: float, tol: SeriesTolerance
) -> tuple[int, float]:
    """(n_cut, trace tail bound) of ladder row P_b: the prefix is grown until
    the trace carries a tail bound t0 <= rel_eps and each of the first two
    moments m a tail bound t <= rel_eps * max(m, 1).

    That last test reads t <= rel_eps or t <= rel_eps * m, so a moment is
    summed only in a round whose t0 passes and whose t exceeds rel_eps.

    Raises _RangeTooShort when a round needs more levels than the row has.
    """
    eps = tol.rel_eps
    n_hat = _first_cut(b, g, tol)
    while True:
        if n_hat > tol.max_terms:
            raise NonConvergent(
                f"level cut for b={b}, kappa*t={kt} exceeded max_terms={tol.max_terms}"
            )
        if n_hat > row.shape[0]:
            raise _RangeTooShort(n_hat)
        # Certify with the worst of the last few observed ratios; past the
        # bulk these decrease toward g, so the bound is conservative there.
        if n_hat >= max(b + 4, 8):
            w0, w1, w2, w3 = row[n_hat - 4 : n_hat].tolist()
            if w0 > 0.0 and w1 > 0.0 and w2 > 0.0:
                r = max(w1 / w0, w2 / w1, w3 / w2)
                if r < tol.tail_ratio_guard:
                    L = n_hat - 1
                    t0, t1, t2 = _tail_bounds(w3, r, L)
                    if t0 <= eps:
                        n, nn = _powers(row.shape[0])
                        weights = row[:n_hat]
                        if (t1 <= eps or t1 <= eps * float(n[:n_hat] @ weights)) and (
                            t2 <= eps or t2 <= eps * float(nn[:n_hat] @ weights)
                        ):
                            return L, t0
            elif w0 == w1 == w2 == w3 == 0.0:
                # Underflowed to exact zero: nothing measurable remains.
                return n_hat - 1, 0.0
        n_hat = _next_cut(n_hat, tol)


def _row(b: int, kt: float, tol: SeriesTolerance) -> tuple[np.ndarray, int, float]:
    """Ladder row P_b at kappa*t = kt > 0 with its (n_cut, tail bound).

    The row starts on the levels its first passing certification round
    needs (_first_range); should that prove short, it is climbed again from
    P_0 on the levels the failing round asked for.
    """
    g, z = _kernels(kt)
    filt, zz, levels = _filter(g), z * z, _first_range(b, kt, tol)
    while True:
        row = _first_row(-(-levels // filt.size) * filt.size, g, z, filt)
        for _ in range(b):
            row = _next_row(row, g, zz, filt)
        try:
            return (row, *_certify(row, b, kt, g, tol))
        except _RangeTooShort as short:
            levels = short.levels


def _delta(b: int, t: float) -> FockDistribution:
    weights = np.zeros(b + 1)
    weights[b] = 1.0
    weights.setflags(write=False)
    return FockDistribution(t=t, weights=weights, n_cut=b, tail_bound=0.0)


def distribution(cfg: DiffusiveConfig, t: float) -> FockDistribution:
    """All level populations at time t, truncated with a certified tail.

    The weights are row b of the b-ladder P_b = g P_{b-1} + z^2 S, climbed
    from P_0 in b O(n_cut) steps. The cut n_cut is grown adaptively until
    the geometric tail bound drops below cfg.tol.rel_eps (for the trace and
    for the first two moments, so downstream energy averages inherit the
    certificate). The returned weights are a read-only view; nothing is
    cached, so they do not depend on earlier calls.
    """
    check_time(t)
    kt = cfg.kappa * t
    if kt == 0.0:
        return _delta(cfg.b, t)
    row, n_cut, tail = _row(cfg.b, kt, cfg.tol)
    return FockDistribution(t=t, weights=row[: n_cut + 1], n_cut=n_cut, tail_bound=tail)
