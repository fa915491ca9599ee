"""Reference implementations the tests compare levelscope against.

The benchmark harness's oracles (levelbench/oracles.py: closed-form y(n),
the moments <N> and <N^2>, <y(b)> from them, the mpmath weights of the
generating function and the overlap F(b, t) built on them, and the checks
of each CLI output) are the tests' too: `harness` loads them by path, as
`harness_oracles`. The references here are those the harness lacks, and
none runs in production: the 50-digit direct weight sum, the 50-digit
terminating sum over i that `fidelity_overlap` evaluates in floats, the
paper's expanded triple sum for F(b, t) with the certified series summation
it needs (the A07 audit of `fidelity_overlap`), the 50-digit tails of the
trace and the first two moments beyond a level cut in closed form, the
moments of a distribution's stored weights, the level weight as a
log-space p-sum in double precision (a cross-check by another algorithm,
with its own ln k!), the plain form of a hot path (<y(b)> composed point
by point from the harness's moments), and the Morse well's energies and
its last bound level, decided in exact rationals.

No oracle calls the code it checks: the kernels gamma and zeta are written
out here, and nothing here reads a private name of levelscope.
"""

from __future__ import annotations

import importlib.util
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from types import ModuleType
from typing import Iterable, Iterator

import mpmath as mp
import numpy as np

from levelscope.diffusive import DiffusiveConfig, YMeanPoint, check_time
from levelscope.open_system import FockDistribution


def harness(name: str) -> ModuleType:
    """levelbench/NAME.py, a module of the benchmark harness, loaded by path
    under the name levelbench_NAME, which cannot clash with this module."""
    path = Path(__file__).resolve().parents[1] / "levelbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"levelbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


harness_oracles = harness("oracles")


# ln(k!) for k = 0..20, evaluated from the exact integer factorials.
_LOG_FACT_TABLE = tuple(math.log(math.factorial(k)) if k > 1 else 0.0 for k in range(21))


def log_factorial(k: int) -> float:
    """Natural log of k! (exact table below 21, lgamma above), the ln k! of
    the triple-sum and p-sum references below.

    Relative error stays below 1e-12 across the whole integer range of
    interest (checked against big-integer factorials in the test suite).
    """
    if k < 0:
        raise ValueError(f"k must be a non-negative integer, got {k}")
    if k < len(_LOG_FACT_TABLE):
        return _LOG_FACT_TABLE[k]
    return math.lgamma(k + 1.0)


def weight_oracle(b: int, n: int, kt) -> float:
    """Direct high-precision evaluation of the level weight.

    Sums the (p, l) expansion of the evolved state over the pairs with
    p + l = n, with exact rational factorial weights and the n = 0 kernels
    gamma = 2 kt / (1 + 2 kt), zeta = 1 / (1 + 2 kt), at 50 digits.
    """
    with mp.workdps(50):
        kt = mp.mpf(kt)
        gamma = 2 * kt / (1 + 2 * kt)
        zeta = 1 / (1 + 2 * kt)
        total = mp.mpf(0)
        for p in range(0, min(b, n) + 1):
            l = n - p
            coeff = (
                mp.factorial(b)
                * mp.factorial(p + l)
                / (mp.factorial(p) ** 2 * mp.factorial(l) * mp.factorial(b - p))
            )
            total += coeff * gamma ** (b + l - p) * zeta ** (2 * p + 1)
        return float(total)


def fidelity_terminating(b: int, kt: float) -> float:
    """F(b, kt) = sum_{i<b} C(b,i) C(b-1,i) x^(2b-1-2i) / (1+x)^(2b) with
    x = 4 kappa*t, at 50 digits with exact integer coefficients; fast at any
    kappa*t and b."""
    with mp.workdps(60):
        x = 4 * mp.mpf(kt)
        y = 1 / (x * x)
        total, power, c_up, c_low = mp.mpf(0), mp.mpf(1), 1, 1
        for i in range(b):
            total += c_up * c_low * power
            power *= y
            c_up, c_low = c_up * (b - i) // (i + 1), c_low * (b - 1 - i) // (i + 1)
        return float(total * x ** (2 * b - 1) / (1 + x) ** (2 * b))


class TermCapReached(ArithmeticError):
    """sum_adaptive reached max_terms before its stopping rule fired."""


@dataclass(frozen=True)
class SeriesSum:
    """Partial sum with its certificate."""

    value: float
    terms_used: int
    tail_bound: float


def sum_adaptive(
    terms: Iterable[float],
    rel_eps: float = 1e-10,
    max_terms: int = 1_000_000,
    ratio_guard: float = 0.9999,
) -> SeriesSum:
    """Sum an eventually-geometric series with a certified tail bound.

    The caller guarantees that successive term magnitudes eventually decay
    with ratio below ratio_guard. Once the observed ratio r does,
    the remaining tail is bounded by |term| * r / (1 - r); summation stops
    when that bound drops below rel_eps times the partial sum.

    A stream that simply runs out of terms is returned with tail_bound 0
    (a finite sum is its own limit). Hitting max_terms first raises
    TermCapReached.
    """
    total = 0.0
    prev_mag: float | None = None
    count = 0
    for term in terms:
        if count >= max_terms:
            raise TermCapReached(
                f"series did not satisfy its stopping rule within {max_terms} terms"
            )
        total = total + term
        count += 1
        mag = abs(term)
        if prev_mag is not None:
            if prev_mag > 0.0:
                ratio = mag / prev_mag
            else:
                ratio = 0.0 if mag == 0.0 else math.inf
            if ratio < ratio_guard:
                tail = mag * ratio / (1.0 - ratio)
                if tail <= rel_eps * abs(total):
                    return SeriesSum(value=total, terms_used=count, tail_bound=tail)
        prev_mag = mag
    return SeriesSum(value=total, terms_used=count, tail_bound=0.0)


def fidelity_closed_form(cfg_b: DiffusiveConfig, t: float) -> float:
    """Expanded triple-sum form of F(b, t), summed adaptively over l.

    Implements the explicit (l, p, p') expansion with weight

        b! (b-1)! ((p+l)!)^2
        ------------------------------------------------------------
        (p'!)^2 (p!)^2 l! (b-p)! (p+l-p')! (b-p'-1)!

    and kernel powers gamma^(2b+2l-2p'-1) zeta^(2(p+p')+2), all in log
    space, with gamma = 2 kt / (1 + 2 kt) and zeta = 1 / (1 + 2 kt).
    """
    b = cfg_b.b
    if b < 1:
        raise ValueError("fidelity needs b >= 1")
    check_time(t)
    kt = cfg_b.kappa * t
    if kt == 0.0:
        return 0.0
    lg, lz = math.log(2.0 * kt / (1.0 + 2.0 * kt)), math.log(1.0 / (1.0 + 2.0 * kt))
    lf = log_factorial

    def l_terms() -> Iterator[float]:
        l = 0
        while True:
            acc = 0.0
            for p in range(0, b + 1):
                for pp in range(0, min(b - 1, p + l) + 1):
                    acc += math.exp(
                        lf(b) + lf(b - 1) + 2.0 * lf(p + l)
                        - 2.0 * lf(pp) - 2.0 * lf(p) - lf(l) - lf(b - p)
                        - lf(p + l - pp) - lf(b - pp - 1)
                        + (2 * b + 2 * l - 2 * pp - 1) * lg
                        + (2 * (p + pp) + 2) * lz
                    )
            yield acc
            l += 1

    return float(sum_adaptive(l_terms()).value)


def weight_psum(b: int, n: int, kt: float) -> float:
    """The level weight in double precision by another algorithm: the p-sum
    sum_p exp(ln C(b,p) C(n,p) + (b+n-2p) ln gamma + (2p+1) ln zeta) with
    its ln k! rebuilt as a list on each call. Its rounding grows with the
    exponents, to a few 1e-13 relative for b and n up to a few hundred."""
    g, z = 2.0 * kt / (1.0 + 2.0 * kt), 1.0 / (1.0 + 2.0 * kt)
    if g == 0.0:
        return 1.0 if n == b else 0.0
    lg, lz = math.log(g), math.log(z)
    lf = [log_factorial(k) for k in range(max(n, b) + 1)]
    acc = 0.0
    for p in range(0, min(b, n) + 1):
        acc += math.exp(
            lf[b] + lf[n] - 2.0 * lf[p] - lf[n - p] - lf[b - p]
            + (b + n - 2 * p) * lg + (2 * p + 1) * lz
        )
    return acc


def mean_y_reference(cfg_b: DiffusiveConfig, t: float) -> YMeanPoint:
    """diffusive.mean_y_point composed step by step, one preparation at a
    time: the harness's closed-form moments of b and of b - 1, checked for
    overflow, then <H0> = omega <N> + lam <N^2> of each, checked again."""
    b, kappa, omega, lam = cfg_b.b, cfg_b.kappa, cfg_b.omega, cfg_b.lam
    if b < 1:
        raise ValueError("mean_y_point needs b >= 1")
    check_time(t)
    kt = kappa * t
    m1_b, m2_b = harness_oracles.moments(b, kt)
    if not math.isfinite(m2_b):
        raise ValueError(f"<N^2> overflows at kappa*t = {kt:g}")
    m1_m, m2_m = harness_oracles.moments(b - 1, kt)
    h0_b, h0_m = omega * m1_b + lam * m2_b, omega * m1_m + lam * m2_m
    for h0 in (h0_b, h0_m):
        if not math.isfinite(h0):
            raise ValueError(f"<H0> overflows at kappa*t = {kt:g}")
    if h0_b == 0.0 or h0_m == 0.0:
        raise ValueError(f"<H0> = 0 at kappa*t = {kt:g}; cannot form the period estimate")
    tau_b = 2.0 * math.pi * m1_b / h0_b
    tau_m = 2.0 * math.pi * m1_m / h0_m
    d_energy = (h0_b - h0_m) / 2.0
    d_tau = (tau_b - tau_m) / 2.0
    return YMeanPoint(
        kt=kt,
        mean_n_b=m1_b,
        mean_n_bm1=m1_m,
        mean_h0_b=h0_b,
        mean_h0_bm1=h0_m,
        mean_tau_b=tau_b,
        mean_tau_bm1=tau_m,
        d_energy=d_energy,
        d_tau=d_tau,
        y_mean=abs(d_energy * d_tau),
    )


def morse_energy_exact(well, n: int) -> Fraction:
    """E(n) = -depth + omega (v - v^2 / anharmonicity), v = n + 1/2, exactly,
    in the rationals of the well's doubles."""
    v, a = Fraction(2 * n + 1, 2), Fraction(well.anharmonicity)
    return -Fraction(well.depth) + Fraction(well.omega) * (v - v * v / a)


def morse_is_bound(well, n: int) -> bool:
    """Level n still climbs (2n + 1 < anharmonicity) and lies below
    dissociation (E(n) < 0), both decided exactly."""
    return 2 * n + 1 < Fraction(well.anharmonicity) and morse_energy_exact(well, n) < 0


def morse_top_is_exact(well, top: int | None) -> bool:
    """top is the well's last bound level (None: the well holds none): top is
    bound, and top + 1 (level 0 for None) is not. E rises while the levels
    climb, so the bound levels are a prefix and top is the last of them."""
    above = 0 if top is None else top + 1
    return (top is None or morse_is_bound(well, top)) and not morse_is_bound(well, above)


def stored_moments(dist: FockDistribution) -> tuple[float, float, float]:
    """(sum P, sum n P, sum n^2 P) over a distribution's stored levels."""
    n = np.arange(dist.weights.shape[0], dtype=float)
    return float(dist.weights.sum()), float(n @ dist.weights), float((n * n) @ dist.weights)


def tail_moments(b: int, kt: float, L: int) -> tuple[float, float, float]:
    """sum_{n>L} n^k P_b(n) for k = 0, 1, 2 at 50 digits, in closed form (L >= b).

    G_b(s) = sum_p w_p s^p (z / (1 - g s))^(p+1) with w_p = C(b,p) z^p g^(b-p),
    so the level is N = p + Y: p successes in b trials of chance z, then Y
    failures (chance g each) before success p + 1. Y > L - p means at most p
    successes in the first L + 1 trials, chance Q(p) with
    Q(J) = sum_{j<=J} C(L+1, j) z^j g^(L+1-j); the size-biased forms
    y P_r(y) = r rho P_{r+1}(y-1) and y (y-1) P_r(y) = r (r+1) rho^2 P_{r+2}(y-2)
    of the negative binomial (r = p + 1 successes, rho = g/z = 2 kappa*t) give
    the moments through Q(p + 1) and Q(p + 2):

        sum_p w_p Q(p),
        sum_p w_p (p Q(p) + (p+1) rho Q(p+1)),
        sum_p w_p (p^2 Q(p) + (2p+1)(p+1) rho Q(p+1) + (p+1)(p+2) rho^2 Q(p+2)),

    each a finite sum of positive terms.
    """
    with mp.workdps(50):
        kt = mp.mpf(kt)
        g, z, rho = 2 * kt / (1 + 2 * kt), 1 / (1 + 2 * kt), 2 * kt
        m = L + 1
        q, term, acc = [], g**m, mp.mpf(0)
        for j in range(b + 3):
            acc += term
            q.append(acc)
            term = term * (m - j) / (j + 1) * z / g
        t0 = t1 = t2 = mp.mpf(0)
        for p in range(b + 1):
            w = math.comb(b, p) * z**p * g ** (b - p)
            t0 += w * q[p]
            t1 += w * (p * q[p] + (p + 1) * rho * q[p + 1])
            t2 += w * (
                p * p * q[p]
                + (2 * p + 1) * (p + 1) * rho * q[p + 1]
                + (p + 1) * (p + 2) * rho**2 * q[p + 2]
            )
        return float(t0), float(t1), float(t2)
