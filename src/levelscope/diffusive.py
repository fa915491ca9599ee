"""The scalar half of the diffusive open system, in pure Python.

The run configuration, the relaxation kernels, single-level Fock weights
and the survival P_b(b, t) they give, the neighbour fidelity F(b, t) as a
terminating sum, the closed-form moments <N>, <H0>, <tau> and the criterion
<y(b)> built on them, and the log-spaced kappa*t grid with the check every
plotted curve passes. None of it needs an array, so every command but
`evolve` starts without numpy; open_system (the b-ladder) is the one module
that imports numpy, and it re-exports the names it shares with this one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Sequence

from .numerics import (
    DEFAULT_TOLERANCE,
    MismatchedConfig,
    SeriesTolerance,
    ZeroEnergy,
    is_integer,
    log_factorials,
)

__all__ = [
    "DiffusiveConfig",
    "YMeanPoint",
    "check_curve",
    "check_level",
    "check_time",
    "fidelity_overlap",
    "fock_weight",
    "log_points",
    "mean_h0",
    "mean_n",
    "mean_tau",
    "mean_y_point",
    "mean_y_series",
    "survival",
]


@dataclass(frozen=True)
class DiffusiveConfig:
    """Open-system run parameters.

    b: initial Fock index; kappa: diffusion rate; omega, lam: oscillator
    frequency and nonlinear strength (hbar = 1 units); tol: truncation policy.
    """

    b: int
    kappa: float
    omega: float = 0.0
    lam: float = 0.0
    tol: SeriesTolerance = field(default=DEFAULT_TOLERANCE)

    def __post_init__(self) -> None:
        if not is_integer(self.b) or self.b < 0:
            raise ValueError(f"b must be a non-negative integer, got {self.b!r}")
        # Chained comparisons with inf also reject NaN.
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")


def check_time(t: float) -> None:
    """Raise ValueError unless t is a finite, non-negative time."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")


def check_level(n: int) -> None:
    """Raise ValueError unless n is a non-negative integer level index."""
    if not is_integer(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")


def _kernels(kt: float) -> tuple[float, float]:
    """Relaxation kernels (gamma, zeta) = (2kt / (1 + 2kt), 1 / (1 + 2kt)) at
    kt = kappa*t, so zeta = 1 - gamma; exactly (0, 1) at t = 0.

    These are the paper's kernels at delta = 0, the only case a diagonal
    Fock mixture needs.
    """
    return 2.0 * kt / (1.0 + 2.0 * kt), 1.0 / (1.0 + 2.0 * kt)


def fock_weight(cfg: DiffusiveConfig, n: int, t: float) -> float:
    """Population P_b(n, t) of level n, as a finite log-space sum over p.

    Collecting the double-index expansion of the evolved state at the
    physical level n = p + l leaves, per level, the finite sum

        P_b(n) = sum_{p=0}^{min(b, n)} C(b, p) C(n, p) gamma^(b+n-2p) zeta^(2p+1)

    of positive terms; no truncation is involved for a single level. The
    ln k! come from the shared numerics.log_factorials table. survival reads
    this scalar sum; whole distributions come from the b-ladder.
    """
    check_level(n)
    check_time(t)
    g, z = _kernels(cfg.kappa * t)
    if g == 0.0:
        return 1.0 if n == cfg.b else 0.0
    b = cfg.b
    lg, lz = math.log(g), math.log(z)
    lf = log_factorials(max(n, b) + 1)
    acc = 0.0
    for p in range(0, min(b, n) + 1):
        acc += math.exp(
            lf[b] + lf[n] - 2.0 * lf[p] - lf[n - p] - lf[b - p]
            + (b + n - 2 * p) * lg + (2 * p + 1) * lz
        )
    return acc


def survival(cfg: DiffusiveConfig, t: float) -> float:
    """Probability P_b(b, t) of still finding the prepared index b."""
    return fock_weight(cfg, cfg.b, t)


def _require_same_bath(cfg_b: DiffusiveConfig, cfg_bm1: DiffusiveConfig) -> None:
    if (cfg_b.kappa, cfg_b.omega, cfg_b.lam) != (cfg_bm1.kappa, cfg_bm1.omega, cfg_bm1.lam):
        raise MismatchedConfig(
            "fidelity compares preparations under the same bath and oscillator: "
            f"(kappa, omega, lam) differ: {cfg_b} vs {cfg_bm1}"
        )
    if cfg_bm1.b != cfg_b.b - 1:
        raise MismatchedConfig(f"expected neighboring indices, got b={cfg_b.b} and {cfg_bm1.b}")


# The nested sums of fidelity_overlap are rescaled by e^-_SPAN whenever they
# pass e^_SPAN; the scale then goes into the exponent of the prefactor, where
# adding a whole multiple of _SPAN rounds nothing.
_SPAN = 400.0
_BIG = math.exp(_SPAN)
_SHRINK = math.exp(-_SPAN)


@lru_cache(maxsize=64)
def _fidelity_ratios(b: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Successive coefficient ratios of sum_i c_i w^i, c_i = C(b,i) C(b-1,i),
    innermost first: c_{i+1}/c_i for i = b-2 .. 0, and the same for the
    reversed coefficients d_j = c_{b-1-j}."""
    up = tuple((b - i) * (b - 1 - i) / ((i + 1) * (i + 1)) for i in range(b - 2, -1, -1))
    down = tuple((b - 1 - j) * (b - 1 - j) / ((j + 1) * (j + 2)) for j in range(b - 2, -1, -1))
    return up, down


def _nested(ratios: tuple[float, ...], w: float, log_scale: float) -> tuple[float, float]:
    """Horner's rule in ratio form, 1 + r_0 w (1 + r_1 w (1 + ...)) with
    every term positive, as (sum * e^(-k _SPAN), log_scale + k _SPAN) after
    k rescalings."""
    acc = one = 1.0
    for r in ratios:
        acc = one + r * w * acc
        if acc > _BIG:
            acc *= _SHRINK
            one *= _SHRINK
            log_scale += _SPAN
    return acc, log_scale


def fidelity_overlap(cfg_b: DiffusiveConfig, cfg_bm1: DiffusiveConfig, t: float) -> float:
    """F(b, t) = Tr[rho(t, b) rho(t, b-1)], summed in closed form.

    Both states are diagonal in the Fock basis, so F is the overlap
    sum_n P_b(n, t) P_{b-1}(n, t). With x = 4 kappa t that sum terminates:

        F = sum_{i=0}^{b-1} C(b,i) C(b-1,i) x^(2b-1-2i) / (1+x)^(2b),

    a sum of positive terms: the constant term of G_b(s) G_{b-1}(1/s) is its
    one residue inside |s| = 1, at s = gamma, which expands in positive
    terms (b = 1 gives x / (1+x)^2). It is evaluated as
    exp(-2b log1p(1/x)) / x times a polynomial in x^-2 for x >= 1, and as
    b x exp(-2b log1p(x)) times one in x^2 below, so no power exceeds 1 and
    nothing cancels. The exponent's rounding dominates the error: about
    2^-53 times 2b log1p(min(x, 1/x)), relative. The test suite checks F
    against the 50-digit direct overlap sum and audits the paper's expanded
    triple sum against it. The two configurations must share kappa, omega
    and lam.
    """
    _require_same_bath(cfg_b, cfg_bm1)
    check_time(t)
    b, x = cfg_b.b, 4.0 * (cfg_b.kappa * t)
    if x == 0.0:
        return 0.0
    up, down = _fidelity_ratios(b)
    if x >= 1.0:
        total, a = _nested(up, 1.0 / (x * x), -2.0 * b * math.log1p(1.0 / x))
        return math.exp(a) * total / x
    total, a = _nested(down, x * x, -2.0 * b * math.log1p(x))
    return math.exp(a) * total * (b * x)


@dataclass(frozen=True)
class YMeanPoint:
    """One <y(b)> evaluation with its ingredients.

    d_energy = (<H0(b)> - <H0(b-1)>) / 2 and d_tau = (<tau_b> - <tau_{b-1}>) / 2
    keep their signs (d_tau is negative here: the heavier mixture runs
    faster); y_mean = |d_energy * d_tau| in units of hbar.
    """

    kt: float
    mean_n_b: float
    mean_n_bm1: float
    mean_h0_b: float
    mean_h0_bm1: float
    mean_tau_b: float
    mean_tau_bm1: float
    d_energy: float
    d_tau: float
    y_mean: float


def _moments(b: int, kappa: float, t: float) -> tuple[float, float]:
    """(<N>, <N^2>) of the evolved mixture in closed form.

    The level populations have the generating function
    G(s) = zeta (gamma + (zeta - gamma) s)^b / (1 - gamma s)^(b+1) with
    gamma = u / (1 + u), zeta = 1 - gamma and u = 2 kappa t, whose first two
    derivatives at s = 1 give <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u.
    Exact, so no truncation certificate applies.
    """
    check_time(t)
    u = 2.0 * kappa * t
    m1 = b + u
    m2 = b * b + 4.0 * b * u + 2.0 * u * u + u
    if not math.isfinite(m2):
        raise ValueError(f"<N^2> overflows at kappa*t = {kappa * t:g}")
    return m1, m2


def _energy(omega: float, lam: float, m1: float, m2: float, kt: float) -> float:
    h0 = omega * m1 + lam * m2
    if not math.isfinite(h0):
        raise ValueError(f"<H0> overflows at kappa*t = {kt:g}")
    return h0


def mean_n(cfg: DiffusiveConfig, t: float) -> float:
    """<N>(t) = b + 2 kappa t, the closed-form mean level of the mixture.

    Raises ValueError for a negative or non-finite t.
    """
    return _moments(cfg.b, cfg.kappa, t)[0]


def mean_h0(cfg: DiffusiveConfig, t: float) -> float:
    """<H0>(t) = omega <N> + lam <N^2> (hbar = 1), from the closed-form
    moments <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u with u = 2 kappa t.

    Raises ValueError for a negative or non-finite t, or when <H0> overflows.
    """
    m1, m2 = _moments(cfg.b, cfg.kappa, t)
    return _energy(cfg.omega, cfg.lam, m1, m2, cfg.kappa * t)


def mean_tau(cfg: DiffusiveConfig, t: float) -> float:
    """Period estimate 2 pi <N> / <H0> of the evolved mixture, from the
    closed-form moments (see mean_h0).

    Raises ZeroEnergy when <H0> = 0 (b = 0 at t = 0), rather than returning
    a NaN. Note the t -> 0 limit for b >= 1 is 2 pi / (omega + lam b), which
    differs from the closed-system orbit period 2 pi / (omega + 2 lam b):
    the moment ratio is an approximation and both values are intentionally
    reported by the CLI rather than reconciled.
    """
    m1, m2 = _moments(cfg.b, cfg.kappa, t)
    h0 = _energy(cfg.omega, cfg.lam, m1, m2, cfg.kappa * t)
    if h0 == 0.0:
        raise ZeroEnergy(f"<H0> = 0 for b={cfg.b}, t={t}; period estimate undefined")
    return 2.0 * math.pi * m1 / h0


def mean_y_point(cfg_b: DiffusiveConfig, t: float) -> YMeanPoint:
    """<y(b)> at one time from the b and b-1 mixtures.

    <y(b)> = |<dE_b> <dTau_b>| with <dE_b> = (<H0(b)> - <H0(b-1)>)/2 and
    <dTau_b> = (<tau_b> - <tau_{b-1}>)/2. The absolute value matches the
    closed-system criterion convention; the signed factors are retained in
    the returned record.

    With u = 2 kappa t the mixtures have the closed-form moments
    <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u, so

        |<tau_b> - <tau_{b-1}>| = 2 pi [b(b-1) + 2u(b+u-1)] / (<H0(b)> <H0(b-1)>),

    and <y(b)> < pi / (2 kappa t) for every b >= 1, omega >= 0, lam > 0 and
    kappa t > 0, with kappa t <y(b)> -> pi/2 as kappa t grows. No
    preparation stays resolvable (<y(b)> >= 1/2) past kappa t = pi, and
    <y(b)> falls to half of any earlier value y_0 before kappa t = pi / y_0.

    The moments come from that closed form, not from the certified weights;
    a negative or non-finite t, or a moment that overflows, raises ValueError.
    """
    b, kappa, omega, lam = cfg_b.b, cfg_b.kappa, cfg_b.omega, cfg_b.lam
    if b < 1:
        raise ValueError("mean_y_point needs b >= 1")
    kt = kappa * t
    m1_b, m2_b = _moments(b, kappa, t)
    m1_m, m2_m = _moments(b - 1, kappa, t)
    h0_b = _energy(omega, lam, m1_b, m2_b, kt)
    h0_m = _energy(omega, lam, m1_m, m2_m, kt)
    if h0_b == 0.0 or h0_m == 0.0:
        raise ZeroEnergy(f"<H0> = 0 at t={t}; cannot form the period estimate")
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


def mean_y_series(cfg_b: DiffusiveConfig, kt_grid: Sequence[float]) -> list[YMeanPoint]:
    """<y(b)> along a strictly increasing kappa*t grid, one mean_y_point
    at t = kt / kappa per entry. Any 1-d sequence of numbers will do, a
    numpy array included."""
    try:
        grid = [float(kt) for kt in kt_grid]
    except TypeError:  # not iterable, or an entry that is itself a sequence
        grid = []
    if not grid:
        raise ValueError("kt_grid must be a non-empty 1-d sequence")
    if not all(map(math.isfinite, grid)):
        raise ValueError("kt_grid must be finite")
    if any(not a < b for a, b in zip(grid, grid[1:])):
        raise ValueError("kt_grid must be strictly increasing")
    return [mean_y_point(cfg_b, kt / cfg_b.kappa) for kt in grid]


def log_points(start: float = 1e-3, stop: float = 1e2, points: int = 200) -> list[float]:
    """Log-spaced kappa*t values from start to stop, the figure convention.

    The exponents are np.linspace's, i * step + log10(start) with the last
    one set to log10(stop), bit for bit; each value is 10.0 ** exponent,
    libm's pow, so the grid does not depend on how numpy dispatches its
    own power on the machine at hand.
    """
    if not (0.0 < start < stop < math.inf and points >= 2):
        raise ValueError("log grid needs 0 < START < STOP < inf and POINTS >= 2, "
                         f"got START={start}, STOP={stop}, POINTS={points}")
    a, b = math.log10(start), math.log10(stop)
    step = (b - a) / (points - 1)
    return [10.0 ** (i * step + a) for i in range(points - 1)] + [10.0**b]


def check_curve(kt: Sequence[float], values: Sequence[float]) -> None:
    """Raise ValueError unless kt is strictly increasing, values are finite
    and the two have the same length."""
    if len(kt) != len(values):
        raise ValueError("kt and values must have matching shapes")
    if any(not a < b for a, b in zip(kt, kt[1:])):
        raise ValueError("kt grid must be strictly increasing")
    if not all(map(math.isfinite, values)):
        raise ValueError("series values must be finite")
