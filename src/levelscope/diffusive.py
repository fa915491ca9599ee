"""The scalar half of the diffusive open system, in pure Python.

The run configuration, the relaxation kernels, single-level Fock weights
and the survival P_b(b, t) they give, the neighbour fidelity F(b, t), the
criterion <y(b)> with the closed-form moments <N>, <H0>, <tau> it is built
on (fields of its YMeanPoint records), and the log-spaced kappa*t grid
with the check every plotted curve passes. The weights and F are
terminating sums of positive terms, both evaluated by one Horner's rule
in ratio form (_nested). None of it needs an array, so every command but
`evolve` starts without numpy; open_system, which evaluates the same
weight sums over arrays of levels, is the one module that imports numpy,
and it re-exports the names it shares with this one. Everything here is a closed form or a finite sum, so
the configuration holds only the physics; the level cut of open_system,
the one truncation, takes its tolerance as an argument.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from functools import lru_cache

from .numerics import Frozen, MismatchedConfig, ZeroEnergy, is_integer

__all__ = [
    "DiffusiveConfig",
    "YMeanPoint",
    "check_curve",
    "check_level",
    "check_time",
    "fidelity_overlap",
    "fock_weight",
    "log_points",
    "mean_y_point",
    "mean_y_series",
    "survival",
]


class DiffusiveConfig(Frozen):
    """Open-system run parameters.

    b: initial Fock index; kappa: diffusion rate; omega, lam: oscillator
    frequency and nonlinear strength (hbar = 1 units).
    """

    __slots__ = ()
    _fields = ("b", "kappa", "omega", "lam")

    def __new__(cls, b: int, kappa: float, omega: float = 0.0,
                lam: float = 0.0) -> DiffusiveConfig:
        if not is_integer(b) or b < 0:
            raise ValueError(f"b must be a non-negative integer, got {b!r}")
        # Chained comparisons with inf also reject NaN.
        if not 0.0 < kappa < math.inf:
            raise ValueError(f"kappa must be finite and positive, got {kappa}")
        if not 0.0 <= omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {omega}")
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {lam}")
        return tuple.__new__(cls, (b, kappa, omega, lam))


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


# The nested sums of _nested are rescaled by e^-_SPAN whenever they pass
# e^_SPAN; the scale then goes into the exponent of the prefactor, where
# adding a whole multiple of _SPAN rounds nothing.
_SPAN = 400.0
_BIG = math.exp(_SPAN)
_SHRINK = math.exp(-_SPAN)


@lru_cache(maxsize=64)
def _ratios(b: int, n: int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Successive coefficient ratios of S = sum_p c_p w^p, c_p = C(b,p) C(n,p),
    innermost first: c_{p+1}/c_p for p = m-1 .. 0, and the same for the
    reversed coefficients d_q = c_{m-q}, with m = min(b, n). Each is a
    quotient of two integer products, rounded once."""
    m, d = min(b, n), abs(b - n)
    up = tuple((b - p) * (n - p) / ((p + 1) * (p + 1)) for p in range(m - 1, -1, -1))
    down = tuple((m - q) * (m - q) / ((q + 1) * (d + q + 1)) for q in range(m - 1, -1, -1))
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


def _horner_args(kt: float) -> tuple[bool, float, float, float]:
    """(forward, w, log1p(u), log1p(1/u)) of the weight sums at u = 2kt > 0:
    forward is u >= 1, where the sums run in w = 1/u^2, and below they run
    reversed in w = u^2; log1p(u) and log1p(1/u) are -ln zeta and -ln gamma.
    Where 1/u overflows (u below 2^-1024), log1p(1/u) is taken as -log(u),
    which it equals to within u, relative. kt is taken as a Python float, so
    a numpy scalar time does not warn at the ends of the float range."""
    u = 2.0 * float(kt)
    inv = 1.0 / u
    forward = u >= 1.0
    return (forward, 1.0 / (u * u) if forward else u * u, math.log1p(u),
            math.log1p(inv) if inv < math.inf else -math.log(u))


def _weight(b: int, n: int, kt: float) -> float:
    """P_b(n) at kappa*t = kt, for a level n and a time already checked."""
    if kt == 0.0:
        return 1.0 if n == b else 0.0
    forward, w, l1, l2 = _horner_args(kt)
    up, down = _ratios(b, n)
    if forward:
        total, a = _nested(up, w, -l1 - (b + n) * l2)
    else:
        m = min(b, n)
        lead = math.log(math.comb(max(b, n), m))
        total, a = _nested(down, w, lead - (2 * m + 1) * l1 - (b + n - 2 * m) * l2)
    return math.exp(a) * total


def fock_weight(cfg: DiffusiveConfig, n: int, t: float) -> float:
    """Population P_b(n, t) of level n, a terminating sum of positive terms.

    Collecting the double-index expansion of the evolved state at the
    physical level n = p + l leaves, per level, the finite sum

        P_b(n) = sum_{p=0}^{min(b, n)} C(b, p) C(n, p) gamma^(b+n-2p) zeta^(2p+1)
               = zeta gamma^(b+n) S(b, n, w),   S = sum_p C(b,p) C(n,p) w^p,

    with w = (zeta/gamma)^2 = 1/u^2, u = 2 kappa t: S is the 2F1(-b, -n; 1; w)
    of the Meixner-type polynomials (Koekoek, Lesky & Swarttouw,
    Hypergeometric Orthogonal Polynomials, 2010, sec. 9.10), and no
    truncation is involved. For u >= 1, S is Horner's rule in ratio form
    (_nested) in w, under the prefactor exp(-log1p(u) - (b+n) log1p(1/u));
    below, it runs in 1/w = u^2 on the reversed coefficients, under
    exp(ln C(M, m) - (2m+1) log1p(u) - (b+n-2m) log1p(1/u)) with
    m = min(b, n), M = max(b, n). No power exceeds 1 and every term is
    positive, so the rounding needs no conditioning argument (Higham,
    Accuracy and Stability of Numerical Algorithms, 2002, ch. 5). A kappa*t
    that overflows to inf gives the limit 0. survival is this sum at n = b;
    open_system.distributions evaluates it over arrays of levels.
    """
    check_level(n)
    check_time(t)
    return _weight(cfg.b, n, cfg.kappa * t)


def survival(cfg: DiffusiveConfig, t: float) -> float:
    """Probability P_b(b, t) of still finding the prepared index b."""
    check_time(t)
    b = cfg.b
    return _weight(b, b, cfg.kappa * t)


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
    b, kappa, omega, lam = cfg_b
    m, kappa_m, omega_m, lam_m = cfg_bm1
    if not (kappa == kappa_m and omega == omega_m and lam == lam_m):
        raise MismatchedConfig(
            "fidelity compares preparations under the same bath and oscillator: "
            f"(kappa, omega, lam) differ: {cfg_b} vs {cfg_bm1}"
        )
    if m != b - 1:
        raise MismatchedConfig(f"expected neighboring indices, got b={b} and {m}")
    check_time(t)
    x = 4.0 * (kappa * t)
    if x == 0.0:
        return 0.0
    up, down = _ratios(b, m)
    if x >= 1.0:
        total, a = _nested(up, 1.0 / (x * x), -2.0 * b * math.log1p(1.0 / x))
        return math.exp(a) * total / x
    total, a = _nested(down, x * x, -2.0 * b * math.log1p(x))
    return math.exp(a) * total * (b * x)


class YMeanPoint(Frozen):
    """One <y(b)> evaluation with its ingredients.

    d_energy = (<H0(b)> - <H0(b-1)>) / 2 and d_tau = (<tau_b> - <tau_{b-1}>) / 2
    keep their signs (d_tau is negative here: the heavier mixture runs
    faster); y_mean = |d_energy * d_tau| in units of hbar.

    mean_n_*, mean_h0_* and mean_tau_* are <N>, <H0> = omega <N> + lam <N^2>
    (hbar = 1) and the period estimate 2 pi <N> / <H0> of the b and b-1
    mixtures. As t -> 0 the estimate for b >= 1 tends to 2 pi / (omega + lam b),
    not to the closed-system orbit period 2 pi / (omega + 2 lam b): the moment
    ratio is an approximation, and both values are reported rather than
    reconciled.

    The constructor checks nothing, and _mean_y builds its records straight
    from their field tuples, as it would; a check added here fails the
    construction-path test of tests/test_package.py until _mean_y calls
    the constructor again.
    """

    __slots__ = ()
    _fields = ("kt", "mean_n_b", "mean_n_bm1", "mean_h0_b", "mean_h0_bm1", "mean_tau_b",
               "mean_tau_bm1", "d_energy", "d_tau", "y_mean")

    def __new__(cls, kt: float, mean_n_b: float, mean_n_bm1: float, mean_h0_b: float,
                mean_h0_bm1: float, mean_tau_b: float, mean_tau_bm1: float,
                d_energy: float, d_tau: float, y_mean: float) -> YMeanPoint:
        return tuple.__new__(cls, (kt, mean_n_b, mean_n_bm1, mean_h0_b, mean_h0_bm1, mean_tau_b,
                                   mean_tau_bm1, d_energy, d_tau, y_mean))


def _moments(b: int, kappa: float, t: float) -> tuple[float, float]:
    """(<N>, <N^2>) of the evolved mixture in closed form.

    The level populations have the generating function
    G(s) = zeta (gamma + (zeta - gamma) s)^b / (1 - gamma s)^(b+1) with
    gamma = u / (1 + u), zeta = 1 - gamma and u = 2 kappa t, whose first two
    derivatives at s = 1 give <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u.
    Exact, so no truncation certificate applies.
    """
    check_time(t)
    # kappa*t first: a kappa near the float ceiling must not overflow 2*kappa.
    u = 2.0 * (kappa * t)
    m1 = b + u
    m2 = b * b + 4.0 * b * u + 2.0 * u * u + u
    if not math.isfinite(m2):
        raise ValueError(f"<N^2> overflows at kappa*t = {kappa * t:g}")
    return m1, m2


def _mean_y(cfg_b: DiffusiveConfig, times: Sequence[float]) -> list[YMeanPoint]:
    """<y(b)> at each time from the closed-form moments of the b and b-1
    mixtures, the one copy of their arithmetic: per time the checks of
    check_time and _moments in their order, with their messages, then
    <H0> = omega <N> + lam <N^2> and the period estimate
    <tau> = 2 pi <N> / <H0> of each mixture. Each record is built from its
    field tuple, as YMeanPoint's check-free constructor would build it."""
    b, kappa, omega, lam = cfg_b
    if b < 1:
        raise ValueError("mean_y_point needs b >= 1")
    m = b - 1
    bb, b4, mm, m4 = b * b, 4.0 * b, m * m, 4.0 * m
    # 2.0 * pi * m1 evaluates (2.0 * pi) * m1, so hoisting the product moves no bit.
    isfinite, inf, two_pi = math.isfinite, math.inf, 2.0 * math.pi
    new, points = tuple.__new__, []
    append = points.append
    for t in times:
        if not 0.0 <= t < inf:
            raise ValueError(f"t must be finite and non-negative, got {t}")
        kt = kappa * t
        u = 2.0 * kt
        m1_b = b + u
        m2_b = bb + b4 * u + 2.0 * u * u + u
        if not isfinite(m2_b):
            raise ValueError(f"<N^2> overflows at kappa*t = {kt:g}")
        # Each b - 1 moment rounds to at most its b counterpart, so the
        # finiteness checks of the b moments cover both.
        m1_m = m + u
        m2_m = mm + m4 * u + 2.0 * u * u + u
        h0_b = omega * m1_b + lam * m2_b
        if not isfinite(h0_b):
            raise ValueError(f"<H0> overflows at kappa*t = {kt:g}")
        h0_m = omega * m1_m + lam * m2_m
        if h0_b == 0.0 or h0_m == 0.0:
            raise ZeroEnergy(f"<H0> = 0 at t={t}; cannot form the period estimate")
        tau_b = two_pi * m1_b / h0_b
        tau_m = two_pi * m1_m / h0_m
        d_energy = (h0_b - h0_m) / 2.0
        d_tau = (tau_b - tau_m) / 2.0
        append(new(YMeanPoint, (kt, m1_b, m1_m, h0_b, h0_m, tau_b, tau_m, d_energy, d_tau,
                                abs(d_energy * d_tau))))
    return points


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
    return _mean_y(cfg_b, (t,))[0]


def mean_y_series(cfg_b: DiffusiveConfig, kt_grid: Sequence[float]) -> list[YMeanPoint]:
    """<y(b)> along a strictly increasing kappa*t grid, at t = kt / kappa
    per entry: bitwise the mean_y_point of each, in one loop. Any 1-d
    sequence of numbers will do, a numpy array included."""
    try:
        grid = list(map(float, kt_grid))
    except TypeError:  # not iterable, or an entry that is itself a sequence
        grid = []
    if not grid:
        raise ValueError("kt_grid must be a non-empty 1-d sequence")
    if not all(map(math.isfinite, grid)):
        raise ValueError("kt_grid must be finite")
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError("kt_grid must be strictly increasing")
    kappa = cfg_b.kappa
    return _mean_y(cfg_b, [kt / kappa for kt in grid])


def log_points(start: float = 1e-3, stop: float = 1e2, points: int = 200) -> list[float]:
    """Log-spaced kappa*t values from start to stop, the figure convention.

    The exponents are np.linspace's, i * step + log10(start) with the last
    one set to log10(stop), bit for bit; each value is 10.0 ** exponent,
    libm's pow, so the grid does not depend on how numpy dispatches its
    own power on the machine at hand. A STOP so close to the float ceiling
    that 10.0 ** log10(STOP) overflows raises ValueError, and so does a
    grid that does not strictly increase because some of its points round
    to the same double (more POINTS than doubles between START and STOP).
    """
    if not (0.0 < start < stop < math.inf and points >= 2):
        raise ValueError("log grid needs 0 < START < STOP < inf and POINTS >= 2, "
                         f"got START={start}, STOP={stop}, POINTS={points}")
    a, b = math.log10(start), math.log10(stop)
    step = (b - a) / (points - 1)
    try:
        grid = [10.0 ** (i * step + a) for i in range(points - 1)] + [10.0**b]
    except OverflowError:
        raise ValueError(f"log grid STOP={stop} is too close to the float ceiling: "
                         f"10 ** log10(STOP) overflows") from None
    if not all(map(operator.lt, grid, grid[1:])):
        raise ValueError(f"log grid START={start}, STOP={stop}, POINTS={points} is not "
                         f"strictly increasing: some of its points round to the same double")
    return grid


def check_curve(kt: Sequence[float], values: Sequence[float]) -> None:
    """Raise ValueError unless kt is strictly increasing, values are finite
    and the two have the same length."""
    if len(kt) != len(values):
        raise ValueError("kt and values must have matching shapes")
    if any(not a < b for a, b in zip(kt, kt[1:])):
        raise ValueError("kt grid must be strictly increasing")
    if not all(map(math.isfinite, values)):
        raise ValueError("series values must be finite")
