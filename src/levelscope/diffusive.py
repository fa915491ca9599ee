"""The scalar half of the diffusive open system, in pure Python.

This module owns the run configuration, the time and level checks,
single-level Fock weights and the survival P_b(b, t) they give, the
neighbour fidelity F(b, t), the criterion <y(b)> with the closed-form
moments <N>, <H0>, <tau> it is built on (fields of its YMeanPoint records,
from the one moment loop _mean_y), and the log-spaced kappa*t grid with the
check every plotted curve passes. The weights and F are terminating sums of
positive terms, both evaluated by one Horner's rule in ratio form (_nested,
or its plain loop where no rescale can fire). None of it needs an array, so
every command but `evolve` starts without numpy. open_system, the one
module that imports numpy, evaluates the same weight sums over arrays of
levels and borrows only the checks and the rescale constants from here.
Everything here is a closed form or a finite sum, so the configuration
holds only the physics; the level cut of open_system, the one truncation,
takes its tolerance as an argument.
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

    b: initial Fock index, at most 2**53, so that b and b - 1 are distinct
    doubles; kappa: diffusion rate; omega, lam: oscillator frequency and
    nonlinear strength (hbar = 1 units).
    """

    __slots__ = ()
    _fields = ("b", "kappa", "omega", "lam")

    def __new__(cls, b: int, kappa: float, omega: float = 0.0,
                lam: float = 0.0) -> DiffusiveConfig:
        if not is_integer(b) or b < 0:
            raise ValueError(f"b must be a non-negative integer, got {b!r}")
        if b > 2**53:
            raise ValueError(f"b must be at most 2**53, got {b}")
        # Chained comparisons with inf also reject NaN.
        if not 0.0 < kappa < math.inf:
            raise ValueError(f"kappa must be finite and positive, got {kappa}")
        if not 0.0 <= omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {omega}")
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {lam}")
        # Stored as Python numbers: where a product overflows, a numpy scalar
        # would warn and, as an integer, wrap. int() of an int and float() of
        # a float are the value itself.
        return tuple.__new__(cls, (int(b), float(kappa), float(omega), float(lam)))


def check_time(t: float) -> None:
    """Raise ValueError unless t is a finite, non-negative time."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")


def check_level(n: int) -> None:
    """Raise ValueError unless n is a non-negative integer level index."""
    if not is_integer(n) or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")


# The nested sums of _nested are rescaled by e^-_SPAN whenever they pass
# e^_SPAN; the scale then goes into the exponent of the prefactor, where
# adding a whole multiple of _SPAN rounds nothing. At w <= 1 every partial
# sum of S(b, n, w) in ratio form is at most S(b, n, 1) = C(b+n, m)
# (Chu-Vandermonde). Below _PLAIN, 5000 times under _BIG, a gap the rounding
# of its 4m positive-term operations cannot bridge, no rescale can fire, and
# the sum runs as a plain loop with the same bits. From m = _PLAIN_M on,
# C(b+n, m) >= C(2m, m) >= C(570, 285) > _PLAIN > C(568, 284), so no sum
# there runs plain, and the exact C(b+n, m), up to 0.3 (b+n) digits long,
# is formed only below it.
_SPAN = 400.0
_BIG = math.exp(_SPAN)
_SHRINK = math.exp(-_SPAN)
_PLAIN = 1e170
_PLAIN_M = 285


@lru_cache(maxsize=128)
def _ratios(b: int, n: int) -> tuple[tuple[float, ...], tuple[float, ...], float, bool]:
    """Successive coefficient ratios of S = sum_p c_p w^p, c_p = C(b,p) C(n,p),
    innermost first: c_{p+1}/c_p for p = m-1 .. 0, and the same for the
    reversed coefficients d_q = c_{m-q}, with m = min(b, n). Each is a
    quotient of two integer products, rounded once. Then ln d_0 = ln C(M, m),
    M = max(b, n), and whether S runs plain: C(b+n, m) < _PLAIN, never
    from m = _PLAIN_M on."""
    m, d = min(b, n), abs(b - n)
    up = tuple((b - p) * (n - p) / ((p + 1) * (p + 1)) for p in range(m - 1, -1, -1))
    down = tuple((m - q) * (m - q) / ((q + 1) * (d + q + 1)) for q in range(m - 1, -1, -1))
    plain = m < _PLAIN_M and math.comb(b + n, m) < _PLAIN
    return up, down, math.log(math.comb(m + d, m)), plain


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


def _weight(b: int, n: int, kt: float) -> float:
    """P_b(n) at kappa*t = kt, for a level n and a time already checked.
    survival's n == b below u = 1 skips lead = ln C(b, b) = 0.0 and the
    log1p(1/u) of integer weight b + n - 2m = 0: x = (2b+1) log1p(u) is
    positive at u > 0, so 0.0 - x - 0.0 is -x, the same double."""
    if kt == 0.0:
        return 1.0 if n == b else 0.0
    up, down, lead, plain = _ratios(b, n)
    # open_system._horner_args's operations, inline: a call would cost a
    # frame and a tuple per point on the scalar curves' path.
    u = 2.0 * kt
    l1 = math.log1p(u)
    if u >= 1.0:
        ratios, w, a = up, 1.0 / (u * u), -l1 - (b + n) * math.log1p(1.0 / u)
    elif n == b:
        ratios, w, a = down, u * u, -(2 * b + 1) * l1
    else:
        inv, m = 1.0 / u, min(b, n)
        l2 = math.log1p(inv) if inv < math.inf else -math.log(u)
        ratios, w, a = down, u * u, lead - (2 * m + 1) * l1 - (b + n - 2 * m) * l2
    if not plain:
        acc, a = _nested(ratios, w, a)
    else:
        acc = 1.0
        for r in ratios:
            acc = 1.0 + r * w * acc
    return math.exp(a) * acc


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
    return _weight(cfg.b, n, cfg.kappa * float(t))


def survival(cfg: DiffusiveConfig, t: float) -> float:
    """Probability P_b(b, t) of still finding the prepared index b."""
    if not 0.0 <= t < math.inf:  # check_time, inline
        raise ValueError(f"t must be finite and non-negative, got {t}")
    b = cfg.b
    return _weight(b, b, cfg.kappa * float(t))


def fidelity_overlap(cfg_b: DiffusiveConfig, cfg_bm1: DiffusiveConfig, t: float) -> float:
    """F(b, t) = Tr[rho(t, b) rho(t, b-1)], summed in closed form.

    Both states are diagonal in the Fock basis, so F is the overlap
    sum_n P_b(n, t) P_{b-1}(n, t). With x = 4 kappa t that sum terminates:

        F = sum_{i=0}^{b-1} C(b,i) C(b-1,i) x^(2b-1-2i) / (1+x)^(2b),

    a sum of positive terms: the constant term of G_b(s) G_{b-1}(1/s) is its
    one residue inside |s| = 1, at s = gamma, which expands in positive
    terms (b = 1 gives x / (1+x)^2). F(b, t) = P_b(b - 1, 2t) identically.
    It is evaluated as exp(-2b log1p(1/x)) / x times a polynomial in x^-2
    for x >= 1, and as b x exp(-2b log1p(x)) times one in x^2 below, so no
    power exceeds 1 and nothing cancels. The exponent's rounding dominates
    the error: about 2^-53 times 2b log1p(min(x, 1/x)), relative. The test suite checks F
    against the overlap sum of the benchmark harness's mpmath weights and
    the 50-digit terminating sum, and audits the paper's expanded triple sum
    against it. The two configurations must share kappa, omega and lam.
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
    if not 0.0 <= t < math.inf:  # check_time, inline
        raise ValueError(f"t must be finite and non-negative, got {t}")
    x = 4.0 * (kappa * float(t))
    if x == 0.0:
        return 0.0
    up, down, _, plain = _ratios(b, m)
    if x >= 1.0:
        ratios, w, a = up, 1.0 / (x * x), -2.0 * b * math.log1p(1.0 / x)
    else:
        ratios, w, a = down, x * x, -2.0 * b * math.log1p(x)
    if not plain:  # _weight's loop
        acc, a = _nested(ratios, w, a)
    else:
        acc = 1.0
        for r in ratios:
            acc = 1.0 + r * w * acc
    return math.exp(a) * acc / x if x >= 1.0 else math.exp(a) * acc * (b * x)


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


def _mean_y(cfg_b: DiffusiveConfig, values: list[float], per: float) -> list[YMeanPoint]:
    """<y(b)> at each time t = value / per from the closed-form moments of
    the b and b-1 mixtures, the one copy of their arithmetic: per time
    check_time's check, then that the values strictly increase, then
    <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u at u = 2 kappa t (from the
    level generating function, as open_system's cut takes them), checked for
    overflow, then <H0> = omega <N> + lam <N^2> and the period estimate
    <tau> = 2 pi <N> / <H0> of each mixture. Each record is built from its
    field tuple, as YMeanPoint's check-free constructor would build it.
    Hoisting moves no bit: int + float converts the int as float() does,
    and 2.0 * pi * m1 evaluates (2.0 * pi) * m1. The moments are sums of
    terms >= 0 at a u that is never NaN, so x < inf checks finiteness.
    mean_y_point passes per = 1.0, and t / 1.0 is t exactly."""
    b, kappa, omega, lam = cfg_b
    if b < 1:
        raise ValueError("mean_y_point needs b >= 1")
    m = b - 1
    bf, bb, b4, mf, mm, m4 = float(b), float(b * b), 4.0 * b, float(m), float(m * m), 4.0 * m
    inf, two_pi = math.inf, 2.0 * math.pi
    new, points, prev = tuple.__new__, [], -inf
    append = points.append
    for value in values:
        t = value / per
        if not 0.0 <= t < inf:
            raise ValueError(f"t must be finite and non-negative, got {t}")
        if not prev < value:
            raise ValueError("kt_grid must be strictly increasing")
        prev = value
        kt = kappa * t
        u = 2.0 * kt
        uu2 = 2.0 * u * u
        m1_b = bf + u
        m2_b = bb + b4 * u + uu2 + u
        if not m2_b < inf:
            raise ValueError(f"<N^2> overflows at kappa*t = {kt:g}")
        # Each b - 1 moment rounds to at most its b counterpart, so the
        # finiteness checks of the b moments cover both.
        m1_m = mf + u
        m2_m = mm + m4 * u + uu2 + u
        h0_b = omega * m1_b + lam * m2_b
        if not h0_b < inf:
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
    return _mean_y(cfg_b, [float(t)], 1.0)[0]


def mean_y_series(cfg_b: DiffusiveConfig, kt_grid: Sequence[float]) -> list[YMeanPoint]:
    """<y(b)> along a strictly increasing kappa*t grid, at t = kt / kappa
    per entry: bitwise the mean_y_point of each, in one loop, which also
    checks the order. Any 1-d sequence of numbers will do, a numpy array
    included. A refusal names the grid's own fault first: an entry that is
    no number, then one that is not finite, then the order, and only then
    b or a time."""
    try:
        grid = list(map(float, kt_grid))
    except TypeError:  # not iterable, or an entry that is itself a sequence
        grid = []
    if not grid:
        raise ValueError("kt_grid must be a non-empty 1-d sequence")
    try:
        return _mean_y(cfg_b, grid, cfg_b.kappa)
    except (ValueError, ZeroEnergy):
        if not all(map(math.isfinite, grid)):
            raise ValueError("kt_grid must be finite") from None
        if not all(map(operator.lt, grid, grid[1:])):
            raise ValueError("kt_grid must be strictly increasing") from None
        raise


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
