"""Closed-system model catalog: energy levels, classical orbit periods, and
the resolvability criterion y(n) = |dE_n * dTau_n| against the hbar/2 bound.

Units: hbar = 1 throughout, so y is reported directly in units of hbar and
the threshold sits at 1/2. Each model carries its own scale constants; for
Box and Hydrogenoid those cancel out of y identically.

Each model is a ModelParams subclass that carries its own formulas. The
functions below hold what the models share: the index range check, and one
rule for a value that left double range (E_n must be finite, tau_n finite
and positive), which energy, period and every criterion row apply alike. A
new model is one class with its formulas plus one MODELS entry.
"""

from __future__ import annotations

import math

from .numerics import Frozen, is_integer

__all__ = [
    "IndexOutOfSpectrum",
    "DegeneratePeriod",
    "NotNormalized",
    "Harmonic",
    "Box",
    "Hydrogenoid",
    "Morse",
    "Quartic",
    "ModelParams",
    "MODELS",
    "CriterionPoint",
    "SuperpositionSpec",
    "ScanResult",
    "RESOLVABLE_THRESHOLD",
    "min_index",
    "max_index",
    "energy",
    "period",
    "criterion_point",
    "superposition_delta_e",
    "threshold_scan",
    "harmonic_dpdq",
    "quartic_limits",
]

# y must reach hbar/2 for the level spacing to be classically measurable.
RESOLVABLE_THRESHOLD = 0.5


class IndexOutOfSpectrum(ValueError):
    """Quantum number outside the model's bound spectrum."""


class DegeneratePeriod(ValueError):
    """The classical period does not depend on energy (harmonic oscillator),
    so period differences carry no level information: y(n) = 0 identically.
    """


class NotNormalized(ValueError):
    """Superposition amplitudes fail |a|^2 + |b|^2 = 1."""


def _require_positive(name: str, value: float) -> None:
    # A chained comparison with inf also rejects NaN.
    if not 0.0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value}")


class ModelParams(Frozen):
    """Base of the closed-system models, a Frozen value type whose fields
    are the model's parameters.

    Each model supplies its own unchecked formulas: _energy(n) is E_n and
    _period(n) the classical orbit period tau_n at E_n; either may overflow
    or come out inf, NaN or 0, and the module functions check them. _first
    is the first quantum number, and _top() the last bound level, or None
    for an unbounded spectrum.
    """

    __slots__ = ()
    _first = 0

    def _top(self) -> int | None:
        return None


class Harmonic(ModelParams):
    """E_n = omega (n + 1/2), period 2 pi / omega for every n."""

    __slots__ = ()
    _fields = ("mass", "omega")

    def __new__(cls, mass: float, omega: float) -> Harmonic:
        _require_positive("mass", mass)
        _require_positive("omega", omega)
        return tuple.__new__(cls, (mass, omega))

    def _energy(self, n: int) -> float:
        return self.omega * (n + 0.5)

    def _period(self, n: int) -> float:
        return 2.0 * math.pi / self.omega


class Box(ModelParams):
    """Infinite well of the given width: E_n = n^2 pi^2 / (2 m a^2), n >= 1;
    period 2 a^2 m / (n pi)."""

    __slots__ = ()
    _fields = ("mass", "width")
    _first = 1

    def __new__(cls, mass: float, width: float) -> Box:
        _require_positive("mass", mass)
        _require_positive("width", width)
        return tuple.__new__(cls, (mass, width))

    def _energy(self, n: int) -> float:
        return (n * n * math.pi**2) / (2.0 * self.mass * self.width**2)

    def _period(self, n: int) -> float:
        return 2.0 * self.mass * self.width**2 / (n * math.pi)


class Hydrogenoid(ModelParams):
    """Coulomb spectrum E_n = -mu Z^2 e^4 / (2 n^2) for s states, n >= 1.

    The period is the Kepler period 2 pi n^3 / (mu Z^2 e^4), the unique
    period whose half-differences match the Coulomb level analysis and
    which vanishes as E -> -infinity.
    """

    __slots__ = ()
    _fields = ("reduced_mass", "charge_number", "charge")
    _first = 1

    def __new__(cls, reduced_mass: float = 1.0, charge_number: int = 1,
                charge: float = 1.0) -> Hydrogenoid:
        _require_positive("reduced_mass", reduced_mass)
        if not is_integer(charge_number) or charge_number < 1:
            raise ValueError(f"charge_number must be an integer >= 1, got {charge_number!r}")
        _require_positive("charge", charge)
        return tuple.__new__(cls, (reduced_mass, charge_number, charge))

    def _energy(self, n: int) -> float:
        mu_z2_e4 = self.reduced_mass * self.charge_number**2 * self.charge**4
        return -mu_z2_e4 / (2.0 * n * n)

    def _period(self, n: int) -> float:
        mu_z2_e4 = self.reduced_mass * self.charge_number**2 * self.charge**4
        return 2.0 * math.pi * n**3 / mu_z2_e4


class Morse(ModelParams):
    """Morse well U(x) = depth (e^(-2 alpha x) - 2 e^(-alpha x)).

    E(n) = -depth + omega [(n + 1/2) - (n + 1/2)^2 / anharmonicity], valid
    while the levels still climb toward dissociation; the classical period
    at E(n) is 2 pi sqrt(mass r0^2 / (2 |E(n)| alpha^2)).

    r0 is an explicit input scale of the period formula (the bundled H2
    preset uses the equilibrium bond length). anharmonicity is the
    dimensionless well capacity, about 4 depth / omega for a fitted well.

    When omega = 4 depth / anharmonicity exactly (the H2 preset), write
    lam = anharmonicity and x_n = 1 - (2n+1)/lam; then E(n) = -depth x_n^2
    and the criterion has the closed form

        y(n) = c (pi/lam) (1 - 2n/lam) / (x_n x_{n-1}),
        c = r0 omega / omega_c,   omega_c = alpha sqrt(2 depth / mass).

    y rises with n, and the top bound level has 0 < x_top <= 2/lam, so
    y(top) >= 3 pi c / 8: the top of the well is always resolvable once
    c >= 4 / (3 pi). c carries the length r0, so y(n) depends on the length
    unit the well is written in (c = 0.746 for the preset in Angstrom, 1.41
    in bohr).
    """

    __slots__ = ()
    _fields = ("depth", "alpha", "anharmonicity", "mass", "r0", "omega")

    def __new__(cls, depth: float, alpha: float, anharmonicity: float, mass: float,
                r0: float, omega: float) -> Morse:
        _require_positive("depth", depth)
        _require_positive("alpha", alpha)
        _require_positive("anharmonicity", anharmonicity)
        _require_positive("mass", mass)
        _require_positive("r0", r0)
        _require_positive("omega", omega)
        return tuple.__new__(cls, (depth, alpha, anharmonicity, mass, r0, omega))

    def _energy(self, n: int) -> float:
        v = n + 0.5
        return -self.depth + self.omega * (v - v * v / self.anharmonicity)

    def _period(self, n: int) -> float:
        return 2.0 * math.pi * math.sqrt(
            self.mass * self.r0**2 / (2.0 * abs(self._energy(n)) * self.alpha**2)
        )

    def _top(self) -> int:
        # Levels are kept while they still climb (dE/dn > 0) and stay below
        # dissociation (E(n) < 0). With k = 2n + 1 and depth, omega and a =
        # anharmonicity the exact ratios of their doubles, level n climbs
        # iff k < a, and 4 a E(n) < 0 iff omega k^2 - 2 a omega k + 4 a depth
        # > 0, a parabola that only falls where k < a. So the bound levels
        # are a prefix of the climbing ones, and a bisection that decides
        # each level in integers finds the last.
        pd, qd = self.depth.as_integer_ratio()
        pw, qw = self.omega.as_integer_ratio()
        pa, qa = self.anharmonicity.as_integer_ratio()
        # The parabola times qd qw qa is positive iff c > s k (2 pa - qa k);
        # their common factor goes, which halves the cost at the ends of the
        # float range.
        s, c = pw * qd, 4 * pa * pd * qw
        g = math.gcd(s, c)
        s, c = s // g, c // g
        lo, hi = -1, ((pa - 1) // qa - 1) // 2  # hi: the last n with (2n + 1) qa < pa
        while lo < hi:
            mid = (lo + hi + 1) // 2
            k = 2 * mid + 1
            if c > s * k * (2 * pa - qa * k):
                lo = mid
            else:
                hi = mid - 1
        if lo < 0:
            raise IndexOutOfSpectrum("Morse well too shallow to hold any level")
        return lo


class Quartic(ModelParams):
    """Kerr-type oscillator: E(n) = omega n + lam n^2 (hbar = 1); period
    2 pi / (omega + 2 lam n)."""

    __slots__ = ()
    _fields = ("omega", "lam")

    def __new__(cls, omega: float, lam: float) -> Quartic:
        _require_positive("omega", omega)
        if not 0.0 <= lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {lam}")
        return tuple.__new__(cls, (omega, lam))

    def _energy(self, n: int) -> float:
        return self.omega * n + self.lam * n * n

    def _period(self, n: int) -> float:
        return 2.0 * math.pi / (self.omega + 2.0 * self.lam * n)


# The model catalog. Presets and the command line build every model as
# MODELS[name](*values), with the values in the order of the class's _fields.
MODELS = {"harmonic": Harmonic, "box": Box, "hydrogenoid": Hydrogenoid, "morse": Morse,
          "quartic": Quartic}


class CriterionPoint(Frozen):
    """One scan row: level data, neighbor half-differences, and the verdict.

    d_energy = (E_n - E_{n-1}) / 2, d_tau = (tau_n - tau_{n-1}) / 2,
    y = |d_energy * d_tau| in units of hbar, resolvable iff y >= 1/2.
    """

    __slots__ = ()
    _fields = ("n", "energy", "tau", "d_energy", "d_tau", "y", "resolvable")

    def __new__(cls, n: int, energy: float, tau: float, d_energy: float, d_tau: float,
                y: float, resolvable: bool) -> CriterionPoint:
        return tuple.__new__(cls, (n, energy, tau, d_energy, d_tau, y, resolvable))


class SuperpositionSpec(Frozen):
    """Two-level superposition a|E_n> + b|E_{n-1}>; must be normalized."""

    __slots__ = ()
    _fields = ("a", "b", "n")

    def __new__(cls, a: complex, b: complex, n: int) -> SuperpositionSpec:
        norm = abs(a) ** 2 + abs(b) ** 2
        if abs(norm - 1.0) > 1e-9:
            raise NotNormalized(f"|a|^2 + |b|^2 = {norm!r}, expected 1")
        return tuple.__new__(cls, (a, b, n))


class ScanResult(Frozen):
    """The rows of threshold_scan, the first level with y < 1/2 (or None),
    and a note on every threshold crossing."""

    __slots__ = ()
    _fields = ("points", "first_unresolvable", "note")

    def __new__(cls, points: tuple[CriterionPoint, ...], first_unresolvable: int | None,
                note: str) -> ScanResult:
        return tuple.__new__(cls, (points, first_unresolvable, note))


def min_index(model: ModelParams) -> int:
    """Smallest valid quantum number of the model's spectrum."""
    return model._first


def max_index(model: ModelParams) -> int | None:
    """Largest bound index, or None for an unbounded spectrum.

    Only the Morse well has a ceiling: levels are kept while they still
    climb and stay below dissociation.
    """
    return model._top()


def _check_index(model: ModelParams, n: int) -> None:
    lo = min_index(model)
    if n < lo:
        raise IndexOutOfSpectrum(f"n={n} below the first level n={lo} of {type(model).__name__}")
    hi = max_index(model)
    if hi is not None and n > hi:
        raise IndexOutOfSpectrum(
            f"n={n} lies past the top of the {type(model).__name__} well (last bound level n={hi})"
        )


def _not_finite(name: str, n: int) -> ValueError:
    return ValueError(
        f"{name} is not finite at n={n}: the model parameters leave double-precision range"
    )


def _checked(name: str, n: int, value: float) -> float:
    """value, the quantity name at level n, if it lies in double range: a
    period must be finite and positive (every period is, so 0 means a
    divisor overflowed), anything else finite. Otherwise ValueError."""
    # A chained comparison with inf also rejects NaN.
    if not (0.0 if name == "tau_n" else -math.inf) < value < math.inf:
        raise _not_finite(name, n)
    return value


def _raw(formula, name: str, n: int) -> float:
    """formula(n), one of a model's _energy and _period, unchecked; a float
    overflow or a division by an underflowed zero raises the ValueError of
    the quantity name at level n."""
    try:
        return formula(n)
    except (OverflowError, ZeroDivisionError):
        raise _not_finite(name, n) from None


def energy(model: ModelParams, n: int) -> float:
    """Eigenvalue E_n of the model (hbar = 1); ValueError if not finite."""
    _check_index(model, n)
    return _checked("E_n", n, _raw(model._energy, "E_n", n))


def period(model: ModelParams, n: int) -> float:
    """Classical orbit period at energy E_n (each model's docstring gives
    its formula). ValueError if not finite, or 0: every period is positive,
    so 0 means a divisor overflowed.
    """
    _check_index(model, n)
    return _checked("tau_n", n, _raw(model._period, "tau_n", n))


def criterion_point(model: ModelParams, n: int) -> CriterionPoint:
    """Evaluate the resolvability criterion at level n from raw differences.

    Raises DegeneratePeriod for the harmonic oscillator, whose period-based
    criterion is identically zero and therefore says nothing about the
    spectrum (a different verdict than merely y < 1/2).
    """
    _reject_harmonic(model)
    lo = min_index(model) + 1
    if n < lo:
        raise IndexOutOfSpectrum(f"criterion needs a lower neighbor: n must be >= {lo}")
    _check_index(model, n)
    return _point(n, _raw(model._energy, "E_n", n), _raw(model._energy, "E_n", n - 1),
                  _raw(model._period, "tau_n", n), _raw(model._period, "tau_n", n - 1))


def _reject_harmonic(model: ModelParams) -> None:
    if isinstance(model, Harmonic):
        raise DegeneratePeriod(
            "harmonic period is energy independent: dTau = 0 for every n, "
            "the period cannot probe this spectrum"
        )


def _point(n: int, e_hi: float, e_lo: float, t_hi: float, t_lo: float) -> CriterionPoint:
    """The criterion row of level n from the unchecked E and tau of n and
    n - 1; ValueError naming the first quantity that fails _checked."""
    d_energy = (e_hi - e_lo) / 2.0
    d_tau = (t_hi - t_lo) / 2.0
    y = abs(d_energy * d_tau)
    # A finite y needs finite levels, dE and dTau, so with positive periods
    # the row passes every check; only the other rows run them.
    if not (y < math.inf and t_hi > 0.0 < t_lo):
        for name, level, value in (("E_n", n, e_hi), ("E_n", n - 1, e_lo), ("tau_n", n, t_hi),
                                   ("tau_n", n - 1, t_lo), ("dE", n, d_energy),
                                   ("dTau", n, d_tau), ("y", n, y)):
            _checked(name, level, value)
    return CriterionPoint(
        n=n,
        energy=e_hi,
        tau=t_hi,
        d_energy=d_energy,
        d_tau=d_tau,
        y=y,
        resolvable=y >= RESOLVABLE_THRESHOLD,
    )


def superposition_delta_e(model: ModelParams, spec: SuperpositionSpec) -> float:
    """Energy spread |a||b| (E_n - E_{n-1}) of a two-neighbor superposition.

    Maximal, at half the level gap, for |a| = |b| = 1/sqrt(2). The spec is
    normalized by construction.
    """
    n = spec.n
    if n < min_index(model) + 1:
        raise IndexOutOfSpectrum(f"n={n} has no lower neighbor in {type(model).__name__}")
    return abs(spec.a) * abs(spec.b) * (energy(model, n) - energy(model, n - 1))


def threshold_scan(model: ModelParams, n_min: int, n_max: int) -> ScanResult:
    """Criterion rows for n_min..n_max plus the first level with y < 1/2.

    No monotonicity is assumed: the note lists every crossing of the
    threshold within the scanned range, in both directions.
    """
    if n_min > n_max:
        raise ValueError(f"empty scan range [{n_min}, {n_max}]")
    lo = min_index(model) + 1
    if n_min < lo:
        raise IndexOutOfSpectrum(f"scan must start at n >= {lo} for {type(model).__name__}")
    _reject_harmonic(model)
    # The range is checked once, against the first level past the top, the
    # one a level-by-level scan would stop at.
    top = max_index(model)
    if top is not None and n_max > top:
        _check_index(model, max(n_min, top + 1))
    # Each level's E and tau once, for n_min-1..n_max; the points are
    # criterion_point's bit for bit.
    levels = range(n_min - 1, n_max + 1)
    energy_of, period_of = model._energy, model._period
    e = [_raw(energy_of, "E_n", n) for n in levels]
    tau = [_raw(period_of, "tau_n", n) for n in levels]
    points = tuple(map(_point, levels[1:], e[1:], e, tau[1:], tau))
    first = next((p.n for p in points if not p.resolvable), None)
    notes = []
    if first is None:
        notes.append(f"every scanned level up to n={n_max} is resolvable (y >= 1/2)")
    else:
        at = next(p for p in points if p.n == first)
        notes.append(f"first unresolvable level: n={first} (y={at.y:.6g})")
        if first > n_min:
            below = next(p for p in points if p.n == first - 1)
            notes.append(f"n={first - 1} is still resolvable (y={below.y:.6g})")
    flips = [
        f"n={q.n}: y {'rises above' if q.resolvable else 'falls below'} 1/2 (y={q.y:.6g})"
        for p, q in zip(points, points[1:])
        if p.resolvable != q.resolvable
    ]
    notes.extend(flips[1:] if first is not None and first > n_min else flips)
    return ScanResult(points=points, first_unresolvable=first, note="; ".join(notes))


def harmonic_dpdq(model: Harmonic, n: int, q: float, p: float) -> float:
    """Joint (q, p) resolution needed to pin E_n of the harmonic oscillator.

    dp dq = 1 / (4 (n + 1/2 + |p q|)) in hbar units; compare with 1/2.
    A point (q, p) on or near the classical orbit of E_n is assumed, not
    enforced.
    """
    if not isinstance(model, Harmonic):
        raise TypeError("harmonic_dpdq applies to the Harmonic model only")
    _check_index(model, n)
    return 0.25 / (n + 0.5 + abs(p * q))


def quartic_limits(model: Quartic, n: int) -> tuple[float, float]:
    """Asymptotes of y(n) for the quartic model, for diagnostic display.

    Returns (weak-nonlinearity limit pi lam / omega, strong-nonlinearity
    limit pi (2n - 1) / (4 (n - 1) n)); the latter coincides with the Box
    closed form.
    """
    if not isinstance(model, Quartic):
        raise TypeError("quartic_limits applies to the Quartic model only")
    if n < 2:
        raise IndexOutOfSpectrum(f"limits need n >= 2, got {n}")
    low_nl = math.pi * model.lam / model.omega
    high_nl = math.pi * (2 * n - 1) / (4.0 * (n - 1) * n)
    return low_nl, high_nl
