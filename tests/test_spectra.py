"""Tests for the closed-system model catalog and the y(n) criterion."""

import inspect
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from levelscope import presets, spectra
from levelscope.spectra import (
    Box,
    DegeneratePeriod,
    Harmonic,
    Hydrogenoid,
    IndexOutOfSpectrum,
    Morse,
    NotNormalized,
    Quartic,
    SuperpositionSpec,
    criterion_point,
    energy,
    harmonic_dpdq,
    max_index,
    min_index,
    period,
    quartic_limits,
    superposition_delta_e,
    threshold_scan,
)
from oracles import harness_oracles, morse_energy_exact, morse_top_is_exact

closed_y = harness_oracles.closed_y

BOX = Box(mass=1.0, width=1.0)
HYD = Hydrogenoid()


# ---------------------------------------------------------------------------
# spectra


def test_harmonic_ground_state_energy():
    assert energy(Harmonic(mass=1.0, omega=1.0), 0) == pytest.approx(0.5)


def test_box_level_ratio():
    assert energy(BOX, 2) / energy(BOX, 1) == pytest.approx(4.0, rel=1e-14)


def test_quartic_energy_example():
    assert energy(Quartic(omega=1.0, lam=1.0), 3) == pytest.approx(12.0, rel=1e-14)


def test_hydrogenoid_energy_scaling():
    assert energy(HYD, 2) == pytest.approx(energy(HYD, 1) / 4.0, rel=1e-14)
    assert energy(HYD, 1) == pytest.approx(-0.5, rel=1e-14)


def test_box_rejects_n_zero():
    with pytest.raises(IndexOutOfSpectrum):
        energy(BOX, 0)
    with pytest.raises(IndexOutOfSpectrum):
        period(BOX, 0)


def test_harmonic_period_is_energy_independent():
    model = Harmonic(mass=1.0, omega=2.0)
    values = {period(model, n) for n in range(0, 20)}
    assert values == {period(model, 0)}
    assert period(model, 0) == pytest.approx(math.pi, rel=1e-14)


def test_box_period_example():
    assert period(BOX, 1) == pytest.approx(2.0 / math.pi, rel=1e-14)


def test_hydrogenoid_kepler_scaling():
    assert period(HYD, 2) / period(HYD, 1) == pytest.approx(8.0, rel=1e-14)


@pytest.mark.parametrize("n", range(2, 60))
def test_hydrogenoid_period_differences_match_printed_form(n):
    # (tau_n - tau_{n-1}) / 2 = pi (3n^2 - 3n + 1) / (mu Z^2 e^4)
    d_tau = (period(HYD, n) - period(HYD, n - 1)) / 2.0
    assert d_tau == pytest.approx(math.pi * (3 * n * n - 3 * n + 1), rel=1e-12)


def test_quartic_period_form():
    model = Quartic(omega=2.0, lam=0.5)
    for n in (0, 1, 4):
        assert period(model, n) == pytest.approx(2 * math.pi / (2.0 + 1.0 * n), rel=1e-14)


# ---------------------------------------------------------------------------
# criterion


def test_box_criterion_threshold_values():
    p4 = criterion_point(BOX, 4)
    assert p4.y == pytest.approx((math.pi / 4) * (7 / 12), rel=1e-12)
    assert not p4.resolvable
    p3 = criterion_point(BOX, 3)
    assert p3.y == pytest.approx((math.pi / 4) * (5 / 6), rel=1e-12)
    assert p3.resolvable


def test_quartic_box_limit_at_vanishing_omega():
    model = Quartic(omega=1e-9, lam=1.0)
    p = criterion_point(model, 4)
    assert p.y == pytest.approx(math.pi * 7 / 48, rel=1e-6)
    assert not p.resolvable


def test_harmonic_criterion_is_period_blind():
    with pytest.raises(DegeneratePeriod):
        criterion_point(Harmonic(mass=1.0, omega=1.0), 7)


def test_criterion_requires_lower_neighbor():
    with pytest.raises(IndexOutOfSpectrum):
        criterion_point(BOX, 1)
    # Quartic has a ground level n = 0, so n = 1 is fine.
    assert criterion_point(Quartic(omega=1.0, lam=1.0), 1).y > 0.0


@pytest.mark.parametrize("n", range(2, 101))
def test_generic_differences_match_closed_forms(n):
    assert criterion_point(BOX, n).y == pytest.approx(closed_y("box", n), rel=1e-10)
    assert criterion_point(HYD, n).y == pytest.approx(closed_y("hydrogenoid", n), rel=1e-10)
    q = Quartic(omega=0.7, lam=1.3)
    assert criterion_point(q, n).y == pytest.approx(closed_y("quartic", n, 0.7, 1.3), rel=1e-10)


def test_criterion_point_invariants():
    p = criterion_point(BOX, 5)
    assert p.y == abs(p.d_energy * p.d_tau)
    assert p.resolvable == (p.y >= 0.5)


@pytest.mark.parametrize("mass", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("width", [0.1, 1.0, 10.0])
def test_box_y_is_scale_invariant(mass, width):
    reference = criterion_point(BOX, 7).y
    other = criterion_point(Box(mass=mass, width=width), 7).y
    assert other == pytest.approx(reference, rel=1e-12)


def test_relative_energy_spread_vanishes_for_harmonic_and_box():
    harmonic = Harmonic(mass=1.0, omega=1.0)
    previous = {"harmonic": math.inf, "box": math.inf}
    for n in range(2, 2001):
        gap_h = (energy(harmonic, n) - energy(harmonic, n - 1)) / 2.0
        ratio_h = gap_h / energy(harmonic, n)
        gap_b = (energy(BOX, n) - energy(BOX, n - 1)) / 2.0
        ratio_b = gap_b / energy(BOX, n)
        assert ratio_h < previous["harmonic"]
        assert ratio_b < previous["box"]
        previous = {"harmonic": ratio_h, "box": ratio_b}
    assert previous["harmonic"] < 1e-3
    assert previous["box"] < 1e-3


def test_y_eventually_negligible_for_box_and_hydrogenoid():
    tail_box = [criterion_point(BOX, n).y for n in range(500, 1001, 100)]
    tail_hyd = [criterion_point(HYD, n).y for n in range(500, 1001, 100)]
    assert all(a > b for a, b in zip(tail_box, tail_box[1:]))
    assert all(a > b for a, b in zip(tail_hyd, tail_hyd[1:]))
    assert tail_box[-1] < 0.01 / 2.0
    assert tail_hyd[-1] < 0.01 / 2.0


# ---------------------------------------------------------------------------
# superpositions


def test_pure_eigenstate_has_zero_spread():
    spec = SuperpositionSpec(a=1.0, b=0.0, n=3)
    assert superposition_delta_e(BOX, spec) == 0.0


def test_balanced_superposition_reaches_half_gap():
    model = Harmonic(mass=1.0, omega=1.0)
    spec = SuperpositionSpec(a=1 / math.sqrt(2), b=1 / math.sqrt(2), n=4)
    assert superposition_delta_e(model, spec) == pytest.approx(0.5, rel=1e-12)


def test_unbalanced_superposition_spread():
    spec = SuperpositionSpec(a=math.sqrt(0.9), b=math.sqrt(0.1), n=2)
    gap = energy(BOX, 2) - energy(BOX, 1)
    assert superposition_delta_e(BOX, spec) == pytest.approx(math.sqrt(0.09) * gap, rel=1e-12)


def test_balanced_superposition_is_the_maximizer():
    model = Harmonic(mass=1.0, omega=1.0)
    gap = energy(model, 4) - energy(model, 3)
    best_theta, best = None, -1.0
    for k in range(0, 501):
        theta = 0.5 * math.pi * k / 500
        spec = SuperpositionSpec(a=math.cos(theta), b=math.sin(theta), n=4)
        value = superposition_delta_e(model, spec)
        if value > best:
            best_theta, best = theta, value
    assert best == pytest.approx(gap / 2.0, rel=1e-5)
    assert best_theta == pytest.approx(math.pi / 4, abs=2e-3)


def test_superposition_normalization_enforced():
    with pytest.raises(NotNormalized):
        SuperpositionSpec(a=1.0, b=0.5, n=2)


def test_complex_amplitudes_use_magnitudes():
    spec = SuperpositionSpec(a=complex(0, 1 / math.sqrt(2)), b=1 / math.sqrt(2), n=2)
    gap = energy(BOX, 2) - energy(BOX, 1)
    assert superposition_delta_e(BOX, spec) == pytest.approx(gap / 2.0, rel=1e-12)


# ---------------------------------------------------------------------------
# scans


def test_box_scan_first_unresolvable_is_four():
    result = threshold_scan(BOX, 2, 50)
    assert result.first_unresolvable == 4
    assert len(result.points) == 49


def test_hydrogenoid_scan_crossing_and_note():
    result = threshold_scan(HYD, 2, 50)
    assert result.first_unresolvable == 10
    # The level just below the crossing is still resolvable and the note
    # must surface both values.
    y9 = criterion_point(HYD, 9).y
    y10 = criterion_point(HYD, 10).y
    assert y9 > 0.5 > y10
    assert y9 == pytest.approx(0.558899, rel=1e-5)
    assert y10 == pytest.approx(0.499261, rel=1e-5)
    assert "n=10" in result.note and "n=9" in result.note


def test_scan_reports_upward_crossings():
    model = presets.load_model("h2_morse")
    result = threshold_scan(model, 1, max_index(model))
    assert result.first_unresolvable == 1
    assert "rises above" in result.note


def test_scan_rejects_bad_ranges():
    with pytest.raises(ValueError):
        threshold_scan(BOX, 5, 4)
    with pytest.raises(IndexOutOfSpectrum):
        threshold_scan(BOX, 1, 10)
    with pytest.raises(IndexOutOfSpectrum):
        threshold_scan(HYD, 0, 10)


H2 = presets.load_model("h2_morse")
WELL = Morse(depth=1.0, alpha=1.0, anharmonicity=10.0, mass=1.0, r0=1.0, omega=0.4)


@pytest.mark.parametrize(
    "model, n_min, n_max",
    [(BOX, 2, 400), (HYD, 2, 400), (Quartic(omega=0.1, lam=1.0), 1, 400),
     (Quartic(omega=0.3, lam=0.0), 1, 20), (H2, 1, 16), (H2, 16, 16), (WELL, 1, 4)],
    ids=["box", "hydrogenoid", "quartic", "quartic-lam-0", "h2", "h2-top", "morse"],
)
def test_scan_points_are_the_criterion_points(model, n_min, n_max):
    # The scan evaluates each level once; repr tells every float bit apart.
    points = threshold_scan(model, n_min, n_max).points
    assert repr(points) == repr(tuple(criterion_point(model, n) for n in range(n_min, n_max + 1)))


def _log_uniform(lo: float, hi: float):
    return st.floats(min_value=lo, max_value=hi).map(lambda x: 10.0**x)


def _fitted_morse(depth, alpha, anharmonicity, mass, r0, detuning) -> Morse:
    # omega near 4 depth / anharmonicity, as in a fitted well, so that the
    # well holds levels; independent draws are mostly too shallow.
    return Morse(depth, alpha, anharmonicity, mass, r0, 4.0 * depth / anharmonicity * detuning)


# Parameters log-uniform over 1e-300..1e300, so that levels, periods and
# their differences overflow and underflow in every combination. The Morse
# ceiling search walks, one at a time, the levels near the root of E(n) whose
# computed sign rounding could decide: about 2^-48 depth / omega of them,
# endless for depth / omega ~ 1e100. E(n) crosses 0 in the climbing range
# only if anharmonicity >= 4 depth / omega, so anharmonicity stays below 1e4
# here.
SCALE = _log_uniform(-300.0, 300.0)
CAPACITY = _log_uniform(0.5, 4.0)
DRAWN_MODELS = st.one_of(
    st.builds(Box, mass=SCALE, width=SCALE),
    st.builds(Hydrogenoid, reduced_mass=SCALE, charge_number=st.integers(1, 100), charge=SCALE),
    st.builds(Quartic, omega=SCALE, lam=st.one_of(st.just(0.0), SCALE)),
    st.builds(Morse, depth=SCALE, alpha=SCALE, anharmonicity=CAPACITY, mass=SCALE, r0=SCALE,
              omega=SCALE),
    st.builds(_fitted_morse, depth=SCALE, alpha=SCALE, anharmonicity=CAPACITY, mass=SCALE,
              r0=SCALE, detuning=_log_uniform(-1.0, 0.1)),
)


def _rows_or_error(rows):
    try:
        return repr(rows())
    except ValueError:
        return ValueError


@settings(max_examples=400, deadline=None, derandomize=True)
@given(model=DRAWN_MODELS,
       start=st.one_of(st.integers(0, 2), st.integers(0, 20), st.integers(0, 10**9)),
       count=st.integers(1, 4))
# tau_1 = 2 pi / (omega + 2 lam) = 2 pi / inf is 0, a row that must not pass.
@example(model=Quartic(omega=1e308, lam=5e307), start=0, count=1)
# 2 |E_n| alpha^2 overflows, so both periods come out 0.
@example(model=Morse(depth=3.893366748211468e+192, alpha=1.168751338103745e+87,
                     anharmonicity=12.832998962983671, mass=7.143969753275426e-223,
                     r0=2.5624210082468265e+58, omega=3.7819814997486035e+38),
         start=1, count=2)
def test_scan_rows_are_the_criterion_points_or_both_raise(model, start, count):
    lo = min_index(model) + 1 + start
    hi = lo + count - 1
    scan = _rows_or_error(lambda: threshold_scan(model, lo, hi).points)
    assert scan == _rows_or_error(lambda: tuple(criterion_point(model, n)
                                                for n in range(lo, hi + 1)))


SHALLOW = Morse(depth=1.0, alpha=1.0, anharmonicity=1.0, mass=1.0, r0=1.0, omega=0.4)


@pytest.mark.parametrize(
    "model, n_min, n_max, error, message",
    [
        (H2, 1, 40, IndexOutOfSpectrum,
         "n=17 lies past the top of the Morse well (last bound level n=16)"),
        (H2, 20, 40, IndexOutOfSpectrum,
         "n=20 lies past the top of the Morse well (last bound level n=16)"),
        (SHALLOW, 1, 3, IndexOutOfSpectrum, "Morse well too shallow to hold any level"),
        (Harmonic(mass=1.0, omega=1.0), 1, 4, DegeneratePeriod,
         "harmonic period is energy independent: dTau = 0 for every n, "
         "the period cannot probe this spectrum"),
        (Harmonic(mass=1.0, omega=1.0), 0, 4, IndexOutOfSpectrum,
         "scan must start at n >= 1 for Harmonic"),
        (BOX, 5, 4, ValueError, "empty scan range [5, 4]"),
        (BOX, 1, 10, IndexOutOfSpectrum, "scan must start at n >= 2 for Box"),
    ],
    ids=["past-top", "all-past-top", "shallow", "harmonic", "harmonic-low", "empty", "low"],
)
def test_scan_errors_are_the_level_by_level_errors(model, n_min, n_max, error, message):
    with pytest.raises(error) as exc:
        threshold_scan(model, n_min, n_max)
    assert str(exc.value) == message


@pytest.mark.parametrize(
    "model, n, name, level",
    [
        (Quartic(omega=1e308, lam=1e308), 5, "E_n", 5),  # E comes out inf
        (Quartic(omega=1e-300, lam=1e300), 1, "y", 1),  # finite dE * dTau overflows
        (Box(mass=1e300, width=1e300), 3, "E_n", 3),  # width**2 raises OverflowError
        (Hydrogenoid(reduced_mass=1e-300, charge=1e-300), 3, "tau_n", 3),  # divides by 0
    ],
    ids=["quartic-energy", "quartic-y", "box-overflow", "hydrogenoid-zero-division"],
)
def test_non_finite_criterion_names_the_quantity_and_level(model, n, name, level):
    message = (f"{name} is not finite at n={level}: "
               "the model parameters leave double-precision range")
    with pytest.raises(ValueError) as exc:
        criterion_point(model, n)
    assert str(exc.value) == message
    if isinstance(model, Quartic):  # the scan meets the same quantity first
        with pytest.raises(ValueError) as exc:
            threshold_scan(model, n, n + 3)
        assert str(exc.value) == message


QUARTIC_OVERFLOW = Quartic(omega=1e308, lam=1e308)


@pytest.mark.parametrize(
    "call, name, level",
    [
        # Unchecked, E_5 is inf, tau_5 = 2 pi / inf is 0 and the spread
        # inf - inf is NaN.
        (lambda: energy(QUARTIC_OVERFLOW, 5), "E_n", 5),
        (lambda: period(QUARTIC_OVERFLOW, 5), "tau_n", 5),
        (lambda: superposition_delta_e(QUARTIC_OVERFLOW, SuperpositionSpec(0.6, 0.8, 5)),
         "E_n", 5),
        # width**2 underflows to 0, so the period is 0.
        (lambda: period(Box(mass=1e-300, width=1e-300), 3), "tau_n", 3),
    ],
    ids=["quartic-energy", "quartic-period", "quartic-spread", "box-period-underflow"],
)
def test_level_functions_name_the_non_finite_quantity(call, name, level):
    with pytest.raises(ValueError) as exc:
        call()
    assert str(exc.value) == (f"{name} is not finite at n={level}: "
                              "the model parameters leave double-precision range")


# ---------------------------------------------------------------------------
# harmonic resolution product and quartic asymptotes


def test_harmonic_dpdq_examples():
    model = Harmonic(mass=1.0, omega=1.0)
    assert harmonic_dpdq(model, 0, 0.0, 0.0) == pytest.approx(0.5, rel=1e-14)
    assert harmonic_dpdq(model, 10, 1.0, 1.0) == pytest.approx(1.0 / 46.0, rel=1e-14)
    assert harmonic_dpdq(model, 3, 1e8, 1e8) < 1e-15


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: superposition_delta_e(BOX, SuperpositionSpec(0.6, 0.8, 1)), IndexOutOfSpectrum,
         "n=1 has no lower neighbor in Box"),
        (lambda: superposition_delta_e(Quartic(omega=1.0, lam=1.0), SuperpositionSpec(0.6, 0.8, 0)),
         IndexOutOfSpectrum, "n=0 has no lower neighbor in Quartic"),
        (lambda: harmonic_dpdq(BOX, 2, 0.0, 0.0), TypeError,
         "harmonic_dpdq applies to the Harmonic model only"),
        (lambda: quartic_limits(BOX, 3), TypeError,
         "quartic_limits applies to the Quartic model only"),
        (lambda: quartic_limits(Quartic(omega=1.0, lam=1.0), 1), IndexOutOfSpectrum,
         "limits need n >= 2, got 1"),
    ],
    ids=["spread-box-n1", "spread-quartic-n0", "dpdq-box", "limits-box", "limits-n1"],
)
def test_level_helpers_refuse_what_they_cannot_answer(call, error, message):
    with pytest.raises(error) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("n", range(2, 11))
def test_quartic_asymptotes(n):
    weak = Quartic(omega=1.0, lam=1e-6)
    low_nl, _ = quartic_limits(weak, n)
    assert criterion_point(weak, n).y == pytest.approx(low_nl, rel=1e-4)

    strong = Quartic(omega=1e-6, lam=1.0)
    _, high_nl = quartic_limits(strong, n)
    assert criterion_point(strong, n).y == pytest.approx(high_nl, rel=1e-4)
    # The strong-coupling asymptote is the Box closed form, identically.
    assert high_nl == closed_y("box", n)


# ---------------------------------------------------------------------------
# Morse model and presets


def test_morse_preset_loads_with_expected_scales():
    model = presets.load_model("h2_morse")
    assert isinstance(model, Morse)
    assert model.depth == pytest.approx(4.75)
    # reduced mass of H2 in the hbar = 1 (eV, Angstrom) system
    assert model.mass == pytest.approx(120.548, rel=1e-4)
    assert min_index(model) == 0
    assert max_index(model) == 16


def test_morse_levels_climb_then_stop():
    model = presets.load_model("h2_morse")
    top = max_index(model)
    levels = [energy(model, n) for n in range(0, top + 1)]
    assert all(e < 0.0 for e in levels)
    assert all(b > a for a, b in zip(levels, levels[1:]))
    with pytest.raises(IndexOutOfSpectrum):
        energy(model, top + 1)
    with pytest.raises(IndexOutOfSpectrum):
        period(model, top + 1)


def _top_or_none(well):
    try:
        return well._top()
    except IndexOutOfSpectrum as exc:
        assert str(exc) == "Morse well too shallow to hold any level"
        return None


# Each top is checked against an exact evaluation of E in rationals. Wells up
# to anharmonicity 2e5, omega drawn freely, near 4 depth / anharmonicity
# (where E(n) barely reaches 0 at the top of the climbing range), and within
# a few ulps of it. The exact top can differ from the rounded sign of E:
# at anharmonicity 10 ** 1e-9 and the fitted omega, E(0) = -1.06e-17 computes
# as 0.0, so the well holds level 0.
@settings(max_examples=600, deadline=None, derandomize=True)
@given(
    depth=SCALE,
    anharmonicity=_log_uniform(-1.0, 5.3),
    # omega itself, or a factor on the fitted 4 depth / anharmonicity
    omega=st.one_of(
        st.tuples(st.just("free"), SCALE),
        st.tuples(st.just("fitted"), st.builds(lambda sign, x: 1.0 + sign * x,
                                               st.sampled_from([1.0, -1.0]),
                                               _log_uniform(-17.0, 0.0))),
        st.tuples(st.just("fitted"), st.sampled_from(
            [1.0, 1.0 - 2.0**-52, 1.0 + 2.0**-52, 1.0 - 2.0**-40, 1.0 + 2.0**-40])),
    ),
)
@example(depth=1.0, anharmonicity=1e5, omega=("free", 1.0))
@example(depth=1.0, anharmonicity=1e5, omega=("free", 1e-320))
@example(depth=1e-320, anharmonicity=1e5, omega=("free", 1.0))
@example(depth=1e300, anharmonicity=1e5, omega=("free", 1e-300))
@example(depth=1.0, anharmonicity=10.0**1e-9, omega=("fitted", 1.0))
def test_morse_top_is_the_exact_last_bound_level(depth, anharmonicity, omega):
    kind, value = omega
    omega = value if kind == "free" else 4.0 * depth / anharmonicity * value
    if not 0.0 < omega < math.inf:
        return
    well = Morse(depth, 1.0, anharmonicity, 1.0, 1.0, omega)
    top = _top_or_none(well)
    assert morse_top_is_exact(well, top)


# The whole float range: depth and omega over 1e-300..1e300 and capacities
# up to 1e300, where the top can lie far past 2^53 and n + 1/2 no longer
# resolves single levels in floats.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(depth=SCALE, omega=SCALE, anharmonicity=_log_uniform(-1.0, 300.0))
@example(depth=1e300, omega=1e-300, anharmonicity=1e300)
def test_morse_top_over_the_float_range(depth, omega, anharmonicity):
    well = Morse(depth, 1.0, anharmonicity, 1.0, 1.0, omega)
    assert morse_top_is_exact(well, _top_or_none(well))


# Wells whose root in n lies within a few ulps of an integer: depth is the
# rounded omega (v - v^2 / a) of a level v = n + 1/2, moved by up to four
# ulps either way, so E of that level is within rounding of 0.
@settings(max_examples=400, deadline=None, derandomize=True)
@given(anharmonicity=_log_uniform(0.5, 12.0), omega=_log_uniform(-30.0, 30.0),
       where=st.floats(0.0, 1.0), ulps=st.integers(-4, 4))
def test_morse_top_when_a_level_sits_at_the_root(anharmonicity, omega, where, ulps):
    v = int(where * (anharmonicity - 1.0) / 2.0) + 0.5
    depth = omega * (v - v * v / anharmonicity)
    for _ in range(abs(ulps)):
        depth = math.nextafter(depth, math.copysign(math.inf, ulps))
    if depth > 0.0:
        well = Morse(depth, 1.0, anharmonicity, 1.0, 1.0, omega)
        assert morse_top_is_exact(well, _top_or_none(well))


def _best_seconds(call, repeat=5):
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - start)
    return best


def test_morse_top_of_a_deep_well():
    # Near n = 1e21, n + 1/2 no longer resolves single levels in floats; the
    # top is decided exactly, with E(top) = -0.530 and E(top + 1) = +0.450.
    well = Morse(1e21, 1.0, 1e23, 1.0, 1.0, 1.0)
    top = 1010205144336438036927
    assert well._top() == top
    assert morse_top_is_exact(well, top)
    assert -0.531 < morse_energy_exact(well, top) < -0.529
    assert 0.449 < morse_energy_exact(well, top + 1) < 0.451
    assert _best_seconds(well._top) < 1e-3


# The widest wells take the most bisection steps, about 1024.
@pytest.mark.parametrize("depth, anharmonicity, omega", [
    (1.7976931348623157e308, 1.7976931348623157e308, 5e-324),
    (5e-324, 1.7976931348623157e308, 1.7976931348623157e308),
    (1.0, 1.7976931348623157e308, 2.0**-1022),
])
def test_morse_top_at_the_ends_of_the_float_range(depth, anharmonicity, omega):
    well = Morse(depth, 1.0, anharmonicity, 1.0, 1.0, omega)
    assert morse_top_is_exact(well, _top_or_none(well))
    assert _best_seconds(lambda: _top_or_none(well), repeat=3) < 1e-2


@pytest.mark.parametrize("anharmonicity", [1e7, 1e12, 1e100, 1.3e154, 1e200])
def test_morse_top_of_a_wide_well(anharmonicity):
    # Levels pass dissociation at n = 1, E(1) = 1/2 - 9 / (4 anharmonicity),
    # of about anharmonicity / 2 climbing ones, also where (n + 1/2)^2
    # overflows at the top of that range.
    well = Morse(1.0, 1.0, anharmonicity, 1.0, 1.0, 1.0)
    assert well._top() == 0
    assert morse_top_is_exact(well, 0)


def test_morse_period_grows_toward_dissociation():
    model = presets.load_model("h2_morse")
    taus = [period(model, n) for n in range(0, max_index(model) + 1)]
    assert all(b > a for a, b in zip(taus, taus[1:]))


def test_morse_period_formula():
    model = Morse(depth=4.0, alpha=2.0, anharmonicity=30.0, mass=100.0, r0=1.0, omega=0.5)
    e0 = energy(model, 0)
    expected = 2 * math.pi * math.sqrt(model.mass * model.r0**2 / (2 * abs(e0) * model.alpha**2))
    assert period(model, 0) == pytest.approx(expected, rel=1e-14)


def test_model_validation():
    with pytest.raises(ValueError):
        Box(mass=-1.0, width=1.0)
    with pytest.raises(ValueError):
        Quartic(omega=0.0, lam=1.0)
    with pytest.raises(ValueError):
        Hydrogenoid(charge_number=0)


VALID_MODELS = (
    Harmonic(mass=1.0, omega=1.0),
    BOX,
    HYD,
    Morse(depth=1.0, alpha=1.0, anharmonicity=10.0, mass=1.0, r0=1.0, omega=0.4),
    Quartic(omega=1.0, lam=1.0),
)


def _parameters(model) -> dict:
    """The constructor parameters of the model's type, by name."""
    return dict(inspect.signature(type(model)).parameters)


@pytest.mark.parametrize(
    "model, name",
    [(m, name) for m in VALID_MODELS
     for name, param in _parameters(m).items() if param.annotation == "float"],
    ids=lambda v: v if isinstance(v, str) else type(v).__name__,
)
@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_models_reject_non_finite_parameters(model, name, bad):
    values = {key: getattr(model, key) for key in _parameters(model)}
    assert type(model)(**values) == model
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        type(model)(**{**values, name: bad})


@pytest.mark.parametrize("bad", [math.inf, math.nan, 2.5, True])
def test_hydrogenoid_rejects_non_integer_charge_number(bad):
    with pytest.raises(ValueError, match="charge_number must be an integer"):
        Hydrogenoid(charge_number=bad)


def test_hydrogenoid_accepts_numpy_integer_charge_number():
    assert Hydrogenoid(charge_number=np.int64(2)).charge_number == 2


# ---------------------------------------------------------------------------
# preset file parsing


def test_builtin_presets_listed():
    assert "h2_morse" in presets.builtin_preset_names()


def test_preset_from_path(tmp_path):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text("model = quartic\nomega = 2.0\nlambda = 0.25\n")
    model = presets.load_model(str(cfg))
    assert model == Quartic(omega=2.0, lam=0.25)


def test_preset_natural_units_pass_through(tmp_path):
    cfg = tmp_path / "b.cfg"
    cfg.write_text("model = box\nunits = natural\nmass = 2.0\nwidth = 3.0\n")
    assert presets.load_model(str(cfg)) == Box(mass=2.0, width=3.0)


def test_preset_errors(tmp_path):
    with pytest.raises(FileNotFoundError):
        presets.load_model("no_such_preset")
    bad = tmp_path / "bad.cfg"
    bad.write_text("model = box\nmass = 1.0\n")
    with pytest.raises(ValueError, match="missing"):
        presets.load_model(str(bad))
    bad.write_text("model = box\nmass = 1.0\nwidth = 1.0\nspin = 2\n")
    with pytest.raises(ValueError, match="unknown keys"):
        presets.load_model(str(bad))
    bad.write_text("mass = 1.0\n")
    with pytest.raises(ValueError, match="model"):
        presets.load_model(str(bad))
    bad.write_text("model = box\nunits = cgs\nmass = 1.0\nwidth = 1.0\n")
    with pytest.raises(ValueError, match="unit"):
        presets.load_model(str(bad))
    bad.write_text("model = box\nmass = 1.0\nmass = 2.0\nwidth = 1.0\n")
    with pytest.raises(ValueError, match="duplicate"):
        presets.load_model(str(bad))
    # Keys are case-insensitive, so a repeat in another case is a repeat too.
    bad.write_text("model = box\nmass = 1.0\nMass = 5.0\nwidth = 1.0\n")
    with pytest.raises(ValueError, match="line 3: duplicate key 'Mass'"):
        presets.load_model(str(bad))
    for text, message in [
        ("model = box\nmass 1.0\nwidth = 1.0\n", "line 2: expected 'key = value', got 'mass 1.0'"),
        ("model = box\n= 1.0\n", "line 2: empty key or value in '= 1.0'"),
        ("model = box\nmass =  # unset\n", "line 2: empty key or value in 'mass =  # unset'"),
        ("model = rotor\n", "unknown model 'rotor' (expected one of "
                            "['box', 'harmonic', 'hydrogenoid', 'morse', 'quartic'])"),
        ("model = box\nmass = nan\nwidth = 1.0\n", "parameter 'mass' is not finite: 'nan'"),
        ("model = box\nmass = 1.0\nwidth = -inf\n", "parameter 'width' is not finite: '-inf'"),
    ]:
        bad.write_text(text)
        with pytest.raises(ValueError) as exc:
            presets.load_model(str(bad))
        assert str(exc.value) == message


@pytest.mark.parametrize("value", ["2", "2.0", "1.5"])
def test_preset_charge_number_must_be_integral(tmp_path, value):
    cfg = tmp_path / "h.cfg"
    cfg.write_text(f"model = hydrogenoid\nreduced_mass = 1\ncharge_number = {value}\ncharge = 1\n")
    if value == "1.5":
        with pytest.raises(ValueError) as exc:
            presets.load_model(str(cfg))
        assert str(exc.value) == "charge_number must be an integer >= 1, got 1.5"
    else:
        model = presets.load_model(str(cfg))
        assert model == Hydrogenoid(charge_number=2) and type(model.charge_number) is int


# ---------------------------------------------------------------------------
# the model catalog


def test_catalog_names_each_model_class_by_its_lowercased_name():
    assert spectra.MODELS == {cls.__name__.lower(): cls
                              for cls in (Harmonic, Box, Hydrogenoid, Morse, Quartic)}


CATALOG_MODELS = (
    Harmonic(mass=1.5, omega=2.0),
    Box(mass=2.0, width=0.5),
    Hydrogenoid(reduced_mass=0.75, charge_number=3, charge=1.25),
    Morse(depth=1.0, alpha=1.5, anharmonicity=10.0, mass=2.0, r0=0.5, omega=0.4),
    Quartic(omega=0.3, lam=0.7),
)


@pytest.mark.parametrize("model", CATALOG_MODELS, ids=lambda m: type(m).__name__)
def test_natural_preset_of_the_fields_is_the_model(tmp_path, model):
    # One key per field of the class, in any order; `lambda` is lam.
    name = type(model).__name__.lower()
    lines = [f"{'lambda' if f == 'lam' else f} = {getattr(model, f)!r}"
             for f in reversed(model._fields)]
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text("\n".join([f"model = {name}", "units = natural", *lines]) + "\n")
    loaded = presets.load_model(str(cfg))
    assert loaded == model and repr(loaded) == repr(model)
