"""Tests for fidelity, survival, moments and the environment-averaged criterion."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelscope.cli import main
from levelscope.diffusive import (
    check_curve,
    fidelity_overlap,
    log_points,
    mean_h0,
    mean_n,
    mean_tau,
    mean_y_point,
    mean_y_series,
    survival,
)
from levelscope.numerics import MismatchedConfig, SeriesTolerance, ZeroEnergy
from levelscope.open_system import DiffusiveConfig, distribution
from oracles import fidelity_closed_form, fidelity_direct, fidelity_terminating


def cfg_for(b: int, omega: float = 0.0, lam: float = 0.0) -> DiffusiveConfig:
    return DiffusiveConfig(b=b, kappa=1.0, omega=omega, lam=lam)


def pair_for(b: int, **kw) -> tuple[DiffusiveConfig, DiffusiveConfig]:
    return cfg_for(b, **kw), cfg_for(b - 1, **kw)


def generating_moments(b: int, kt: float) -> tuple[float, float]:
    """(<N>, <N^2>) from 50-digit derivatives at s = 1 of the level
    generating function G(s) = zeta (gamma + (zeta - gamma) s)^b / (1 - gamma s)^(b+1),
    gamma = 2 kt / (1 + 2 kt), zeta = 1 - gamma: <N> = G'(1), <N^2> = G''(1) + G'(1)."""
    with mp.workdps(50):
        u = 2 * mp.mpf(kt)
        gamma, zeta = u / (1 + u), 1 / (1 + u)

        def gen(s):
            return zeta * (gamma + (zeta - gamma) * s) ** b / (1 - gamma * s) ** (b + 1)

        d1, d2 = mp.diff(gen, 1, 1), mp.diff(gen, 1, 2)
        return float(d1), float(d2 + d1)


# ---------------------------------------------------------------------------
# fidelity


def test_fidelity_vanishes_at_t_zero():
    for b in (1, 2, 5):
        assert fidelity_overlap(*pair_for(b), 0.0) == 0.0
        assert fidelity_closed_form(cfg_for(b), 0.0) == 0.0


@pytest.mark.parametrize("b", [1, 2, 3])
@pytest.mark.parametrize("kt", [0.01, 0.1, 1.0, 10.0])
def test_fidelity_closed_form_matches_overlap(b, kt):
    overlap = fidelity_overlap(*pair_for(b), kt)
    closed = fidelity_closed_form(cfg_for(b), kt)
    assert abs(closed - overlap) <= 1e-8
    assert 0.0 <= overlap <= 1.0


def test_fidelity_decays_at_late_times():
    assert fidelity_overlap(*pair_for(1), 100.0) < 1e-2


@pytest.mark.parametrize("b", [1, 3, 5])
@pytest.mark.parametrize("kt", [0.05, 0.5, 5.0])
def test_fidelity_cauchy_schwarz(b, kt):
    cfg_b, cfg_m = pair_for(b)
    f = fidelity_overlap(cfg_b, cfg_m, kt)
    purity_b = float(distribution(cfg_b, kt).weights @ distribution(cfg_b, kt).weights)
    purity_m = float(distribution(cfg_m, kt).weights @ distribution(cfg_m, kt).weights)
    assert f * f <= purity_b * purity_m * (1.0 + 1e-12)


def test_fidelity_requires_matching_bath():
    upper = DiffusiveConfig(b=2, kappa=1.0, omega=1.0, lam=1.0)
    lower = DiffusiveConfig(b=1, kappa=2.0, omega=1.0, lam=1.0)
    with pytest.raises(MismatchedConfig):
        fidelity_overlap(upper, lower, 0.1)
    not_neighbor = DiffusiveConfig(b=0, kappa=1.0, omega=1.0, lam=1.0)
    with pytest.raises(MismatchedConfig):
        fidelity_overlap(upper, not_neighbor, 0.1)
    for field in ("omega", "lam"):
        other = DiffusiveConfig(**{"b": 1, "kappa": 1.0, "omega": 1.0, "lam": 1.0, field: 2.0})
        with pytest.raises(MismatchedConfig):
            fidelity_overlap(upper, other, 0.1)
    # F reads no tolerance, so configurations that differ only in tol agree.
    looser = DiffusiveConfig(b=1, kappa=1.0, omega=1.0, lam=1.0, tol=SeriesTolerance(rel_eps=1e-8))
    same = DiffusiveConfig(b=1, kappa=1.0, omega=1.0, lam=1.0)
    assert fidelity_overlap(upper, looser, 0.1).hex() == fidelity_overlap(upper, same, 0.1).hex()


def test_fidelity_closed_form_stays_in_bounds():
    value = fidelity_closed_form(cfg_for(3), 1.0)
    assert 0.0 <= value <= 1.0


# kappa*t = 1/4 puts x = 4 kappa*t at 1, where fidelity_overlap changes branch.
EDGE = [math.nextafter(0.25, 0.0), 0.25, math.nextafter(0.25, 1.0)]


def _rel_err(b: int, kt: float, want: float) -> float:
    got = fidelity_overlap(*pair_for(b), kt)
    assert math.isfinite(got)
    return abs(got - want) / want


@pytest.mark.parametrize("b", [1, 2, 5, 15, 40, 100])
def test_fidelity_matches_the_direct_overlap_sum(b):
    # The direct sum needs about 100 kappa*t levels more than b; b = 100
    # stops at kappa*t = 2 to keep it quick.
    kts = [1e-3, 0.03, *EDGE, 0.3, 2.0] + ([10.0] if b < 100 else [])
    worst = max(_rel_err(b, kt, fidelity_direct(b, kt)) for kt in kts)
    assert worst <= 3e-14


@pytest.mark.parametrize("b", [1, 2, 5, 15, 40, 100])
def test_fidelity_matches_the_terminating_sum(b):
    kts = log_points(1e-3, 1e5, 33) + EDGE + [1e-300, 1e300]
    worst = max(_rel_err(b, kt, fidelity_terminating(b, kt)) for kt in kts)
    assert worst <= 3e-14


@pytest.mark.parametrize("b", [1000, 5000])
def test_fidelity_at_large_b(b):
    # The coefficients C(b,i) C(b-1,i) and the sum they make pass 1e308
    # here; the rounding of the exponent 2b log1p(1) sets the error.
    assert fidelity_overlap(*pair_for(b), 0.0) == 0.0
    for kt in [1e-3, 0.1, *EDGE, 0.3, 10.0, 1e3, 1e5]:
        assert _rel_err(b, kt, fidelity_terminating(b, kt)) <= 1e-12, kt


# ---------------------------------------------------------------------------
# survival


def test_survival_at_t_zero_is_one():
    for b in (0, 1, 15):
        assert survival(cfg_for(b), 0.0) == 1.0


def test_vacuum_survival_closed_form():
    # P_0(0, t) = 1 - gamma = 1 / (1 + 2 kt); at kt = 1 this is 1/3.
    assert survival(cfg_for(0), 1.0) == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_survival_decays_faster_for_higher_levels():
    assert survival(cfg_for(15), 0.1) < survival(cfg_for(1), 0.1)
    for kt in np.logspace(-2, 0, 7):
        values = [survival(cfg_for(b), kt) for b in (1, 5, 10, 15)]
        assert all(a >= b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# moments


@pytest.mark.parametrize("b", [0, 1, 2, 5, 10, 15])
@pytest.mark.parametrize("kt", [1e-3, 0.1, 1.0, 10.0, 100.0])
def test_mean_level_matches_generating_function(b, kt):
    assert mean_n(cfg_for(b), kt) == pytest.approx(generating_moments(b, kt)[0], rel=1e-8)


def test_mean_level_examples():
    assert mean_n(cfg_for(4), 0.0) == 4.0
    assert mean_n(cfg_for(0), 0.5) == pytest.approx(1.0, rel=1e-10)  # 2 kt


@pytest.mark.parametrize("b", [0, 2, 15])
@pytest.mark.parametrize("kt", [0.01, 1.0, 30.0])
def test_mean_energy_matches_generating_function(b, kt):
    omega, lam = 0.7, 1.3
    m1, m2 = generating_moments(b, kt)
    expected = omega * m1 + lam * m2
    assert mean_h0(cfg_for(b, omega, lam), kt) == pytest.approx(expected, rel=1e-8)


def test_mean_energy_examples():
    cfg = cfg_for(3, omega=1.0, lam=1.0)
    assert mean_h0(cfg, 0.0) == pytest.approx(12.0, rel=1e-12)
    # omega = 0 leaves the pure nonlinear term: lam * <N^2>
    cfg0 = cfg_for(0, omega=0.0, lam=2.0)
    kt = 0.4
    assert mean_h0(cfg0, kt) == pytest.approx(2.0 * generating_moments(0, kt)[1], rel=1e-8)
    # lam = 0 reduces to omega * <N> exactly
    cfg_lin = cfg_for(5, omega=0.9, lam=0.0)
    assert mean_h0(cfg_lin, 0.7) == pytest.approx(0.9 * mean_n(cfg_lin, 0.7), rel=1e-12)


def test_mean_tau_harmonic_reduction():
    # lam = 0: <tau> = 2 pi / omega at every time and for every b.
    cfg = cfg_for(4, omega=2.0, lam=0.0)
    for kt in (0.0, 0.3, 10.0):
        assert mean_tau(cfg, kt) == pytest.approx(math.pi, rel=1e-10)
    assert mean_tau(cfg_for(0, omega=1.0, lam=0.0), 1.0) == pytest.approx(
        2.0 * math.pi, rel=1e-10
    )


def test_mean_tau_initial_value_uses_moment_ratio():
    # t -> 0 with b >= 1: 2 pi b / (omega b + lam b^2) = 2 pi / (omega + lam b),
    # which intentionally differs from the closed-orbit 2 pi / (omega + 2 lam b).
    for b in (1, 3, 10):
        cfg = cfg_for(b, omega=0.5, lam=1.5)
        assert mean_tau(cfg, 0.0) == pytest.approx(2 * math.pi / (0.5 + 1.5 * b), rel=1e-12)


def test_mean_tau_zero_energy_raises():
    with pytest.raises(ZeroEnergy):
        mean_tau(cfg_for(0, omega=1.0, lam=1.0), 0.0)


# The certified Fock sums stay the oracle for the closed-form moments.
@pytest.mark.parametrize("b", [0, 1, 2, 5, 15, 40])
@pytest.mark.parametrize("kt", [1e-3, 0.3, 2.0, 40.0])
def test_closed_form_moments_match_certified_sums(b, kt):
    omega, lam = 0.7, 1.3
    cfg = cfg_for(b, omega, lam)
    _, m1, m2 = distribution(cfg, kt).moments()
    assert mean_n(cfg, kt) == pytest.approx(m1, rel=1e-9)
    assert mean_h0(cfg, kt) == pytest.approx(omega * m1 + lam * m2, rel=1e-9)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_moments_reject_bad_times(t):
    cfg = cfg_for(3, omega=0.1, lam=1.0)
    for fn in (mean_n, mean_h0, mean_tau, mean_y_point):
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            fn(cfg, t)


def test_moments_reject_overflow():
    # u^2 overflows at kappa*t = 1e200: an error, never an inf or a NaN.
    cfg = cfg_for(3, omega=0.1, lam=1.0)
    for fn in (mean_n, mean_h0, mean_tau, mean_y_point):
        with pytest.raises(ValueError, match="overflows"):
            fn(cfg, 1e200)
    # finite moments, but lam <N^2> overflows
    with pytest.raises(ValueError, match="<H0> overflows"):
        mean_h0(cfg_for(3, omega=0.1, lam=1e300), 1e5)


# ---------------------------------------------------------------------------
# <y(b)>


def test_mean_y_point_components_consistent():
    point = mean_y_point(cfg_for(3, omega=0.1, lam=1.0), 0.5)
    assert point.y_mean == abs(point.d_energy * point.d_tau)
    assert point.d_energy == (point.mean_h0_b - point.mean_h0_bm1) / 2.0
    assert point.d_tau == (point.mean_tau_b - point.mean_tau_bm1) / 2.0
    assert point.d_energy > 0.0 > point.d_tau


@pytest.mark.parametrize("b", [2, 5, 10, 15])
@pytest.mark.parametrize("ratio", [0.10, 10.0])
def test_mean_y_reduces_to_level_differences_at_early_time(b, ratio):
    # kt -> 0: d_energy -> (E_b - E_{b-1}) / 2 of the closed system.
    cfg = cfg_for(b, omega=ratio, lam=1.0)
    point = mean_y_point(cfg, 1e-6)
    closed = (ratio + 1.0 * (2 * b - 1)) / 2.0
    assert point.d_energy == pytest.approx(closed, rel=1e-3)


@pytest.mark.parametrize("b", [2, 5, 10, 15])
@pytest.mark.parametrize("ratio", [0.10, 10.0])
def test_environment_suppresses_mean_y(b, ratio):
    cfg = cfg_for(b, omega=ratio, lam=1.0)
    early = mean_y_point(cfg, 1e-3).y_mean
    late = mean_y_point(cfg, 1.0).y_mean
    assert late < early


def test_mean_y_scale_invariance_in_omega_lam():
    # Only omega / lam matters: rescaling both leaves <y(b)> unchanged.
    a = mean_y_point(cfg_for(5, omega=0.1, lam=1.0), 0.3).y_mean
    b = mean_y_point(cfg_for(5, omega=0.7, lam=7.0), 0.3).y_mean
    assert b == pytest.approx(a, rel=1e-9)


def test_mean_y_series_shape_and_grid_checks():
    cfg = cfg_for(2, omega=0.1, lam=1.0)
    grid = log_points(1e-3, 1.0, 7)
    series = mean_y_series(cfg, grid)
    assert len(series) == 7
    assert [p.kt for p in series] == pytest.approx(grid)
    # An array gives the points of the same list; only the caller loads numpy.
    assert mean_y_series(cfg, np.array(grid)) == series
    for bad, match in (
        ([0.2, 0.1], "strictly increasing"),
        ([0.1, 0.1], "strictly increasing"),
        ([], "non-empty 1-d"),
        ([[0.1, 0.2]], "1-d"),
        ([0.1, [0.2]], "1-d"),
        (np.array([[0.1, 0.2], [0.3, 0.4]]), "1-d"),
    ):
        with pytest.raises(ValueError, match=match):
            mean_y_series(cfg, bad)
    with pytest.raises(ValueError):
        mean_y_point(cfg_for(0, omega=0.1, lam=1.0), 0.1)
    for bad in ([0.1, math.nan], [math.nan], [0.1, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            mean_y_series(cfg_for(2, omega=0.1, lam=1.0), bad)


def test_mean_y_series_reaches_late_times():
    # A certified level cut passes max_terms near kappa*t = 1e5; the
    # closed-form moments need no cut.
    series = mean_y_series(cfg_for(40, omega=0.1, lam=1.0), log_points(1e-3, 1e5, 9))
    assert series[-1].kt == pytest.approx(1e5)
    assert all(0.0 < p.y_mean < math.pi / (2.0 * p.kt) for p in series)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    b=st.integers(min_value=1, max_value=60),
    log_kt=st.floats(min_value=-6.0, max_value=6.0),
    ratio=st.floats(min_value=0.0, max_value=100.0),
    kappa=st.sampled_from([0.1, 1.0, 10.0]),
)
def test_mean_y_bound_and_mean_level_property(b, log_kt, ratio, kappa):
    kt = 10.0 ** log_kt
    cfg = DiffusiveConfig(b=b, kappa=kappa, omega=ratio, lam=1.0)
    t = kt / kappa
    assert mean_n(cfg, t) == pytest.approx(b + 2.0 * kt, rel=1e-14)
    assert kt * mean_y_point(cfg, t).y_mean < math.pi / 2.0


# ---------------------------------------------------------------------------
# Grids and the curve check


def test_log_points_defaults():
    grid = log_points()
    assert len(grid) == 200
    assert grid[0] == pytest.approx(1e-3)
    assert grid[-1] == pytest.approx(1e2)
    for start, stop, points in ((0.0, 1.0, 10), (1.0, 1.0, 10), (1e-3, math.inf, 10)):
        with pytest.raises(ValueError, match="0 < START < STOP < inf and POINTS >= 2"):
            log_points(start, stop, points)


def _linspace_exponents(start: float, stop: float, points: int) -> list[float]:
    return np.linspace(math.log10(start), math.log10(stop), points).tolist()


def _jittered_grids(count: int) -> list[tuple[float, float, int]]:
    # Command-line style grids: both ends jittered by up to 2%, written
    # with six significant digits.
    rng = np.random.default_rng(20261018)
    return [
        (float(f"{1e-3 * rng.uniform(0.98, 1.02):.6g}"),
         float(f"{1e2 * rng.uniform(0.98, 1.02):.6g}"), 200)
        for _ in range(count)
    ]


GRIDS = [(1e-3, 1e2, 200), (1e-3, 1e5, 9), (0.5, 7.0, 3)] + _jittered_grids(8)


@pytest.mark.parametrize("start, stop, points", GRIDS)
def test_log_points_are_libm_powers_of_the_linspace_exponents(start, stop, points):
    # The exponents are np.linspace's bit for bit and each value is Python's
    # 10.0 ** y, whatever numpy's own power does on this CPU.
    grid = log_points(start, stop, points)
    assert grid == [10.0**y for y in _linspace_exponents(start, stop, points)]


@pytest.mark.parametrize("start, stop, points", GRIDS[:1] + GRIDS[3:])
def test_log_points_are_within_half_an_ulp_of_mpmath(start, stop, points):
    worst = 0.0
    with mp.workdps(40):
        for y, x in zip(_linspace_exponents(start, stop, points), log_points(start, stop, points)):
            exact = mp.power(10, mp.mpf(y))
            worst = max(worst, float(abs(mp.mpf(x) - exact)) / math.ulp(x))
    assert worst <= 0.51


def test_command_line_grid_is_the_library_grid(tmp_path):
    out = tmp_path / "figs"
    argv = ["figures", "2", "--grid", "log:0.00102:98.7:200", "--format", "json", "--out", str(out)]
    assert main(argv) == 0
    rows = json.loads((out / "figure2.json").read_text())["rows"]
    assert [row[0] for row in rows] == log_points(0.00102, 98.7, 200)


def test_check_curve_is_the_time_series_check():
    check_curve([0.1, 0.2], [1.0, 2.0])
    check_curve([], [])
    for kt, values, match in (
        ([0.2, 0.1], [1.0, 2.0], "strictly increasing"),
        ([0.1, 0.1], [1.0, 2.0], "strictly increasing"),
        ([0.1, math.nan], [1.0, 2.0], "strictly increasing"),
        ([0.1, 0.2], [1.0, math.inf], "finite"),
        ([0.1], [1.0, 2.0], "matching shapes"),
    ):
        with pytest.raises(ValueError, match=match):
            check_curve(kt, values)
