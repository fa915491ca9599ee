"""Tests for fidelity, survival, moments and the environment-averaged criterion."""

import json
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from levelscope.cli import main
from levelscope.diffusive import (
    check_curve,
    fidelity_overlap,
    fock_weight,
    log_points,
    mean_y_point,
    mean_y_series,
    survival,
)
from levelscope.numerics import MismatchedConfig, ZeroEnergy
from levelscope.open_system import DiffusiveConfig, distribution
from oracles import (
    fidelity_closed_form,
    fidelity_direct,
    fidelity_terminating,
    mean_y_reference,
    stored_moments,
)


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



# The bath is compared before the indices: a pair that differs in both is
# reported as a bath mismatch, whichever of kappa, omega or lam differs.
@pytest.mark.parametrize("field", ["kappa", "omega", "lam"])
def test_fidelity_reports_a_bath_mismatch_before_an_index_mismatch(field):
    upper = DiffusiveConfig(b=3, kappa=1.0, omega=1.0, lam=1.0)
    other = DiffusiveConfig(**{"b": 0, "kappa": 1.0, "omega": 1.0, "lam": 1.0, field: 2.0})
    with pytest.raises(MismatchedConfig, match=r"^fidelity compares preparations under the "
                       r"same bath and oscillator: \(kappa, omega, lam\) differ: "):
        fidelity_overlap(upper, other, 0.1)
    # Both checks come before the time's.
    with pytest.raises(MismatchedConfig, match="differ"):
        fidelity_overlap(upper, other, math.nan)
    same_bath = DiffusiveConfig(b=1, kappa=1.0, omega=1.0, lam=1.0)
    with pytest.raises(MismatchedConfig,
                       match=r"^expected neighboring indices, got b=3 and 1$"):
        fidelity_overlap(upper, same_bath, -1.0)
    with pytest.raises(MismatchedConfig, match="expected neighboring indices, got b=3 and 4"):
        fidelity_overlap(upper, DiffusiveConfig(b=4, kappa=1.0, omega=1.0, lam=1.0), 0.1)


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


# <N>, <H0> and <tau> are fields of the <y(b)> record: the _b fields are
# level b's, and the _bm1 fields at b + 1 reach b = 0 as well.
def moments(b: int, kt: float, omega: float = 0.7, lam: float = 1.3) -> tuple[float, ...]:
    """(<N>, <H0>, <tau>) of the mixture prepared in level b, at kappa = 1."""
    if b == 0:
        point = mean_y_point(cfg_for(1, omega, lam), kt)
        return point.mean_n_bm1, point.mean_h0_bm1, point.mean_tau_bm1
    point = mean_y_point(cfg_for(b, omega, lam), kt)
    return point.mean_n_b, point.mean_h0_b, point.mean_tau_b


@pytest.mark.parametrize("b", [0, 1, 2, 5, 10, 15])
@pytest.mark.parametrize("kt", [1e-3, 0.1, 1.0, 10.0, 100.0])
def test_mean_level_matches_generating_function(b, kt):
    assert moments(b, kt)[0] == pytest.approx(generating_moments(b, kt)[0], rel=1e-8)


def test_mean_level_examples():
    assert moments(4, 0.0)[0] == 4.0
    assert moments(0, 0.5)[0] == pytest.approx(1.0, rel=1e-10)  # 2 kt


@pytest.mark.parametrize("b", [0, 2, 15])
@pytest.mark.parametrize("kt", [0.01, 1.0, 30.0])
def test_mean_energy_matches_generating_function(b, kt):
    omega, lam = 0.7, 1.3
    m1, m2 = generating_moments(b, kt)
    expected = omega * m1 + lam * m2
    assert moments(b, kt, omega, lam)[1] == pytest.approx(expected, rel=1e-8)


def test_mean_energy_examples():
    assert moments(3, 0.0, omega=1.0, lam=1.0)[1] == pytest.approx(12.0, rel=1e-12)
    # omega = 0 leaves the pure nonlinear term: lam * <N^2>
    kt = 0.4
    assert moments(0, kt, omega=0.0, lam=2.0)[1] == pytest.approx(
        2.0 * generating_moments(0, kt)[1], rel=1e-8
    )
    # lam = 0 reduces to omega * <N> exactly
    m1, h0, _ = moments(5, 0.7, omega=0.9, lam=0.0)
    assert h0 == pytest.approx(0.9 * m1, rel=1e-12)


def test_mean_tau_harmonic_reduction():
    # lam = 0: <tau> = 2 pi / omega at every time and for every b.
    for kt in (0.0, 0.3, 10.0):
        assert moments(4, kt, omega=2.0, lam=0.0)[2] == pytest.approx(math.pi, rel=1e-10)
    assert moments(0, 1.0, omega=1.0, lam=0.0)[2] == pytest.approx(2.0 * math.pi, rel=1e-10)


def test_mean_tau_initial_value_uses_moment_ratio():
    # t -> 0 with b >= 1: 2 pi b / (omega b + lam b^2) = 2 pi / (omega + lam b),
    # which intentionally differs from the closed-orbit 2 pi / (omega + 2 lam b).
    for b in (1, 3, 10):
        # At t = 0 the b = 0 mixture has <H0> = 0, so b = 1 is read at b = 2.
        point = mean_y_point(cfg_for(b + 1, omega=0.5, lam=1.5), 0.0)
        assert point.mean_tau_bm1 == pytest.approx(2 * math.pi / (0.5 + 1.5 * b), rel=1e-12)
        assert point.mean_tau_b == pytest.approx(2 * math.pi / (0.5 + 1.5 * (b + 1)), rel=1e-12)


def test_mean_tau_zero_energy_raises():
    # The b - 1 = 0 mixture has <H0> = 0 at t = 0: its period estimate is undefined.
    with pytest.raises(ZeroEnergy, match="^<H0> = 0 at t=0.0; "):
        mean_y_point(cfg_for(1, omega=1.0, lam=1.0), 0.0)


# The certified Fock sums stay the oracle for the closed-form moments.
@pytest.mark.parametrize("b", [0, 1, 2, 5, 15, 40])
@pytest.mark.parametrize("kt", [1e-3, 0.3, 2.0, 40.0])
def test_closed_form_moments_match_certified_sums(b, kt):
    omega, lam = 0.7, 1.3
    _, m1, m2 = stored_moments(distribution(cfg_for(b, omega, lam), kt))
    mean_n, mean_h0, _ = moments(b, kt, omega, lam)
    assert mean_n == pytest.approx(m1, rel=1e-9)
    assert mean_h0 == pytest.approx(omega * m1 + lam * m2, rel=1e-9)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_moments_reject_bad_times(t):
    cfg = cfg_for(3, omega=0.1, lam=1.0)
    with pytest.raises(ValueError, match="t must be finite and non-negative"):
        mean_y_point(cfg, t)


def test_moments_reject_overflow():
    # u^2 overflows at kappa*t = 1e200: an error, never an inf or a NaN.
    with pytest.raises(ValueError, match="<N\\^2> overflows"):
        mean_y_point(cfg_for(3, omega=0.1, lam=1.0), 1e200)
    # finite moments, but lam <N^2> overflows
    with pytest.raises(ValueError, match="<H0> overflows"):
        mean_y_point(cfg_for(3, omega=0.1, lam=1e300), 1e5)


# mean_y_series runs one loop over its times; each point must be bitwise the
# mean_y_point at t = kt / kappa, and both the helper-by-helper composition.
@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    b=st.integers(1, 400),
    kappa=st.floats(1e-6, 1e6),
    omega=st.one_of(st.just(0.0), st.floats(1e-8, 1e4)),
    lam=st.one_of(st.just(0.0), st.floats(1e-8, 1e4)),
    start=st.floats(1e-8, 1e3),
)
def test_ymean_series_is_bitwise_the_points(b, kappa, omega, lam, start):
    assume(omega > 0.0 or lam > 0.0)  # <H0> = 0 is the ZeroEnergy case below
    cfg = DiffusiveConfig(b=b, kappa=kappa, omega=omega, lam=lam)
    grid = log_points(start, start * 1e4, 9)
    series = mean_y_series(cfg, grid)
    points = [mean_y_point(cfg, kt / kappa) for kt in grid]
    reference = [mean_y_reference(cfg, kt / kappa) for kt in grid]
    assert [repr(p) for p in series] == [repr(p) for p in points] == [repr(p) for p in reference]


def _raised(call) -> tuple[type, str]:
    with pytest.raises(Exception) as exc:
        call()
    return exc.type, str(exc.value)


@pytest.mark.parametrize(
    "b, kappa, omega, lam, kt, error",
    [
        (0, 1.0, 1.0, 1.0, 0.5, "mean_y_point needs b >= 1"),
        (3, 1e-300, 0.1, 1.0, 1e10, "t must be finite and non-negative, got inf"),
        (3, 1.0, 0.1, 1.0, 1e200, "<N^2> overflows at kappa*t = 1e+200"),
        (3, 1.0, 0.1, 1e300, 1e5, "<H0> overflows at kappa*t = 100000"),
        (1, 1.0, 0.0, 0.0, 0.5, "<H0> = 0 at t=0.5; cannot form the period estimate"),
    ],
    ids=["b0", "t-overflow", "n2-overflow", "h0-overflow", "zero-energy"],
)
def test_ymean_series_and_point_raise_alike(b, kappa, omega, lam, kt, error):
    cfg = DiffusiveConfig(b=b, kappa=kappa, omega=omega, lam=lam)
    series = _raised(lambda: mean_y_series(cfg, [kt]))
    assert series == _raised(lambda: mean_y_point(cfg, kt / kappa))
    assert series == _raised(lambda: mean_y_reference(cfg, kt / kappa))
    assert series[1] == error
    assert series[0] is (ZeroEnergy if b == 1 else ValueError)


def test_ymean_takes_a_kappa_near_the_float_ceiling(tmp_path):
    # 2 kappa overflows at kappa = 1e308; u = 2 (kappa t) does not.
    out = tmp_path / "y.csv"
    argv = ["ymean", "--b", "2", "--kappa", "1e308", "--grid", "log:1e-3:1:3", "--out", str(out)]
    assert main(argv) == 0
    lines = out.read_text().splitlines()
    rows = [line.split(",") for line in lines if not line.startswith("#")][1:]
    assert len(rows) == 3
    assert all(math.isfinite(float(v)) for row in rows for v in row)


@pytest.mark.parametrize("kappa", [1e-3, 0.37, 1.0, 2.5, 1e3])
@pytest.mark.parametrize("b", [1, 2, 15])
def test_moments_keep_their_bits_on_the_figure_grid(b, kappa):
    # Doubling is exact, so 2 (kappa t) is (2 kappa) t bit for bit wherever
    # neither product overflows or falls subnormal.
    omega, lam = 0.1, 1.0
    cfg = DiffusiveConfig(b=b, kappa=kappa, omega=omega, lam=lam)
    for kt in log_points():
        t = kt / kappa
        u = 2.0 * kappa * t
        point = mean_y_point(cfg, t)
        assert point.mean_n_b == b + u
        assert point.mean_h0_b == omega * (b + u) + lam * (b * b + 4.0 * b * u + 2.0 * u * u + u)


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
    # Any 1-d sequence of numbers gives the points of the same list, bit for
    # bit; only the caller loads numpy.
    for same in (np.array(grid), tuple(grid), iter(grid), [np.float64(kt) for kt in grid]):
        assert repr(mean_y_series(cfg, same)) == repr(series)
    assert repr(mean_y_series(cfg, np.arange(1, 4))) == repr(mean_y_series(cfg, [1.0, 2.0, 3.0]))
    for bad, match in (
        ([0.2, 0.1], "strictly increasing"),
        ([0.1, 0.1], "strictly increasing"),
        ([0.3, 0.2, 0.1], "strictly increasing"),
        (np.array([0.1, 0.3, 0.2]), "strictly increasing"),
        ([], "non-empty 1-d"),
        (np.array([]), "non-empty 1-d"),
        (np.array(0.5), "non-empty 1-d"),
        (0.5, "non-empty 1-d"),
        ([[0.1, 0.2]], "1-d"),
        ([0.1, [0.2]], "1-d"),
        ([[0.1], [0.2]], "1-d"),
        (np.array([[0.1, 0.2], [0.3, 0.4]]), "1-d"),
    ):
        with pytest.raises(ValueError, match=match):
            mean_y_series(cfg, bad)
    with pytest.raises(ValueError):
        mean_y_point(cfg_for(0, omega=0.1, lam=1.0), 0.1)
    for bad in ([0.1, math.nan], [math.nan], [0.1, math.inf]):
        with pytest.raises(ValueError, match="finite"):
            mean_y_series(cfg_for(2, omega=0.1, lam=1.0), bad)



# Each curve function refuses a bad time with check_time's message, and
# checks its other arguments first: the level of fock_weight, the pair of
# fidelity_overlap, the grid of mean_y_series.
@pytest.mark.parametrize("t", [-1.0, -math.inf, math.inf, math.nan])
def test_curve_functions_reject_a_bad_time(t):
    cfg, lower = pair_for(3, omega=0.1, lam=1.0)
    message = f"^t must be finite and non-negative, got {t}$"
    for call in (
        lambda: fidelity_overlap(cfg, lower, t),
        lambda: survival(cfg, t),
        lambda: fock_weight(cfg, 2, t),
        lambda: mean_y_point(cfg, t),
    ):
        with pytest.raises(ValueError, match=message):
            call()
    with pytest.raises(ValueError, match="n must be a non-negative integer, got -1"):
        fock_weight(cfg, -1, t)
    with pytest.raises(MismatchedConfig):
        fidelity_overlap(cfg, cfg_for(1), t)


def test_mean_y_series_checks_the_grid_first():
    cfg = cfg_for(3, omega=0.1, lam=1.0)
    # A negative kappa*t passes the grid checks and fails as a bad time.
    with pytest.raises(ValueError, match="^t must be finite and non-negative, got -0.5$"):
        mean_y_series(cfg, [-0.5, 0.5])
    # The grid is checked before b, finiteness before order.
    b0 = cfg_for(0, omega=0.1, lam=1.0)
    for bad, match in (([0.2, math.nan, 0.1], "^kt_grid must be finite$"),
                       ([0.2, 0.1], "^kt_grid must be strictly increasing$"),
                       ([0.1, [0.2]], "^kt_grid must be a non-empty 1-d sequence$")):
        with pytest.raises(ValueError, match=match):
            mean_y_series(b0, bad)


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
    point = mean_y_point(cfg, t)
    assert point.mean_n_b == pytest.approx(b + 2.0 * kt, rel=1e-14)
    assert kt * point.y_mean < math.pi / 2.0


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
