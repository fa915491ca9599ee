"""Tests for the diffusive Fock-state evolution."""

import copy
import math
import pickle
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelscope import diffusive, open_system
from levelscope.diffusive import (DiffusiveConfig, fidelity_overlap, fock_weight, mean_y_point,
                                  survival)
from levelscope.numerics import MIN_REL_EPS, REL_EPS, NonConvergent
from levelscope.open_system import FockDistribution, distribution
from oracles import harness_oracles, stored_moments, tail_moments, weight_oracle, weight_psum


def cfg_for(b: int, **kw) -> DiffusiveConfig:
    return DiffusiveConfig(b=b, kappa=1.0, **kw)


# ---------------------------------------------------------------------------
# single weights


def test_initial_state_is_a_delta():
    for b in (0, 1, 5, 15):
        cfg = cfg_for(b)
        assert fock_weight(cfg, b, 0.0) == 1.0
        assert fock_weight(cfg, b + 1, 0.0) == 0.0
        if b > 0:
            assert fock_weight(cfg, b - 1, 0.0) == 0.0


@pytest.mark.parametrize("kt", [0.05, 0.5, 3.0])
def test_vacuum_start_gives_geometric_distribution(kt):
    cfg = cfg_for(0)
    gamma = 2 * kt / (1 + 2 * kt)
    for n in range(0, 12):
        expected = gamma**n * (1 - gamma)
        assert fock_weight(cfg, n, kt) == pytest.approx(expected, rel=1e-12)


def test_single_weight_matches_oracle_example():
    assert fock_weight(cfg_for(1), 0, 0.5) == pytest.approx(weight_oracle(1, 0, 0.5), rel=1e-12)


@pytest.mark.parametrize("kt", [0.01, 0.1, 1.0])
@pytest.mark.parametrize("b", [0, 1, 2, 3, 5])
def test_weights_match_high_precision_oracle(b, kt):
    cfg = cfg_for(b)
    for n in range(0, 21):
        got = fock_weight(cfg, n, kt)
        want = weight_oracle(b, n, kt)
        assert abs(got - want) <= 1e-10 * want


def test_weight_rejects_bad_arguments():
    with pytest.raises(ValueError):
        fock_weight(cfg_for(1), -1, 0.5)
    with pytest.raises(ValueError):
        fock_weight(cfg_for(1), 0, -0.5)


@pytest.mark.parametrize("n", [True, 2.0, 2.5, math.nan, "2", None])
def test_weight_rejects_non_integer_level(n):
    # True would read as level 1; the floats and the rest are no level.
    dist = distribution(cfg_for(2), 0.5)
    for call in (lambda: fock_weight(cfg_for(2), n, 0.5), lambda: dist.weight(n)):
        with pytest.raises(ValueError, match="n must be a non-negative integer"):
            call()


def test_weight_past_the_cut_is_zero():
    dist = distribution(cfg_for(2), 0.5)
    assert dist.weight(dist.n_cut + 1) == dist.weight(10**30) == 0.0


def test_weight_accepts_numpy_integer_level():
    cfg = cfg_for(2)
    dist = distribution(cfg, 0.5)
    assert fock_weight(cfg, np.int64(3), 0.5) == fock_weight(cfg, 3, 0.5)
    assert dist.weight(np.int32(3)) == dist.weight(3)


# A cross-check by another algorithm: the log-space p-sum with its ln k!
# rebuilt per call, itself good to a few 1e-13 at these b and n, on both
# sides of kappa*t = 1/2, where the sum switches direction.
@pytest.mark.parametrize("kt", [1e-6, 1e-3, 0.05, 0.5, 1.0, 7.5, 100.0, 1e3])
def test_weight_matches_per_call_log_factorial_reference(kt):
    levels = range(0, 201, 8)
    for b in levels:
        cfg = cfg_for(b)
        for n in levels:
            got, want = fock_weight(cfg, n, kt), weight_psum(b, n, kt)
            assert abs(got - want) <= 1e-12 * want + 1e-300, (b, n)


# The coefficient ratios are cached per (b, n), 128 entries; draws over far
# more (b, n) pairs than that, in random order, hit, miss and evict, and
# every weight keeps the bits of ratios built afresh.
@settings(max_examples=500, deadline=None, derandomize=True)
@given(b=st.integers(0, 200), n=st.integers(0, 400), kt=st.floats(1e-8, 1e4))
def test_weight_is_bitwise_the_uncached_chain(b, n, kt):
    cfg = cfg_for(b)
    cached = fock_weight(cfg, n, kt).hex(), survival(cfg, kt).hex()
    diffusive._ratios.cache_clear()
    assert (fock_weight(cfg, n, kt).hex(), survival(cfg, kt).hex()) == cached


# One pass of F and P_b curves for b = 1..40, the CLI order the open_sweep
# benchmark keeps, reads 80 keys of the ratio cache: (b, b - 1) and (b, b).
# A cache too small for them misses on every curve of every pass.
def test_ratio_cache_holds_a_pass_of_curves():
    def one_pass():
        for b in range(1, 41):
            cfg, lower = cfg_for(b), cfg_for(b - 1)
            for kt in (1e-3, 0.3, 20.0):
                fidelity_overlap(cfg, lower, kt)
                survival(cfg, kt)

    one_pass()
    misses = diffusive._ratios.cache_info().misses
    one_pass()
    assert diffusive._ratios.cache_info().misses == misses


# Where the cached verdict of _ratios is "plain", fock_weight, survival and
# fidelity_overlap run Horner's rule without _nested's rescale test. That is
# sound if the test can never fire there: _nested, given those ratios and any
# w <= 1, must return the log scale it was given and the plain loop's bits.
def _plain(ratios, w):
    acc = 1.0
    for r in ratios:
        acc = 1.0 + r * w * acc
    return acc


def _assert_never_rescales(b, n, ws):
    up, down, _, plain = diffusive._ratios(b, n)
    if plain:
        for ratios in (up, down):
            for w in ws:
                assert diffusive._nested(ratios, w, -7.0) == (_plain(ratios, w), -7.0), (b, n, w)


# Every (b, n) with b, n <= 320, the pairs with b <= n only, since the cached
# entry is symmetric in b and n (checked below); four interleaved slices of b.
@pytest.mark.parametrize("first_b", range(4))
def test_plain_verdict_never_skips_a_rescale(first_b):
    for b in range(first_b, 321, 4):
        for n in range(b, 321):
            _assert_never_rescales(b, n, (1.0, 0.5, 1e-3, 0.0))
    # b = n: plain through b = 284, where C(2b, b) passes 1e170.
    assert diffusive._ratios(284, 284)[3] and not diffusive._ratios(285, 285)[3]


# From m = min(b, n) = 285 on, _ratios decides "not plain" without forming
# C(b+n, m); on both sides of that the verdict is the exact comparison's.
def test_plain_verdict_is_the_exact_comparison():
    for m in range(280, 291):
        for n in (m, m + 1, 3 * m + 7):
            exact = math.comb(m + n, m) < diffusive._PLAIN
            assert diffusive._ratios(m, n)[3] == diffusive._ratios(n, m)[3] == exact, (m, n)


# Draws on both sides of the boundary: about half of them are plain.
@settings(max_examples=300, deadline=None, derandomize=True)
@given(b=st.integers(280, 300), n=st.integers(0, 2000) | st.integers(240, 320),
       w=st.sampled_from([1.0, 0.5, 1e-3, 0.0]) | st.floats(0.0, 1.0))
def test_plain_verdict_near_its_boundary(b, n, w):
    assert diffusive._ratios(n, b) == diffusive._ratios(b, n)
    _assert_never_rescales(b, n, (w,))


@pytest.mark.parametrize("func", ["survival", "fock_weight", "fidelity_overlap"])
def test_kappa_t_at_the_ends_of_the_float_range(func):
    # A kappa*t that overflows to inf gives each limit, 0; a subnormal one
    # keeps the values of the sums, never a 0 * inf = NaN, with the
    # distribution's weights alongside.
    def call(b, kappa, t):
        cfg = DiffusiveConfig(b, kappa)
        if func == "survival":
            return survival(cfg, t)
        if func == "fock_weight":
            return fock_weight(cfg, b - 1, t)
        return fidelity_overlap(cfg, DiffusiveConfig(b - 1, kappa), t)

    assert call(2, 1e300, 1e10) == 0.0
    for kt in (5e-324, 1e-320):
        value = call(3, 1.0, kt)
        assert math.isfinite(value) and value >= 0.0
        if func == "survival":
            assert value == 1.0
        if func == "fock_weight":
            weights = distribution(cfg_for(3), kt).weights
            assert np.all(np.isfinite(weights)) and weights[3] == 1.0
            assert weights[2] == value > 0.0


# Each takes a numpy scalar time as a Python float before kappa * t: a
# product that overflows warns nowhere, and np.float64 times keep the bits of
# float ones.
AT_TIME = {
    "survival": survival,
    "fock_weight": lambda cfg, t: fock_weight(cfg, 2, t),
    "fidelity_overlap": lambda cfg, t: fidelity_overlap(
        cfg, DiffusiveConfig(cfg.b - 1, cfg.kappa, cfg.omega, cfg.lam), t),
    "mean_y_point": mean_y_point,
    "distribution": distribution,
}


def _bits(value):
    if isinstance(value, FockDistribution):
        return value.weights.tobytes(), value.n_cut, value.tail_bound.hex()
    return repr(value)


@pytest.mark.parametrize("func", list(AT_TIME))
def test_numpy_scalar_time_is_a_float_time(func):
    call = AT_TIME[func]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(DiffusiveConfig(3, 1e10, 0.1, 1.0), np.float64(1e300))
        except ValueError as exc:  # the closed-form <N^2>
            assert str(exc) == "<N^2> overflows at kappa*t = inf"
            assert func in ("mean_y_point", "distribution")
        else:
            assert value == 0.0
        cfg = DiffusiveConfig(3, 1.0, 0.1, 1.0)
        for t in (1e-320, 0.1, 0.3, 7.0):
            assert _bits(call(cfg, np.float64(t))) == _bits(call(cfg, t))


@pytest.mark.parametrize("func", [*AT_TIME, "distributions"])
def test_numpy_scalar_parameters_are_float_parameters(func):
    # DiffusiveConfig stores b as a Python int and kappa, omega and lam as
    # Python floats, so a product that overflows is exact or inf and the call
    # returns or raises as it does for Python parameters, where a numpy
    # scalar would warn or wrap.
    call = AT_TIME.get(func) or (lambda cfg, t: open_system.distributions(cfg, [t])[0])
    f64 = np.float64
    cases = [
        ((3, f64(1e10), 0.1, 1.0), 1e300, "<N^2> overflows at kappa*t = inf"),
        ((3, 1.0, f64(1e308), 1.0), 1.0, "<H0> overflows at kappa*t = 1"),
        ((3, 1.0, 0.1, f64(1e308)), 1.0, "<H0> overflows at kappa*t = 1"),
        ((np.int64(3), f64(0.7), f64(0.1), f64(1.3)), 0.3, None),
    ]

    def outcome(cfg, t):
        try:
            return _bits(call(cfg, t))
        except ValueError as exc:
            return str(exc)

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for (b, *params), t, error in cases:
            cfg = DiffusiveConfig(b, *params)
            assert [type(v) for v in cfg] == [int, float, float, float]
            got = outcome(cfg, t)
            assert got == outcome(DiffusiveConfig(int(b), *map(float, params)), t)
            if func == "mean_y_point" and error:
                assert got == error
        if func == "mean_y_point":
            # b^2 passes the int64 range, where a numpy integer wraps.
            big = DiffusiveConfig(np.int64(4_000_000_000), 1.0, 0.1, 1.0)
            assert outcome(big, 1.0) == outcome(DiffusiveConfig(4_000_000_000, 1.0, 0.1, 1.0), 1.0)


@pytest.mark.parametrize("t", [math.inf, math.nan])
def test_weight_path_rejects_non_finite_time(t):
    cfg = cfg_for(2)
    for call in (
        lambda: fock_weight(cfg, 2, t),
        lambda: survival(cfg, t),
        lambda: distribution(cfg, t),
        lambda: fidelity_overlap(cfg, cfg_for(1), t),
    ):
        with pytest.raises(ValueError, match="t must be finite"):
            call()


# ---------------------------------------------------------------------------
# distributions


def test_distribution_at_t_zero_is_delta():
    dist = distribution(cfg_for(7), 0.0)
    assert dist.n_cut == 7
    assert dist.tail_bound == 0.0
    assert dist.weight(7) == 1.0
    assert dist.trace() == 1.0


@pytest.mark.parametrize("b", [0, 1, 2, 5, 10, 15])
@pytest.mark.parametrize("kt", [1e-3, 0.1, 1.0, 10.0, 100.0])
def test_distribution_trace_is_one(b, kt):
    dist = distribution(cfg_for(b), kt)
    assert abs(dist.trace() - 1.0) <= 1e-8
    assert dist.trace() + dist.tail_bound >= 1.0 - 1e-8
    assert np.all(dist.weights >= 0.0)
    assert dist.n_cut >= b


def test_distribution_matches_single_weights():
    cfg = cfg_for(3)
    dist = distribution(cfg, 0.7)
    for n in (0, 1, 3, 10, dist.n_cut):
        assert dist.weight(n) == pytest.approx(fock_weight(cfg, n, 0.7), rel=1e-12, abs=1e-300)


def test_vacuum_distribution_closed_form():
    kt = 1.0
    dist = distribution(cfg_for(0), kt)
    gamma = 2 * kt / (1 + 2 * kt)
    n = np.arange(dist.n_cut + 1)
    np.testing.assert_allclose(dist.weights, gamma**n * (1 - gamma), rtol=1e-12)


def test_early_time_survival_is_high():
    # b = 15 at kt = 1e-3 keeps more than 90% of its initial weight.
    dist = distribution(cfg_for(15), 1e-3)
    assert dist.weight(15) >= 0.9


def test_late_time_weight_spreads_out():
    # Every fixed level weight decays pointwise as the mixture spreads.
    assert fock_weight(cfg_for(1), 1, 100.0) < 1e-2


def test_mean_is_nondecreasing_in_time():
    for b in (0, 2, 15):
        cfg = cfg_for(b)
        means = []
        for kt in np.logspace(-3, 2, 21):
            dist = distribution(cfg, kt)
            means.append(stored_moments(dist)[1])
        assert all(b2 >= a - 1e-12 for a, b2 in zip(means, means[1:]))
        # diffusive heating: the mean level grows like b + 2 kt
        assert means[-1] == pytest.approx(b + 200.0, rel=1e-8)


def test_distribution_tail_certificate_consistency():
    # Stored weights plus the certified tail account for the full trace.
    dist = distribution(cfg_for(5), 30.0)
    assert dist.trace() <= 1.0 + 1e-8
    assert dist.trace() + dist.tail_bound >= 1.0 - 1e-8


@pytest.mark.parametrize("kt, error", [(4.74e153, NonConvergent), (4.75e153, ValueError),
                                       (math.inf, ValueError)])
def test_cut_past_the_second_moment_range_is_a_domain_error(kt, error):
    # <N^2> = b^2 + 4bu + 2u^2 + u (u = 2 kappa*t) overflows once 8 (kappa*t)^2
    # passes the float ceiling, at kappa*t = 4.74e153; below that the cut runs
    # into max_terms instead.
    with pytest.raises(error) as exc:
        open_system._cut(2, kt, REL_EPS)
    if error is ValueError:
        assert str(exc.value) == f"<N^2> overflows at kappa*t = {kt:g}"


def test_distributions_compare_and_hash_by_value():
    cfg = cfg_for(3)
    dist, again = distribution(cfg, 0.1), distribution(cfg, 0.1)
    assert dist.weights is not again.weights
    assert dist == again and not dist != again
    assert hash(dist) == hash(again) and len({dist, again}) == 1
    assert copy.copy(dist) == dist == pickle.loads(pickle.dumps(dist))
    assert isinstance(pickle.loads(pickle.dumps(dist)).weights, np.ndarray)
    fields = dict(t=dist.t, n_cut=dist.n_cut, tail_bound=dist.tail_bound)
    assert FockDistribution(weights=dist.weights * 0.5, **fields) != dist
    assert FockDistribution(weights=dist.weights[:-1], **fields) != dist
    assert distribution(cfg, 0.2) != dist


def test_config_validation():
    with pytest.raises(ValueError):
        DiffusiveConfig(b=-1, kappa=1.0)
    with pytest.raises(ValueError):
        DiffusiveConfig(b=0, kappa=0.0)
    with pytest.raises(ValueError):
        DiffusiveConfig(b=0, kappa=1.0, omega=-1.0)
    with pytest.raises(ValueError):
        DiffusiveConfig(b=0, kappa=1.0, lam=-0.1)
    with pytest.raises(ValueError):
        distribution(cfg_for(0), -1.0)


@pytest.mark.parametrize(
    "kw",
    [
        {"b": 2.5},
        {"b": 2.0},
        {"b": True},
        {"kappa": math.inf},
        {"kappa": math.nan},
        {"omega": math.nan},
        {"omega": math.inf},
        {"lam": math.inf},
        {"lam": math.nan},
    ],
    ids=lambda kw: "-".join(f"{k}={v}" for k, v in kw.items()),
)
def test_config_rejects_non_integer_b_and_non_finite_rates(kw):
    args = {"b": 2, "kappa": 1.0, **kw}
    with pytest.raises(ValueError, match=next(iter(kw))):
        DiffusiveConfig(**args)


# Past 2**53, b and b - 1 round to the same double, and the ratio tables
# would hold b entries.
@pytest.mark.parametrize("b", [2**53 + 1, np.int64(2**53 + 1), 10**200],
                         ids=["2**53+1", "int64", "10**200"])
def test_config_rejects_b_beyond_2_to_the_53(b):
    with pytest.raises(ValueError, match=rf"b must be at most 2\*\*53, got {int(b)}$"):
        DiffusiveConfig(b=b, kappa=1.0)
    assert DiffusiveConfig(b=2**53, kappa=1.0).b == 2**53
    with pytest.raises(ValueError, match=r"^b must be a non-negative integer, got -1$"):
        DiffusiveConfig(b=-1, kappa=1.0)


def test_config_accepts_numpy_integer_b():
    assert distribution(DiffusiveConfig(b=np.int64(3), kappa=1.0), 0.5).n_cut >= 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(b=st.integers(min_value=0, max_value=40), log_kt=st.floats(min_value=-3.0, max_value=3.0))
def test_trace_fidelity_and_survival_property(b, log_kt):
    kt = 10.0 ** log_kt
    cfg = cfg_for(b)
    dist = distribution(cfg, kt)
    assert abs(dist.trace() + dist.tail_bound - 1.0) <= REL_EPS
    assert survival(cfg, kt) <= 1.0
    if b >= 1:
        lower = cfg_for(b - 1)
        assert 0.0 <= fidelity_overlap(cfg, lower, kt) <= 1.0
        assert fidelity_overlap(cfg, lower, 0.0) == 0.0


def test_weights_are_read_only():
    dist = distribution(cfg_for(2), 1.0)
    with pytest.raises(ValueError):
        dist.weights[0] = 0.5


# ---------------------------------------------------------------------------
# the weight arrays behind every distribution


def _oracle_levels(weights: np.ndarray, count: int = 40) -> list[int]:
    """Up to `count` levels spread over those with weight >= 1e-12 of the peak,
    always including the first and last of them."""
    big = np.flatnonzero(weights >= 1e-12 * weights.max())
    picks = np.linspace(0, big.shape[0] - 1, min(count, big.shape[0])).round().astype(int)
    return sorted(set(big[picks].tolist()))


@pytest.mark.parametrize("b", [0, 1, 2, 5, 15, 40])
@pytest.mark.parametrize("kt", [1e-3, 0.01, 0.3, 0.49, 0.51, 2.0, 40.0, 100.0])
def test_distribution_weights_match_high_precision_oracle(b, kt):
    # kt = 0.49 and 0.51 sit on either side of kt = 1/2, where the sum
    # switches from the reversed coefficients to the forward ones.
    weights = distribution(cfg_for(b), kt).weights
    for n in _oracle_levels(weights):
        want = weight_oracle(b, n, kt)
        assert abs(weights[n] - want) <= 1e-10 * want, (n, weights[n], want)


@pytest.mark.parametrize("b, kt", [(600, 0.5), (800, 0.45)])
def test_distribution_weights_for_large_b(b, kt):
    # 600 and 800 Horner steps, with rescaling (S passes e^400 here): the
    # rounding each step adds must not pile up.
    weights = distribution(cfg_for(b), kt).weights
    assert np.all(np.isfinite(weights))
    assert abs(weights.sum() - 1.0) <= 1e-8
    for n in _oracle_levels(weights, count=8):
        want = weight_oracle(b, n, kt)
        assert abs(weights[n] - want) <= 1e-10 * want, (n, weights[n], want)


@pytest.mark.parametrize("b", [0, 3, 15])
@pytest.mark.parametrize("kt", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("split", [1, 7, 16, 90])
def test_weight_block_split_matches_single_call(monkeypatch, b, kt, split):
    # The rows are summed in blocks of _CHUNK_LEVELS levels. Blocks of
    # `split` levels cut each row, and the boundary between the reversed and
    # the forward rows, in many places; every weight keeps its bits.
    grid = [kt, 0.3, 1.7]
    want = [d.weights.tobytes() for d in open_system.distributions(cfg_for(b), grid)]
    monkeypatch.setattr(open_system, "_CHUNK_LEVELS", split)
    got = [d.weights.tobytes() for d in open_system.distributions(cfg_for(b), grid)]
    assert got == want


@pytest.mark.parametrize("b, kt", [(5, 0.01), (15, 0.3), (40, 100.0)])
def test_distribution_does_not_depend_on_cache_history(b, kt):
    # Nothing is kept between calls, so earlier calls in four orders, b = 120
    # among them, must not change a later one.
    def state():
        dists = distribution(cfg_for(b), kt), distribution(cfg_for(b - 1), kt)
        return [(d.weights.tobytes(), d.n_cut, d.tail_bound) for d in dists]

    cold = state()
    for order in (range(b), [b // 3], range(b + 12, b, -1), [0, 120]):
        for other in order:
            distribution(cfg_for(other), kt)
        assert state() == cold


@pytest.mark.parametrize("b", [0, 3, 15, 100])
@pytest.mark.parametrize("kt", [1e-6, 0.05, 0.49, 0.5, 0.51, 7.5, 100.0])
def test_weights_are_the_prefix_of_a_longer_row(b, kt):
    # The cut sets how many levels a row keeps, never a weight: each kept
    # weight is bitwise that of the longer row a tighter tolerance keeps.
    dist = distribution(cfg_for(b), kt)
    assert (dist.n_cut, dist.tail_bound) == open_system._cut(b, kt, REL_EPS)
    longer = distribution(cfg_for(b), kt, MIN_REL_EPS)
    assert longer.n_cut >= dist.n_cut
    assert dist.weights.tobytes() == longer.weights[: dist.n_cut + 1].tobytes()


def test_distribution_fails_fast_past_max_terms(monkeypatch):
    # At kappa*t = 1e5 the proven cut passes max_terms: NonConvergent comes
    # from the cut, before any weight is summed, also when it is the last
    # point of a grid whose other cuts pass.
    sums = []
    monkeypatch.setattr(open_system, "_populations", lambda *args: sums.append(args))
    for b in (0, 15):
        with pytest.raises(NonConvergent, match="exceeded max_terms=1000000"):
            distribution(cfg_for(b), 1e5)
        with pytest.raises(NonConvergent, match="exceeded max_terms=1000000"):
            open_system.distributions(cfg_for(b), [1e-3, 0.5, 100.0, 1e5])
    assert sums == []


# kappa*t = 0 (the delta), both sides of kappa*t = 1/2, and up to 1e4, where
# a row holds about 7e5 levels.
REFERENCE_KTS = [0.0, 1e-6, 1e-4, 1e-3, 3e-3, 0.0045, 0.0047, 0.01, 0.05, 0.49, 0.5, 0.51,
                 1.0, 7.5, 30.0, 100.0, 1e3, 1e4]


@pytest.mark.parametrize("b", [0, 1, 2, 15, 40])
@pytest.mark.parametrize(
    "grid", [REFERENCE_KTS, np.logspace(-3, 2, 200).tolist()], ids=["reference", "evolve"]
)
def test_distributions_match_the_reference_climb(b, grid):
    # Each row of a grid is, byte for byte, the row computed alone, with the
    # cut of _cut, in grid order; its weights are those of fock_weight, bit
    # for bit, checked at up to 40 levels of each row.
    dists = open_system.distributions(cfg_for(b), grid)
    assert [d.t for d in dists] == grid
    for kt, dist in zip(grid, dists):
        assert not dist.weights.flags.writeable
        if kt == 0.0:
            assert dist.weights.tolist() == [0.0] * b + [1.0]
            continue
        assert (dist.n_cut, dist.tail_bound) == open_system._cut(b, kt, REL_EPS)
        assert dist.weights.tobytes() == distribution(cfg_for(b), kt).weights.tobytes(), kt
        for n in _oracle_levels(dist.weights):
            assert dist.weights[n] == fock_weight(cfg_for(b), n, kt), (kt, n)


# kappa*t = 1e-3 .. 1e2, two points per decade, and the proven n_cut there at
# the default tolerance.
CUT_KTS = np.logspace(-3, 2, 11).tolist()
CUTS = {
    0: [4, 5, 7, 11, 18, 36, 85, 236, 710, 2209, 6949],
    1: [6, 7, 9, 12, 20, 38, 89, 244, 724, 2230, 6976],
    5: [10, 11, 13, 18, 26, 47, 103, 268, 764, 2290, 7060],
    15: [20, 22, 25, 30, 41, 67, 132, 311, 831, 2394, 7214],
    40: [46, 49, 53, 60, 75, 109, 187, 389, 947, 2575, 7493],
}


def test_cut_is_the_proven_saddle_point_cut():
    for b, cuts in CUTS.items():
        assert [distribution(cfg_for(b), kt).n_cut for kt in CUT_KTS] == cuts, b


# kappa*t = 1e-6 .. 1e3, two points per decade, plus both sides of
# kappa*t = 1/4 and of 1/2, where A = zeta - gamma changes sign.
PROOF_KTS = sorted([*np.logspace(-6, 3, 19).tolist(), 0.24, 0.25, 0.26, 0.49, 0.51])


@pytest.mark.parametrize("eps", [1e-12, 1e-10, 1e-6])
@pytest.mark.parametrize("b", [0, 1, 2, 5, 15, 40, 100])
def test_cut_bounds_the_exact_tails(b, eps):
    # The tails of sum P, sum n P and sum n^2 P beyond n_cut, exact at 50
    # digits, are at most the saddle-point bounds; the trace bound is the
    # reported tail_bound and at most rel_eps, each moment bound at most
    # rel_eps * max(m, 1), and one level less fails a bound.
    for kt in PROOF_KTS:
        u = 2.0 * kt
        g, z = u / (1.0 + u), 1.0 / (1.0 + u)
        n_cut, tail = open_system._cut(b, kt, eps)
        bounds = open_system._bounds(b, g, z, n_cut)
        exact = tail_moments(b, kt, n_cut)
        assert all(e <= bound for e, bound in zip(exact, bounds)), (kt, exact, bounds)
        m1, m2 = harness_oracles.moments(b, kt)
        targets = (eps, eps * max(m1, 1.0), eps * max(m2, 1.0))
        assert tail == bounds[0] and all(bound <= t for bound, t in zip(bounds, targets))
        assert n_cut >= b
        if n_cut > b:
            shorter = open_system._bounds(b, g, z, n_cut - 1)
            assert shorter is None or any(bound > t for bound, t in zip(shorter, targets)), kt


@pytest.mark.parametrize("kt", [5e-324, 1e-320, 1e-300])
@pytest.mark.parametrize("b", [0, 15, 100])
def test_cut_at_vanishing_kappa_t(b, kt):
    # gamma is subnormal or nearly so: the saddle point passes 1e300 and is
    # capped there, and level b alone is kept.
    dist = distribution(cfg_for(b), kt)
    assert dist.n_cut == b and 0.0 < dist.tail_bound <= 1e-290
    assert dist.weight(b) == 1.0 and dist.trace() == 1.0
    u = 2.0 * kt
    bounds = open_system._bounds(b, u / (1.0 + u), 1.0 / (1.0 + u), b)
    assert all(e <= bound for e, bound in zip(tail_moments(b, kt, b), bounds))


def test_concurrent_sweeps_match_serial_ones():
    kts = np.logspace(-3, 2, 9).tolist()
    orders = (list(range(0, 21)), list(range(20, -1, -1)))

    def sweep(order):
        return [
            (b, kt, distribution(cfg_for(b), kt).weights.tobytes())
            for _ in range(3) for b in order for kt in kts
        ]

    serial = [sweep(order) for order in orders]
    results = [None, None]
    start = threading.Barrier(2, timeout=60)

    def run(i):
        start.wait()
        results[i] = sweep(orders[i])

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial
