"""Tests for the diffusive Fock-state evolution."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelscope import open_system
from levelscope.diffusive import fidelity_overlap, survival
from levelscope.numerics import NonConvergent, SeriesTolerance
from levelscope.open_system import DiffusiveConfig, distribution, fock_weight
from oracles import fock_weight_reference, ladder_row_reference, tail_moments, weight_oracle


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


def test_weight_accepts_numpy_integer_level():
    cfg = cfg_for(2)
    dist = distribution(cfg, 0.5)
    assert fock_weight(cfg, np.int64(3), 0.5) == fock_weight(cfg, 3, 0.5)
    assert dist.weight(np.int32(3)) == dist.weight(3)


# The p-sum reads ln k! from the shared table; a per-call list gives the
# same bits.
@pytest.mark.parametrize("kt", [1e-6, 1e-3, 0.05, 0.5, 1.0, 7.5, 100.0, 1e3])
def test_weight_matches_per_call_log_factorial_reference(kt):
    levels = range(0, 201, 8)
    for b in levels:
        cfg = cfg_for(b)
        for n in levels:
            assert fock_weight(cfg, n, kt) == fock_weight_reference(cfg, n, kt), (b, n)


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
            means.append(dist.moments()[1])
        assert all(b2 >= a - 1e-12 for a, b2 in zip(means, means[1:]))
        # diffusive heating: the mean level grows like b + 2 kt
        assert means[-1] == pytest.approx(b + 200.0, rel=1e-8)


def test_distribution_tail_certificate_consistency():
    # Stored weights plus the certified tail account for the full trace.
    dist = distribution(cfg_for(5), 30.0)
    assert dist.trace() <= 1.0 + 1e-8
    assert dist.trace() + dist.tail_bound >= 1.0 - 1e-8


def test_nonconvergent_when_cut_exceeds_term_cap():
    cfg = DiffusiveConfig(b=0, kappa=1.0, tol=SeriesTolerance(max_terms=50))
    with pytest.raises(NonConvergent):
        distribution(cfg, 1e4)


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


def test_config_accepts_numpy_integer_b():
    assert distribution(DiffusiveConfig(b=np.int64(3), kappa=1.0), 0.5).n_cut >= 3


@settings(max_examples=80, deadline=None, derandomize=True)
@given(b=st.integers(min_value=0, max_value=40), log_kt=st.floats(min_value=-3.0, max_value=3.0))
def test_trace_fidelity_and_survival_property(b, log_kt):
    kt = 10.0 ** log_kt
    cfg = cfg_for(b)
    dist = distribution(cfg, kt)
    assert abs(dist.trace() + dist.tail_bound - 1.0) <= cfg.tol.rel_eps
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
# the b-ladder behind every distribution


def _oracle_levels(weights: np.ndarray, count: int = 40) -> list[int]:
    """Up to `count` levels spread over those with weight >= 1e-12 of the peak,
    always including the first and last of them."""
    big = np.flatnonzero(weights >= 1e-12 * weights.max())
    picks = np.linspace(0, big.shape[0] - 1, min(count, big.shape[0])).round().astype(int)
    return sorted(set(big[picks].tolist()))


@pytest.mark.parametrize("b", [0, 1, 2, 5, 15, 40])
@pytest.mark.parametrize("kt", [1e-3, 0.01, 0.3, 0.49, 0.51, 2.0, 40.0, 100.0])
def test_distribution_weights_match_high_precision_oracle(b, kt):
    # kt = 0.49 and 0.51 sit on either side of zeta = gamma, where the
    # single-level p-sum switches the end it scales from.
    weights = distribution(cfg_for(b), kt).weights
    for n in _oracle_levels(weights):
        want = weight_oracle(b, n, kt)
        assert abs(weights[n] - want) <= 1e-10 * want, (n, weights[n], want)


@pytest.mark.parametrize("b, kt", [(600, 0.5), (800, 0.45)])
def test_distribution_weights_for_large_b(b, kt):
    # 600 and 800 ladder steps: the rounding each step adds must not pile up.
    weights = distribution(cfg_for(b), kt).weights
    assert np.all(np.isfinite(weights))
    assert abs(weights.sum() - 1.0) <= 1e-8
    for n in _oracle_levels(weights, count=8):
        want = weight_oracle(b, n, kt)
        assert abs(weights[n] - want) <= 1e-10 * want, (n, weights[n], want)


@pytest.mark.parametrize("b", [0, 3, 15])
@pytest.mark.parametrize("kt", [0.05, 0.5, 2.0])
@pytest.mark.parametrize("split", [1, 7, 16, 90])
def test_weight_block_split_matches_single_call(b, kt, split):
    # A ladder row on `split` filter blocks is bitwise the prefix of the same
    # row on four times as many levels: P_b(n) reads only levels m <= n, and
    # the blocks sit at fixed offsets from n = 0. Climbed in one chunk with a
    # second row of its block size, each row is the row climbed alone.
    g, z = open_system._kernels(kt)
    size = open_system._block_size(g)
    short = open_system._climb(b, size, split, [g], [z])[0]
    long = open_system._climb(b, size, 4 * split, [g], [z])[0]
    assert short.shape[0] == split * size and long.shape[0] == 4 * split * size
    np.testing.assert_array_equal(long[: short.shape[0]], short)
    assert np.all(np.isfinite(long)) and np.all(long >= 0.0)
    g2, z2 = open_system._kernels(kt * 1.01)
    assert open_system._block_size(g2) == size
    pair = open_system._climb(b, size, 4 * split, [g2, g], [z2, z])
    alone = ladder_row_reference(b, kt, long.shape[0])
    assert pair[1].tobytes() == long.tobytes() == alone.tobytes()
    assert pair[0].tobytes() == open_system._climb(b, size, 4 * split, [g2], [z2])[0].tobytes()


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
    # The cut sets how many levels a row is climbed on, never a weight: each
    # kept weight is bitwise that of the same row on four times the levels.
    dist = distribution(cfg_for(b), kt)
    assert (dist.n_cut, dist.tail_bound) == open_system._cut(b, kt, cfg_for(b).tol)
    longer = ladder_row_reference(b, kt, 4 * (dist.n_cut + 1))
    assert dist.weights.tobytes() == longer[: dist.n_cut + 1].tobytes()


def test_evolve_grid_climbs_each_ladder_once(monkeypatch):
    # Each grid point climbs once, in one chunk of rows of its own block
    # size, on levels from the n_cut + 1 of its cut, rounded up to whole
    # filter blocks, to 1.5 times those blocks; the chunks share climbs.
    climb, chunks = open_system._climb, []

    def counted(b, size, blocks, gs, zs):
        chunks.append((size, blocks, gs))
        return climb(b, size, blocks, gs, zs)

    monkeypatch.setattr(open_system, "_climb", counted)
    grid = np.logspace(-3, 2, 200).tolist()
    dists = open_system.distributions(cfg_for(15), grid)
    climbed = {g: (size, blocks) for size, blocks, gs in chunks for g in gs}
    assert sum(len(gs) for _, _, gs in chunks) == len(climbed) == len(grid)
    assert len(chunks) < len(grid) // 4
    for kt, dist in zip(grid, dists):
        g = open_system._kernels(kt)[0]
        size, blocks = climbed[g]
        own = -(-(dist.n_cut + 1) // size)
        assert size == open_system._block_size(g)
        assert own <= blocks and 2 * blocks <= 3 * own


def test_distribution_fails_fast_past_max_terms(monkeypatch):
    # At kappa*t = 1e5 the proven cut passes max_terms: NonConvergent comes
    # from the cut, before any ladder row is started, also when it is the
    # last point of a grid whose other cuts pass.
    climbs = []
    monkeypatch.setattr(open_system, "_climb", lambda *args: climbs.append(args))
    for b in (0, 15):
        with pytest.raises(NonConvergent, match="exceeded max_terms=1000000"):
            distribution(cfg_for(b), 1e5)
        with pytest.raises(NonConvergent, match="exceeded max_terms=1000000"):
            open_system.distributions(cfg_for(b), [1e-3, 0.5, 100.0, 1e5])
    assert climbs == []


# kappa*t = 0 (the delta), both sides of the largest block size (kappa*t
# near 0.0046), and up to 1e4, where a row holds about 7e5 levels.
REFERENCE_KTS = [0.0, 1e-6, 1e-4, 1e-3, 3e-3, 0.0045, 0.0047, 0.01, 0.05, 0.49, 0.5, 0.51,
                 1.0, 7.5, 30.0, 100.0, 1e3, 1e4]


@pytest.mark.parametrize("b", [0, 1, 2, 15, 40])
@pytest.mark.parametrize(
    "grid", [REFERENCE_KTS, np.logspace(-3, 2, 200).tolist()], ids=["reference", "evolve"]
)
def test_distributions_match_the_reference_climb(b, grid):
    # The batched climb keeps every kept weight of the row climbed alone, byte
    # for byte, with the cut of _cut, in grid order.
    dists = open_system.distributions(cfg_for(b), grid)
    assert [d.t for d in dists] == grid
    for kt, dist in zip(grid, dists):
        if kt == 0.0:
            assert dist.weights.tolist() == [0.0] * b + [1.0]
            continue
        assert (dist.n_cut, dist.tail_bound) == open_system._cut(b, kt, cfg_for(b).tol)
        want = ladder_row_reference(b, kt, dist.n_cut + 1)[: dist.n_cut + 1]
        assert dist.weights.tobytes() == want.tobytes(), kt
        assert not dist.weights.flags.writeable


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
    tol = SeriesTolerance(rel_eps=eps)
    for kt in PROOF_KTS:
        g, z = open_system._kernels(kt)
        n_cut, tail = open_system._cut(b, kt, tol)
        bounds = open_system._bounds(b, g, z, n_cut)
        exact = tail_moments(b, kt, n_cut)
        assert all(e <= bound for e, bound in zip(exact, bounds)), (kt, exact, bounds)
        u = 2.0 * kt
        m1, m2 = b + u, b * b + 4.0 * b * u + 2.0 * u * u + u
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
    bounds = open_system._bounds(b, *open_system._kernels(kt), b)
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
