"""Tests for the diffusive Fock-state evolution."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelscope._backend import fock_weight_block, log_factorials
from levelscope.numerics import NonConvergent, SeriesTolerance
from levelscope.observables import fidelity_overlap, survival
from levelscope.open_system import DiffusiveConfig, distribution, fock_weight
from oracles import weight_oracle


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
# the block kernel behind every distribution


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
    # kernel switches the end of the p-sum it scales from.
    weights = distribution(cfg_for(b), kt).weights
    for n in _oracle_levels(weights):
        want = weight_oracle(b, n, kt)
        assert abs(weights[n] - want) <= 1e-10 * want, (n, weights[n], want)


@pytest.mark.parametrize("b, kt", [(600, 0.5), (800, 0.45)])
def test_distribution_weights_for_large_b(b, kt):
    # Here the scale term of many levels underflows a double (T_0 at
    # kt = 0.5, T_b at kt = 0.45), so the kernel sums them in log space.
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
    n_stop = 120
    lg, lz = math.log(2 * kt / (1 + 2 * kt)), math.log(1 / (1 + 2 * kt))
    lf = log_factorials(n_stop)
    whole, parts = np.empty(n_stop), np.empty(n_stop)
    fock_weight_block(b, lg, lz, lf, 0, n_stop, whole)
    fock_weight_block(b, lg, lz, lf, 0, split, parts[:split])
    fock_weight_block(b, lg, lz, lf, split, n_stop, parts[split:])
    np.testing.assert_array_equal(parts, whole)
    assert np.all(np.isfinite(whole)) and np.all(whole >= 0.0)


def test_log_factorials_match_exact_values():
    lf = log_factorials(300)
    assert lf[0] == 0.0 and lf[1] == 0.0
    for k in (2, 10, 57, 170, 300):
        assert lf[k] == pytest.approx(math.log(math.factorial(k)), rel=1e-14)
