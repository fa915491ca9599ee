"""Tests for the shared numerical primitives, the relaxation kernels, the
distributions' tolerance check, and the ln k! and the certified series
summation of the test oracles."""

import copy
import math
import operator
import pickle

import mpmath as mp
import pytest

from levelscope import numerics
from levelscope.diffusive import (DiffusiveConfig, YMeanPoint, fock_weight, mean_y_point,
                                  mean_y_series)
from levelscope.numerics import MIN_REL_EPS, REL_EPS
from levelscope.open_system import FockDistribution, distributions
from levelscope.spectra import (
    Box,
    CriterionPoint,
    Harmonic,
    Hydrogenoid,
    Morse,
    Quartic,
    ScanResult,
    SuperpositionSpec,
    criterion_point,
    threshold_scan,
)
from oracles import TermCapReached, log_factorial, sum_adaptive

mp.mp.dps = 50


# ---------------------------------------------------------------------------
# log_factorial, the ln k! of the oracles' triple sum and p-sum


def test_log_factorial_base_cases():
    assert log_factorial(0) == 0.0
    assert log_factorial(1) == 0.0
    assert log_factorial(5) == pytest.approx(math.log(120.0), rel=1e-15)


def test_log_factorial_small_values_match_exact_integers():
    for k in range(0, 21):
        assert log_factorial(k) == pytest.approx(math.log(math.factorial(k)), rel=1e-15)


@pytest.mark.parametrize("k", [21, 170, 1000, 12345, 10**6])
def test_log_factorial_against_big_integer_oracle(k):
    exact = float(mp.log(mp.factorial(k)))
    assert abs(log_factorial(k) - exact) <= 1e-12 * exact


def test_log_factorial_rejects_negative():
    with pytest.raises(ValueError):
        log_factorial(-1)


def test_log_factorial_consecutive_difference_is_log_k():
    # ln(k!) - ln((k-1)!) = ln(k), to the function's own relative accuracy.
    for k in range(1, 10_001):
        lf_k = log_factorial(k)
        err = abs(lf_k - log_factorial(k - 1) - math.log(k))
        assert err <= 1e-12 * max(1.0, lf_k), f"failed at k={k}"


# ---------------------------------------------------------------------------
# kernel


# The kernels gamma = 2kt / (1 + 2kt) and zeta = 1 / (1 + 2kt) are the row of
# the vacuum: P_0(n) = zeta gamma^n.
def test_kernel_at_t_zero():
    # (gamma, zeta) = (0, 1): level 0 holds everything, exactly.
    cfg = DiffusiveConfig(b=0, kappa=0.7)
    assert fock_weight(cfg, 0, 0.0) == 1.0 and fock_weight(cfg, 1, 0.0) == 0.0
    dist = distributions(cfg, [0.0])[0]
    assert (dist.n_cut, dist.tail_bound, dist.weight(0)) == (0, 0.0, 1.0)


@pytest.mark.parametrize("kt", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_kernel_n0_closed_forms(kt):
    # The weights take kt = kappa*t; the paper writes the kernel with
    # (2 kappa) t. P_0(0) = zeta, and P_0(n+1) / P_0(n) = gamma.
    kappa = 0.7
    t = kt / kappa
    gamma = 2.0 * kappa * t / (1.0 + 2.0 * kappa * t)
    zeta = 1.0 / (1.0 + 2.0 * kappa * t)
    cfg = DiffusiveConfig(b=0, kappa=kappa)
    weights = [fock_weight(cfg, n, t) for n in range(4)]
    assert weights[0] == pytest.approx(zeta, rel=1e-14)
    for low, high in zip(weights, weights[1:]):
        assert high / low == pytest.approx(gamma, rel=1e-14)


@pytest.mark.parametrize("kt", [1e-3, 0.05, 0.5, 5.0, 50.0])
def test_kernel_n0_normalization_seed(kt):
    # zeta / (1 - gamma) = 1, so the geometric row sums to one: its kept
    # levels fall short of one by the true tail, at most the proven bound.
    dist = distributions(DiffusiveConfig(b=0, kappa=1.0), [kt])[0]
    assert abs(1.0 - dist.trace()) <= dist.tail_bound + 1e-13


# ---------------------------------------------------------------------------
# sum_adaptive


def test_sum_adaptive_geometric():
    result = sum_adaptive(0.5**l for l in range(10_000))
    assert result.value == pytest.approx(2.0, rel=1e-10 * 10)
    assert result.tail_bound <= 1e-10 * 2.0 * 1.01


def test_sum_adaptive_weight_series_sums_to_one():
    # sum_l gamma^l zeta = 1 for the n = 0 kernels at any time.
    for kt in (0.05, 1.0, 20.0):
        g, z = 2 * kt / (1 + 2 * kt), 1 / (1 + 2 * kt)
        result = sum_adaptive(g**l * z for l in range(10**6))
        assert result.value == pytest.approx(1.0, rel=1e-9)


def test_sum_adaptive_certificate_covers_longer_summation():
    # The partial sum must sit within its own tail bound of a 10x longer run.
    def terms(count):
        # ratio tends to 0.9 from above (polynomial prefactor).
        return ((l + 1) ** 2 * 0.9**l for l in range(count))

    result = sum_adaptive(terms(10**6), rel_eps=1e-8)
    longer = sum(terms(10 * result.terms_used))
    assert abs(result.value - longer) <= result.tail_bound
    assert result.terms_used > 10


def test_sum_adaptive_nonconvergent_hits_term_cap():
    with pytest.raises(TermCapReached):
        sum_adaptive((1.0 for _ in range(10**9)), max_terms=100)


def test_sum_adaptive_exhausted_stream_is_exact():
    result = sum_adaptive(iter([1.0, 2.0, 3.0]), ratio_guard=0.5)
    assert result.value == 6.0
    assert result.terms_used == 3
    assert result.tail_bound == 0.0


def test_sum_adaptive_handles_all_zero_tail():
    result = sum_adaptive(iter([1.0, 0.0, 0.0]))
    assert result.value == 1.0
    assert result.tail_bound == 0.0


# ---------------------------------------------------------------------------
# the series tolerance: the rel_eps of the level cut, checked by distributions


CUT_CFG = DiffusiveConfig(b=2, kappa=0.5)


def test_series_tolerance_validation():
    # The tolerance is checked before the times, so a bad time behind it
    # changes nothing; 0, negatives and NaN get the one range message; the
    # default is REL_EPS.
    for eps in (0.0, -1.0, math.nan):
        message = (r"^rel_eps must lie in \[1e-12, 1\): the weights carry about 1.6e-14 "
                   f"relative rounding, got {eps:g}$")
        with pytest.raises(ValueError, match=message):
            distributions(CUT_CFG, [0.1, math.nan], rel_eps=eps)
        with pytest.raises(ValueError, match=message):
            distributions(CUT_CFG, [0.1], eps)[0]
    assert distributions(CUT_CFG, [0.1])[0] == distributions(CUT_CFG, [0.1], REL_EPS)[0]


@pytest.mark.parametrize("eps", [1e-13, 1e-300, 1.0, math.inf])
def test_series_tolerance_rejects_eps_outside_the_certifiable_range(eps):
    message = (r"^rel_eps must lie in \[1e-12, 1\): the weights carry about 1.6e-14 "
               f"relative rounding, got {eps:g}$")
    with pytest.raises(ValueError, match=message):
        distributions(CUT_CFG, [0.1], rel_eps=eps)
    with pytest.raises(ValueError, match=message):
        distributions(CUT_CFG, [0.1], eps)[0]


def test_series_tolerance_floor_is_legal():
    assert MIN_REL_EPS == 1e-12
    dist = distributions(CUT_CFG, [0.1], MIN_REL_EPS)[0]
    assert dist.tail_bound <= MIN_REL_EPS
    assert dist.n_cut > distributions(CUT_CFG, [0.1])[0].n_cut


# ---------------------------------------------------------------------------
# Frozen: the value types


POINT = dict(n=3, energy=4.5, tau=0.25, d_energy=1.5, d_tau=-0.125, y=0.1875, resolvable=False)

# Each value type with constructor keywords, in field order.
VALUE_CASES = [
    (DiffusiveConfig, dict(b=2, kappa=0.5, omega=0.1, lam=1.0)),
    (YMeanPoint, dict(zip(YMeanPoint._fields, [0.5 * k for k in range(1, 11)]))),
    # A tuple stands in for the weight array, which numpy does not hash.
    (FockDistribution, dict(t=0.1, weights=(0.75, 0.25), n_cut=1, tail_bound=0.0)),
    (Harmonic, dict(mass=1.0, omega=2.0)),
    (Box, dict(mass=1.0, width=2.0)),
    (Hydrogenoid, dict(reduced_mass=1.0, charge_number=2, charge=1.5)),
    (Morse, dict(depth=1.0, alpha=1.0, anharmonicity=10.0, mass=1.0, r0=1.0, omega=0.4)),
    (Quartic, dict(omega=1.0, lam=0.5)),
    (CriterionPoint, POINT),
    (SuperpositionSpec, dict(a=0.6, b=0.8j, n=3)),
    (ScanResult, dict(points=(CriterionPoint(**POINT),), first_unresolvable=3, note="n=3")),
]


@pytest.mark.parametrize("cls, kwargs", VALUE_CASES, ids=[c.__name__ for c, _ in VALUE_CASES])
def test_value_types_are_frozen_values(cls, kwargs):
    value = cls(**kwargs)
    assert isinstance(value, numerics.Frozen) and isinstance(value, tuple)
    assert cls._fields == tuple(kwargs) and cls.__slots__ == ()
    for name in (*kwargs, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, 1.0)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert {name: getattr(value, name) for name in kwargs} == kwargs
    # Equal values: equal objects with equal hashes, whether built by
    # keyword, by position, or by copy and pickle through the constructor.
    by_position = cls(*kwargs.values())
    assert by_position == value and not by_position != value
    assert hash(by_position) == hash(value)
    assert copy.copy(value) == value == pickle.loads(pickle.dumps(value))
    # A different type with the same fields and values is not equal.
    other = type("Other", (numerics.Frozen,), {"__slots__": (), "_fields": cls._fields,
                                                "__new__": cls.__new__})(**kwargs)
    assert other != value and value != other
    assert not other == value and not value == other
    # The value is the tuple of its fields, yet never equal to a plain tuple.
    fields = tuple(kwargs.values())
    assert (*value,) == fields and len(value) == len(cls._fields)
    assert not value == fields and not fields == value
    assert value != fields and fields != value
    for less in (operator.lt, operator.le, operator.gt, operator.ge):
        for left, right in ((value, by_position), (value, fields), (fields, value)):
            with pytest.raises(TypeError):
                less(left, right)
    assert repr(value) == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in kwargs.items())})"



# diffusive._mean_y builds its YMeanPoint records from their field tuples,
# and scan writes CriterionPoints as plain rows; a record built from its
# field tuple must be the constructed one in every respect. The AST test in
# test_package.py keeps such construction to check-free constructors.
def _assert_same_record(record, built):
    assert type(record) is type(built)
    assert record == built and not record != built
    assert hash(record) == hash(built)
    assert repr(record) == repr(built)
    restored = pickle.loads(pickle.dumps(record))
    assert type(restored) is type(built) and restored == built
    assert repr(restored) == repr(built)


@pytest.mark.parametrize("cls, kwargs", [VALUE_CASES[1], (CriterionPoint, POINT)],
                         ids=["YMeanPoint", "CriterionPoint"])
def test_a_record_built_from_its_field_tuple_is_the_constructed_one(cls, kwargs):
    _assert_same_record(tuple.__new__(cls, tuple(kwargs.values())), cls(**kwargs))


def test_kernel_records_are_the_constructed_ones():
    cfg = DiffusiveConfig(b=3, kappa=0.7, omega=0.1, lam=1.0)
    quartic = Quartic(omega=0.3, lam=0.7)
    records = [*mean_y_series(cfg, [1e-3, 0.5, 40.0]), mean_y_point(cfg, 0.25),
               criterion_point(quartic, 5), *threshold_scan(quartic, 1, 4).points]
    for record in records:
        _assert_same_record(record, type(record)(*record))


def test_value_unpacks_in_field_order():
    b, kappa, omega, lam = DiffusiveConfig(b=2, kappa=0.5, omega=0.1)
    assert (b, kappa, omega, lam) == (2, 0.5, 0.1, 0.0)


def test_a_config_holds_only_the_physics():
    # The level cut's tolerance is an argument of distributions, not a field.
    assert DiffusiveConfig._fields == ("b", "kappa", "omega", "lam")


class _ForgedConfig:
    """Pickles as a DiffusiveConfig whose reduce tuple holds b = -1."""

    def __reduce__(self):
        return DiffusiveConfig, (-1, 1.0, 0.0, 0.0)


def test_unpickling_runs_the_constructor_checks():
    data = pickle.dumps(_ForgedConfig())
    with pytest.raises(ValueError, match="b must be a non-negative integer, got -1"):
        pickle.loads(data)


@pytest.mark.parametrize("name", ["count", "index", "_fields"])
def test_a_field_may_not_shadow_a_tuple_attribute(name):
    with pytest.raises(TypeError, match=f"field {name!r} of Bad would shadow"):
        type("Bad", (numerics.Frozen,), {"__slots__": (), "_fields": ("x", name)})


def test_a_value_type_must_declare_empty_slots():
    # Without __slots__ = () the instances would carry a writable __dict__;
    # a tuple subclass may not declare any other slots.
    with pytest.raises(TypeError, match="Bad must set __slots__ = \\(\\)"):
        type("Bad", (numerics.Frozen,), {"_fields": ("x",)})
