"""Accuracy of the level populations against 60-digit mpmath.

Every population is the terminating sum P_b(n) = zeta gamma^(b+n) S(b, n, w)
of positive terms, evaluated by Horner's rule in ratio form: fock_weight
and survival one level at a time, distributions over arrays of levels, bit
for bit alike. The
reference is the same sum at 60 digits with exact integer binomials, at the
exact double kappa*t. The stated bounds hold at levels spread over each
row's weights down to 1e-16, the deep tails at kappa*t = 10 and 100 among
them, where the levels run to several thousand.
"""

import math

import mpmath as mp
import numpy as np
import pytest

from levelscope.diffusive import DiffusiveConfig, fock_weight, survival
from levelscope.open_system import distributions

BS = [0, 2, 15, 40, 200]
KTS = [1e-3, 0.1, 0.49, 0.5, 0.51, 10.0, 100.0]


def bound(b: int) -> float:
    """Largest relative error allowed at index b: 3e-14 up to b = 40, and
    2e-13 at b = 200. The rounding grows with the exponent of the prefactor,
    about (b+n) log1p(1/u), which runs to several hundred at b = 200."""
    return 3e-14 if b <= 40 else 2e-13


def exact(b: int, n: int, kt: float) -> mp.mpf:
    with mp.workdps(60):
        u = 2 * mp.mpf(kt)
        g, z = u / (1 + u), 1 / (1 + u)
        w = (z / g) ** 2
        s = mp.fsum(math.comb(b, p) * math.comb(n, p) * w**p for p in range(min(b, n) + 1))
        return z * g ** (b + n) * s


def rel_err(got: float, want: mp.mpf) -> float:
    return float(abs(mp.mpf(got) - want) / want)


def sample_levels(weights: np.ndarray, count: int = 40) -> list[int]:
    """Up to `count` levels spread over those with weight >= 1e-16, always
    including the first and last of them."""
    kept = np.flatnonzero(weights >= 1e-16)
    picks = np.linspace(0, kept.shape[0] - 1, min(count, kept.shape[0])).round().astype(int)
    return sorted(set(kept[picks].tolist()))


@pytest.fixture(scope="module", params=BS)
def rows(request):
    b = request.param
    return b, distributions(DiffusiveConfig(b, 1.0), KTS)


def test_distribution_rows_match_mpmath(rows):
    b, dists = rows
    for kt, dist in zip(KTS, dists):
        for n in sample_levels(dist.weights):
            err = rel_err(dist.weights[n], exact(b, n, kt))
            assert err <= bound(b), (kt, n, err)


def test_fock_weight_and_survival_match_mpmath(rows):
    b, dists = rows
    cfg = DiffusiveConfig(b, 1.0)
    for kt, dist in zip(KTS, dists):
        for n in sample_levels(dist.weights):
            err = rel_err(fock_weight(cfg, n, kt), exact(b, n, kt))
            assert err <= bound(b), (kt, n, err)
        err = rel_err(survival(cfg, kt), exact(b, b, kt))
        assert err <= bound(b), (kt, err)


def test_every_kept_weight_is_bitwise_fock_weight(rows):
    # The arrays run the scalar operations of fock_weight in its order, and
    # take the same libm exp: 0 ulp apart, inside any bound of a few ulp.
    b, dists = rows
    cfg = DiffusiveConfig(b, 1.0)
    for kt, dist in zip(KTS, dists):
        want = np.array([fock_weight(cfg, n, kt) for n in range(dist.n_cut + 1)])
        assert dist.weights.tobytes() == want.tobytes(), kt


def test_a_row_does_not_depend_on_the_other_times_of_its_call(rows):
    b, dists = rows
    cfg = DiffusiveConfig(b, 1.0)
    want = [d.weights.tobytes() for d in dists]
    assert [distributions(cfg, [kt])[0].weights.tobytes() for kt in KTS] == want
    backwards = distributions(cfg, KTS[::-1] + [0.0, 0.3])[: len(KTS)]
    assert [d.weights.tobytes() for d in backwards[::-1]] == want
