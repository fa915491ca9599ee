"""The Fock-weight block kernel: the hot inner loop of every certified
weight array (`open_system.distribution`, and through it F(b, t), the
`evolve` tables and figures 1-2).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# A level whose scale term lies below exp(_LOG_SCALE_MIN) is summed in log
# space: above it the scale is a normal double and, because every level's
# sum is at most 1, no partial product of ratios can exceed exp(700).
_LOG_SCALE_MIN = -700.0


def log_factorials(n: int) -> np.ndarray:
    """ln(k!) for k = 0 .. n, as a read-only view of a cached table.

    The table is a cumulative sum of ln k, so its entries do not depend on
    its length; the rounding it accumulates stays within ~1e-14 relative of
    ln(k!) for k up to 2e4. The kernel reads it only for kappa*t < 1/2, where the
    certified cut stays within a few hundred levels of b.
    """
    return _log_factorial_table(int(n).bit_length())[: n + 1]


@lru_cache(maxsize=None)
def _log_factorial_table(bits: int) -> np.ndarray:
    table = np.zeros(1 << bits)
    np.cumsum(np.log(np.arange(1.0, table.shape[0])), out=table[1:])
    table.setflags(write=False)
    return table


def fock_weight_block(
    b: int,
    log_gamma: float,
    log_zeta: float,
    log_fact: np.ndarray,
    n_start: int,
    n_stop: int,
    out: np.ndarray,
) -> None:
    """Fill out[i] with the Fock weight at level n = n_start + i.

    The weight of level n for an initial index b, with real kernels
    gamma = exp(log_gamma), zeta = exp(log_zeta), is the finite sum

        P(n) = sum_{p=0}^{min(b, n)}  T_p,
        T_p  = C(b, p) C(n, p) gamma^(b+n-2p) zeta^(2p+1),

    of positive terms whose ratios T_p / T_{p-1} = (b-p+1)(n-p+1) x / p^2,
    x = (zeta/gamma)^2, fall with p. Each level is one exp of a scale term
    times a cumulative product of ratios: from T_0 = gamma^(b+n) zeta when
    zeta <= gamma (kappa*t >= 1/2), and downwards from T_min(b, n) when
    zeta > gamma, so the products only grow towards the peak term and stay
    below 1 / scale. log_fact must hold ln(k!) for k = 0 .. at least
    max(b, n_stop - 1); it is read only when zeta > gamma.
    """
    n = np.arange(float(n_start), float(n_stop))
    x = math.exp(2.0 * (log_zeta - log_gamma))
    # Row k of `ratios` holds the (k+1)-th step of the product for every level.
    k = np.arange(b, dtype=float)
    if log_zeta <= log_gamma:
        # T_p / T_{p-1} at p = k + 1: zero at p = n + 1, ending a level n < b.
        log_scale = (b + n) * log_gamma + log_zeta
        ratios = np.add.outer(-k, n)
        ratios *= ((b - k) * x / ((k + 1.0) * (k + 1.0)))[:, None]
    else:
        # T_{p-1} / T_p at p = min(b, n) - k: zero at p = 0, which ends the sum.
        # The scale T_lo = C(hi, lo) gamma^(hi-lo) zeta^(2 lo + 1), with
        # lo, hi = min(b, n), max(b, n).
        lo = np.minimum(n, float(b))
        hi = n + b - lo
        lo_i, hi_i = lo.astype(np.intp), hi.astype(np.intp)
        log_scale = (
            log_fact[hi_i] - log_fact[lo_i] - log_fact[hi_i - lo_i]
            + (hi - lo) * log_gamma + (2.0 * lo + 1.0) * log_zeta
        )
        p = np.add.outer(-k, lo)
        ratios = p * p / ((b + 1.0 - p) * (n + 1.0 - p) * x)
    any_tiny = log_scale.min(initial=0.0) < _LOG_SCALE_MIN
    if any_tiny:
        tiny = log_scale < _LOG_SCALE_MIN
        # The scale of these levels underflows and their products may not
        # fit a double: sum exp(log T_p), log T_p accumulated from the log
        # ratios, and keep them out of the linear products below.
        with np.errstate(divide="ignore"):
            log_terms = np.cumsum(np.log(np.maximum(ratios[:, tiny], 0.0)), axis=0)
        log_terms += log_scale[tiny]
        tiny_sums = np.exp(log_scale[tiny]) + np.exp(log_terms).sum(axis=0)
        ratios[:, tiny] = 0.0
    acc = np.exp(log_scale) * (1.0 + np.cumprod(ratios, axis=0, out=ratios).sum(axis=0))
    if any_tiny:
        acc[tiny] = tiny_sums
    out[: n.shape[0]] = acc
