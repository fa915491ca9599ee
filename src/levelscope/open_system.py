"""Diffusive relaxation of an initial Fock state of the quartic oscillator.

The evolved state stays diagonal in the Fock basis; this module computes its
weights P_b(n, t) with a certified truncation in n. The level populations
depend only on the initial index b and on the dimensionless time kappa*t;
omega and lam ride along in the configuration because energy observables
need them.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from ._backend import fock_weight_block, log_factorials
from .numerics import DEFAULT_TOLERANCE, NonConvergent, SeriesTolerance, log_factorial

__all__ = ["DiffusiveConfig", "FockDistribution", "fock_weight", "distribution"]


@dataclass(frozen=True)
class DiffusiveConfig:
    """Open-system run parameters.

    b: initial Fock index; kappa: diffusion rate; omega, lam: oscillator
    frequency and nonlinear strength (hbar = 1 units); tol: truncation policy.
    """

    b: int
    kappa: float
    omega: float = 0.0
    lam: float = 0.0
    tol: SeriesTolerance = field(default=DEFAULT_TOLERANCE)

    def __post_init__(self) -> None:
        integral = type(self.b) is int or (
            isinstance(self.b, numbers.Integral) and not isinstance(self.b, bool)
        )
        if not integral or self.b < 0:
            raise ValueError(f"b must be a non-negative integer, got {self.b!r}")
        # Chained comparisons with inf also reject NaN.
        if not 0.0 < self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and positive, got {self.kappa}")
        if not 0.0 <= self.omega < math.inf:
            raise ValueError(f"omega must be finite and non-negative, got {self.omega}")
        if not 0.0 <= self.lam < math.inf:
            raise ValueError(f"lam must be finite and non-negative, got {self.lam}")


def check_time(t: float) -> None:
    """Raise ValueError unless t is a finite, non-negative time."""
    if not 0.0 <= t < math.inf:
        raise ValueError(f"t must be finite and non-negative, got {t}")


@dataclass(frozen=True)
class FockDistribution:
    """Diagonal weights of the evolved state at one time.

    weights[n] holds P_b(n, t) for n = 0 .. n_cut; tail_bound is a certified
    upper bound on the probability beyond n_cut. The weights plus the tail
    account for the full unit trace to within the configured tolerance.
    """

    t: float
    weights: np.ndarray
    n_cut: int
    tail_bound: float

    def trace(self) -> float:
        return float(self.weights.sum())

    def weight(self, n: int) -> float:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        if n > self.n_cut:
            return 0.0
        return float(self.weights[n])

    def moments(self) -> tuple[float, float, float]:
        """(sum P, sum n P, sum n^2 P) over the stored range."""
        n = np.arange(self.weights.shape[0], dtype=float)
        return (
            float(self.weights.sum()),
            float(n @ self.weights),
            float((n * n) @ self.weights),
        )


def _kernels(kt: float) -> tuple[float, float]:
    """Relaxation kernels (gamma, zeta) = (2kt / (1 + 2kt), 1 / (1 + 2kt)) at
    kt = kappa*t, so zeta = 1 - gamma; exactly (0, 1) at t = 0.

    These are the paper's kernels at delta = 0, the only case a diagonal
    Fock mixture needs.
    """
    return 2.0 * kt / (1.0 + 2.0 * kt), 1.0 / (1.0 + 2.0 * kt)


def fock_weight(cfg: DiffusiveConfig, n: int, t: float) -> float:
    """Population P_b(n, t) of level n, as a finite log-space sum over p.

    Collecting the double-index expansion of the evolved state at the
    physical level n = p + l leaves, per level, the finite sum implemented
    in the weight kernel; no truncation is involved for a single level.
    """
    if n < 0:
        raise ValueError(f"n must be non-negative, got {n}")
    check_time(t)
    g, z = _kernels(cfg.kappa * t)
    if g == 0.0:
        return 1.0 if n == cfg.b else 0.0
    b = cfg.b
    lg, lz = math.log(g), math.log(z)
    lf = [log_factorial(k) for k in range(max(n, b) + 1)]
    acc = 0.0
    for p in range(0, min(b, n) + 1):
        acc += math.exp(
            lf[b] + lf[n] - 2.0 * lf[p] - lf[n - p] - lf[b - p]
            + (b + n - 2 * p) * lg + (2 * p + 1) * lz
        )
    return acc


# Geometric tail bounds for the zeroth, first and second moments past index
# L, given the last weight w and a ratio r valid for every later step:
#   sum_{j>=1} w r^j            = w r/(1-r)
#   sum_{j>=1} (L+j) w r^j      = w (L r/(1-r) + r/(1-r)^2)
#   sum_{j>=1} (L+j)^2 w r^j    = w (L^2 r/(1-r) + 2 L r/(1-r)^2 + r(1+r)/(1-r)^3)
def _tail_bounds(w: float, r: float, L: int) -> tuple[float, float, float]:
    q = r / (1.0 - r)
    q2 = q / (1.0 - r)
    q3 = (1.0 + r) * q2 / (1.0 - r)
    return w * q, w * (L * q + q2), w * (L * L * q + 2.0 * L * q2 + q3)


@lru_cache(maxsize=4096)
def _weights_cached(
    b: int, kt: float, rel_eps: float, max_terms: int, guard: float
) -> tuple[np.ndarray, int, float]:
    """Weight array for (b, kappa*t), grown until trace and first two moments
    carry certified tails below rel_eps.

    Returns (weights, n_cut, trace_tail_bound); the array is cached read-only
    because series over a time grid revisit the same (b, kt) pairs.
    """
    g, z = _kernels(kt)
    lg, lz = math.log(g), math.log(z)

    # Leading-order guess for the cut: the far tail decays like g^n, so aim
    # for g^n ~ rel_eps and pad for the polynomial prefactor in n.
    n_hat = b + 32 + int(math.ceil(-math.log(rel_eps) / -lg)) if g < 1.0 else max_terms
    n_hat = min(max(n_hat, b + 8), max_terms)

    weights = np.empty(0)
    n_have = 0
    while True:
        if n_hat > max_terms:
            raise NonConvergent(
                f"level cut for b={b}, kappa*t={kt} exceeded max_terms={max_terms}"
            )
        block = np.empty(n_hat - n_have)
        fock_weight_block(b, lg, lz, log_factorials(n_hat), n_have, n_hat, block)
        weights = np.concatenate([weights, block])
        n_have = n_hat

        # Certify with the worst of the last few observed ratios; past the
        # bulk these decrease toward g, so the bound is conservative there.
        if n_have >= max(b + 4, 8):
            tail = weights[-4:]
            if np.all(tail[:-1] > 0.0):
                ratios = tail[1:] / tail[:-1]
                r = float(ratios.max())
                if r < guard:
                    L = n_have - 1
                    t0, t1, t2 = _tail_bounds(float(tail[-1]), r, L)
                    n_arr = np.arange(n_have, dtype=float)
                    m1 = float(n_arr @ weights)
                    m2 = float((n_arr * n_arr) @ weights)
                    if (
                        t0 <= rel_eps
                        and t1 <= rel_eps * max(m1, 1.0)
                        and t2 <= rel_eps * max(m2, 1.0)
                    ):
                        weights.setflags(write=False)
                        return weights, L, t0
            elif np.all(tail == 0.0):
                # Underflowed to exact zero: nothing measurable remains.
                weights.setflags(write=False)
                return weights, n_have - 1, 0.0
        n_hat = min(max(2 * n_hat, n_hat + 64), max_terms + 1)


def distribution(cfg: DiffusiveConfig, t: float) -> FockDistribution:
    """All level populations at time t, truncated with a certified tail.

    The cut n_cut is grown adaptively until the geometric tail bound drops
    below cfg.tol.rel_eps (for the trace and for the first two moments, so
    downstream energy averages inherit the certificate).
    """
    check_time(t)
    kt = cfg.kappa * t
    if kt == 0.0:
        weights = np.zeros(cfg.b + 1)
        weights[cfg.b] = 1.0
        weights.setflags(write=False)
        return FockDistribution(t=t, weights=weights, n_cut=cfg.b, tail_bound=0.0)
    weights, n_cut, tail = _weights_cached(
        cfg.b, kt, cfg.tol.rel_eps, cfg.tol.max_terms, cfg.tol.tail_ratio_guard
    )
    return FockDistribution(t=t, weights=weights, n_cut=n_cut, tail_bound=tail)
