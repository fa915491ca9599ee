"""Derived time-dependent quantities of the diffusive Fock mixtures:
neighbor fidelity, survival probability, level and energy averages, and the
environment-averaged resolvability criterion <y(b)>.

All series run over the dimensionless time kappa*t; <y(b)> is reported in
units of hbar so the measurability threshold sits at 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .numerics import MismatchedConfig, ZeroEnergy
from .open_system import DiffusiveConfig, check_time, fock_weight, neighbour_weights

__all__ = [
    "MismatchedConfig",
    "ZeroEnergy",
    "TimeSeries",
    "YMeanPoint",
    "fidelity_overlap",
    "survival",
    "mean_n",
    "mean_h0",
    "mean_tau",
    "mean_y_point",
    "mean_y_series",
    "log_grid",
]


@dataclass(frozen=True)
class TimeSeries:
    """A labeled (kappa*t -> value) table; kt strictly increasing."""

    label: str
    kt: np.ndarray
    values: np.ndarray

    def __post_init__(self) -> None:
        if self.kt.shape != self.values.shape:
            raise ValueError("kt and values must have matching shapes")
        if self.kt.size and not np.all(np.diff(self.kt) > 0.0):
            raise ValueError("kt grid must be strictly increasing")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("series values must be finite")

    def points(self) -> Iterator[tuple[float, float]]:
        return zip(self.kt.tolist(), self.values.tolist())


@dataclass(frozen=True)
class YMeanPoint:
    """One <y(b)> evaluation with its ingredients.

    d_energy = (<H0(b)> - <H0(b-1)>) / 2 and d_tau = (<tau_b> - <tau_{b-1}>) / 2
    keep their signs (d_tau is negative here: the heavier mixture runs
    faster); y_mean = |d_energy * d_tau| in units of hbar.
    """

    kt: float
    mean_n_b: float
    mean_n_bm1: float
    mean_h0_b: float
    mean_h0_bm1: float
    mean_tau_b: float
    mean_tau_bm1: float
    d_energy: float
    d_tau: float
    y_mean: float


def log_grid(start: float = 1e-3, stop: float = 1e2, points: int = 200) -> np.ndarray:
    """Default log-spaced kappa*t grid matching the figure convention."""
    if not (start > 0.0 and math.isfinite(stop) and stop > start and points >= 2):
        raise ValueError(f"bad log grid ({start}, {stop}, {points})")
    return np.logspace(math.log10(start), math.log10(stop), points)


def _require_same_bath(cfg_b: DiffusiveConfig, cfg_bm1: DiffusiveConfig) -> None:
    if (cfg_b.kappa, cfg_b.omega, cfg_b.lam, cfg_b.tol) != (
        cfg_bm1.kappa, cfg_bm1.omega, cfg_bm1.lam, cfg_bm1.tol
    ):
        raise MismatchedConfig(
            "fidelity compares preparations under the same bath and oscillator, "
            f"certified alike: (kappa, omega, lam, tol) differ: {cfg_b} vs {cfg_bm1}"
        )
    if cfg_bm1.b != cfg_b.b - 1:
        raise MismatchedConfig(f"expected neighboring indices, got b={cfg_b.b} and {cfg_bm1.b}")


def fidelity_overlap(cfg_b: DiffusiveConfig, cfg_bm1: DiffusiveConfig, t: float) -> float:
    """F(b, t) = Tr[rho(t, b) rho(t, b-1)] via the diagonal overlap.

    Both states are diagonal in the Fock basis, so the trace is the plain
    overlap sum_n P_b(n, t) P_{b-1}(n, t). This is the ground-truth form;
    the test suite audits the paper's expanded triple sum against it.
    Both weight arrays are the top two rows of one b-ladder cache entry, so
    a sweep up in b costs one ladder step per point. The sum runs to the
    smaller of the two certified cuts, and the discarded tail is bounded by
    the smaller of the two distribution tails, since every weight is at
    most 1. The two configurations must share kappa, omega, lam and tol.
    """
    _require_same_bath(cfg_b, cfg_bm1)
    lower, upper = neighbour_weights(cfg_b, t)
    m = min(upper.shape[0], lower.shape[0])
    return float(upper[:m] @ lower[:m])


def survival(cfg: DiffusiveConfig, t: float) -> float:
    """Probability P_b(b, t) of still finding the prepared index b."""
    return fock_weight(cfg, cfg.b, t)


def _moments(b: int, kappa: float, t: float) -> tuple[float, float]:
    """(<N>, <N^2>) of the evolved mixture in closed form.

    The level populations have the generating function
    G(s) = zeta (gamma + (zeta - gamma) s)^b / (1 - gamma s)^(b+1) with
    gamma = u / (1 + u), zeta = 1 - gamma and u = 2 kappa t, whose first two
    derivatives at s = 1 give <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u.
    Exact, so no truncation certificate applies.
    """
    check_time(t)
    u = 2.0 * kappa * t
    m1 = b + u
    m2 = b * b + 4.0 * b * u + 2.0 * u * u + u
    if not math.isfinite(m2):
        raise ValueError(f"<N^2> overflows at kappa*t = {kappa * t:g}")
    return m1, m2


def _energy(omega: float, lam: float, m1: float, m2: float, kt: float) -> float:
    h0 = omega * m1 + lam * m2
    if not math.isfinite(h0):
        raise ValueError(f"<H0> overflows at kappa*t = {kt:g}")
    return h0


def mean_n(cfg: DiffusiveConfig, t: float) -> float:
    """<N>(t) = b + 2 kappa t, the closed-form mean level of the mixture.

    Raises ValueError for a negative or non-finite t.
    """
    return _moments(cfg.b, cfg.kappa, t)[0]


def mean_h0(cfg: DiffusiveConfig, t: float) -> float:
    """<H0>(t) = omega <N> + lam <N^2> (hbar = 1), from the closed-form
    moments <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u with u = 2 kappa t.

    Raises ValueError for a negative or non-finite t, or when <H0> overflows.
    """
    m1, m2 = _moments(cfg.b, cfg.kappa, t)
    return _energy(cfg.omega, cfg.lam, m1, m2, cfg.kappa * t)


def mean_tau(cfg: DiffusiveConfig, t: float) -> float:
    """Period estimate 2 pi <N> / <H0> of the evolved mixture, from the
    closed-form moments (see mean_h0).

    Raises ZeroEnergy when <H0> = 0 (b = 0 at t = 0), rather than returning
    a NaN. Note the t -> 0 limit for b >= 1 is 2 pi / (omega + lam b), which
    differs from the closed-system orbit period 2 pi / (omega + 2 lam b):
    the moment ratio is an approximation and both values are intentionally
    reported by the CLI rather than reconciled.
    """
    m1, m2 = _moments(cfg.b, cfg.kappa, t)
    h0 = _energy(cfg.omega, cfg.lam, m1, m2, cfg.kappa * t)
    if h0 == 0.0:
        raise ZeroEnergy(f"<H0> = 0 for b={cfg.b}, t={t}; period estimate undefined")
    return 2.0 * math.pi * m1 / h0


def mean_y_point(cfg_b: DiffusiveConfig, t: float) -> YMeanPoint:
    """<y(b)> at one time from the b and b-1 mixtures.

    <y(b)> = |<dE_b> <dTau_b>| with <dE_b> = (<H0(b)> - <H0(b-1)>)/2 and
    <dTau_b> = (<tau_b> - <tau_{b-1}>)/2. The absolute value matches the
    closed-system criterion convention; the signed factors are retained in
    the returned record.

    With u = 2 kappa t the mixtures have the closed-form moments
    <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u, so

        |<tau_b> - <tau_{b-1}>| = 2 pi [b(b-1) + 2u(b+u-1)] / (<H0(b)> <H0(b-1)>),

    and <y(b)> < pi / (2 kappa t) for every b >= 1, omega >= 0, lam > 0 and
    kappa t > 0, with kappa t <y(b)> -> pi/2 as kappa t grows. No
    preparation stays resolvable (<y(b)> >= 1/2) past kappa t = pi, and
    <y(b)> falls to half of any earlier value y_0 before kappa t = pi / y_0.

    The moments come from that closed form, not from the certified weights;
    a negative or non-finite t, or a moment that overflows, raises ValueError.
    """
    b, kappa, omega, lam = cfg_b.b, cfg_b.kappa, cfg_b.omega, cfg_b.lam
    if b < 1:
        raise ValueError("mean_y_point needs b >= 1")
    kt = kappa * t
    m1_b, m2_b = _moments(b, kappa, t)
    m1_m, m2_m = _moments(b - 1, kappa, t)
    h0_b = _energy(omega, lam, m1_b, m2_b, kt)
    h0_m = _energy(omega, lam, m1_m, m2_m, kt)
    if h0_b == 0.0 or h0_m == 0.0:
        raise ZeroEnergy(f"<H0> = 0 at t={t}; cannot form the period estimate")
    tau_b = 2.0 * math.pi * m1_b / h0_b
    tau_m = 2.0 * math.pi * m1_m / h0_m
    d_energy = (h0_b - h0_m) / 2.0
    d_tau = (tau_b - tau_m) / 2.0
    return YMeanPoint(
        kt=kt,
        mean_n_b=m1_b,
        mean_n_bm1=m1_m,
        mean_h0_b=h0_b,
        mean_h0_bm1=h0_m,
        mean_tau_b=tau_b,
        mean_tau_bm1=tau_m,
        d_energy=d_energy,
        d_tau=d_tau,
        y_mean=abs(d_energy * d_tau),
    )


def mean_y_series(cfg_b: DiffusiveConfig, kt_grid: Sequence[float] | np.ndarray) -> list[YMeanPoint]:
    """<y(b)> along a strictly increasing kappa*t grid."""
    grid = np.asarray(kt_grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("kt_grid must be a non-empty 1-d sequence")
    if not np.all(np.isfinite(grid)):
        raise ValueError("kt_grid must be finite")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("kt_grid must be strictly increasing")
    return [mean_y_point(cfg_b, kt / cfg_b.kappa) for kt in grid.tolist()]
