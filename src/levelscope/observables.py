"""Derived time-dependent quantities of the diffusive Fock mixtures:
neighbor fidelity, survival probability, level and energy averages, and the
environment-averaged resolvability criterion <y(b)>.

All series run over the dimensionless time kappa*t; <y(b)> is reported in
units of hbar so the measurability threshold sits at 1/2. Fidelity and the
array forms live here; survival, the closed-form moments and <y(b)> at one
point are scalar arithmetic in the numpy-free diffusive module, re-exported
here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .diffusive import (
    DiffusiveConfig,
    YMeanPoint,
    check_curve,
    log_points,
    mean_h0,
    mean_n,
    mean_tau,
    mean_y_point,
    survival,
)
from .numerics import MismatchedConfig, ZeroEnergy
from .open_system import neighbour_weights

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
        check_curve(self.kt.tolist(), self.values.tolist())

    def points(self) -> Iterator[tuple[float, float]]:
        return zip(self.kt.tolist(), self.values.tolist())


def log_grid(start: float = 1e-3, stop: float = 1e2, points: int = 200) -> np.ndarray:
    """Default log-spaced kappa*t grid matching the figure convention: the
    values of diffusive.log_points as an array."""
    return np.array(log_points(start, stop, points))


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
