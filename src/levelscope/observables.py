"""Derived time-dependent quantities of the diffusive Fock mixtures:
neighbor fidelity, survival probability, level and energy averages, and the
environment-averaged resolvability criterion <y(b)>.

All series run over the dimensionless time kappa*t; <y(b)> is reported in
units of hbar so the measurability threshold sits at 1/2. The array forms
live here; fidelity, survival, the closed-form moments and <y(b)> at one
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
    fidelity_overlap,
    log_points,
    mean_h0,
    mean_n,
    mean_tau,
    mean_y_point,
    survival,
)
from .numerics import MismatchedConfig, ZeroEnergy

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
