"""Former home of the time-dependent observables, kept as aliases.

Fidelity, survival and <y(b)> are scalar arithmetic in the numpy-free
diffusive module; this module only re-exports them under their old names,
so it loads no numpy either. The closed-form moments <N>, <H0> and <tau>
are fields of the YMeanPoint records of mean_y_point and mean_y_series,
not functions of their own. The module stays because the benchmark harness
(levelbench: sweep.py, selftest.py, tracer.py) calls
observables.{fidelity_overlap, survival, mean_y_point, mean_y_series}; it
goes once the harness imports levelscope.diffusive instead. The names here
are the diffusive objects themselves, so a wrapper installed on either
module attribute sees every call made through that name. mean_y_series
evaluates its points in one loop of its own and does not call
mean_y_point, so a wrapper on mean_y_point sees only the direct calls.
"""

from .diffusive import (
    DiffusiveConfig,
    YMeanPoint,
    fidelity_overlap,
    mean_y_point,
    mean_y_series,
    survival,
)
from .numerics import MismatchedConfig, ZeroEnergy

__all__ = [
    "DiffusiveConfig",
    "MismatchedConfig",
    "YMeanPoint",
    "ZeroEnergy",
    "fidelity_overlap",
    "mean_y_point",
    "mean_y_series",
    "survival",
]
