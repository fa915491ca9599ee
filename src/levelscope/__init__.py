"""levelscope: how far classical measurements can see into a discrete spectrum.

The closed-system half catalogs integrable models and evaluates the
resolvability criterion y(n) = |dE_n * dTau_n| against the hbar/2 bound;
the open-system half evolves quartic-oscillator Fock states under a
diffusive bath and tracks how the environment erodes that resolvability.
"""

__version__ = "0.1.0"

from .numerics import DEFAULT_TOLERANCE, NonConvergent, SeriesTolerance, log_factorial
from .observables import (
    MismatchedConfig,
    TimeSeries,
    YMeanPoint,
    ZeroEnergy,
    fidelity_overlap,
    log_grid,
    mean_h0,
    mean_n,
    mean_tau,
    mean_y_point,
    mean_y_series,
    survival,
)
from .open_system import DiffusiveConfig, FockDistribution, distribution, fock_weight
from .presets import builtin_preset_names, load_model
from .spectra import (
    Box,
    CriterionPoint,
    DegeneratePeriod,
    Harmonic,
    Hydrogenoid,
    IndexOutOfSpectrum,
    ModelParams,
    Morse,
    NotNormalized,
    Quartic,
    ScanResult,
    SuperpositionSpec,
    criterion_point,
    energy,
    harmonic_dpdq,
    max_index,
    min_index,
    period,
    quartic_limits,
    superposition_delta_e,
    threshold_scan,
)

__all__ = [
    "__version__",
    # numerics
    "DEFAULT_TOLERANCE",
    "NonConvergent",
    "SeriesTolerance",
    "log_factorial",
    # spectra
    "Box",
    "CriterionPoint",
    "DegeneratePeriod",
    "Harmonic",
    "Hydrogenoid",
    "IndexOutOfSpectrum",
    "ModelParams",
    "Morse",
    "NotNormalized",
    "Quartic",
    "ScanResult",
    "SuperpositionSpec",
    "criterion_point",
    "energy",
    "harmonic_dpdq",
    "max_index",
    "min_index",
    "period",
    "quartic_limits",
    "superposition_delta_e",
    "threshold_scan",
    # presets
    "builtin_preset_names",
    "load_model",
    # open system
    "DiffusiveConfig",
    "FockDistribution",
    "distribution",
    "fock_weight",
    # observables
    "MismatchedConfig",
    "TimeSeries",
    "YMeanPoint",
    "ZeroEnergy",
    "fidelity_overlap",
    "log_grid",
    "mean_h0",
    "mean_n",
    "mean_tau",
    "mean_y_point",
    "mean_y_series",
    "survival",
]
