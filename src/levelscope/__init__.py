"""levelscope: how far classical measurements can see into a discrete spectrum.

The closed-system half catalogs integrable models and evaluates the
resolvability criterion y(n) = |dE_n * dTau_n| against the hbar/2 bound;
the open-system half evolves quartic-oscillator Fock states under a
diffusive bath and tracks how the environment erodes that resolvability.
"""

__version__ = "0.1.0"

import importlib

from .numerics import MismatchedConfig, NonConvergent, ZeroEnergy

# Every other name loads its submodule on first use (PEP 562), so that
# `import levelscope` loads only numerics: the closed-system half (spectra,
# presets) and the scalar open-system half (diffusive) are pure Python, and
# only open_system, whole level distributions as arrays, needs numpy.
_LAZY = {
    **dict.fromkeys(("Box", "CriterionPoint", "DegeneratePeriod", "Harmonic", "Hydrogenoid",
                     "IndexOutOfSpectrum", "ModelParams", "Morse", "NotNormalized", "Quartic",
                     "ScanResult", "SuperpositionSpec", "criterion_point", "energy",
                     "harmonic_dpdq", "max_index", "min_index", "period", "quartic_limits",
                     "superposition_delta_e", "threshold_scan"), "spectra"),
    **dict.fromkeys(("builtin_preset_names", "load_model"), "presets"),
    **dict.fromkeys(("DiffusiveConfig", "YMeanPoint", "fidelity_overlap", "fock_weight",
                     "log_points", "mean_y_point", "mean_y_series", "survival"), "diffusive"),
    **dict.fromkeys(("FockDistribution", "distribution"), "open_system"),
}


def __getattr__(name: str) -> object:
    try:
        module = _LAZY[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_LAZY))


# The eagerly imported numerics names, then every lazy one.
__all__ = ["__version__", "MismatchedConfig", "NonConvergent", "ZeroEnergy", *_LAZY]
