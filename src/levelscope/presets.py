"""Model presets from plain-text key/value config files.

File schema (one `key = value` per line, `#` comments, blank lines ignored):

    model = <name>                   # a key of spectra.MODELS
    units = natural | ev_angstrom_amu
    <field> = <number>               # one line per field of the model

The fields are the model class's _fields, every one required; the key
`lambda` stands for the quartic's `lam`. charge_number must be integral
(2 and 2.0 load, 1.5 does not). Keys are case-insensitive and may not repeat.

Units: the library computes with hbar = 1. `natural` means the file values
already form a coherent hbar = 1 system and are used as-is. `ev_angstrom_amu`
declares energies in eV, lengths in Angstrom and masses in amu; the loader
keeps eV as the energy unit and Angstrom as the length unit and rescales
masses so that hbar = 1 holds (the implied time unit is hbar/eV, and y values
come out in units of hbar as everywhere else).
"""

from __future__ import annotations

import math
from importlib import resources
from pathlib import Path

from . import spectra

__all__ = ["builtin_preset_names", "load_model", "resolve_preset"]

# CODATA 2018 values.
_HBAR_SI = 1.054571817e-34  # J s
_EV_SI = 1.602176634e-19  # J
_ANGSTROM_SI = 1e-10  # m
_AMU_SI = 1.66053906892e-27  # kg

# Mass unit of the (eV, Angstrom, hbar=1) system, in kg.
_MASS_UNIT_SI = _HBAR_SI**2 / (_EV_SI * _ANGSTROM_SI**2)
_AMU_TO_INTERNAL = _AMU_SI / _MASS_UNIT_SI

# Keys that carry a mass and need rescaling under ev_angstrom_amu.
_MASS_KEYS = {"mass", "reduced_mass"}


def builtin_preset_names() -> tuple[str, ...]:
    files = resources.files("levelscope.data")
    return tuple(sorted(p.name[: -len(".cfg")] for p in files.iterdir() if p.name.endswith(".cfg")))


def resolve_preset(name_or_path: str) -> str:
    """Return the config text for a bundled preset name or a file path.

    A name ending in .cfg or with a directory part is always a path: only a
    bare name that is no file is looked up among the bundled presets.
    Every refusal is a ValueError naming the preset: one that also lists
    the bundled presets when there is no such file or bundled preset, and
    one that gives the reason when the preset exists but is no readable
    UTF-8 text (a directory, an unreadable file, undecodable bytes).
    """
    path = Path(name_or_path)
    try:
        if path.suffix != ".cfg" and path.name == name_or_path and not path.exists():
            path = resources.files("levelscope.data") / f"{name_or_path}.cfg"
        return path.read_text(encoding="utf-8")
    except FileNotFoundError:
        raise ValueError(
            f"no preset file {name_or_path!r} and no bundled preset of that name "
            f"(bundled: {', '.join(builtin_preset_names())})"
        ) from None
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read preset {name_or_path!r}: {exc}") from None


def _parse(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key or not value:
            raise ValueError(f"line {lineno}: empty key or value in {raw!r}")
        if key.lower() in entries:
            raise ValueError(f"line {lineno}: duplicate key {key!r}")
        entries[key.lower()] = value
    return entries


def load_model(name_or_path: str) -> spectra.ModelParams:
    """Load a ModelParams instance from a preset name or config file path."""
    entries = _parse(resolve_preset(name_or_path))
    try:
        model_name = entries.pop("model").lower()
    except KeyError:
        raise ValueError("config is missing the 'model' key") from None
    units = entries.pop("units", "natural").lower()
    if units not in ("natural", "ev_angstrom_amu"):
        raise ValueError(f"unknown unit system {units!r}")
    cls = spectra.MODELS.get(model_name)
    if cls is None:
        raise ValueError(f"unknown model {model_name!r} (expected one of {sorted(spectra.MODELS)})")

    # The keys are the model's fields, in constructor order; `lambda` is lam.
    keys = ["lambda" if field == "lam" else field for field in cls._fields]
    missing = [k for k in keys if k not in entries]
    if missing:
        raise ValueError(f"{model_name} config is missing {missing}")
    extra = [k for k in entries if k not in keys]
    if extra:
        raise ValueError(f"{model_name} config has unknown keys {extra}")

    values: list[float] = []
    for key in keys:
        raw = entries[key]
        value = float(raw)
        if not math.isfinite(value):
            raise ValueError(f"parameter {key!r} is not finite: {raw!r}")
        if units == "ev_angstrom_amu" and key in _MASS_KEYS:
            value *= _AMU_TO_INTERNAL
        # An integral charge_number is passed as an int; any other value
        # reaches Hydrogenoid, which rejects it.
        if key == "charge_number" and value.is_integer():
            value = int(value)
        values.append(value)
    return cls(*values)
