"""The closed-system commands: `criterion`, one level's y(n) verdict, and
`scan`, the criterion table over a range of n with its threshold footer.

The dispatcher (levelscope.cli) imports this module only to run one of
these commands or to build the full parser. spectra loads inside each
command, presets only for --preset, and the file writers only in `scan`.
"""

from __future__ import annotations

from argparse import ArgumentParser, Namespace
from pathlib import Path

from .numerics import fmt

# Type checkers read this TYPE_CHECKING as typing's; defining it here keeps
# typing unloaded.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .spectra import ModelParams


# The model flags: dest -> (flag, type, default, help). Each sets the model
# field of its dest, and --mass the hydrogenoid's reduced_mass. Declared with
# no default, so model_from_args tells a flag given from one left out.
_MODEL_FLAGS = {
    "mass": ("--mass", float, 1.0, "mass (or reduced mass)"),
    "width": ("--width", float, 1.0, "box width"),
    "omega": ("--omega", float, 1.0, None),
    "lam": ("--lambda", float, 1.0, "quartic nonlinearity"),
    "charge_number": ("--charge-number", int, 1, None),
    "charge": ("--charge", float, 1.0, None),
}


def add_arguments(command: str, sub: ArgumentParser) -> None:
    """Declare the flags of command, `criterion` or `scan`, on its subparser."""
    sub.add_argument("--model", choices=("harmonic", "box", "hydrogenoid", "morse", "quartic"))
    sub.add_argument("--preset", help="bundled preset name (e.g. h2_morse) or config file path")
    for dest, (flag, kind, _, help_text) in _MODEL_FLAGS.items():
        sub.add_argument(flag, dest=dest, type=kind, help=help_text)
    if command == "criterion":
        sub.add_argument("--n", type=int, required=True)
        sub.add_argument("--format", choices=("table", "json"), default="table")
        sub.set_defaults(func=_cmd_criterion)
    else:
        sub.add_argument("--n-min", type=int, default=2)
        sub.add_argument("--n-max", type=int, default=None,
                         help="defaults to the model's level ceiling, when it has one")
        sub.add_argument("--out", required=True)
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
        sub.set_defaults(func=_cmd_scan)


def model_from_args(args: Namespace) -> ModelParams:
    """The model of --preset, or of --model and its flags. A model flag the
    model would not read raises ValueError naming it."""
    given = [flag for dest, (flag, *_) in _MODEL_FLAGS.items() if getattr(args, dest) is not None]
    if args.preset:
        if args.model or given:
            raise ValueError(f"{'--model' if args.model else given[0]} does not apply with "
                             f"--preset, which sets the model and each of its fields")
        from . import presets

        return presets.load_model(args.preset)
    if not args.model:
        raise ValueError("one of --model or --preset is required")
    if args.model == "morse":
        raise ValueError("morse runs from a preset file: use --preset h2_morse or a path")
    from . import spectra

    cls = spectra.MODELS[args.model]
    dests = ["mass" if f == "reduced_mass" else f for f in cls._fields]
    reads = [_MODEL_FLAGS[dest][0] for dest in dests]
    if stray := [flag for flag in given if flag not in reads]:
        raise ValueError(f"{stray[0]} does not apply to --model {args.model}, "
                         f"which reads {', '.join(reads)}")
    values = [getattr(args, dest) for dest in dests]
    return cls(*[_MODEL_FLAGS[d][2] if v is None else v for d, v in zip(dests, values)])


def _cmd_criterion(args: Namespace) -> int:
    from . import spectra

    model = model_from_args(args)
    try:
        point = spectra.criterion_point(model, args.n)
    except spectra.DegeneratePeriod as exc:
        # A real verdict, just not a number: report it and exit 2, as for
        # bad arguments, so scripts cannot mistake it for a y value.
        print(f"n={args.n}: verdict: period-blind ({exc})")
        return 2
    verdict = "resolvable" if point.resolvable else "unresolvable"
    if args.format == "json":
        import json

        record = {
            "n": point.n,
            "energy": point.energy,
            "tau": point.tau,
            "d_energy": point.d_energy,
            "d_tau": point.d_tau,
            "y_over_hbar": point.y,
            "verdict": verdict,
        }
        print(json.dumps(record, indent=2, sort_keys=True))
    else:
        print(f"model      : {type(model).__name__}")
        print(f"n          : {point.n}")
        print(f"E_n        : {fmt(point.energy)}")
        print(f"tau_n      : {fmt(point.tau)}")
        print(f"dE         : {fmt(point.d_energy)}")
        print(f"dTau       : {fmt(point.d_tau)}")
        print(f"y / hbar   : {fmt(point.y)}")
        print(f"verdict    : {verdict} (threshold 1/2)")
    return 0


def _cmd_scan(args: Namespace) -> int:
    from . import spectra
    from .cli_files import build_manifest, write_table

    model = model_from_args(args)
    n_max = args.n_max
    top = spectra.max_index(model)
    if n_max is None:
        if top is None:
            raise ValueError("--n-max is required for models without a level ceiling")
        n_max = top
    result = spectra.threshold_scan(model, args.n_min, n_max)
    # A CriterionPoint is the tuple of its fields, in the column order below.
    rows = result.points
    footer = [
        f"first_unresolvable = {result.first_unresolvable}",
        f"note: {result.note}",
    ]
    # The model as built, one entry per field, whether flags or a preset gave it.
    params = {f.replace("_", "-"): str(getattr(model, f)) for f in model._fields}
    params["model"] = type(model).__name__.lower()
    params["resolved-n-max"] = str(n_max)
    manifest = build_manifest(args, "scan", params, ("preset", "n_min", "n_max"))
    write_table(
        Path(args.out),
        manifest,
        ("n", "energy", "tau", "d_energy", "d_tau", "y_over_hbar", "resolvable"),
        rows,
        footer_comments=footer,
        fmt=args.format,
        unit_note="hbar = 1; energies and times in the model's own units; y in hbar",
    )
    print(f"wrote {args.out} ({len(rows)} rows); {footer[0]}")
    return 0
