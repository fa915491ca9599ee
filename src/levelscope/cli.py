"""Command-line front end.

Subcommands:
    criterion   one level's y(n) verdict for a closed-system model
    scan        criterion table over a range of n, with threshold footer
    evolve      Fock-level populations of the diffusive mixture over time
    fidelity    neighbor fidelity F(b, t) curves
    ymean       environment-averaged criterion <y(b)> curves
    figures     canned curve families (1: fidelity, 2: survival,
                3: <y(b)> at omega/lam = 0.10, 4: omega/lam = 10)

Data files are UTF-8 CSV with a `#`-prefixed manifest header (or a JSON
mirror of the same records via --format json); figure commands also emit a
minimal SVG. Identical flags produce byte-identical data files: floats use a
fixed format and the manifest timestamp honors SOURCE_DATE_EPOCH.

Exit codes: 0 success, 2 bad arguments or out-of-domain request,
3 numerical non-convergence, 4 I/O failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
from collections.abc import Iterable, Iterator, Sequence
from pathlib import Path

from . import __version__
from .numerics import MAX_TERMS, REL_EPS, NonConvergent, ZeroEnergy, check_rel_eps

# Each half loads inside the commands that use it: the closed-system modules
# in `criterion` and `scan` (presets only for --preset), the open-system ones
# in the rest, so numpy loads only where weight arrays are built (`evolve`).
# json loads only where --format json is written. Type checkers read this
# TYPE_CHECKING as typing's; defining it here keeps typing unloaded.
TYPE_CHECKING = False
if TYPE_CHECKING:
    from .spectra import ModelParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3
EXIT_IO = 4

_FLOAT_FMT = "%.12g"


def _manifest(args: argparse.Namespace, command: str, extra: dict[str, str] | None = None,
              keys: Sequence[str] = ("b", "kappa", "omega", "lam", "grid")) -> dict:
    """The provenance block of every data file: the JSON `manifest` object,
    which the CSV header renders as its `#` lines. Its parameters are extra
    and the flags named in keys that were given or have a default."""
    params: dict[str, str] = dict(extra or {})
    for key in keys:
        value = getattr(args, key, None)
        if value is not None:
            params[key.replace("_", "-")] = (
                ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            )
    # SOURCE_DATE_EPOCH pins the manifest for reproducible output.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    stamp = time.gmtime(int(epoch) if epoch else int(time.time()))
    return {
        "command": command,
        "parameters": dict(sorted(params.items())),
        "tool_version": __version__,
        "tolerances": {"rel_eps": getattr(args, "eps", REL_EPS), "max_terms": MAX_TERMS},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", stamp),
    }


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _csv_rows(rows: Sequence[Sequence[object]]) -> str:
    """The rows as CSV lines joined by newlines, each value formatted as
    _fmt formats it.

    Every column keeps the type of its first entry, so one %-format string,
    built from the first row and repeated per row, formats the whole table
    with one %; a bool column is swapped for its words by one slice
    assignment first.
    """
    if not rows:
        return ""
    first = rows[0]
    line = ",".join(_FLOAT_FMT if isinstance(v, float) else "%s" for v in first)
    width = len(first)
    values = [v for row in rows for v in row]
    for j, v in enumerate(first):
        if isinstance(v, bool):
            values[j::width] = ["true" if flag else "false" for flag in values[j::width]]
    return "\n".join([line] * len(rows)) % tuple(values)


def _csv_blocks(blocks: Iterable[tuple[tuple, list[int], list[float]]]) -> Iterator[str]:
    """The rows of each (shared columns, levels, weights) block as CSV lines
    joined by newlines, as _csv_rows would format them.

    One % formats a block: the shared columns are formatted once into its
    rows' format string, which is repeated per level and applied to the
    levels and weights interleaved. A block with no levels yields nothing.
    """
    for (kt, trace, n_cut, tail), levels, weights in blocks:
        if levels:
            line = (f"{_FLOAT_FMT % kt},%s,{_FLOAT_FMT},"
                    f"{_FLOAT_FMT % trace},{n_cut},{_FLOAT_FMT % tail}")
            values = [None] * (2 * len(levels))
            values[::2], values[1::2] = levels, weights
            yield "\n".join([line] * len(levels)) % tuple(values)


class WriteFailure(OSError):
    """Output file could not be written (maps to exit code 4)."""


def _write_text(path: Path, text: str) -> None:
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from exc


def _write_table(
    path: Path,
    manifest: dict,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    footer_comments: Sequence[str] = (),
    fmt: str = "csv",
    unit_note: str | None = None,
) -> None:
    if fmt == "json":
        import json

        payload = {
            "manifest": manifest,
            "units": unit_note,
            "columns": list(header),
            "rows": [[v for v in row] for row in rows],
            "footer": list(footer_comments),
        }
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    # One entry, so the rows go out in one write.
    body = [_csv_rows(rows)] if rows else []
    _write_csv(path, manifest, header, body, footer_comments, unit_note)


def _write_csv(
    path: Path,
    manifest: dict,
    header: Sequence[str],
    body: Iterable[str],
    footer_comments: Sequence[str] = (),
    unit_note: str | None = None,
) -> None:
    """Write a CSV table whose data rows are already formatted: each entry of
    body is one line or several joined by newlines. Entries are written as
    body yields them, so a generator streams the table."""
    params = " ".join(f"{k}={v}" for k, v in manifest["parameters"].items())
    tol = manifest["tolerances"]
    head = [
        f"# levelscope {manifest['command']} v{manifest['tool_version']}",
        f"# generated: {manifest['timestamp']}",
        f"# parameters: {params}",
        f"# tolerances: rel_eps={tol['rel_eps']:g} max_terms={tol['max_terms']}",
    ]
    if unit_note:
        head.append(f"# units: {unit_note}")
    head.append(",".join(header))
    try:
        with open(path, "w", encoding="utf-8") as out:
            out.write("\n".join(head) + "\n")
            for entry in body:
                out.write(entry + "\n")
            out.writelines(f"# {comment}\n" for comment in footer_comments)
    except OSError as exc:
        raise WriteFailure(f"cannot write {path}: {exc}") from exc


def _kt_grid(args: argparse.Namespace) -> list[float]:
    """The --grid kappa*t values, or the default figure grid."""
    from .diffusive import log_points

    spec = args.grid
    if not spec:
        return log_points()
    try:
        kind, start, stop, points = spec.split(":")
        if kind != "log":
            raise ValueError
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise SystemExit2(f"grid must look like log:START:STOP:POINTS, got {spec!r}") from None
    return log_points(start, stop, points)


def _times(kappa: float, grid: Sequence[float]) -> list[float]:
    """The time t = kt / kappa of each grid point; a kappa so small that one
    of them overflows exits 2 rather than asking for t = inf."""
    times = [kt / kappa for kt in grid]
    for kt, t in zip(grid, times):
        if t == math.inf:
            raise SystemExit2(f"--kappa {kappa} is too small for the grid: "
                              f"t = kt / kappa overflows at kappa*t = {kt:g}")
    return times


def _parse_b_list(spec: str) -> tuple[int, ...]:
    try:
        values = tuple(int(tok) for tok in spec.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {spec!r}") from None
    if not values or any(v < 0 for v in values):
        raise argparse.ArgumentTypeError(f"b list must be non-negative integers, got {spec!r}")
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError(f"b list repeats an index, got {spec!r}")
    return values


def _model_from_args(args: argparse.Namespace) -> ModelParams:
    if args.preset:
        from . import presets

        return presets.load_model(args.preset)
    if not args.model:
        raise SystemExit2("one of --model or --preset is required")
    if args.model == "morse":
        raise SystemExit2("morse runs from a preset file: use --preset h2_morse or a path")
    from . import spectra

    # One flag per field; --mass is also the hydrogenoid's reduced_mass.
    cls = spectra.MODELS[args.model]
    return cls(*[getattr(args, "mass" if f == "reduced_mass" else f) for f in cls._fields])


class SystemExit2(Exception):
    """Usage-level error: message on stderr, exit code 2."""


# ---------------------------------------------------------------------------
# subcommands


def _cmd_criterion(args: argparse.Namespace) -> int:
    from . import spectra

    model = _model_from_args(args)
    try:
        point = spectra.criterion_point(model, args.n)
    except spectra.DegeneratePeriod as exc:
        # A real verdict, just not a number: report it and exit non-zero so
        # scripts cannot mistake it for a y value.
        print(f"n={args.n}: verdict: period-blind ({exc})")
        return EXIT_USAGE
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
        print(f"E_n        : {_fmt(point.energy)}")
        print(f"tau_n      : {_fmt(point.tau)}")
        print(f"dE         : {_fmt(point.d_energy)}")
        print(f"dTau       : {_fmt(point.d_tau)}")
        print(f"y / hbar   : {_fmt(point.y)}")
        print(f"verdict    : {verdict} (threshold 1/2)")
    return EXIT_OK


def _cmd_scan(args: argparse.Namespace) -> int:
    from . import spectra

    model = _model_from_args(args)
    n_max = args.n_max
    top = spectra.max_index(model)
    if n_max is None:
        if top is None:
            raise SystemExit2("--n-max is required for models without a level ceiling")
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
    manifest = _manifest(args, "scan", params, ("preset", "n_min", "n_max"))
    _write_table(
        Path(args.out),
        manifest,
        ("n", "energy", "tau", "d_energy", "d_tau", "y_over_hbar", "resolvable"),
        rows,
        footer_comments=footer,
        fmt=args.format,
        unit_note="hbar = 1; energies and times in the model's own units; y in hbar",
    )
    print(f"wrote {args.out} ({len(rows)} rows); {footer[0]}")
    return EXIT_OK


def _cmd_evolve(args: argparse.Namespace) -> int:
    # A chained comparison with inf also rejects NaN.
    if not 0.0 <= args.weight_floor < math.inf:
        raise SystemExit2(
            f"--weight-floor must be finite and non-negative, got {args.weight_floor}"
        )
    check_rel_eps(args.eps)
    from .open_system import DiffusiveConfig, distributions

    cfg = DiffusiveConfig(b=args.b, kappa=args.kappa, omega=args.omega, lam=args.lam)
    grid = _kt_grid(args)
    # Every distribution exists before the file is opened, so a
    # non-convergent cut (exit 3) leaves no partial file.
    dists = distributions(cfg, _times(cfg.kappa, grid), args.eps)
    counts = []

    def blocks():
        # One block per grid point, built when it is written: the columns
        # shared by its rows, the kept levels and their weights.
        for kt, dist in zip(grid, dists):
            levels = (dist.weights >= args.weight_floor).nonzero()[0]
            counts.append(len(levels))
            shared = (kt, dist.trace(), dist.n_cut, dist.tail_bound)
            yield shared, levels.tolist(), dist.weights[levels].tolist()

    manifest = _manifest(args, "evolve", {"weight-floor": _fmt(args.weight_floor)})
    header = ("kt", "n", "weight", "trace", "n_cut", "tail_bound")
    footer = (f"rows with weight < {_fmt(args.weight_floor)} omitted",)
    unit_note = "kt = kappa*t (dimensionless); weights are probabilities"
    if args.format == "json":
        rows = [(kt, n, w, trace, n_cut, tail)
                for (kt, trace, n_cut, tail), levels, weights in blocks()
                for n, w in zip(levels, weights)]
        _write_table(Path(args.out), manifest, header, rows, footer, "json", unit_note)
    else:
        _write_csv(Path(args.out), manifest, header, _csv_blocks(blocks()), footer, unit_note)
    print(f"wrote {args.out} ({sum(counts)} rows)")
    return EXIT_OK


# which -> (curve, y label, hline, default b set, omega, lam)
_FIGURES = {
    1: ("fidelity", "F(b,t)", None, (1, 5, 10, 15), 0.0, 0.0),
    2: ("survival", "P_b(b,t)", None, (1, 5, 10, 15), 0.0, 0.0),
    3: ("ymean", "<y(b)> / hbar", 0.5, (2, 5, 10, 15), 0.10, 1.0),
    4: ("ymean", "<y(b)> / hbar", 0.5, (2, 5, 10, 15), 10.0, 1.0),
}

# The curve outputs, keyed by the command as the manifest names it:
# command -> (curve, columns of one b, unit note, plot title, y label, hline,
# manifest extras). Per grid point a curve is a tuple of data columns whose
# first entry is plotted; a file keeps as many of them as its columns name.
_OUTPUTS = {
    "fidelity": ("fidelity", ("F_b{b}",), "kt = kappa*t; F(b,t) = Tr[rho(t,b) rho(t,b-1)]",
                 "F over kappa*t", "F", None, {}),
    "ymean": ("ymean", ("y_mean_b{b}", "d_energy_b{b}", "d_tau_b{b}"),
              "kt = kappa*t; y_mean = |d_energy * d_tau| in units of hbar "
              "(threshold 1/2); d_energy, d_tau keep their signs",
              "<y(b)> over kappa*t", "<y(b)> / hbar", 0.5, {"moments": "closed-form"}),
    **{
        f"figures {which}": (
            curve, ("b{b}",), f"kt = kappa*t; column per initial index b; values: {y_label}",
            f"figure {which}: {y_label}", y_label, hline,
            # <y(b)> uses exact moments: no truncation certificate applies.
            {"which": str(which), "omega-over-lam": _fmt(omega / lam), "moments": "closed-form"}
            if curve == "ymean" else {"which": str(which)},
        )
        for which, (curve, y_label, hline, _, omega, lam) in _FIGURES.items()
    },
}


def _cmd_curves(args: argparse.Namespace) -> int:
    """fidelity, ymean and figures 1-4: per initial index b one curve along
    the kappa*t grid, written as one data file and plotted as one SVG, as
    the command's _OUTPUTS entry describes them.

    A b below 1 for a curve that compares b with b-1 exits 2 first. Each
    plotted curve passes diffusive.check_curve (strictly increasing grid,
    finite values) before anything is written.
    """
    if args.command == "figures":
        command = f"figures {args.which}"
        _, _, _, default_b, omega, lam = _FIGURES[args.which]
        b_values = default_b if args.b is None else args.b
    else:
        command, omega, lam, b_values = args.command, args.omega, args.lam, args.b
    curve, columns, unit_note, title, y_label, hline, extra = _OUTPUTS[command]
    if curve == "fidelity" and min(b_values) < 1:
        raise SystemExit2("fidelity needs b >= 1 (compares |b> with |b-1>)")
    if curve == "ymean" and min(b_values) < 1:
        raise SystemExit2("ymean needs b >= 1")
    from .diffusive import DiffusiveConfig, check_curve, fidelity_overlap, mean_y_series, survival

    grid = _kt_grid(args)
    cfgs = [DiffusiveConfig(b=b, kappa=args.kappa, omega=omega, lam=lam) for b in b_values]
    times = _times(args.kappa, grid)
    curves = []
    for cfg in cfgs:
        if curve == "fidelity":
            lower = DiffusiveConfig(b=cfg.b - 1, kappa=cfg.kappa, omega=omega, lam=lam)
            points = [(fidelity_overlap(cfg, lower, t),) for t in times]
        elif curve == "survival":
            points = [(survival(cfg, t),) for t in times]
        else:
            # signed ingredients ride along so the sign of d_tau stays visible;
            # the series takes t = kt / kappa, the same times as above
            points = [(p.y_mean, p.d_energy, p.d_tau) for p in mean_y_series(cfg, grid)]
        check_curve(grid, [p[0] for p in points])
        curves.append(points)

    width = len(columns)
    rows = [(kt, *(v for points in curves for v in points[i][:width]))
            for i, kt in enumerate(grid)]
    header = ["kt"] + [column.format(b=b) for b in b_values for column in columns]
    manifest = _manifest(args, command, {**extra, "b-set": ",".join(map(str, b_values))})
    if args.command == "figures":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        data_path = out_dir / f"figure{args.which}.{args.format}"
        svg_path = out_dir / f"figure{args.which}.svg"
        done = f"wrote {data_path} and {svg_path}"
    else:
        data_path, svg_path = Path(args.out), args.svg and Path(args.svg)
        done = f"wrote {args.out} ({len(rows)} rows)"
    _write_table(data_path, manifest, header, rows, fmt=args.format, unit_note=unit_note)
    if svg_path:
        from .svgplot import line_plot

        plotted = [(f"b={b}", grid, [p[0] for p in points]) for b, points in zip(b_values, curves)]
        svg = line_plot(plotted, title=title, x_label="kappa t", y_label=y_label, hline=hline)
        _write_text(svg_path, svg)
    print(done)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def _add_model_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--model", choices=("harmonic", "box", "hydrogenoid", "morse", "quartic"))
    sub.add_argument("--preset", help="bundled preset name (e.g. h2_morse) or config file path")
    sub.add_argument("--mass", type=float, default=1.0, help="mass (or reduced mass)")
    sub.add_argument("--width", type=float, default=1.0, help="box width")
    sub.add_argument("--omega", type=float, default=1.0)
    sub.add_argument("--lambda", dest="lam", type=float, default=1.0, help="quartic nonlinearity")
    sub.add_argument("--charge-number", type=int, default=1)
    sub.add_argument("--charge", type=float, default=1.0)


def _add_open_flags(sub: argparse.ArgumentParser, omega_lam: bool = True) -> None:
    sub.add_argument("--kappa", type=float, default=1.0, help="diffusion rate (times are kappa*t)")
    if omega_lam:
        sub.add_argument("--omega", type=float, default=1.0)
        sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
    sub.add_argument("--grid", default=None, metavar="log:START:STOP:POINTS",
                     help="kappa*t grid (default log:1e-3:1e2:200)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelscope",
        description="Classical measurability of discrete spectra and its decay under diffusion.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True)

    crit = commands.add_parser("criterion", help="y(n) verdict for one level")
    _add_model_flags(crit)
    crit.add_argument("--n", type=int, required=True)
    crit.add_argument("--format", choices=("table", "json"), default="table")
    crit.set_defaults(func=_cmd_criterion)

    scan = commands.add_parser("scan", help="criterion table over a range of n")
    _add_model_flags(scan)
    scan.add_argument("--n-min", type=int, default=2)
    scan.add_argument("--n-max", type=int, default=None,
                      help="defaults to the model's level ceiling, when it has one")
    scan.add_argument("--out", required=True)
    scan.add_argument("--format", choices=("csv", "json"), default="csv")
    scan.set_defaults(func=_cmd_scan)

    evolve = commands.add_parser("evolve", help="Fock populations over time")
    evolve.add_argument("--b", type=int, required=True)
    _add_open_flags(evolve)
    # The level cut is the one truncation: other commands take no --eps.
    evolve.add_argument("--eps", type=float, default=REL_EPS, help="relative series tolerance")
    evolve.add_argument("--weight-floor", type=float, default=1e-16,
                        help="omit rows with weight below this")
    evolve.add_argument("--out", required=True)
    evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    evolve.set_defaults(func=_cmd_evolve)

    for name, help_text, default_b in (("fidelity", "neighbor fidelity curves", (1, 5, 10, 15)),
                                       ("ymean", "<y(b)> curves", (2, 5, 10, 15))):
        curves = commands.add_parser(name, help=help_text)
        curves.add_argument("--b", type=_parse_b_list, default=default_b,
                            help="comma-separated initial indices")
        _add_open_flags(curves)
        curves.add_argument("--out", required=True)
        curves.add_argument("--svg", default=None, help="also write an SVG plot here")
        curves.add_argument("--format", choices=("csv", "json"), default="csv")
        curves.set_defaults(func=_cmd_curves)

    figs = commands.add_parser("figures", help="canned figure-analog data")
    figs.add_argument("which", type=int, choices=(1, 2, 3, 4))
    figs.add_argument("--b", type=_parse_b_list, default=None,
                      help="override the default b set")
    _add_open_flags(figs, omega_lam=False)
    figs.add_argument("--out", required=True, help="output directory")
    figs.add_argument("--format", choices=("csv", "json"), default="csv")
    figs.set_defaults(func=_cmd_curves)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ZeroEnergy, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NonConvergent as exc:
        print(f"error: non-convergent series: {exc}", file=sys.stderr)
        return EXIT_NONCONVERGENT
    except OSError as exc:
        print(f"error: I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
