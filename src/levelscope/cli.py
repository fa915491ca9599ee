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
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from . import __version__
from .numerics import NonConvergent, SeriesTolerance, ZeroEnergy

# Each half loads inside the commands that use it: the closed-system modules
# (spectra, presets) in `criterion` and `scan`, the open-system ones in the
# rest, so numpy loads only where the b-ladder runs (`evolve`). json loads
# only where --format json is written.
if TYPE_CHECKING:
    from .diffusive import DiffusiveConfig
    from .spectra import ModelParams

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_NONCONVERGENT = 3
EXIT_IO = 4

_FLOAT_FMT = "%.12g"


@dataclass(frozen=True)
class RunManifest:
    """Provenance block embedded in every emitted data file."""

    command: str
    parameters: dict[str, str]
    tool_version: str
    tolerances: SeriesTolerance
    timestamp: str

    def lines(self) -> list[str]:
        params = " ".join(f"{k}={v}" for k, v in sorted(self.parameters.items()))
        tol = self.tolerances
        return [
            f"levelscope {self.command} v{self.tool_version}",
            f"generated: {self.timestamp}",
            f"parameters: {params}",
            f"tolerances: rel_eps={tol.rel_eps:g} max_terms={tol.max_terms}",
        ]

    def as_dict(self) -> dict:
        return {
            "command": self.command,
            "parameters": dict(sorted(self.parameters.items())),
            "tool_version": self.tool_version,
            "tolerances": {
                "rel_eps": self.tolerances.rel_eps,
                "max_terms": self.tolerances.max_terms,
            },
            "timestamp": self.timestamp,
        }


def _timestamp() -> str:
    # SOURCE_DATE_EPOCH pins the manifest for reproducible output.
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def _manifest(args: argparse.Namespace, command: str, extra: dict[str, str] | None = None) -> RunManifest:
    params: dict[str, str] = dict(extra or {})
    for key in ("model", "preset", "n", "n_min", "n_max", "b", "kappa", "omega", "lam", "grid"):
        if hasattr(args, key) and getattr(args, key) is not None:
            value = getattr(args, key)
            params[key.replace("_", "-")] = (
                ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
            )
    return RunManifest(
        command=command,
        parameters=params,
        tool_version=__version__,
        tolerances=_tolerance(args),
        timestamp=_timestamp(),
    )


def _fmt(value: object) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def _csv_rows(rows: Sequence[Sequence[object]]) -> list[str]:
    """The rows as CSV lines, formatted as _fmt formats each value.

    Every column keeps the type of its first entry, so one %-format string,
    built from the first row, formats each whole row.
    """
    if not rows:
        return []
    line = ",".join(_FLOAT_FMT if isinstance(v, float) else "%s" for v in rows[0])
    flags = [isinstance(v, bool) for v in rows[0]]
    if any(flags):
        rows = [
            tuple(("true" if v else "false") if flag else v for flag, v in zip(flags, row))
            for row in rows
        ]
    return [line % tuple(row) for row in rows]


def _csv_blocks(blocks: Iterable[tuple[tuple, list[int], list[float]]]) -> Iterator[str]:
    """The rows of each (shared columns, levels, weights) block as CSV lines
    joined by newlines, formatted as _csv_rows would format them.

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
    manifest: RunManifest,
    header: Sequence[str],
    rows: Sequence[Sequence[object]],
    footer_comments: Sequence[str] = (),
    fmt: str = "csv",
    unit_note: str | None = None,
) -> None:
    if fmt == "json":
        import json

        payload = {
            "manifest": manifest.as_dict(),
            "units": unit_note,
            "columns": list(header),
            "rows": [[v for v in row] for row in rows],
            "footer": list(footer_comments),
        }
        _write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")
        return
    # One entry, so the rows go out in one write.
    body = ["\n".join(_csv_rows(rows))] if rows else []
    _write_csv(path, manifest, header, body, footer_comments, unit_note)


def _write_csv(
    path: Path,
    manifest: RunManifest,
    header: Sequence[str],
    body: Iterable[str],
    footer_comments: Sequence[str] = (),
    unit_note: str | None = None,
) -> None:
    """Write a CSV table whose data rows are already formatted: each entry of
    body is one line or several joined by newlines. Entries are written as
    body yields them, so a generator streams the table."""
    head = [f"# {line}" for line in manifest.lines()]
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


def _tolerance(args: argparse.Namespace) -> SeriesTolerance:
    eps = getattr(args, "eps", None)
    return SeriesTolerance(rel_eps=eps) if eps is not None else SeriesTolerance()


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
    from . import presets, spectra

    if args.preset:
        return presets.load_model(args.preset)
    if not args.model:
        raise SystemExit2("one of --model or --preset is required")
    name = args.model.lower()
    if name == "harmonic":
        return spectra.Harmonic(mass=args.mass, omega=args.omega)
    if name == "box":
        return spectra.Box(mass=args.mass, width=args.width)
    if name == "hydrogenoid":
        return spectra.Hydrogenoid(
            reduced_mass=args.mass, charge_number=args.charge_number, charge=args.charge
        )
    if name == "quartic":
        return spectra.Quartic(omega=args.omega, lam=args.lam)
    if name == "morse":
        raise SystemExit2("morse runs from a preset file: use --preset h2_morse or a path")
    raise SystemExit2(f"unknown model {args.model!r}")


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
    rows = [
        (p.n, p.energy, p.tau, p.d_energy, p.d_tau, p.y, p.resolvable)
        for p in result.points
    ]
    footer = [
        f"first_unresolvable = {result.first_unresolvable}",
        f"note: {result.note}",
    ]
    manifest = _manifest(args, "scan", {"resolved-n-max": str(n_max)})
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
    from .open_system import DiffusiveConfig, distributions

    cfg = DiffusiveConfig(
        b=args.b, kappa=args.kappa, omega=args.omega, lam=args.lam, tol=_tolerance(args)
    )
    grid = _kt_grid(args)
    # Every distribution exists before the file is opened, so a
    # non-convergent cut (exit 3) leaves no partial file.
    dists = distributions(cfg, _times(cfg.kappa, grid))
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


# Curve values at one (cfg, t): each maker imports what its curve needs, once
# per command, and returns the function of (cfg, t) that gives a tuple of data
# columns whose first entry is the plotted curve.
_Value = Callable[["DiffusiveConfig", float], tuple[float, ...]]


def _fidelity() -> _Value:
    from .diffusive import fidelity_overlap

    def value(cfg: DiffusiveConfig, t: float) -> tuple[float]:
        return (fidelity_overlap(cfg, replace(cfg, b=cfg.b - 1), t),)

    return value


def _survival() -> _Value:
    from .diffusive import survival

    def value(cfg: DiffusiveConfig, t: float) -> tuple[float]:
        return (survival(cfg, t),)

    return value


def _ymean() -> _Value:
    from .diffusive import mean_y_point

    def value(cfg: DiffusiveConfig, t: float) -> tuple[float, float, float]:
        point = mean_y_point(cfg, t)
        # signed ingredients ride along so the sign of d_tau stays visible
        return point.y_mean, point.d_energy, point.d_tau

    return value


# Curve values that compare b with b-1, with the message for a b below 1.
_NEEDS_B1 = {
    _fidelity: "fidelity needs b >= 1 (compares |b> with |b-1>)",
    _ymean: "ymean needs b >= 1",
}


def _curves(
    args: argparse.Namespace,
    b_values: Sequence[int],
    curve: Callable[[], _Value],
    omega: float,
    lam: float,
) -> tuple[list[float], list[list[tuple[float, ...]]]]:
    """The kappa*t grid and, per initial index b, the curve's values along it.

    A b below 1 for a curve that compares b with b-1 exits 2 first. Each
    plotted curve passes diffusive.check_curve (strictly increasing grid,
    finite values) before anything is written.
    """
    if curve in _NEEDS_B1 and any(b < 1 for b in b_values):
        raise SystemExit2(_NEEDS_B1[curve])
    from .diffusive import DiffusiveConfig, check_curve

    value = curve()
    grid = _kt_grid(args)
    cfgs = [DiffusiveConfig(b=b, kappa=args.kappa, omega=omega, lam=lam) for b in b_values]
    times = _times(args.kappa, grid)
    curves = []
    for cfg in cfgs:
        points = [value(cfg, t) for t in times]
        check_curve(grid, [p[0] for p in points])
        curves.append(points)
    return grid, curves


def _rows(grid: list[float], curves: list[list[tuple[float, ...]]], width: int) -> list[tuple]:
    """One row per grid point: kt, then the first `width` columns of each curve."""
    return [
        (kt, *(v for points in curves for v in points[i][:width]))
        for i, kt in enumerate(grid)
    ]


def _plot(
    path: Path,
    grid: list[float],
    b_values: Sequence[int],
    curves: list[list[tuple[float, ...]]],
    title: str,
    y_label: str,
    hline: float | None,
) -> None:
    from .svgplot import line_plot

    svg = line_plot(
        [(f"b={b}", grid, [p[0] for p in points]) for b, points in zip(b_values, curves)],
        title=title,
        x_label="kappa t",
        y_label=y_label,
        hline=hline,
    )
    _write_text(path, svg)


def _cmd_fidelity(args: argparse.Namespace) -> int:
    grid, curves = _curves(args, args.b, _fidelity, args.omega, args.lam)
    rows = _rows(grid, curves, 1)
    manifest = _manifest(args, "fidelity", {"b-set": ",".join(map(str, args.b))})
    _write_table(
        Path(args.out), manifest, ["kt"] + [f"F_b{b}" for b in args.b], rows, fmt=args.format,
        unit_note="kt = kappa*t; F(b,t) = Tr[rho(t,b) rho(t,b-1)]",
    )
    if args.svg:
        _plot(Path(args.svg), grid, args.b, curves, "F over kappa*t", "F", None)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


def _cmd_ymean(args: argparse.Namespace) -> int:
    grid, curves = _curves(args, args.b, _ymean, args.omega, args.lam)
    rows = _rows(grid, curves, 3)
    header = ["kt"]
    for b in args.b:
        header += [f"y_mean_b{b}", f"d_energy_b{b}", f"d_tau_b{b}"]
    manifest = _manifest(
        args, "ymean", {"b-set": ",".join(map(str, args.b)), "moments": "closed-form"}
    )
    _write_table(
        Path(args.out), manifest, header, rows, fmt=args.format,
        unit_note="kt = kappa*t; y_mean = |d_energy * d_tau| in units of hbar "
        "(threshold 1/2); d_energy, d_tau keep their signs",
    )
    if args.svg:
        _plot(Path(args.svg), grid, args.b, curves, "<y(b)> over kappa*t", "<y(b)> / hbar", 0.5)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return EXIT_OK


# which -> (value, y label, hline, default b set, omega, lam)
_FIGURES = {
    1: (_fidelity, "F(b,t)", None, (1, 5, 10, 15), 0.0, 0.0),
    2: (_survival, "P_b(b,t)", None, (1, 5, 10, 15), 0.0, 0.0),
    3: (_ymean, "<y(b)> / hbar", 0.5, (2, 5, 10, 15), 0.10, 1.0),
    4: (_ymean, "<y(b)> / hbar", 0.5, (2, 5, 10, 15), 10.0, 1.0),
}


def _cmd_figures(args: argparse.Namespace) -> int:
    value, y_label, hline, default_b, omega, lam = _FIGURES[args.which]
    b_values = args.b if args.b is not None else default_b
    grid, curves = _curves(args, b_values, value, omega, lam)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    extra = {"which": str(args.which), "b-set": ",".join(map(str, b_values))}
    if value is _ymean:
        extra["omega-over-lam"] = _fmt(omega / lam)
        # <y(b)> uses exact moments: no truncation certificate applies.
        extra["moments"] = "closed-form"
    manifest = _manifest(args, f"figures {args.which}", extra)
    data_path = out_dir / f"figure{args.which}.{'json' if args.format == 'json' else 'csv'}"
    _write_table(
        data_path, manifest, ["kt"] + [f"b{b}" for b in b_values], _rows(grid, curves, 1),
        fmt=args.format,
        unit_note=f"kt = kappa*t; column per initial index b; values: {y_label}",
    )
    svg_path = out_dir / f"figure{args.which}.svg"
    _plot(svg_path, grid, b_values, curves, f"figure {args.which}: {y_label}", y_label, hline)
    print(f"wrote {data_path} and {svg_path}")
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
    # The ladder is the one truncated series: other commands take no --eps.
    evolve.add_argument("--eps", type=float, default=None, help="relative series tolerance")
    evolve.add_argument("--weight-floor", type=float, default=1e-16,
                        help="omit rows with weight below this")
    evolve.add_argument("--out", required=True)
    evolve.add_argument("--format", choices=("csv", "json"), default="csv")
    evolve.set_defaults(func=_cmd_evolve)

    fid = commands.add_parser("fidelity", help="neighbor fidelity curves")
    fid.add_argument("--b", type=_parse_b_list, default=(1, 5, 10, 15),
                     help="comma-separated initial indices")
    _add_open_flags(fid)
    fid.add_argument("--out", required=True)
    fid.add_argument("--svg", default=None, help="also write an SVG plot here")
    fid.add_argument("--format", choices=("csv", "json"), default="csv")
    fid.set_defaults(func=_cmd_fidelity)

    ymean = commands.add_parser("ymean", help="<y(b)> curves")
    ymean.add_argument("--b", type=_parse_b_list, default=(2, 5, 10, 15))
    _add_open_flags(ymean)
    ymean.add_argument("--out", required=True)
    ymean.add_argument("--svg", default=None)
    ymean.add_argument("--format", choices=("csv", "json"), default="csv")
    ymean.set_defaults(func=_cmd_ymean)

    figs = commands.add_parser("figures", help="canned figure-analog data")
    figs.add_argument("which", type=int, choices=(1, 2, 3, 4))
    figs.add_argument("--b", type=_parse_b_list, default=None,
                      help="override the default b set")
    _add_open_flags(figs, omega_lam=False)
    figs.add_argument("--out", required=True, help="output directory")
    figs.add_argument("--format", choices=("csv", "json"), default="csv")
    figs.set_defaults(func=_cmd_figures)

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
