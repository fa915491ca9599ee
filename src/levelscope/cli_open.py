"""The open-system commands: `evolve`, the Fock-level populations of the
diffusive mixture over time, and the curve commands `fidelity`, `ymean`
and `figures` 1-4 (1: fidelity, 2: survival, 3: <y(b)> at
omega/lam = 0.10, 4: omega/lam = 10).

Every command takes --kappa, --grid (in kappa*t), --out and --format;
evolve also --b, --eps and --weight-floor; fidelity --b and --svg; ymean
--b, --omega, --lambda and --svg; figures its number and --b. Every value
they write is a function of kappa*t: the populations, P_b and F of b and
kappa*t alone, <y(b)> also of omega and lam, through <H0>. So only ymean
reads the oscillator, and the evolve and fidelity manifests list no omega
or lam. Each value is computed at the kappa*t it is printed with, through
configurations at kappa = 1, where the time t is kappa*t itself: --kappa,
checked to be finite and positive, names the bath in the manifest, and no
grid is refused because of it.

The dispatcher (levelscope.cli) imports this module only to run one of
these commands or to build the full parser. numpy loads only in `evolve`,
which builds weight arrays; the curves are scalar arithmetic.
"""

from __future__ import annotations

import argparse
import math
from pathlib import Path

from .cli_files import build_manifest, csv_blocks, write_csv, write_table, write_text
from .numerics import REL_EPS, check_rel_eps, fmt


# The curve commands, keyed by the command as the manifest names it:
# command -> (curve, default b set, oscillator, columns of one b, unit note,
# plot title, y label, hline, manifest extras). F and P_b are functions of
# b and kappa*t alone, so their oscillator is (); a <y(b)> figure fixes
# (omega, lam), and None reads them from --omega and --lambda. <y(b)>
# starts at b = 2 by default. Per grid point a curve is a tuple of data
# columns whose first entry is plotted; a file keeps as many of them as its
# columns name.
_OUTPUTS = {
    "fidelity": ("fidelity", (1, 5, 10, 15), (), ("F_b{b}",),
                 "kt = kappa*t; F(b,t) = Tr[rho(t,b) rho(t,b-1)]", "F over kappa*t", "F", None, {}),
    "ymean": ("ymean", (2, 5, 10, 15), None, ("y_mean_b{b}", "d_energy_b{b}", "d_tau_b{b}"),
              "kt = kappa*t; y_mean = |d_energy * d_tau| in units of hbar "
              "(threshold 1/2); d_energy, d_tau keep their signs",
              "<y(b)> over kappa*t", "<y(b)> / hbar", 0.5, {"moments": "closed-form"}),
    **{
        f"figures {which}": (
            curve, b_set, oscillator, ("b{b}",),
            f"kt = kappa*t; column per initial index b; values: {y_label}",
            f"figure {which}: {y_label}", y_label, hline,
            # <y(b)> uses exact moments: no truncation certificate applies.
            {"which": str(which), "omega-over-lam": fmt(oscillator[0] / oscillator[1]),
             "moments": "closed-form"}
            if oscillator else {"which": str(which)},
        )
        for which, curve, b_set, oscillator, y_label, hline in (
            (1, "fidelity", (1, 5, 10, 15), (), "F(b,t)", None),
            (2, "survival", (1, 5, 10, 15), (), "P_b(b,t)", None),
            (3, "ymean", (2, 5, 10, 15), (0.10, 1.0), "<y(b)> / hbar", 0.5),
            (4, "ymean", (2, 5, 10, 15), (10.0, 1.0), "<y(b)> / hbar", 0.5),
        )
    },
}


def add_arguments(command: str, sub: argparse.ArgumentParser) -> None:
    """Declare the flags of command, `evolve`, `fidelity`, `ymean` or
    `figures`, on its subparser."""
    if command == "evolve":
        sub.add_argument("--b", type=int, required=True)
        _add_open_flags(sub)
        # The level cut is the one truncation: other commands take no --eps.
        sub.add_argument("--eps", type=float, default=REL_EPS, help="relative series tolerance")
        sub.add_argument("--weight-floor", type=float, default=1e-16,
                         help="omit rows with weight below this")
        sub.add_argument("--out", required=True)
        sub.set_defaults(func=_cmd_evolve)
    elif command == "figures":
        sub.add_argument("which", type=int, choices=(1, 2, 3, 4))
        sub.add_argument("--b", type=_parse_b_list, default=None,
                         help="override the default b set")
        _add_open_flags(sub)
        sub.add_argument("--out", required=True, help="output directory")
        sub.set_defaults(func=_cmd_curves)
    else:
        sub.add_argument("--b", type=_parse_b_list, default=_OUTPUTS[command][1],
                         help="comma-separated initial indices")
        _add_open_flags(sub)
        if command == "ymean":
            sub.add_argument("--omega", type=float, default=1.0)
            sub.add_argument("--lambda", dest="lam", type=float, default=1.0)
        sub.add_argument("--out", required=True)
        sub.add_argument("--svg", default=None, help="also write an SVG plot here")
        sub.set_defaults(func=_cmd_curves)
    sub.add_argument("--format", choices=("csv", "json"), default="csv")


def _add_open_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--kappa", type=float, default=1.0, help="diffusion rate (times are kappa*t)")
    sub.add_argument("--grid", default=None, metavar="log:START:STOP:POINTS",
                     help="kappa*t grid (default log:1e-3:1e2:200)")


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


def _grid(args: argparse.Namespace) -> list[float]:
    """The --grid kappa*t values, then the check of --kappa, which only the
    manifest reads: a bad grid spec is named first."""
    from .diffusive import log_points

    spec = args.grid or "log:1e-3:1e2:200"
    try:
        kind, start, stop, points = spec.split(":")
        if kind != "log":
            raise ValueError
        start, stop, points = float(start), float(stop), int(points)
    except ValueError:
        raise ValueError(f"grid must look like log:START:STOP:POINTS, got {spec!r}") from None
    grid = log_points(start, stop, points)
    # DiffusiveConfig's check and message; a chained comparison with inf
    # also rejects NaN.
    if not 0.0 < args.kappa < math.inf:
        raise ValueError(f"kappa must be finite and positive, got {args.kappa}")
    return grid


def _cmd_evolve(args: argparse.Namespace) -> int:
    # A chained comparison with inf also rejects NaN.
    if not 0.0 <= args.weight_floor < math.inf:
        raise ValueError(
            f"--weight-floor must be finite and non-negative, got {args.weight_floor}"
        )
    check_rel_eps(args.eps)
    from .diffusive import DiffusiveConfig
    from .open_system import distributions

    cfg = DiffusiveConfig(b=args.b, kappa=1.0)
    grid = _grid(args)
    # Every distribution exists before the file is opened, so a row whose
    # cut passes the level cap (exit 2) leaves no partial file.
    dists = distributions(cfg, grid, args.eps)
    counts = []

    def blocks():
        # One block per grid point, built when it is written: the columns
        # shared by its rows, the kept levels and their weights.
        for kt, dist in zip(grid, dists):
            levels = (dist.weights >= args.weight_floor).nonzero()[0]
            counts.append(len(levels))
            shared = (kt, dist.trace(), dist.n_cut, dist.tail_bound)
            yield shared, levels.tolist(), dist.weights[levels].tolist()

    manifest = build_manifest(args, "evolve", {"weight-floor": fmt(args.weight_floor)})
    header = ("kt", "n", "weight", "trace", "n_cut", "tail_bound")
    footer = (f"rows with weight < {fmt(args.weight_floor)} omitted",)
    unit_note = "kt = kappa*t (dimensionless); weights are probabilities"
    if args.format == "json":
        rows = [(kt, n, w, trace, n_cut, tail)
                for (kt, trace, n_cut, tail), levels, weights in blocks()
                for n, w in zip(levels, weights)]
        write_table(Path(args.out), manifest, header, rows, footer, "json", unit_note)
    else:
        write_csv(Path(args.out), manifest, header, csv_blocks(blocks()), footer, unit_note)
    print(f"wrote {args.out} ({sum(counts)} rows)")
    return 0


def _cmd_curves(args: argparse.Namespace) -> int:
    """fidelity, ymean and figures 1-4: per initial index b one curve along
    the kappa*t grid, written as one data file and plotted as one SVG, as
    the command's _OUTPUTS entry describes them.

    A b below 1 for a curve that compares b with b-1 exits 2 first. Each
    plotted curve passes diffusive.check_curve (strictly increasing grid,
    finite values) before anything is written.
    """
    command = f"figures {args.which}" if args.command == "figures" else args.command
    curve, b_set, oscillator, columns, unit_note, title, y_label, hline, extra = _OUTPUTS[command]
    b_values = args.b or b_set
    if curve != "survival" and min(b_values) < 1:
        raise ValueError("fidelity needs b >= 1 (compares |b> with |b-1>)"
                         if curve == "fidelity" else "ymean needs b >= 1")
    if oscillator is None:
        oscillator = (args.omega, args.lam)
    from .diffusive import DiffusiveConfig, check_curve, fidelity_overlap, mean_y_series, survival

    grid = _grid(args)
    # At kappa = 1 the time t is kappa*t: each value is taken at its kt.
    cfgs = [DiffusiveConfig(b, 1.0, *oscillator) for b in b_values]
    curves = []
    for cfg in cfgs:
        if curve == "fidelity":
            lower = DiffusiveConfig(b=cfg.b - 1, kappa=1.0)
            points = [(fidelity_overlap(cfg, lower, kt),) for kt in grid]
        elif curve == "survival":
            points = [(survival(cfg, kt),) for kt in grid]
        else:
            # signed ingredients ride along so the sign of d_tau stays visible
            points = [(p.y_mean, p.d_energy, p.d_tau) for p in mean_y_series(cfg, grid)]
        check_curve(grid, [p[0] for p in points])
        curves.append(points)

    width = len(columns)
    rows = [(kt, *(v for points in curves for v in points[i][:width]))
            for i, kt in enumerate(grid)]
    header = ["kt"] + [column.format(b=b) for b in b_values for column in columns]
    manifest = build_manifest(args, command, {**extra, "b-set": ",".join(map(str, b_values))})
    if args.command == "figures":
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        data_path = out_dir / f"figure{args.which}.{args.format}"
        svg_path = out_dir / f"figure{args.which}.svg"
        done = f"wrote {data_path} and {svg_path}"
    else:
        data_path, svg_path = Path(args.out), args.svg and Path(args.svg)
        done = f"wrote {args.out} ({len(rows)} rows)"
    write_table(data_path, manifest, header, rows, fmt=args.format, unit_note=unit_note)
    if svg_path:
        from .svgplot import line_plot

        plotted = [(f"b={b}", grid, [p[0] for p in points]) for b, points in zip(b_values, curves)]
        svg = line_plot(plotted, title=title, x_label="kappa t", y_label=y_label, hline=hline)
        write_text(svg_path, svg)
    print(done)
    return 0
