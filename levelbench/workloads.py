"""Seeded workload generators.

Each generator turns a seed into the exact inputs the program sees: argv
lists for the CLI workloads, and configuration values and kappa*t grids for
the library sweep. The same seed always gives the same plan. Only the
standard library is used, so plans can be built and compared without
importing levelscope.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

WORKLOADS = ("closed_cli", "paper_cli", "open_sweep")

# Figures 3 and 4 fix omega/lam = 0.1 and 10 at lam = 1 (cli._FIGURES).
FIGURE_OMEGA_LAM = {3: (0.10, 1.0), 4: (10.0, 1.0)}
FIGURE_B = {1: (1, 5, 10, 15), 2: (1, 5, 10, 15), 3: (2, 5, 10, 15), 4: (2, 5, 10, 15)}
DEFAULT_B = {"fidelity": (1, 5, 10, 15), "ymean": (2, 5, 10, 15)}
EVOLVE_B = 15
SWEEP_B_MAX = 40
SWEEP_RATIOS = (0.1, 10.0)
GRID_POINTS = 200


def _num(x: float) -> str:
    """Six significant digits: the argv text and the oracle's float agree exactly."""
    return f"{x:.6g}"


def _jitter(rng: random.Random, x: float, frac: float = 0.02) -> float:
    return float(_num(x * (1.0 + rng.uniform(-frac, frac))))


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return float(_num(math.exp(rng.uniform(math.log(lo), math.log(hi)))))


@dataclass(frozen=True)
class CliOp:
    """One cold CLI process.

    argv: arguments after the program name; output paths are relative to
        the directory the process runs in.
    check: which oracle reads the output (see oracles.check_cli).
    params: what the oracle needs beyond the output itself.
    outputs: files the process writes, relative to its directory; the data
        file first, then the SVG, if any.
    """

    name: str
    argv: tuple[str, ...]
    check: str
    params: dict = field(default_factory=dict)
    outputs: tuple[str, ...] = ()


def closed_cli(seed: int) -> list[CliOp]:
    rng = random.Random(f"closed_cli:{seed}")
    ops: list[CliOp] = []

    mass, omega = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0)
    n = rng.randint(1, 20)
    # A known verdict: the period cannot probe a harmonic spectrum, so this
    # passes only with exit 2 and "period-blind".
    ops.append(CliOp(
        "criterion.harmonic",
        ("criterion", "--model", "harmonic", "--mass", _num(mass), "--omega", _num(omega),
         "--n", str(n)),
        "criterion", {"model": "harmonic", "n": n},
    ))
    mass, width, n = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.5, 2.0), rng.randint(2, 60)
    ops.append(CliOp(
        "criterion.box",
        ("criterion", "--model", "box", "--mass", _num(mass), "--width", _num(width),
         "--n", str(n)),
        "criterion", {"model": "box", "n": n},
    ))
    mass, z, charge = _log_uniform(rng, 0.5, 2.0), rng.randint(1, 3), _log_uniform(rng, 0.5, 2.0)
    n = rng.randint(2, 60)
    ops.append(CliOp(
        "criterion.hydrogenoid",
        ("criterion", "--model", "hydrogenoid", "--mass", _num(mass), "--charge-number",
         str(z), "--charge", _num(charge), "--n", str(n), "--format", "json"),
        "criterion", {"model": "hydrogenoid", "n": n, "format": "json"},
    ))
    omega, lam, n = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.01, 2.0), rng.randint(1, 60)
    ops.append(CliOp(
        "criterion.quartic",
        ("criterion", "--model", "quartic", "--omega", _num(omega), "--lambda", _num(lam),
         "--n", str(n)),
        "criterion", {"model": "quartic", "omega": omega, "lam": lam, "n": n},
    ))
    # The Morse model runs only from a preset, so this also loads a preset file.
    n = rng.randint(1, 16)
    ops.append(CliOp(
        "criterion.h2_morse",
        ("criterion", "--preset", "h2_morse", "--n", str(n)),
        "criterion", {"model": "h2_morse", "n": n},
    ))

    # Several thousand rows, so the CSV writer does real work.
    n_max = rng.randint(4000, 6000)
    ops.append(CliOp(
        "scan.box",
        ("scan", "--model", "box", "--mass", _num(_log_uniform(rng, 0.5, 2.0)), "--width",
         _num(_log_uniform(rng, 0.5, 2.0)), "--n-min", "2", "--n-max", str(n_max),
         "--out", "scan_box.csv"),
        "scan", {"model": "box", "n_min": 2, "n_max": n_max}, ("scan_box.csv",),
    ))
    n_max = rng.randint(40, 120)
    ops.append(CliOp(
        "scan.hydrogenoid",
        ("scan", "--model", "hydrogenoid", "--n-min", "2", "--n-max", str(n_max),
         "--out", "scan_hydrogenoid.csv"),
        "scan", {"model": "hydrogenoid", "n_min": 2, "n_max": n_max},
        ("scan_hydrogenoid.csv",),
    ))
    omega, lam = _log_uniform(rng, 0.5, 2.0), _log_uniform(rng, 0.01, 2.0)
    n_max = rng.randint(40, 120)
    ops.append(CliOp(
        "scan.quartic",
        ("scan", "--model", "quartic", "--omega", _num(omega), "--lambda", _num(lam),
         "--n-min", "1", "--n-max", str(n_max), "--out", "scan_quartic.csv"),
        "scan", {"model": "quartic", "omega": omega, "lam": lam, "n_min": 1,
                    "n_max": n_max},
        ("scan_quartic.csv",),
    ))
    # n-max defaults to the top of the well.
    ops.append(CliOp(
        "scan.h2_morse",
        ("scan", "--preset", "h2_morse", "--n-min", "1", "--out", "scan_h2.csv"),
        "scan", {"model": "h2_morse", "n_min": 1, "n_max": None}, ("scan_h2.csv",),
    ))
    return ops


def paper_cli(seed: int) -> list[CliOp]:
    rng = random.Random(f"paper_cli:{seed}")
    kappa = _num(_log_uniform(rng, 0.5, 2.0))
    grid = f"log:{_num(_jitter(rng, 1e-3))}:{_num(_jitter(rng, 1e2))}:{GRID_POINTS}"
    lam = _log_uniform(rng, 0.5, 2.0)
    omega = float(_num(lam * _log_uniform(rng, 0.1, 10.0)))
    common = ("--kappa", kappa, "--grid", grid)

    ops = [
        CliOp(
            f"figures.{k}",
            ("figures", str(k), *common, "--out", "figs"),
            {1: "fidelity", 2: "survival", 3: "ymean_y", 4: "ymean_y"}[k],
            {"b": FIGURE_B[k], "omega_lam": FIGURE_OMEGA_LAM.get(k)},
            (f"figs/figure{k}.csv", f"figs/figure{k}.svg"),
        )
        for k in (1, 2, 3, 4)
    ]
    ops.append(CliOp(
        "fidelity",
        ("fidelity", *common, "--out", "fidelity.csv", "--svg", "fidelity.svg"),
        "fidelity",
        {"b": DEFAULT_B["fidelity"]},
        ("fidelity.csv", "fidelity.svg"),
    ))
    ops.append(CliOp(
        "ymean",
        ("ymean", *common, "--omega", _num(omega), "--lambda", _num(lam),
         "--out", "ymean.csv", "--svg", "ymean.svg"),
        "ymean",
        {"b": DEFAULT_B["ymean"], "omega_lam": (omega, lam)},
        ("ymean.csv", "ymean.svg"),
    ))
    # Streams every weight once into an ~8 MB CSV: the write-heavy operation.
    ops.append(CliOp(
        "evolve",
        ("evolve", "--b", str(EVOLVE_B), *common, "--out", "evolve.csv"),
        "evolve", {"b": EVOLVE_B}, ("evolve.csv",),
    ))
    return ops


def kt_grid(start: float, stop: float, points: int) -> list[float]:
    """Log-spaced kappa*t grid, as the CLI's log:START:STOP:POINTS makes it."""
    a, b = math.log10(start), math.log10(stop)
    return [10.0 ** (a + (b - a) * i / (points - 1)) for i in range(points)]


@dataclass(frozen=True)
class SweepOp:
    """One curve of the library sweep: a function over the whole grid at one b."""

    func: str
    b: int
    omega: float = 0.0
    lam: float = 0.0


def open_sweep(seed: int) -> dict:
    """Curve list and parameters of the library sweep.

    Curves run in ascending b per function, as the CLI calls them, so each
    distribution is read by the b and the b+1 fidelity curve; the ~8000
    distinct (b, kappa*t) keys exceed the 4096-entry weight cache, so the
    order is part of the workload.
    """
    rng = random.Random(f"open_sweep:{seed}")
    kappa = _log_uniform(rng, 0.5, 2.0)
    lam = _log_uniform(rng, 0.5, 2.0)
    grid = (_jitter(rng, 1e-3), _jitter(rng, 1e2), GRID_POINTS)
    ops = [SweepOp("fidelity_overlap", b) for b in range(1, SWEEP_B_MAX + 1)]
    ops += [SweepOp("survival", b) for b in range(1, SWEEP_B_MAX + 1)]
    ops += [
        SweepOp("mean_y_series", b, float(_num(ratio * lam)), lam)
        for ratio in SWEEP_RATIOS
        for b in range(2, SWEEP_B_MAX + 1)
    ]
    # kappa*t reaches 1e5, where the certified level cut passes max_terms:
    # a known NonConvergent defect, kept visible as one failed operation per run.
    probe_b = rng.randint(2, SWEEP_B_MAX)
    probe = SweepOp("mean_y_series", probe_b, float(_num(SWEEP_RATIOS[0] * lam)), lam)
    probe_grid = (_jitter(rng, 1e-3), _jitter(rng, 1e5), GRID_POINTS)
    # F spot points for the mpmath oracle: (b, grid index) with kappa*t <= 5.
    kts = kt_grid(*grid)
    low = [i for i, kt in enumerate(kts) if kt <= 5.0]
    spots = sorted({(rng.randint(1, SWEEP_B_MAX), rng.choice(low)) for _ in range(6)})
    return {
        "kappa": kappa,
        "grid": grid,
        "ops": ops,
        "probe": probe,
        "probe_grid": probe_grid,
        "fidelity_spots": spots,
    }


def plan(workload: str, seed: int):
    if workload == "closed_cli":
        return closed_cli(seed)
    if workload == "paper_cli":
        return paper_cli(seed)
    if workload == "open_sweep":
        return open_sweep(seed)
    raise ValueError(f"unknown workload {workload!r} (expected one of {', '.join(WORKLOADS)})")
