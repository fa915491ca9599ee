"""Output oracles, independent of the code path the benchmark measures.

- Closed systems: y(n) from each model's closed-form energies and periods
  (mpmath for the Morse preset), plus exit code and verdict.
- Open system, moments: <N> = b + u and <N^2> = b^2 + 4bu + 2u^2 + u with
  u = 2 kappa t, read off the generating function
  G(s) = z (g + (z - g) s)^b / (1 - g s)^(b + 1), g = u/(1+u), z = 1/(1+u).
  <y(b)> is built from them with the b-1 difference taken algebraically, so
  the oracle itself has no cancellation.
- Open system, weights: P_b(n) as the coefficient of s^n in G(s), a
  binomial-times-negative-binomial convolution summed in mpmath. This is a
  different formula from the program's p-sum.
- Normalisation: trace + tail_bound = 1 within rel_eps for evolve.

A Checker collects every comparison; an operation whose output misses its
oracle is reported through Checker.errors and counts as failed.
"""

from __future__ import annotations

import csv
import json
import math
import os
import xml.etree.ElementTree as ET
from functools import lru_cache

import mpmath

# Tolerances. Program values carry certified tails below rel_eps = 1e-10 and
# are printed with %.12g; differences of neighbouring levels lose digits to
# cancellation (up to ~n for a scan to n), which the closed-system bound covers.
REL_EPS = 1e-10
TOL_CLOSED = 1e-9
TOL_WEIGHT = 1e-9
TOL_MOMENT = 1e-8
THRESHOLD = 0.5

# H2 Morse preset constants (levelscope/data/h2_morse.cfg), CODATA 2018 units.
_H2 = {"depth": 4.75, "alpha": 1.94, "anharmonicity": 34.6, "mass_amu": 0.503913,
       "r0": 0.74, "omega": 0.5491329479768786}
_HBAR_SI, _EV_SI, _ANGSTROM_SI, _AMU_SI = 1.054571817e-34, 1.602176634e-19, 1e-10, 1.66053906892e-27


class Checker:
    """Running tally of oracle comparisons."""

    def __init__(self) -> None:
        self.points = 0
        self.max_rel_err = 0.0
        self.errors: list[str] = []

    def close(self, what: str, got: float, want: float, rtol: float, atol: float = 0.0) -> bool:
        self.points += 1
        diff = abs(got - want)
        if want != 0.0 and abs(want) > atol:
            self.max_rel_err = max(self.max_rel_err, diff / abs(want))
        if not diff <= rtol * abs(want) + atol:
            self.errors.append(f"{what}: got {got!r}, oracle {want!r}")
            return False
        return True

    def require(self, what: str, ok: bool) -> bool:
        self.points += 1
        if not ok:
            self.errors.append(what)
        return ok


# ---------------------------------------------------------------------------
# closed systems


def _morse_levels() -> tuple[mpmath.mpf, ...]:
    return tuple(mpmath.mpf(repr(_H2[k])) for k in ("depth", "alpha", "anharmonicity", "r0", "omega"))


def morse_top() -> int:
    depth, _, cap, _, omega = _morse_levels()
    n = 0
    while n + 1 + 0.5 < cap / 2 and -depth + omega * ((n + 1.5) - (n + 1.5) ** 2 / cap) < 0:
        n += 1
    return n


def closed_y(model: str, n: int, omega: float = 0.0, lam: float = 0.0) -> float:
    """y(n) = |(E_n - E_{n-1})/2 * (tau_n - tau_{n-1})/2| in closed form."""
    if model == "box":
        # E ~ n^2, tau ~ 1/n: the mass and width cancel.
        return math.pi * (2 * n - 1) / (4.0 * n * (n - 1))
    if model == "hydrogenoid":
        # E ~ -1/n^2, tau ~ n^3: the charges and mass cancel.
        return math.pi / 4.0 * (1.0 / (n - 1) ** 2 - 1.0 / n**2) * (n**3 - (n - 1) ** 3)
    if model == "quartic":
        a, b = omega + 2.0 * lam * n, omega + 2.0 * lam * (n - 1)
        return math.pi * lam * (omega + lam * (2 * n - 1)) / (a * b)
    if model == "h2_morse":
        with mpmath.workdps(40):
            depth, alpha, cap, r0, omega_m = _morse_levels()
            mass_unit = mpmath.mpf(_HBAR_SI) ** 2 / (mpmath.mpf(_EV_SI) * mpmath.mpf(_ANGSTROM_SI) ** 2)
            mass = mpmath.mpf(repr(_H2["mass_amu"])) * mpmath.mpf(_AMU_SI) / mass_unit

            def e(k: int):
                v = k + mpmath.mpf(0.5)
                return -depth + omega_m * (v - v * v / cap)

            def tau(k: int):
                return 2 * mpmath.pi * mpmath.sqrt(mass * r0**2 / (2 * abs(e(k)) * alpha**2))

            return float(abs((e(n) - e(n - 1)) / 2 * (tau(n) - tau(n - 1)) / 2))
    raise ValueError(f"no closed form for model {model!r}")


def _verdict_ok(chk: Checker, what: str, y: float, resolvable: bool) -> None:
    # A y within 1e-9 of the threshold has no reliable verdict in floating point.
    if abs(y - THRESHOLD) > 1e-9:
        chk.require(f"{what}: verdict {resolvable} but oracle y={y!r}", resolvable == (y >= THRESHOLD))


def check_criterion(chk: Checker, p: dict, rc: int, stdout: str) -> None:
    model, n = p["model"], p["n"]
    if model == "harmonic":
        chk.require(f"criterion harmonic: exit {rc}, expected 2", rc == 2)
        chk.require("criterion harmonic: no period-blind verdict", "verdict: period-blind" in stdout)
        return
    if not chk.require(f"criterion {model}: exit {rc}, expected 0", rc == 0):
        return
    if p.get("format") == "json":
        rec = json.loads(stdout)
        got, verdict = float(rec["y_over_hbar"]), rec["verdict"]
    else:
        fields = {}
        for line in stdout.splitlines():
            key, _, value = line.partition(":")
            fields[key.strip()] = value.strip()
        got, verdict = float(fields["y / hbar"]), fields["verdict"].split()[0]
    want = closed_y(model, n, p.get("omega", 0.0), p.get("lam", 0.0))
    chk.close(f"criterion {model} n={n} y", got, want, TOL_CLOSED)
    chk.require(f"criterion {model}: verdict {verdict!r}", verdict in ("resolvable", "unresolvable"))
    _verdict_ok(chk, f"criterion {model} n={n}", want, verdict == "resolvable")


def read_table(path: str) -> tuple[list[str], list[list[str]], list[str]]:
    """(header, rows, comment lines) of a CSV with a #-prefixed manifest."""
    comments, lines = [], []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            (comments if line.startswith("#") else lines).append(line.rstrip("\n"))
    table = list(csv.reader(lines))
    return table[0], table[1:], comments


def check_scan(chk: Checker, p: dict, rc: int, workdir: str, out: str) -> None:
    model = p["model"]
    if not chk.require(f"scan {model}: exit {rc}, expected 0", rc == 0):
        return
    header, rows, comments = read_table(os.path.join(workdir, out))
    col = {name: i for i, name in enumerate(header)}
    n_max = p["n_max"] if p["n_max"] is not None else morse_top()
    chk.require(
        f"scan {model}: {len(rows)} rows, expected {n_max - p['n_min'] + 1}",
        len(rows) == n_max - p["n_min"] + 1,
    )
    first = None
    for i, row in enumerate(rows):
        n = int(row[col["n"]])
        chk.require(f"scan {model}: row {i} has n={n}", n == p["n_min"] + i)
        want = closed_y(model, n, p.get("omega", 0.0), p.get("lam", 0.0))
        chk.close(f"scan {model} n={n} y", float(row[col["y_over_hbar"]]), want, TOL_CLOSED)
        _verdict_ok(chk, f"scan {model} n={n}", want, row[col["resolvable"]] == "true")
        if first is None and want < THRESHOLD:
            first = n
    footer = [c for c in comments if c.startswith("# first_unresolvable = ")]
    chk.require(
        f"scan {model}: footer {footer} vs oracle first_unresolvable {first}",
        footer == [f"# first_unresolvable = {first}"],
    )


# ---------------------------------------------------------------------------
# open system


def moments(b: int, kt: float) -> tuple[float, float]:
    u = 2.0 * kt
    return b + u, b * b + 4.0 * b * u + 2.0 * u * u + u


def ymean_closed(b: int, kt: float, omega: float, lam: float) -> tuple[float, float, float]:
    """(y_mean, d_energy, d_tau) of <y(b)> from the closed-form moments."""
    u = 2.0 * kt
    n_b, m_b = moments(b, kt)
    n_a, m_a = moments(b - 1, kt)
    h_b, h_a = omega * n_b + lam * m_b, omega * n_a + lam * m_a
    d_energy = (omega + lam * (2 * b - 1 + 4.0 * u)) / 2.0
    # N_b M_{b-1} - N_{b-1} M_b = -(b(b-1) + 2u(b+u-1)); omega drops out.
    d_tau = -math.pi * lam * (b * (b - 1) + 2.0 * u * (b + u - 1.0)) / (h_b * h_a)
    return abs(d_energy * d_tau), d_energy, d_tau


def _convolution(b: int, kt: float):
    """z, g and the binomial factors C(b,k) g^(b-k) (z-g)^k of
    P_b(n) = z sum_k C(b,k) g^(b-k) (z-g)^k C(n-k+b, b) g^(n-k),
    at the current mpmath precision."""
    u = 2 * mpmath.mpf(kt)
    g, z = u / (1 + u), 1 / (1 + u)
    return z, g, [mpmath.binomial(b, k) * g ** (b - k) * (z - g) ** k for k in range(b + 1)]


def _precise(total, scale, dps: int) -> bool:
    # The sum alternates in sign for kt > 1/2: demand 30 digits beyond the
    # cancellation (or a value below 1e-60, which no check resolves).
    return scale * mpmath.mpf(10) ** (30 - dps) <= total + mpmath.mpf(10) ** -60


def weight_mp(b: int, n: int, kt: float) -> mpmath.mpf:
    """P_b(n) at kappa*t = kt: coefficient of s^n in the generating function,
    with the working precision doubled until the cancellation is covered."""
    dps = 40
    while True:
        with mpmath.workdps(dps):
            z, g, c = _convolution(b, kt)
            terms = [c[k] * mpmath.binomial(n - k + b, b) * g ** (n - k)
                     for k in range(min(b, n) + 1)]
            total = z * mpmath.fsum(terms)
            if _precise(total, z * mpmath.fsum(abs(t) for t in terms), dps):
                return +total
        dps *= 2


def weights_mp(b: int, kt: float, count: int) -> list[mpmath.mpf]:
    """P_b(n) for n < count, the factors C(m+b, b) g^m built by their ratio."""
    dps = 40
    while True:
        with mpmath.workdps(dps):
            z, g, c = _convolution(b, kt)
            nb = [mpmath.mpf(1)]
            for m in range(1, count):
                nb.append(nb[-1] * g * (m + b) / m)
            out = []
            for n in range(count):
                terms = [c[k] * nb[n - k] for k in range(min(b, n) + 1)]
                total = z * mpmath.fsum(terms)
                if not _precise(total, z * mpmath.fsum(abs(t) for t in terms), dps):
                    break
                out.append(+total)
            else:
                return out
        dps *= 2


@lru_cache(maxsize=None)
def fidelity_mp(b: int, kt: float) -> float:
    """F(b, kt) = sum_n P_b(n) P_{b-1}(n), with the level count doubled until
    the last term is negligible."""
    count = 2 * b + 64
    while True:
        pa, pb = weights_mp(b, kt, count), weights_mp(b - 1, kt, count)
        with mpmath.workdps(30):
            total = mpmath.fsum(x * y for x, y in zip(pa, pb))
            if pa[-1] * pb[-1] < total * mpmath.mpf(10) ** -25 and pa[-1] < pa[-2]:
                return float(total)
        count *= 2


def check_fidelity_values(chk: Checker, b: int, kts: list[float], values: list[float],
                          spots: list[int], label: str) -> None:
    for kt, f in zip(kts, values):
        if not (0.0 <= f <= 1.0):
            chk.require(f"{label} F(b={b}, kt={kt!r}) = {f!r} outside [0, 1]", False)
    chk.points += len(values)
    for i in spots:
        chk.close(f"{label} F(b={b}, kt={kts[i]!r})", values[i], fidelity_mp(b, kts[i]), TOL_WEIGHT)


def check_survival_values(chk: Checker, b: int, kts: list[float], values: list[float],
                          stride: int, label: str) -> None:
    for kt, p in zip(kts, values):
        if not (0.0 <= p <= 1.0):
            chk.require(f"{label} P_b(b={b}, kt={kt!r}) = {p!r} outside [0, 1]", False)
    chk.points += len(values)
    for kt, p in list(zip(kts, values))[::stride]:
        chk.close(f"{label} P_b(b={b}, kt={kt!r})", p, float(weight_mp(b, b, kt)),
                  TOL_WEIGHT, 1e-300)


def check_ymean_values(chk: Checker, b: int, omega: float, lam: float, kts: list[float],
                       rows: list[tuple[float, ...]], label: str) -> None:
    """rows: (y_mean,) or (y_mean, d_energy, d_tau) per grid point."""
    for kt, row in zip(kts, rows):
        want = ymean_closed(b, kt, omega, lam)
        for name, got, ref in zip(("y_mean", "d_energy", "d_tau"), row, want):
            chk.close(f"{label} {name}(b={b}, kt={kt!r})", got, ref, TOL_MOMENT)


# ---------------------------------------------------------------------------
# CLI outputs of the open-system commands


def columns(workdir: str, out: str) -> tuple[list[str], list[float], dict[str, list[float]]]:
    header, rows, _ = read_table(os.path.join(workdir, out))
    kts = [float(r[0]) for r in rows]
    cols = {name: [float(r[i]) for r in rows] for i, name in enumerate(header) if i}
    return header, kts, cols


def check_svg(chk: Checker, path: str, curves: int) -> None:
    try:
        root = ET.parse(path).getroot()
    except (OSError, ET.ParseError) as exc:
        chk.require(f"svg {path}: {exc}", False)
        return
    lines = root.findall("{http://www.w3.org/2000/svg}polyline")
    chk.require(f"svg {path}: {len(lines)} curves, expected {curves}", len(lines) == curves)


def spot_indices(kts: list[float]) -> list[int]:
    # Two points with kt <= 1/2 (convolution terms all positive) and two in
    # (1/2, 5] (alternating terms, where the precision guard matters).
    low = [i for i, kt in enumerate(kts) if kt <= 0.5]
    mid = [i for i, kt in enumerate(kts) if 0.5 < kt <= 5.0]
    return sorted({low[0], low[len(low) // 2], mid[0], mid[-1]} if low and mid else set())


def check_cli(chk: Checker, op, rc: int, stdout: str, workdir: str) -> None:
    """Check one CLI operation (a workloads.CliOp) against its oracle."""
    check, p = op.check, op.params
    if check == "criterion":
        check_criterion(chk, p, rc, stdout)
        return
    if check == "scan":
        check_scan(chk, p, rc, workdir, op.outputs[0])
        return
    if not chk.require(f"{check}: exit {rc}, expected 0", rc == 0):
        return
    if check == "evolve":
        check_evolve(chk, p, os.path.join(workdir, op.outputs[0]))
        return
    header, kts, cols = columns(workdir, op.outputs[0])
    values = list(cols.values())
    if check == "fidelity":
        spots = spot_indices(kts)
        for b, vals in zip(p["b"], values):
            check_fidelity_values(chk, b, kts, vals, spots, check)
    elif check == "survival":
        for b, vals in zip(p["b"], values):
            check_survival_values(chk, b, kts, vals, 1, check)
    elif check == "ymean_y":
        omega, lam = p["omega_lam"]
        for b, vals in zip(p["b"], values):
            check_ymean_values(chk, b, omega, lam, kts, [(v,) for v in vals], check)
    elif check == "ymean":
        omega, lam = p["omega_lam"]
        for j, b in enumerate(p["b"]):
            y, de, dt = values[3 * j: 3 * j + 3]
            check_ymean_values(chk, b, omega, lam, kts, list(zip(y, de, dt)), check)
    else:
        raise ValueError(f"unknown check {check!r}")
    chk.require(f"{check}: header {header}", len(header) == 1 + len(values) and
                len(values) == len(p["b"]) * (3 if check == "ymean" else 1))
    check_svg(chk, os.path.join(workdir, op.outputs[1]), len(p["b"]))


def check_evolve(chk: Checker, p: dict, path: str) -> None:
    """trace + tail = 1, weights sum to the trace, closed-form <N> and <N^2>,
    and mpmath weights at the first and the peak row of every tenth kt."""
    header, rows, _ = read_table(path)
    chk.require(f"evolve: header {header}",
                header == ["kt", "n", "weight", "trace", "n_cut", "tail_bound"])
    b = p["b"]
    blocks: dict[str, list[list[str]]] = {}
    for row in rows:
        blocks.setdefault(row[0], []).append(row)
    chk.require(f"evolve: {len(blocks)} kt values", len(blocks) >= 2)
    for k, (kt_text, block) in enumerate(blocks.items()):
        kt = float(kt_text)
        trace, tail = float(block[0][3]), float(block[0][5])
        chk.require(f"evolve kt={kt_text}: trace/n_cut/tail vary within a block",
                    all(r[3:] == block[0][3:] for r in block))
        chk.close(f"evolve kt={kt_text} trace + tail", trace + tail, 1.0, REL_EPS + 1e-12)
        w = [float(r[2]) for r in block]
        ns = [int(r[1]) for r in block]
        chk.require(f"evolve kt={kt_text}: weights outside [1e-16, 1]",
                    all(1e-16 <= x <= 1.0 for x in w))
        chk.close(f"evolve kt={kt_text} sum of weights", math.fsum(w), trace, 0.0, 1e-9)
        m1, m2 = moments(b, kt)
        chk.close(f"evolve kt={kt_text} <N>", math.fsum(n * x for n, x in zip(ns, w)), m1,
                  TOL_MOMENT)
        chk.close(f"evolve kt={kt_text} <N^2>", math.fsum(n * n * x for n, x in zip(ns, w)),
                  m2, TOL_MOMENT)
        if k % 10 == 0:
            peak = max(range(len(w)), key=w.__getitem__)
            for j in {0, peak}:
                chk.close(f"evolve P(n={ns[j]}, kt={kt_text})", w[j],
                          float(weight_mp(b, ns[j], kt)), TOL_WEIGHT)
