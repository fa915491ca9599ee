"""Acceptance gate: one test per release criterion, each printing a PASS or
FAIL line with the measured numbers.

Run with `pytest tests/test_acceptance.py -v -s` to see every line; without
-s the lines still appear for any failing criterion.
"""

import math
import time
from dataclasses import replace

import mpmath as mp
import numpy as np
import pytest

from levelscope import presets
from levelscope.diffusive import fidelity_overlap, log_points, mean_y_point, survival
from levelscope.open_system import DiffusiveConfig, distribution, fock_weight
from levelscope.spectra import (
    RESOLVABLE_THRESHOLD,
    Box,
    Hydrogenoid,
    Morse,
    Quartic,
    criterion_point,
    max_index,
    quartic_limits,
    threshold_scan,
)
from oracles import fidelity_closed_form, weight_oracle

mp.mp.dps = 50


def report(tag: str, ok: bool, detail: str) -> bool:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def hydrogenoid_closed_y(n: int) -> float:
    return math.pi * (2 * n - 1) * (3 * n * n - 3 * n + 1) / (4.0 * n * n * (n - 1) ** 2)


def morse_scale(model: Morse):
    """c = r0 omega / omega_c with omega_c = alpha sqrt(2 depth / mass).

    c carries the length r0 of the period formula, so it depends on the
    length unit the model is written in.
    """
    omega_c = mp.mpf(model.alpha) * mp.sqrt(2 * mp.mpf(model.depth) / mp.mpf(model.mass))
    return mp.mpf(model.r0) * mp.mpf(model.omega) / omega_c


def morse_closed_y(model: Morse, n: int):
    """y(n) of a Morse well whose omega is 4 depth / anharmonicity.

    With lam = anharmonicity and x_n = 1 - (2n+1)/lam the levels are
    E_n = -depth x_n^2 and the period of the Morse docstring is
    2 pi r0 / (omega_c x_n), so y(n) = c (pi/lam) (1 - 2n/lam) / (x_n x_{n-1}).
    """
    lam = mp.mpf(model.anharmonicity)

    def x(k: int):
        return 1 - (2 * k + 1) / lam

    return morse_scale(model) * (mp.pi / lam) * (1 - 2 * n / lam) / (x(n) * x(n - 1))


def ymean_closed(b: int, ratio: float, kt: float):
    """<y(b)> at lam = 1, omega = ratio, from the closed-form moments.

    With u = 2 kappa t the mixtures have <N> = b + u and
    <N^2> = b^2 + 4bu + 2u^2 + u, so <H0> = ratio <N> + <N^2>, and
    <tau> = 2 pi <N> / <H0> gives
    |<tau_b> - <tau_{b-1}>| = 2 pi [b(b-1) + 2u(b+u-1)] / (H_b H_{b-1}).
    """
    u = 2 * mp.mpf(kt)

    def h0(k: int):
        return mp.mpf(ratio) * (k + u) + k * k + 4 * k * u + 2 * u * u + u

    h_b, h_m = h0(b), h0(b - 1)
    d_tau = 2 * mp.pi * (b * (b - 1) + 2 * u * (b + u - 1)) / (h_b * h_m)
    return (h_b - h_m) * d_tau / 4


def half_decay_scale(grid: np.ndarray, values: np.ndarray) -> float:
    """First kappa*t where a curve on the grid falls to half its first value,
    interpolated log-linearly between the bracketing grid points."""
    half = values[0] / 2.0
    below = np.nonzero(values <= half)[0]
    if below.size == 0:
        return math.inf
    j = below[0]
    if j == 0:
        return float(grid[0])
    f = (math.log(half) - math.log(values[j - 1])) / (
        math.log(values[j]) - math.log(values[j - 1])
    )
    return float(grid[j - 1] * (grid[j] / grid[j - 1]) ** f)


def ymean_half_decay_root(b: int, ratio: float, grid: np.ndarray, closed) -> float:
    """Exact kappa*t at which ymean_closed reaches half its value at grid[0],
    found in the grid interval where the closed-form curve first crosses."""
    half = closed[0] / 2
    j = next(i for i, value in enumerate(closed) if value <= half)
    root = mp.findroot(
        lambda kt: ymean_closed(b, ratio, kt) - half,
        (mp.mpf(grid[j - 1]), mp.mpf(grid[j])),
        solver="anderson",
    )
    return float(root)


def test_a01_box_threshold():
    started = time.perf_counter()
    result = threshold_scan(Box(mass=1.0, width=1.0), 2, 50)
    elapsed = time.perf_counter() - started
    by_n = {p.n: p for p in result.points}
    y4_expected = (math.pi / 4.0) * (7.0 / 12.0)
    rel_err = abs(by_n[4].y - y4_expected) / y4_expected
    ok = (
        by_n[3].y >= 0.5
        and by_n[4].y < 0.5
        and result.first_unresolvable == 4
        and rel_err <= 1e-12
        and elapsed < 1.0
    )
    assert report(
        "A01",
        ok,
        f"box threshold: y(3)={by_n[3].y:.6f}, y(4)={by_n[4].y:.15f} "
        f"(closed-form rel err {rel_err:.2e}), first_unresolvable="
        f"{result.first_unresolvable}, {elapsed:.3f} s",
    )


def test_a02_hydrogenoid_threshold():
    result = threshold_scan(Hydrogenoid(), 2, 50)
    y9 = next(p.y for p in result.points if p.n == 9)
    y10 = next(p.y for p in result.points if p.n == 10)
    worst = 0.0
    for n in range(2, 101):
        got = criterion_point(Hydrogenoid(), n).y
        want = hydrogenoid_closed_y(n)
        worst = max(worst, abs(got - want) / want)
    crossing_reported = result.first_unresolvable == 10
    note_emitted = "n=9" in result.note and "n=10" in result.note
    ok = crossing_reported and note_emitted and y9 > 0.5 > y10 and worst <= 1e-10
    assert report(
        "A02",
        ok,
        f"hydrogenoid threshold: first crossing n={result.first_unresolvable} "
        f"(y(9)={y9:.4f} still above 1/2, y(10)={y10:.4f} below), note emitted; "
        f"closed form vs differences max rel err {worst:.2e} for n=2..100",
    )


def test_a03_quartic_limits():
    worst_low = worst_high = 0.0
    identical = True
    for n in range(2, 11):
        weak = Quartic(omega=1.0, lam=1e-6)
        low_nl, _ = quartic_limits(weak, n)
        worst_low = max(worst_low, abs(criterion_point(weak, n).y - low_nl) / low_nl)
        strong = Quartic(omega=1e-6, lam=1.0)
        _, high_nl = quartic_limits(strong, n)
        worst_high = max(worst_high, abs(criterion_point(strong, n).y - high_nl) / high_nl)
        box_form = math.pi * (2 * n - 1) / (4.0 * (n - 1) * n)
        identical = identical and (high_nl == box_form)
    ok = worst_low <= 1e-4 and worst_high <= 1e-4 and identical
    assert report(
        "A03",
        ok,
        f"quartic asymptotes: weak-coupling rel err {worst_low:.2e}, "
        f"strong-coupling rel err {worst_high:.2e} (n=2..10); "
        f"strong limit == box closed form: {identical}",
    )


def test_a04_morse_preset_all_levels_unresolvable():
    model = presets.load_model("h2_morse")
    top = max_index(model)
    result = threshold_scan(model, 1, top)
    got = {p.n: p for p in result.points}
    closed = {n: morse_closed_y(model, n) for n in range(1, top + 1)}
    # The closed form needs E_n = -depth x_n^2, i.e. omega = 4 depth / anharmonicity.
    fitted = model.omega == pytest.approx(4.0 * model.depth / model.anharmonicity, rel=1e-14)
    errors = {n: abs(got[n].y - closed[n]) / closed[n] for n in closed}
    n_worst = max(errors, key=errors.get)
    worst = errors[n_worst]
    # The last level whose closed-form y is still below hbar/2.
    n_edge = max(n for n, y in closed.items() if y < RESOLVABLE_THRESHOLD)
    # x_top <= 2/lam and y falls as x grows, so y(top) >= 3 pi c / 8.
    floor = 3 * mp.pi * morse_scale(model) / 8
    below_edge = all(not got[n].resolvable for n in range(1, n_edge + 1))
    above_edge = all(got[n].resolvable for n in range(n_edge + 1, top + 1))
    crossing = f"n={n_edge + 1}: y rises above 1/2" in result.note
    ok = (
        fitted
        and worst <= 1e-12
        and below_edge
        and above_edge
        and crossing
        and got[top].y >= floor
    )
    assert report(
        "A04",
        ok,
        f"morse H2 preset, bound levels n=1..{top}: y(n) vs closed form max rel "
        f"err {float(worst):.2e} at n={n_worst} (y={got[n_worst].y:.15g}, closed "
        f"{float(closed[n_worst]):.15g}); unresolvable up to n_edge={n_edge} "
        f"(y={got[n_edge].y:.6f}, closed {float(closed[n_edge]):.6f}): {below_edge}; "
        f"resolvable above it from n={n_edge + 1} "
        f"(y={got[n_edge + 1].y:.6f}, closed {float(closed[n_edge + 1]):.6f}): "
        f"{above_edge}; upward crossing in the scan note: {crossing}; "
        f"y({top})={got[top].y:.6f} vs top-level floor 3 pi c/8={float(floor):.6f}; "
        f"omega = 4 depth / anharmonicity: {fitted}",
    ), f"scan note: {result.note}"


def test_a05_trace_normalization():
    started = time.perf_counter()
    worst = 0.0
    grid = log_points(1e-3, 1e2, 25)
    for b in (0, 1, 2, 5, 10, 15):
        cfg = DiffusiveConfig(b=b, kappa=1.0)
        for kt in grid:
            worst = max(worst, abs(distribution(cfg, kt).trace() - 1.0))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-8 and elapsed < 10.0
    assert report(
        "A05",
        ok,
        f"trace normalization: max |trace - 1| = {worst:.2e} over 6 b values x "
        f"25 kt points, {elapsed:.2f} s",
    )


def test_a06_oracle_equivalence():
    worst = 0.0
    for b in range(0, 6):
        cfg = DiffusiveConfig(b=b, kappa=1.0)
        for kt in (0.01, 0.1, 1.0):
            for n in range(0, 21):
                got = fock_weight(cfg, n, kt)
                want = weight_oracle(b, n, kt)
                worst = max(worst, abs(got - want) / want)
    ok = worst <= 1e-10
    assert report(
        "A06",
        ok,
        f"oracle equivalence: log-space weights vs 50-digit direct sum, "
        f"max rel err {worst:.2e} (b<=5, n<=20, kt in 0.01/0.1/1)",
    )


def test_a07_fidelity_audit():
    worst = 0.0
    in_bounds = True
    zero_at_start = True
    for b in (1, 2, 3):
        cfg = DiffusiveConfig(b=b, kappa=1.0)
        lower = DiffusiveConfig(b=b - 1, kappa=1.0)
        zero_at_start = zero_at_start and fidelity_overlap(cfg, lower, 0.0) == 0.0
        for kt in (0.01, 0.1, 1.0, 10.0):
            overlap = fidelity_overlap(cfg, lower, kt)
            closed = fidelity_closed_form(cfg, kt)
            in_bounds = in_bounds and 0.0 <= overlap <= 1.0
            worst = max(worst, abs(closed - overlap))
    matches = worst <= 1e-8
    verdict = (
        "printed triple sum (with the (p!)^2 l! factorial reading) matches the "
        "trace overlap" if matches else "printed triple sum DISAGREES with the "
        "trace overlap; overlap form is authoritative"
    )
    ok = in_bounds and zero_at_start and matches
    assert report(
        "A07",
        ok,
        f"fidelity audit: F in [0,1]: {in_bounds}, F(b,0)=0 exactly: "
        f"{zero_at_start}, max |closed - overlap| = {worst:.2e} -> {verdict}",
    )


def test_a08_survival_ordering():
    ok = True
    worst_pair = ""
    for kt in np.logspace(-2, 0, 9).tolist():
        values = [survival(DiffusiveConfig(b=b, kappa=1.0), kt) for b in (1, 5, 10, 15)]
        if not all(a >= b for a, b in zip(values, values[1:])):
            ok = False
            worst_pair = f"violated at kt={kt:.3g}: {values}"
    assert report(
        "A08",
        ok,
        "survival ordering: P_b(b,t) non-increasing across b in (1,5,10,15) "
        f"for kt in [1e-2, 1] {worst_pair}",
    )


def test_a09_discreteness_lifetime_window():
    started = time.perf_counter()
    kts = log_points()  # the full 200-point figure grid
    grid = np.array(kts)
    worst_kappa = worst_scale = bound_frac = 0.0
    worst_closed = (0.0, "")
    scales = []
    for ratio in (0.10, 10.0):
        for b in (2, 5, 10, 15):
            cfg = DiffusiveConfig(b=b, kappa=1.0, omega=ratio, lam=1.0)
            values = np.array([mean_y_point(cfg, kt).y_mean for kt in kts])
            closed = [ymean_closed(b, ratio, kt) for kt in kts]
            for kt, v, c in zip(kts, values.tolist(), closed):
                err = float(abs(v - c) / c)
                if err > worst_closed[0]:
                    where = f"b={b}, omega/lam={ratio}, kt={kt:.4g}: {v:.15g} vs {float(c):.15g}"
                    worst_closed = (err, where)
            # The populations depend on kappa*t alone, so the whole curve
            # scales as 1/kappa.
            for kappa in (0.1, 10.0):
                other = replace(cfg, kappa=kappa)
                scaled = np.array([mean_y_point(other, kt / kappa).y_mean for kt in kts])
                worst_kappa = max(worst_kappa, float(np.max(np.abs(scaled - values) / values)))
            # <y(b)> < pi / (2 kappa t) at every kappa*t > 0.
            bound_frac = max(bound_frac, float(np.max(grid * values)) / (math.pi / 2.0))
            crossing = half_decay_scale(grid, values)
            root = ymean_half_decay_root(b, ratio, grid, closed)
            worst_scale = max(worst_scale, abs(crossing - root) / root)
            scales.append(
                f"(b={b}, omega/lam={ratio}): kt_1/2={crossing:.4g} "
                f"(closed-form root {root:.4g}, pi/y0={float(mp.pi / closed[0]):.4g})"
            )
    elapsed = time.perf_counter() - started
    ok = (
        worst_scale <= 1e-3
        and worst_kappa <= 1e-9
        and bound_frac < 1.0
        and worst_closed[0] <= 1e-8
        and elapsed < 60.0
    )
    assert report(
        "A09",
        ok,
        f"discreteness lifetime: half-decay scales {'; '.join(scales)}; "
        f"max rel err vs closed-form roots {worst_scale:.2e}; curves at kappa=0.1 and "
        f"10 vs kappa=1 in kappa*t: max rel diff {worst_kappa:.2e}; max kappa*t <y(b)> "
        f"= {bound_frac:.4f} pi/2 (bound: below pi/2); <y(b)> vs closed-form moments "
        f"max rel err {worst_closed[0]:.2e} ({worst_closed[1]}); families generated "
        f"in {elapsed:.2f} s",
    )


def test_a10_closed_system_consistency():
    worst = 0.0
    for ratio in (0.10, 10.0):
        for b in (2, 5, 10, 15):
            cfg = DiffusiveConfig(b=b, kappa=1.0, omega=ratio, lam=1.0)
            point = mean_y_point(cfg, 1e-6)
            closed = (ratio + (2 * b - 1)) / 2.0
            worst = max(worst, abs(point.d_energy - closed) / closed)
    ok = worst <= 1e-3
    assert report(
        "A10",
        ok,
        f"closed-system consistency at kt=1e-6: <dE_b> vs half level gap, "
        f"max rel err {worst:.2e}",
    )
