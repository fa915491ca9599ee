"""Self-tests of the benchmark itself: python3 levelbench/selftest.py

- The workload generator is deterministic per seed, and seeds differ.
- Every generated argv parses with levelscope.cli.build_parser().
- Every oracle accepts the program's real output and rejects the same
  output with one digit changed, so no check can pass vacuously.
- BENCHMARK.json declares exactly the workloads and metrics the harness
  produces.

Exits 0 when every test passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEEDS = (0, 1, 2, 12345)
FAILURES: list[str] = []


def test(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {name}{': ' + detail if detail and not ok else ''}")
    if not ok:
        FAILURES.append(name)


def perturb(text: str, position: int = 6) -> str:
    """Change the `position`-th significant digit of a decimal number,
    padding with zeros when the number is printed with fewer digits."""
    m = re.fullmatch(r"([-+]?)(\d*)(?:\.(\d*))?([eE][-+]?\d+)?", text.strip())
    if not m:
        raise ValueError(f"not a number: {text!r}")
    sign, whole, frac, exp = m.group(1), m.group(2), m.group(3) or "", m.group(4) or ""
    digits = list(whole + frac)
    lead = next((i for i, d in enumerate(digits) if d != "0"), len(digits))
    while len(digits) < lead + position:
        digits.append("0")
    i = lead + position - 1
    digits[i] = "8" if digits[i] == "9" else str(int(digits[i]) + 1)
    body = "".join(digits)
    return f"{sign}{body[:len(whole)]}.{body[len(whole):]}{exp}"


def perturb_float(x: float) -> float:
    return float(perturb(repr(x)))


# ---------------------------------------------------------------------------


def test_determinism() -> None:
    for wl in workloads.WORKLOADS:
        same = all(workloads.plan(wl, s) == workloads.plan(wl, s) for s in SEEDS)
        test(f"{wl}: same seed gives the same plan", same)
        test(f"{wl}: different seeds give different plans",
             workloads.plan(wl, 1) != workloads.plan(wl, 2))


def test_argv_parse() -> None:
    from levelscope.cli import build_parser

    parser = build_parser()
    for wl in ("closed_cli", "paper_cli"):
        bad = []
        for seed in SEEDS:
            for op in workloads.plan(wl, seed):
                try:
                    with contextlib.redirect_stderr(io.StringIO()):
                        parser.parse_args(list(op.argv))
                except SystemExit:
                    bad.append(" ".join(op.argv))
        test(f"{wl}: every generated argv parses", not bad, "; ".join(bad[:3]))


def run_cli(op, workdir: Path) -> tuple[int, str]:
    from levelscope.cli import main

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(list(op.argv))
    finally:
        os.chdir(cwd)
    return rc, out.getvalue()


def verdict(op, rc: int, stdout: str, workdir: Path) -> list[str]:
    chk = oracles.Checker()
    oracles.check_cli(chk, op, rc, stdout, str(workdir))
    return chk.errors


def edit_csv(path: Path, row: int, col: int) -> str:
    """Perturb one field of a data row in place; return the original text."""
    text = path.read_text(encoding="utf-8")
    lines = text.split("\n")
    data = [i for i, line in enumerate(lines) if line and not line.startswith("#")][1:]
    fields = lines[data[row]].split(",")
    fields[col] = perturb(fields[col])
    lines[data[row]] = ",".join(fields)
    path.write_text("\n".join(lines), encoding="utf-8")
    return text


def check_rejects(name: str, op, rc: int, stdout: str, workdir: Path, path: Path,
                  row: int, col: int) -> None:
    original = edit_csv(path, row, col)
    try:
        test(f"{name}: rejects one perturbed digit (row {row}, column {col})",
             bool(verdict(op, rc, stdout, workdir)))
    finally:
        path.write_text(original, encoding="utf-8")


def test_cli_oracles(workdir: Path) -> None:
    os.environ["SOURCE_DATE_EPOCH"] = run.CHILD_ENV["SOURCE_DATE_EPOCH"]
    ops = workloads.plan("closed_cli", 3) + workloads.plan("paper_cli", 3)
    for op in ops:
        rc, stdout = run_cli(op, workdir)
        errors = verdict(op, rc, stdout, workdir)
        test(f"{op.name}: oracle accepts the real output", not errors, "; ".join(errors[:2]))
        if op.check == "criterion":
            if op.params["model"] == "harmonic":
                test(f"{op.name}: rejects exit 0", bool(verdict(op, 0, stdout, workdir)))
                continue
            if op.params.get("format") == "json":
                rec = json.loads(stdout)
                rec["y_over_hbar"] = perturb_float(rec["y_over_hbar"])
                bad = json.dumps(rec)
            else:
                bad = re.sub(r"(y / hbar\s*: )(\S+)", lambda m: m.group(1) + perturb(m.group(2)),
                             stdout)
            test(f"{op.name}: rejects one perturbed digit of y", bool(verdict(op, rc, bad, workdir)))
            continue
        path = workdir / (op.outputs[0])
        if op.check == "scan":
            check_rejects(op.name, op, rc, stdout, workdir, path, 0, 5)
        elif op.check == "fidelity":
            _, kts, _ = oracles.columns(str(workdir), op.outputs[0])
            check_rejects(op.name, op, rc, stdout, workdir, path,
                          oracles.spot_indices(kts)[1], 1)
        elif op.check in ("survival", "ymean_y"):
            check_rejects(op.name, op, rc, stdout, workdir, path, 100, 2)
        elif op.check == "ymean":
            check_rejects(op.name + " d_tau", op, rc, stdout, workdir, path, 150, 3)
        elif op.check == "evolve":
            header, rows, _ = oracles.read_table(str(path))
            peak = max(range(len(rows)), key=lambda i: float(rows[i][2]))
            check_rejects(op.name + " trace", op, rc, stdout, workdir, path, 0, 3)
            check_rejects(op.name + " weight", op, rc, stdout, workdir, path, peak, 2)


def test_sweep_oracles() -> None:
    import levelscope
    from levelscope import observables

    plan = workloads.open_sweep(3)
    kts = workloads.kt_grid(*plan["grid"])
    kappa = plan["kappa"]
    b, i = plan["fidelity_spots"][0]
    cfg = levelscope.DiffusiveConfig(b=b, kappa=kappa)
    low = levelscope.DiffusiveConfig(b=b - 1, kappa=kappa)
    f = [observables.fidelity_overlap(cfg, low, kt / kappa) for kt in kts]
    p = [observables.survival(cfg, kt / kappa) for kt in kts]
    ym = [(q.y_mean, q.d_energy, q.d_tau) for q in observables.mean_y_series(
        levelscope.DiffusiveConfig(b=b, kappa=kappa, omega=0.1, lam=1.0), kts)]

    def errors(fn, *args) -> list[str]:
        chk = oracles.Checker()
        fn(chk, *args)
        return chk.errors

    cases = [
        ("F", oracles.check_fidelity_values, (b, kts, f, [i], "F"), 2, i),
        ("P_b", oracles.check_survival_values, (b, kts, p, 5, "P_b"), 2, 10),
        ("<y(b)>", oracles.check_ymean_values, (b, 0.1, 1.0, kts, ym, "y"), 4, 120),
    ]
    for name, fn, args, which, index in cases:
        test(f"open_sweep {name}: oracle accepts the real values", not errors(fn, *args))
        values = list(args[which])
        if isinstance(values[index], tuple):
            values[index] = values[index][:2] + (perturb_float(values[index][2]),)
        else:
            values[index] = perturb_float(values[index])
        bad = args[:which] + (values,) + args[which + 1:]
        test(f"open_sweep {name}: rejects one perturbed digit", bool(errors(fn, *bad)))


def test_declaration() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    test("BENCHMARK.json workloads match the harness",
         [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS))
    test("BENCHMARK.json end-to-end metrics match the harness",
         {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END)
    produced = set(tracer.Summary().metrics(1)) | {
        "import.s", "import.modules", "import.numpy", "import.scipy", "python.startup_s",
        "cli.output_bytes", "check.max_rel_err", "check.points", "check.fail_frac",
        "trace.overhead_frac"}
    declared = {m["name"] for m in spec["per_layer"]}
    test("BENCHMARK.json per-layer metrics match the harness", produced == declared,
         f"missing {sorted(produced - declared)}, extra {sorted(declared - produced)}")


def main() -> int:
    workdir = BENCH / ".work" / "selftest"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    test("perturb changes one digit", perturb("0.0575306051412541") == "0.0575307051412541"
         and perturb("2.004") == "2.00401" and perturb("1") == "1.00001"
         and perturb("1.5e-05") == "1.50001e-05")
    test_determinism()
    test_argv_parse()
    test_declaration()
    test_cli_oracles(workdir)
    test_sweep_oracles()
    print(f"{len(FAILURES)} failed" if FAILURES else "all self-tests passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
