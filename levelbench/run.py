"""levelscope benchmark: cold CLI processes and a library sweep, end to end and per layer.

    python3 levelbench/run.py --workload closed_cli|paper_cli|open_sweep|all \\
        --seed N --seconds S --trace 0|1 [--out FILE]

Run from the repository root. The program is used from source (src/ on
PYTHONPATH); nothing is built or installed. Each workload is a closed loop
with one client: one operation at a time, whole passes over the seeded
operation list until S seconds of operations have been measured and at
least two passes are done.

--trace 0 reports the end-to-end metrics, measured with tracing off.
--trace 1 alternates untraced and traced passes and reports the per-layer
metrics of the traced ones (per pass), with the tracing overhead.

Every operation's output is checked against an oracle (oracles.py) the
first time it is produced; later passes must reproduce it byte for byte,
traced or not. The last line printed is one JSON object with the keys
correct, attempted, failed and metrics. See README.md for the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import clock
import oracles
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / ".work"
SETUP_PROBES = 5
IMPORT_PROBES = 3

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "cpu_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

# Fixed environment of every child process: one BLAS thread, so that one
# operation uses one CPU, and a pinned manifest timestamp, so that output
# files are byte-identical run to run.
CHILD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "SOURCE_DATE_EPOCH": "1356998400",
    "PYTHONHASHSEED": "0",
}

_IMPORT_PROBE = (
    "import sys, time\n"
    "n0 = len(sys.modules)\n"
    "t0 = time.perf_counter()\n"
    "import {module}\n"
    "print(time.perf_counter() - t0, len(sys.modules) - n0)\n"
)

_ENV_PROBE = (
    "import json, platform, levelscope\n"
    "def version(name):\n"
    "    try:\n"
    "        return __import__(name).__version__\n"
    "    except ImportError:\n"
    "        return None\n"
    "print(json.dumps({'python': platform.python_version(), 'numpy': version('numpy'),\n"
    "    'scipy': version('scipy'), 'levelscope': levelscope.__version__,\n"
    "    'backend': getattr(levelscope, 'BACKEND', None),\n"
    "    'available_backends': sorted(getattr(levelscope, 'available_backends', dict)())}))\n"
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    env.update(CHILD_ENV)
    return env


def spawn(cmd: list[str], cwd: Path, tag: str) -> dict:
    """Run one child to completion; wall time, CPU and peak RSS from wait4."""
    out_path, err_path = cwd / f".{tag}.stdout", cwd / f".{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=cwd, env=child_env(), stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
        "stdout": out_path.read_bytes(),
        "stderr": err_path.read_text(encoding="utf-8", errors="replace"),
    }


def python(*args: str) -> list[str]:
    return [sys.executable, *args]


# ---------------------------------------------------------------------------
# set-up and environment


def environment(seed: int, workdir: Path) -> dict:
    probe = spawn(python("-c", _ENV_PROBE), workdir, "env")
    if probe["rc"] != 0:
        raise RuntimeError(f"cannot import levelscope from {SRC}: {probe['stderr'].strip()}")
    env = json.loads(probe["stdout"])
    env["compiled_backend"] = (
        "available" if "compiled" in env["available_backends"]
        else "unmeasured: the compiled extension is not built in this checkout")
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    env.update({
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "seed": seed,
        "blas_threads": {k: CHILD_ENV[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                                   "MKL_NUM_THREADS")},
    })
    return env


def spawn_scaled(cmd: list[str], cwd: Path, tag: str) -> dict:
    """spawn() bracketed by calibration loops; adds the scale factor."""
    before = clock.calibrate()
    r = spawn(cmd, cwd, tag)
    r["scale"] = clock.factors([(0, before), (1, clock.calibrate())], 1)[0]
    return r


def import_probes(module: str, workdir: Path, count: int) -> tuple[list[float], list[float], int]:
    """Import time of `module` in `count` fresh processes, timed inside each:
    (scaled times, raw times, modules the import added)."""
    scaled, raw, modules = [], [], 0
    for i in range(count):
        r = spawn_scaled(python("-c", _IMPORT_PROBE.format(module=module)), workdir, f"import{i}")
        if r["rc"] != 0:
            raise RuntimeError(f"import {module} failed: {r['stderr'].strip()}")
        seconds, modules = r["stdout"].split()
        raw.append(float(seconds))
        scaled.append(float(seconds) * r["scale"])
    return scaled, raw, int(modules)


def import_breakdown(module: str, workdir: Path) -> dict[str, float]:
    """Seconds spent in numpy and scipy modules (-X importtime self times)
    and the bare interpreter start-up, each a median over fresh processes."""
    shares: dict[str, list[float]] = {"numpy": [], "scipy": []}
    for i in range(IMPORT_PROBES):
        r = spawn_scaled(python("-X", "importtime", "-c", f"import {module}"), workdir,
                         f"itime{i}")
        self_us = {"numpy": 0, "scipy": 0}
        for line in r["stderr"].splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            parts = line.split("|")
            try:
                us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the column header line
            root = parts[2].strip().split(".")[0]
            if root in self_us:
                self_us[root] += us
        for key in shares:
            shares[key].append(self_us[key] * 1e-6 * r["scale"])
    startup = []
    for i in range(SETUP_PROBES):
        r = spawn_scaled(python("-c", "pass"), workdir, f"startup{i}")
        startup.append(r["wall"] * r["scale"])
    return {
        "import.numpy": statistics.median(shares["numpy"]),
        "import.scipy": statistics.median(shares["scipy"]),
        "python.startup_s": statistics.median(startup),
    }


# ---------------------------------------------------------------------------
# timed phase


class Outcome:
    """Operations attempted and failed, and the oracle verdict, over one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.check = oracles.Checker()
        self.mismatches: list[str] = []
        self.errors: list[str] = []

    @property
    def correct(self) -> bool:
        return not self.check.errors and not self.mismatches

    def fail(self, message: str) -> None:
        self.failed += 1
        self.errors.append(message)


def run_cli(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    ops = workloads.plan(workload, seed)
    first: list[tuple[str, bool] | None] = [None] * len(ops)
    outcome, summary = Outcome(), tracer.Summary()
    passes, output_bytes, measured = [], [], 0.0
    spans_path = workdir / ".spans"
    spans: list[list[tuple]] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        rec = {"traced": traced, "lat": [], "cpu": [], "rss_kb": []}
        cals = [(0, clock.calibrate())]
        bytes_out = 0
        for i, op in enumerate(ops):
            for out in op.outputs:
                (workdir / out).unlink(missing_ok=True)
            if traced:
                cmd = python(str(BENCH / "runner.py"), str(spans_path), *op.argv)
            else:
                cmd = python("-m", "levelscope.cli", *op.argv)
            r = spawn(cmd, workdir, "op")
            cals.append((i + 1, clock.calibrate()))
            outcome.attempted += 1
            rec["lat"].append(r["wall"])
            rec["cpu"].append(r["cpu"])
            rec["rss_kb"].append(r["rss_kb"])
            blob = r["stdout"] + b"".join(
                (workdir / o).read_bytes() for o in op.outputs if (workdir / o).exists())
            bytes_out += len(blob)
            digest = hashlib.sha256(blob).hexdigest()
            if first[i] is None:
                before = len(outcome.check.errors)
                try:
                    oracles.check_cli(outcome.check, op, r["rc"], r["stdout"].decode(), str(workdir))
                except (OSError, ValueError, KeyError, IndexError) as exc:
                    outcome.check.errors.append(f"{op.name}: unreadable output: {exc!r}")
                ok = len(outcome.check.errors) == before
                first[i] = (digest, ok)
                if not ok:
                    outcome.fail(f"{op.name}: output misses its oracle (rc={r['rc']}; "
                                 f"{r['stderr'].strip()[-200:]})")
            elif digest != first[i][0]:
                outcome.mismatches.append(f"{op.name}: output differs from the first pass "
                                          f"(this pass traced={traced})")
                outcome.fail(outcome.mismatches[-1])
            elif not first[i][1]:
                outcome.fail(f"{op.name}: output misses its oracle")
            if traced:
                spans.append(tracer.load(str(spans_path)))
                spans_path.unlink()
            measured += r["wall"]
        rec["scale"] = clock.factors(cals, len(ops))
        if traced:
            for op_spans, scale in zip(spans, rec["scale"]):
                summary.add(op_spans, scale)
            spans.clear()
        passes.append(rec)
        if traced:
            output_bytes.append(bytes_out)
        if measured >= seconds and len(passes) >= 2:
            break
    untraced = [p for p in passes if not p["traced"]]
    return {
        "passes": passes,
        "extra_ops": [],
        "peak_rss_kb": max(x for p in untraced for x in p["rss_kb"]),
        "outcome": outcome,
        "summary": summary,
        "output_bytes": statistics.median(output_bytes) if output_bytes else 0.0,
    }


def run_sweep(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    result_path, spans_path = workdir / "sweep.json", workdir / ".spans"
    r = spawn(python(str(BENCH / "sweep.py"), str(seed), repr(seconds), "1" if trace else "0",
                     str(result_path), str(spans_path)), workdir, "sweep")
    if r["rc"] != 0:
        raise RuntimeError(f"sweep process failed (exit {r['rc']}): {r['stderr'].strip()[-2000:]}")
    res = json.loads(result_path.read_text(encoding="utf-8"))
    plan = workloads.open_sweep(seed)
    kts = workloads.kt_grid(*plan["grid"])
    outcome, summary = Outcome(), tracer.Summary()

    # Oracles on the first untraced pass; every later pass must match it.
    verdicts = []
    spots: dict[int, list[int]] = {}
    for b, i in plan["fidelity_spots"]:
        spots.setdefault(b, []).append(i)
    for op, values in zip(plan["ops"], res["values"]):
        before = len(outcome.check.errors)
        label = f"open_sweep {op.func}"
        if values is None:
            pass  # raised: counted as failed in every pass below
        elif op.func == "fidelity_overlap":
            oracles.check_fidelity_values(outcome.check, op.b, kts, values,
                                          spots.get(op.b, []), label)
        elif op.func == "survival":
            oracles.check_survival_values(outcome.check, op.b, kts, values, 5, label)
        else:
            oracles.check_ymean_values(outcome.check, op.b, op.omega, op.lam, kts, values, label)
        verdicts.append(values is not None and len(outcome.check.errors) == before)
    reference = next(p["digests"] for p in res["passes"] if not p["traced"])
    for p in res["passes"]:
        for op, digest, ref, ok in zip(plan["ops"], p["digests"], reference, verdicts):
            outcome.attempted += 1
            if digest != ref:
                outcome.mismatches.append(f"{op.func} b={op.b}: values differ from the first "
                                          f"pass (this pass traced={p['traced']})")
                outcome.fail(outcome.mismatches[-1])
            elif not ok:
                outcome.fail(f"{op.func} b={op.b}: failed or missed its oracle")
    outcome.errors.extend(res["errors"][:20])

    probe = res["probe"]
    outcome.attempted += 1
    if probe["error"] is not None:
        outcome.fail(f"probe mean_y_series b={plan['probe'].b} to kappa*t="
                     f"{plan['probe_grid'][1]:g}: {probe['error']}")
    else:
        before = len(outcome.check.errors)
        oracles.check_ymean_values(outcome.check, plan["probe"].b, plan["probe"].omega,
                                   plan["probe"].lam, workloads.kt_grid(*plan["probe_grid"]),
                                   probe["values"], "open_sweep probe")
        if len(outcome.check.errors) != before:
            outcome.fail("probe: output misses its oracle")

    if trace:
        # One span file for all traced passes: scale by their median factor.
        scale = statistics.median(f for p in res["passes"] if p["traced"] for f in p["scale"])
        summary.add(tracer.load(str(spans_path)), scale)
        spans_path.unlink()
    return {
        "passes": res["passes"],
        "extra_ops": [(probe["lat"], probe["scale"])],
        "peak_rss_kb": res["peak_rss_kb"],
        "outcome": outcome,
        "summary": summary,
        "output_bytes": 0.0,
        "import_s": res["import_s"],
    }


# ---------------------------------------------------------------------------
# metrics


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile that leaves at least 10 operations
    beyond it (nearest rank), that percentile, and the sample count."""
    s = sorted(latencies)
    n = len(s)
    k = n - 11 if n > 10 else n - 1
    return s[k], 100.0 * (k + 1) / n, n


def scaled(p: dict, key: str) -> list[float]:
    return [x * f for x, f in zip(p[key], p["scale"])]


def run_workload(workload: str, seed: int, seconds: float, trace: bool, why: str) -> dict:
    workdir = WORK / workload
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    env = environment(seed, workdir)
    module = "levelscope" if workload == "open_sweep" else "levelscope.cli"
    setup, setup_raw, modules = import_probes(module, workdir, SETUP_PROBES)
    breakdown = import_breakdown(module, workdir) if trace else {}
    if workload == "open_sweep":
        res = run_sweep(seed, seconds, trace, workdir)
    else:
        res = run_cli(workload, seed, seconds, trace, workdir)
    outcome: Outcome = res["outcome"]
    untraced = [p for p in res["passes"] if not p["traced"]]
    traced = [p for p in res["passes"] if p["traced"]]
    walls = [sum(scaled(p, "lat")) for p in untraced]
    op_lat = [x for p in untraced for x in scaled(p, "lat")]
    op_lat += [lat * f for lat, f in res["extra_ops"]]
    tail_s, tail_pct, samples = tail(op_lat)
    record = {
        "workload": workload,
        "why": why,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": env,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "ops_per_pass": len(res["passes"][0]["lat"]),
        "op_tail": {"percentile": tail_pct, "samples": samples},
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "fail_frac": outcome.failed / outcome.attempted,
        "oracle": {"points": outcome.check.points, "max_rel_err": outcome.check.max_rel_err,
                   "errors": outcome.check.errors[:20]},
        "failures": outcome.errors[:20],
        "calibration": {"reference_s": clock.REFERENCE_S, "loop": clock.LOOP,
                        "median_scale": statistics.median(
                            f for p in res["passes"] for f in p["scale"])},
        "raw": {
            "setup_s": statistics.median(setup_raw),
            "wall_s": statistics.median(sum(p["lat"]) for p in untraced),
            "cpu_s": statistics.median(sum(p["cpu"]) for p in untraced),
        },
    }
    if "import_s" in res:
        record["raw"]["sweep_import_s"] = res["import_s"]
    if not trace:
        record["metrics"] = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(sum(scaled(p, "cpu")) for p in untraced),
            "op_p50_ms": 1e3 * statistics.median(op_lat),
            "op_tail_ms": 1e3 * tail_s,
            "peak_rss_mb": res["peak_rss_kb"] / 1024.0,
        }
    else:
        layer = {"import.s": statistics.median(setup), "import.modules": float(modules)}
        layer.update(breakdown)
        layer.update(res["summary"].metrics(len(traced)))
        layer["cli.output_bytes"] = float(res["output_bytes"])
        layer["check.max_rel_err"] = outcome.check.max_rel_err
        layer["check.points"] = float(outcome.check.points)
        layer["check.fail_frac"] = outcome.failed / outcome.attempted
        layer["trace.overhead_frac"] = (
            statistics.median(sum(scaled(p, "lat")) for p in traced) / statistics.median(walls)
            - 1.0)
        record["metrics"] = layer
    return record


def declared() -> tuple[dict[str, str], dict[str, str]]:
    """Metric units and workload reasons, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return units, {w["name"]: w["why"] for w in spec["workloads"]}


def report(record: dict, units: dict[str, str]) -> dict:
    """Print the human-readable block; return the result object."""
    wl, m = record["workload"], record["metrics"]
    print(f"[{wl}] seed={record['seed']} trace={record['trace']} "
          f"passes={record['passes']} ops/pass={record['ops_per_pass']}")
    print(f"  environment: {json.dumps(record['environment'], sort_keys=True)}")
    for name, value in m.items():
        extra = ""
        if name == "op_tail_ms":
            t = record["op_tail"]
            extra = f"  (p{t['percentile']:.1f} of {t['samples']} ops)"
        print(f"  {name:40s} {value:.6g} {units[name]}{extra}")
    raw = " ".join(f"{k}={v:.6g}" for k, v in record["raw"].items())
    print(f"  unscaled: {raw} (median calibration scale "
          f"{record['calibration']['median_scale']:.4g})")
    print(f"  {'fail_frac':40s} {record['fail_frac']:.6g} "
          f"({record['failed']}/{record['attempted']} operations)")
    o = record["oracle"]
    verdict = "PASS" if record["correct"] else "FAIL"
    print(f"  oracle {verdict}: {o['points']} points checked, max rel err {o['max_rel_err']:.3g}")
    for line in record["failures"] + o["errors"]:
        print(f"    ! {line}")
    return {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in m.items()},
    }


def save(path: Path, record: dict) -> None:
    data = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    data[f"{record['workload']}/trace{record['trace']}"] = record
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="also store the full record (environment, passes, oracle) in this JSON file")
    args = ap.parse_args(argv)
    if not (SRC / "levelscope" / "__init__.py").is_file():
        print(f"error: no levelscope sources at {SRC}; run from a levelscope checkout",
              file=sys.stderr)
        return 2
    units, whys = declared()
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for wl in names:
        record = run_workload(wl, args.seed, args.seconds, bool(args.trace), whys[wl])
        if args.out:
            save(args.out, record)
        results[wl] = report(record, units)
        if len(names) > 1:
            print(json.dumps(results[wl]))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{wl}.{k}": v for wl, r in results.items() for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
