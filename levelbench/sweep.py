"""The open_sweep library process: python3 sweep.py SEED SECONDS TRACE RESULT SPANS

Imports levelscope (timed), then runs whole passes over the seeded curve
list, one curve at a time, until SECONDS have elapsed and at least two
passes are done, and ends with the one kappa*t = 1e5 probe. With TRACE = 1, untraced and traced passes alternate,
the traced ones with the tracer's wrappers installed in this process.

RESULT receives, as JSON: per-pass latencies and CPU times with their
calibration scale factors (clock.py), a digest of every curve's values per
pass, the values of the first untraced pass for the oracles, the probe's
outcome and the peak RSS taken before anything else is loaded. SPANS
receives the traced passes' spans.
"""

import hashlib
import json
import resource
import sys
import time

if __name__ == "__main__":
    seed, seconds, trace = int(sys.argv[1]), float(sys.argv[2]), sys.argv[3] == "1"
    result_path, spans_path = sys.argv[4], sys.argv[5]

    t0 = time.perf_counter()
    import levelscope
    from levelscope import observables

    import_s = time.perf_counter() - t0
    import clock
    import tracer
    import workloads

    plan = workloads.open_sweep(seed)
    kappa = plan["kappa"]
    kts = workloads.kt_grid(*plan["grid"])
    ts = [kt / kappa for kt in kts]

    def config(b, omega, lam):
        return levelscope.DiffusiveConfig(b=b, kappa=kappa, omega=omega, lam=lam)

    def run_op(op, grid=kts):
        cfg = config(op.b, op.omega, op.lam)
        if op.func == "fidelity_overlap":
            lower = config(op.b - 1, op.omega, op.lam)
            return [observables.fidelity_overlap(cfg, lower, t) for t in ts]
        if op.func == "survival":
            return [observables.survival(cfg, t) for t in ts]
        points = observables.mean_y_series(cfg, grid)
        return [(p.y_mean, p.d_energy, p.d_tau) for p in points]

    tr = tracer.Tracer()
    passes, first_values, errors = [], None, []
    start = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        if traced:
            tr.install()
        lat, cpu, digests, values, failed, cals = [], [], [], [], 0, []
        last_cal = -1.0
        for i, op in enumerate(plan["ops"]):
            # Curves can be a few ms long: calibrate at most every 0.25 s.
            if time.perf_counter() - last_cal >= 0.25:
                cals.append((i, clock.calibrate()))
                last_cal = time.perf_counter()
            c0, w0 = time.process_time(), time.perf_counter()
            try:
                if traced:
                    with tr.root("op"):
                        out = run_op(op)
                else:
                    out = run_op(op)
            except Exception as exc:  # every failed operation is counted, none stops the run
                out = None
                failed += 1
                errors.append(f"{op.func} b={op.b}: {type(exc).__name__}: {exc}")
            lat.append(time.perf_counter() - w0)
            cpu.append(time.process_time() - c0)
            digests.append(hashlib.sha256(repr(out).encode()).hexdigest())
            values.append(out)
        cals.append((len(plan["ops"]), clock.calibrate()))
        if traced:
            tr.uninstall()
        passes.append({"traced": traced, "lat": lat, "cpu": cpu, "digests": digests,
                       "failed": failed, "scale": clock.factors(cals, len(lat))})
        if first_values is None and not traced:
            first_values = values
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(passes) >= 2:
            break

    probe = plan["probe"]
    probe_grid = workloads.kt_grid(*plan["probe_grid"])
    cal0 = clock.calibrate()
    c0, w0 = time.process_time(), time.perf_counter()
    try:
        probe_values, probe_error = run_op(probe, probe_grid), None
    except Exception as exc:  # the known NonConvergent defect lands here
        probe_values, probe_error = None, f"{type(exc).__name__}: {exc}"
    probe_lat, probe_cpu = time.perf_counter() - w0, time.process_time() - c0
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probe_scale = clock.factors([(0, cal0), (1, clock.calibrate())], 1)[0]

    if trace:
        tr.dump(spans_path)
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump({
            "import_s": import_s,
            "passes": passes,
            "values": first_values,
            "errors": errors,
            "probe": {"lat": probe_lat, "cpu": probe_cpu, "scale": probe_scale,
                      "error": probe_error, "values": probe_values},
            "peak_rss_kb": peak_rss_kb,
        }, fh)
