"""Spans around levelscope's public functions, installed from outside the package.

levelscope binds names with `from ... import`, so one function is reachable
through several module attributes (open_system.distribution is also
observables.distribution, cli.distribution and levelscope.distribution).
install() replaces every attribute of every loaded levelscope module that
holds a target function, so each call is seen once, whichever name it went
through. Targets that a later version of the package no longer has are
skipped, and their metrics read 0.

Spans stay in memory as tuples (id, parent id, name, start ns, end ns, ok,
extra) and are written once, by dump(). Summary derives self time as a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import defaultdict

# (span name, module that defines or re-exports the function, attribute)
TARGETS = (
    ("cli.main", "levelscope.cli", "main"),
    ("presets.load_model", "levelscope.presets", "load_model"),
    ("spectra.criterion_point", "levelscope.spectra", "criterion_point"),
    ("spectra.threshold_scan", "levelscope.spectra", "threshold_scan"),
    ("svgplot.line_plot", "levelscope.svgplot", "line_plot"),
    ("observables.fidelity_overlap", "levelscope.observables", "fidelity_overlap"),
    ("observables.survival", "levelscope.observables", "survival"),
    ("observables.mean_y_point", "levelscope.observables", "mean_y_point"),
    ("observables.mean_y_series", "levelscope.observables", "mean_y_series"),
    ("open_system.distribution", "levelscope.open_system", "distribution"),
    ("open_system.fock_weight", "levelscope.open_system", "fock_weight"),
    ("backend.fock_weight_block", "levelscope._backend", "fock_weight_block"),
    ("numerics.kernel", "levelscope.numerics", "kernel"),
)


def _block_extra(args: tuple) -> tuple:
    # fock_weight_block(b, log_gamma, log_zeta, log_fact, n_start, n_stop, out)
    try:
        return (int(args[0]), int(args[5]) - int(args[4]))
    except (IndexError, TypeError, ValueError):
        return ()


def _distribution_extra(result) -> tuple:
    try:
        return (int(result.n_cut), float(result.tail_bound))
    except (AttributeError, TypeError, ValueError):
        return ()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = [0]
        self._next = 1
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        arg_extra = _block_extra if name == "backend.fock_weight_block" else None
        result_extra = _distribution_extra if name == "open_system.distribution" else None

        def traced(*args, **kwargs):
            sid = self._next
            self._next = sid + 1
            parent = stack[-1]
            stack.append(sid)
            extra = arg_extra(args) if arg_extra else ()
            ok = False
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t1 = clock()
                stack.pop()
                if ok and result_extra:
                    extra = result_extra(result)
                spans.append((sid, parent, name, t0, t1, ok, extra))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        originals = []
        for name, module_name, attr in TARGETS:
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if callable(fn):
                originals.append((fn, self._wrap(name, fn)))
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == "levelscope" or key.startswith("levelscope."))]
        for module in modules:
            for attr, value in list(vars(module).items()):
                for fn, wrapper in originals:
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patched):
            setattr(module, attr, fn)
        self._patched.clear()

    def root(self, name: str):
        """A span for one benchmark operation, parent of the spans it causes."""
        return _Root(self, name)

    def record(self, name: str, t0: int, t1: int) -> None:
        """A finished top-level span timed by the caller."""
        self.spans.append((self._next, 0, name, t0, t1, True, ()))
        self._next += 1

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, name, t0, t1, ok, extra in self.spans:
                fh.write(f"{sid} {parent} {name} {t0} {t1} {int(ok)} "
                         f"{' '.join(map(repr, extra))}\n")


class _Root:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self.tracer, self.name = tracer, name

    def __enter__(self):
        tr = self.tracer
        self.sid = tr._next
        tr._next += 1
        self.parent = tr._stack[-1]
        tr._stack.append(self.sid)
        self.t0 = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb):
        tr = self.tracer
        tr._stack.pop()
        tr.spans.append((self.sid, self.parent, self.name, self.t0, time.perf_counter_ns(),
                         exc_type is None, ()))
        return False


def load(path: str) -> list[tuple]:
    spans = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            parts = line.split()
            extra = tuple(float(x) for x in parts[6:])
            spans.append((int(parts[0]), int(parts[1]), parts[2], int(parts[3]),
                          int(parts[4]), parts[5] == "1", extra))
    return spans


class Summary:
    """Per-layer totals accumulated over any number of span files."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.ns: dict[str, float] = defaultdict(float)
        self.self_ns: dict[str, float] = defaultdict(float)
        self.misses = 0
        self.rounds_in_misses = 0
        self.n_cut_sum = 0
        self.n_cut_max = 0
        self.tail_max = 0.0
        self.levels = 0
        self.level_terms = 0

    def add(self, spans: list[tuple], scale: float = 1.0) -> None:
        """Fold in one process's spans; times are multiplied by `scale`
        (the calibration factor of clock.py)."""
        child_ns: dict[int, int] = defaultdict(int)
        blocks_under: dict[int, int] = defaultdict(int)
        for sid, parent, name, t0, t1, ok, extra in spans:
            child_ns[parent] += t1 - t0
            if name == "backend.fock_weight_block":
                blocks_under[parent] += 1
                if len(extra) == 2:
                    b, levels = int(extra[0]), int(extra[1])
                    self.levels += levels
                    self.level_terms += levels * (b + 1)
        for sid, parent, name, t0, t1, ok, extra in spans:
            self.calls[name] += 1
            self.ns[name] += (t1 - t0) * scale
            self.self_ns[name] += (t1 - t0 - child_ns.get(sid, 0)) * scale
            if name == "open_system.distribution":
                # A call that reached the kernel was a weight-cache miss.
                if blocks_under.get(sid):
                    self.misses += 1
                    self.rounds_in_misses += blocks_under[sid]
                if len(extra) == 2:
                    self.n_cut_sum += int(extra[0])
                    self.n_cut_max = max(self.n_cut_max, int(extra[0]))
                    self.tail_max = max(self.tail_max, extra[1])

    def metrics(self, passes: int) -> dict[str, float]:
        """Per-layer metrics, with counts and times given per traced pass."""
        per = 1.0 / max(passes, 1)
        out: dict[str, float] = {}

        def timed(name: str, self_time: bool = False) -> None:
            out[f"{name}.calls"] = self.calls[name] * per
            out[f"{name}.s"] = self.ns[name] * 1e-9 * per
            if self_time:
                out[f"{name}.self_s"] = self.self_ns[name] * 1e-9 * per

        for name in ("presets.load_model", "spectra.criterion_point", "spectra.threshold_scan",
                     "cli.main", "svgplot.line_plot"):
            timed(name)
        out["cli.self_s"] = self.self_ns["cli.main"] * 1e-9 * per
        for name in ("observables.fidelity_overlap", "observables.survival",
                     "observables.mean_y_point", "observables.mean_y_series",
                     "open_system.distribution"):
            timed(name, self_time=True)
        calls = self.calls["open_system.distribution"]
        out["open_system.distribution.misses"] = self.misses * per
        out["open_system.distribution.hit_ratio"] = (calls - self.misses) / calls if calls else 0.0
        out["open_system.certify.rounds_per_miss"] = (
            self.rounds_in_misses / self.misses if self.misses else 0.0)
        out["open_system.n_cut.sum"] = self.n_cut_sum * per
        out["open_system.n_cut.max"] = float(self.n_cut_max)
        out["open_system.tail_bound.max"] = self.tail_max
        timed("open_system.fock_weight")
        timed("backend.fock_weight_block")
        out["backend.levels"] = self.levels * per
        out["backend.level_terms"] = self.level_terms * per
        block_ns = self.ns["backend.fock_weight_block"]
        out["backend.ns_per_level_term"] = block_ns / self.level_terms if self.level_terms else 0.0
        timed("numerics.kernel")
        return out
