"""Tests of the package surface: the exported names and what the CLI imports."""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.sax.saxutils import escape

import pytest

import levelscope
from levelscope import diffusive, numerics, observables, open_system, spectra
from levelscope.cli import EXIT_USAGE, build_parser, main
from levelscope.svgplot import _escape, line_plot

SRC = Path(__file__).resolve().parents[1] / "src"

# Modules the closed-system half must not load: numpy, and xml.sax with the
# urllib/http/ssl stack that xml.sax.saxutils pulls in.
HEAVY = ("numpy", "xml.sax", "urllib.request")


def _fresh(code: str, cwd: Path | None = None) -> str:
    """stdout of `code` run in a new interpreter that imports levelscope from src."""
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        cwd=cwd,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    return result.stdout.strip()


def _loaded_after(statement: str, cwd: Path | None = None,
                  modules: tuple[str, ...] = HEAVY) -> dict:
    probe = f"print(json.dumps({{m: m in sys.modules for m in {modules!r}}}))"
    return json.loads(_fresh(f"import json, sys\n{statement}\n{probe}", cwd).splitlines()[-1])


def test_every_exported_name_resolves():
    missing = [name for name in levelscope.__all__ if not hasattr(levelscope, name)]
    assert missing == []
    assert len(set(levelscope.__all__)) == len(levelscope.__all__)


# The exact public surface: a removed name cannot come back as an alias, and
# a new one is added here on purpose.
PUBLIC = {
    levelscope: [
        "Box", "CriterionPoint", "DegeneratePeriod", "DiffusiveConfig", "FockDistribution",
        "Harmonic", "Hydrogenoid", "IndexOutOfSpectrum", "MismatchedConfig", "ModelParams",
        "Morse", "NonConvergent", "NotNormalized", "Quartic", "ScanResult", "SuperpositionSpec",
        "YMeanPoint", "ZeroEnergy", "__version__", "builtin_preset_names", "criterion_point",
        "distribution", "energy", "fidelity_overlap", "fock_weight", "harmonic_dpdq",
        "load_model", "log_points", "max_index", "mean_y_point", "mean_y_series", "min_index",
        "period", "quartic_limits", "superposition_delta_e", "survival", "threshold_scan",
    ],
    diffusive: [
        "DiffusiveConfig", "YMeanPoint", "check_curve", "check_level", "check_time",
        "fidelity_overlap", "fock_weight", "log_points", "mean_y_point", "mean_y_series",
        "survival",
    ],
    spectra: [
        "Box", "CriterionPoint", "DegeneratePeriod", "Harmonic", "Hydrogenoid",
        "IndexOutOfSpectrum", "MODELS", "ModelParams", "Morse", "NotNormalized", "Quartic",
        "RESOLVABLE_THRESHOLD", "ScanResult", "SuperpositionSpec", "criterion_point", "energy",
        "harmonic_dpdq", "max_index", "min_index", "period", "quartic_limits",
        "superposition_delta_e", "threshold_scan",
    ],
    observables: [
        "DiffusiveConfig", "MismatchedConfig", "YMeanPoint", "ZeroEnergy", "fidelity_overlap",
        "mean_y_point", "mean_y_series", "survival",
    ],
    open_system: ["FockDistribution", "distribution", "distributions"],
}


@pytest.mark.parametrize("module", list(PUBLIC), ids=lambda m: m.__name__)
def test_public_surface_is_pinned(module):
    assert sorted(module.__all__) == PUBLIC[module]
    # The <y(b)> record holds the moments; min_index + 1 is the criterion's first level.
    for name in ("mean_n", "mean_h0", "mean_tau", "_energy", "criterion_min_index"):
        assert not hasattr(module, name)


def test_each_name_has_one_home():
    # open_system re-exports nothing of diffusive, whose level-cut helpers
    # moved into the cut, and the command line's usage error is ValueError.
    for name in ("fock_weight", "DiffusiveConfig", "_kernels", "_moments"):
        assert not hasattr(open_system, name)
    for name in ("_kernels", "_moments"):
        assert not hasattr(diffusive, name)
    assert not hasattr(numerics, "SystemExit2")


def _runtime_imports_from(path: Path, module: str) -> list[str]:
    """The names path imports from the sibling module, outside the
    `if TYPE_CHECKING:` blocks that never run."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    hidden = {id(node) for block in ast.walk(tree) if isinstance(block, ast.If)
              and isinstance(block.test, ast.Name) and block.test.id == "TYPE_CHECKING"
              for node in ast.walk(block)}
    return sorted(alias.name for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and id(node) not in hidden
                  and node.level == 1 and node.module == module for alias in node.names)


def test_open_system_borrows_only_the_checks_and_rescale_constants():
    # The rescale constants are the one decision the scalar and array weight
    # sums must share bit for bit; DiffusiveConfig is an annotation only.
    assert _runtime_imports_from(SRC / "levelscope" / "open_system.py", "diffusive") == [
        "_BIG", "_SHRINK", "_SPAN", "check_level", "check_time"]


def test_oracles_read_no_private_levelscope_name():
    # An oracle that called the code it checks would check nothing.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    modules, private = set(), []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules.update((alias.asname or alias.name).split(".")[0] for alias in node.names
                           if alias.name.split(".")[0] == "levelscope")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("levelscope"):
            for alias in node.names:
                if alias.name.startswith("_"):
                    private.append(f"{node.module}.{alias.name}")
                if node.module == "levelscope":  # from levelscope import <module>
                    modules.add(alias.asname or alias.name)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr.startswith("_")
                and not node.attr.startswith("__")):
            base = node.value
            while isinstance(base, ast.Attribute):
                base = base.value
            if isinstance(base, ast.Name) and base.id in modules:
                private.append(ast.unparse(node))
    assert private == []


def test_cli_import_loads_no_scipy():
    code = "import sys, levelscope.cli; print('scipy' in sys.modules)"
    assert _fresh(code) == "False"


def test_import_loads_no_numpy():
    assert _loaded_after("import levelscope, levelscope.cli") == dict.fromkeys(HEAVY, False)


def test_observables_and_mean_y_series_load_no_numpy():
    # The alias module the benchmark harness imports, and the <y(b)> series
    # it runs, are pure Python.
    statement = ("import levelscope, levelscope.observables\n"
                 "cfg = levelscope.DiffusiveConfig(b=2, kappa=1.0, omega=0.1, lam=1.0)\n"
                 "levelscope.mean_y_series(cfg, [0.1, 0.2])")
    assert _loaded_after(statement) == dict.fromkeys(HEAVY, False)


def _imported_modules(path: Path) -> set[str]:
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            names.add(node.module.split(".")[0])
    return names


def test_only_open_system_imports_numpy():
    modules = sorted((SRC / "levelscope").glob("*.py"))
    assert len(modules) > 1
    assert [p.name for p in modules if "numpy" in _imported_modules(p)] == ["open_system.py"]


def test_no_module_imports_dataclasses_or_typing():
    # Each value type is the tuple of its fields, a numerics.Frozen subclass,
    # and annotations take their names from collections.abc, so a cold
    # command pays neither import (dataclasses alone loads inspect, ast, ...).
    modules = sorted((SRC / "levelscope").glob("*.py"))
    assert len(modules) > 1
    assert [p.name for p in modules
            if _imported_modules(p) & {"dataclasses", "typing"}] == []


def test_only_run_freezes_the_heap():
    # The collector never visits a frozen object again, so only the process
    # entry point freezes the heap, on its way out: never main(), which tests
    # and the benchmark harness call in-process.
    modules = sorted((SRC / "levelscope").glob("*.py"))
    assert [p.name for p in modules if "gc" in _imported_modules(p)] == ["cli.py"]
    tree = ast.parse((SRC / "levelscope" / "cli.py").read_text(encoding="utf-8"))
    uses = [(fn.name, node.attr) for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
            for node in ast.walk(fn) if isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name) and node.value.id == "gc"]
    assert uses == [("run", "freeze")]


def _base_name(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def _is_tuple_new(node: ast.AST) -> bool:
    return (isinstance(node, ast.Attribute) and node.attr == "__new__"
            and isinstance(node.value, ast.Name) and node.value.id == "tuple")


def _news(node: ast.ClassDef) -> list[ast.FunctionDef]:
    return [item for item in node.body
            if isinstance(item, ast.FunctionDef) and item.name == "__new__"]


def _builds_only(node: ast.ClassDef) -> bool:
    """Whether the class's __new__ is the one statement
    `return tuple.__new__(cls, (<its other parameters, in order>))`."""
    news = _news(node)
    if len(news) != 1:
        return False
    args, body = news[0].args, news[0].body
    if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)):
        body = body[1:]  # the docstring
    params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
    if args.vararg or args.kwarg or len(body) != 1 or not isinstance(body[0], ast.Return):
        return False
    call = body[0].value
    return (isinstance(call, ast.Call) and _is_tuple_new(call.func) and not call.keywords
            and len(call.args) == 2 and isinstance(call.args[1], ast.Tuple)
            and [getattr(a, "id", None) for a in (call.args[0], *call.args[1].elts)] == params)


def _construction_bypasses(sources: dict[str, str]) -> list[str]:
    """Each way the sources build a value type past its constructor, as
    "file:line: what": a use of object.__setattr__; an __init__ of a class
    whose bases reach Frozen by name; and a tuple.__new__(C, ...) outside
    C.__new__ (directly or through a local name bound to tuple.__new__),
    unless C reaches Frozen and its __new__ only builds the tuple of its
    parameters, so that the call is exactly the constructor's body."""
    trees = {name: ast.parse(source) for name, source in sources.items()}
    classes = [(name, node) for name, tree in trees.items() for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef)]
    frozen, grew = {"Frozen"}, True
    while grew:
        grew = False
        for _, node in classes:
            if node.name not in frozen and any(_base_name(b) in frozen for b in node.bases):
                frozen.add(node.name)
                grew = True
    found = [f"{name}:{node.lineno}: object.__setattr__"
             for name, tree in trees.items() for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "__setattr__"
             and _base_name(node.value) == "object"]
    found += [f"{name}:{item.lineno}: {node.name}.__init__"
              for name, node in classes if node.name in frozen
              for item in node.body
              if isinstance(item, ast.FunctionDef) and item.name == "__init__"]
    builds_only = {node.name for _, node in classes
                   if node.name in frozen and _builds_only(node)}
    constructors = {fn for _, node in classes if node.name in frozen for fn in _news(node)}
    seen, bypasses = set(), set()
    for name, tree in trees.items():
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            aliases = set()
            for node in ast.walk(fn):
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target, value = node.targets[0], node.value
                    pairs = (zip(target.elts, value.elts)
                             if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                             else [(target, value)])
                    for t, v in pairs:
                        if _is_tuple_new(v) and isinstance(t, ast.Name):
                            aliases.add(t.id)
                            seen.add(v)
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if not (_is_tuple_new(func)
                        or isinstance(func, ast.Name) and func.id in aliases):
                    continue
                seen.add(func)
                first = node.args[0] if node.args else None
                own = fn in constructors and isinstance(first, ast.Name) and fn.args.args \
                    and first.id == fn.args.args[0].arg
                if not own and getattr(first, "id", None) not in builds_only:
                    what = getattr(first, "id", "?")
                    bypasses.add(f"{name}:{node.lineno}: tuple.__new__({what}, ...)")
            bypasses.update(f"{name}:{node.lineno}: tuple.__new__ passed on"
                            for node in ast.walk(fn)
                            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
                            and node.id in aliases and node not in seen)
        bypasses.update(f"{name}:{node.lineno}: tuple.__new__ passed on"
                        for node in ast.walk(tree) if _is_tuple_new(node) and node not in seen)
    return found + sorted(bypasses)


def test_value_types_have_one_construction_path():
    # A value is built by its class's __new__, as one tuple: nothing stores
    # a field past it, and no value type runs an __init__ after it. A kernel
    # may build a record as tuple.__new__(C, fields) only while C.__new__ is
    # that very call on its own parameters; a check added to C.__new__ then
    # makes each such call a bypass.
    init = "    def __init__(self):\n        pass\n"
    assert _construction_bypasses({"a": "_set = object.__setattr__\n"}) == [
        "a:1: object.__setattr__"]
    assert _construction_bypasses({"a": "class A(Frozen):\n" + init}) == ["a:2: A.__init__"]
    assert _construction_bypasses({"a": "class A(numerics.Frozen):\n    pass\n",
                                   "b": "class B(A):\n" + init}) == ["b:2: B.__init__"]
    assert _construction_bypasses({"a": "class C:\n" + init}) == []
    new = ("class P(Frozen):\n"
           "    def __new__(cls, a, b):\n"
           "        {check}return tuple.__new__(cls, ({fields}))\n")
    direct = "def f():\n    return tuple.__new__(P, (1, 2))\n"
    bound = "def f():\n    new, xs = tuple.__new__, []\n    xs.append(new(P, (1, 2)))\n"
    for use in (direct, bound):
        line = use.count("\n") + 3
        assert _construction_bypasses({"a": new.format(check="", fields="a, b") + use}) == []
        for check, fields in (("assert a\n        ", "a, b"), ("", "b, a"), ("", "a, b, 0")):
            source = new.format(check=check, fields=fields) + use
            assert _construction_bypasses({"a": source}) == [
                f"a:{line + bool(check)}: tuple.__new__(P, ...)"]
        assert _construction_bypasses({"a": use.replace("P", "Q")}) == [
            f"a:{line - 3}: tuple.__new__(Q, ...)"]
    assert _construction_bypasses({"a": "make = tuple.__new__\n"}) == [
        "a:1: tuple.__new__ passed on"]
    assert _construction_bypasses({"a": "def f(g):\n    new = tuple.__new__\n    g(new)\n"}) == [
        "a:3: tuple.__new__ passed on"]
    modules = sorted((SRC / "levelscope").glob("*.py"))
    assert len(modules) > 1
    assert _construction_bypasses({p.name: p.read_text(encoding="utf-8") for p in modules}) == []


def _imports_cli(source: str) -> bool:
    """Whether a module directly under levelscope imports levelscope.cli."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            if any(a.name == "levelscope.cli" for a in node.names):
                return True
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"levelscope.{module}" if module else "levelscope"
            names = {a.name for a in node.names}
            if module == "levelscope.cli" or (module == "levelscope" and "cli" in names):
                return True
    return False


def test_no_module_imports_the_cli():
    # The CLI runs as `python -m levelscope.cli`, where an import of
    # levelscope.cli compiles and runs cli.py a second time.
    for source in ("from . import cli", "from .cli import main", "import levelscope.cli",
                   "from levelscope import cli"):
        assert _imports_cli(source)
    assert not _imports_cli("from . import __version__\nfrom .numerics import ZeroEnergy")
    modules = sorted((SRC / "levelscope").glob("*.py"))
    assert [p.name for p in modules if _imports_cli(p.read_text(encoding="utf-8"))] == []


def test_observables_aliases_the_diffusive_objects():
    # The benchmark harness calls and traces these names; each must be the
    # diffusive function itself, so a wrapper on either attribute sees it.
    for name in ("fidelity_overlap", "survival", "mean_y_point", "mean_y_series"):
        assert getattr(observables, name) is getattr(diffusive, name)
    assert levelscope.DiffusiveConfig is diffusive.DiffusiveConfig
    assert callable(main) and callable(build_parser)


def test_import_loads_only_the_closed_system_modules():
    # Both halves load inside the commands that use them: spectra in
    # criterion and scan (presets only for --preset), the open-system
    # modules in the rest.
    code = ("import sys, levelscope, levelscope.cli\n"
            "print(sorted(m for m in sys.modules if m.startswith('levelscope.')))")
    assert _fresh(code) == str(["levelscope.cli", "levelscope.numerics"])


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "--model", "box", "--n", "4"],
        ["scan", "--preset", "h2_morse", "--n-min", "1", "--out", "h2.csv"],
    ],
)
def test_closed_system_commands_load_no_numpy(tmp_path, argv):
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, cwd=tmp_path) == dict.fromkeys(HEAVY, False)


GRID = ["--grid", "log:1e-3:1:3"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize(
    "argv",
    [
        ["figures", "1", *GRID, "--out", "figs"],
        ["figures", "2", *GRID, "--out", "figs"],
        ["figures", "3", *GRID, "--out", "figs"],
        ["figures", "4", *GRID, "--out", "figs"],
        ["fidelity", *GRID, "--out", "f.out", "--svg", "f.svg"],
        ["ymean", *GRID, "--out", "y.out", "--svg", "y.svg"],
    ],
    ids=["figures1", "figures2", "figures3", "figures4", "fidelity", "ymean"],
)
def test_scalar_open_system_commands_load_no_numpy(tmp_path, argv, fmt):
    # Fidelity, survival and <y(b)> are scalar arithmetic: no weight arrays.
    statement = f"from levelscope.cli import main\nassert main({[*argv, '--format', fmt]!r}) == 0"
    assert _loaded_after(statement, cwd=tmp_path) == dict.fromkeys(HEAVY, False)


STDLIB_HEAVY = ("dataclasses", "inspect")


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "--model", "hydrogenoid", "--n", "3", "--format", "json"],
        ["criterion", "--preset", "h2_morse", "--n", "3"],
        ["scan", "--model", "box", "--n-max", "6", "--out", "b.csv"],
        ["scan", "--preset", "h2_morse", "--n-min", "1", "--out", "h2.json", "--format", "json"],
        ["figures", "1", *GRID, "--out", "figs"],
        ["figures", "2", *GRID, "--out", "figs"],
        ["figures", "3", *GRID, "--out", "figs"],
        ["figures", "4", *GRID, "--out", "figs"],
        ["fidelity", *GRID, "--out", "f.csv", "--svg", "f.svg"],
        ["ymean", *GRID, "--out", "y.json", "--svg", "y.svg", "--format", "json"],
    ],
    ids=["criterion", "criterion-preset", "scan", "scan-preset", "figures1", "figures2",
         "figures3", "figures4", "fidelity", "ymean"],
)
def test_cold_commands_load_no_dataclasses_or_inspect(tmp_path, argv):
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, tmp_path, STDLIB_HEAVY) == dict.fromkeys(STDLIB_HEAVY, False)


def test_evolve_loads_no_dataclasses(tmp_path):
    # numpy itself imports inspect, so only dataclasses is levelscope's to
    # avoid here; the inspect probe shows the check can see such imports.
    argv = ["evolve", "--b", "3", *GRID, "--out", "e.csv"]
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, tmp_path, STDLIB_HEAVY) == {"dataclasses": False,
                                                                "inspect": True}


CLOSED = ("levelscope.spectra", "levelscope.presets")


@pytest.mark.parametrize(
    "argv",
    [
        ["figures", "1", *GRID, "--out", "figs"],
        ["figures", "2", *GRID, "--out", "figs"],
        ["figures", "3", *GRID, "--out", "figs"],
        ["figures", "4", *GRID, "--out", "figs"],
        ["fidelity", *GRID, "--out", "f.csv", "--svg", "f.svg"],
        ["ymean", *GRID, "--out", "y.csv", "--svg", "y.svg"],
        ["evolve", "--b", "3", *GRID, "--out", "e.csv"],
    ],
    ids=["figures1", "figures2", "figures3", "figures4", "fidelity", "ymean", "evolve"],
)
def test_open_system_commands_load_no_closed_system_module(tmp_path, argv):
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, tmp_path, CLOSED) == dict.fromkeys(CLOSED, False)


@pytest.mark.parametrize(
    "argv",
    [
        ["criterion", "--model", "box", "--n", "4"],
        ["scan", "--model", "quartic", "--n-max", "5", "--out", "q.csv"],
    ],
    ids=["criterion", "scan"],
)
def test_model_flags_load_no_presets(tmp_path, argv):
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, tmp_path, CLOSED) == {
        "levelscope.spectra": True, "levelscope.presets": False}


def test_preset_criterion_loads_the_closed_system_modules(tmp_path):
    # The commands import spectra and presets themselves; the probe sees
    # them, so the checks above are not vacuous.
    statement = ("from levelscope.cli import main\n"
                 "assert main(['criterion', '--preset', 'h2_morse', '--n', '3']) == 0")
    assert _loaded_after(statement, tmp_path, CLOSED) == dict.fromkeys(CLOSED, True)


def test_open_system_command_loads_numpy(tmp_path):
    # The checks above would pass vacuously if the probe could not see numpy.
    argv = ["evolve", "--b", "3", *GRID, "--out", "e.json", "--format", "json"]
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, cwd=tmp_path)["numpy"] is True


@pytest.mark.parametrize(
    "argv", [["evolve", "--b", "3", *GRID, "--out", "e.csv"]], ids=["evolve"]
)
def test_ladder_commands_load_numpy(tmp_path, argv):
    statement = f"from levelscope.cli import main\nassert main({argv!r}) == 0"
    assert _loaded_after(statement, cwd=tmp_path)["numpy"] is True


BASE = ["levelscope", "levelscope.cli", "levelscope.numerics"]
CURVES = [*BASE, "levelscope.cli_files", "levelscope.cli_open", "levelscope.diffusive"]


@pytest.mark.parametrize(
    "argv, loaded",
    [
        (["criterion", "--model", "box", "--n", "4"],
         [*BASE, "levelscope.cli_closed", "levelscope.spectra"]),
        (["criterion", "--preset", "h2_morse", "--n", "3", "--format", "json"],
         [*BASE, "levelscope.cli_closed", "levelscope.data", "levelscope.presets",
          "levelscope.spectra"]),
        (["scan", "--model", "box", "--n-max", "6", "--out", "b.csv"],
         [*BASE, "levelscope.cli_closed", "levelscope.cli_files", "levelscope.spectra"]),
        (["evolve", "--b", "3", *GRID, "--out", "e.csv"],
         [*BASE, "levelscope.cli_files", "levelscope.cli_open", "levelscope.diffusive",
          "levelscope.open_system"]),
        (["fidelity", *GRID, "--out", "f.csv", "--svg", "f.svg"], [*CURVES, "levelscope.svgplot"]),
        (["ymean", *GRID, "--out", "y.json", "--format", "json"], CURVES),
        (["figures", "2", *GRID, "--out", "figs"], [*CURVES, "levelscope.svgplot"]),
        (["--version"], BASE),
        (["--help"], BASE),
    ],
    ids=["criterion", "criterion-preset", "scan", "evolve", "fidelity", "ymean", "figures",
         "version", "help"],
)
def test_each_command_loads_only_its_own_modules(tmp_path, argv, loaded):
    # main() imports the module of the command it runs and no other; the
    # file writers load only where a file is written, and --help and
    # --version load no command. No command needs numbers, which numpy
    # alone (evolve) loads.
    statement = (f"import sys\nfrom levelscope.cli import main\ntry:\n    code = main({argv!r})\n"
                 "except SystemExit as exc:\n    code = exc.code\nassert code == 0\n"
                 "print(sorted(m for m in sys.modules if m.startswith('levelscope')),\n"
                 "      'numbers' in sys.modules, 'numpy' in sys.modules)")
    numpy = argv[0] == "evolve"
    assert _fresh(statement, tmp_path).splitlines()[-1] == f"{sorted(loaded)} {numpy} {numpy}"


def test_exported_names_are_the_submodule_objects():
    # In a fresh process, so that dir() and every open-system name go through
    # the module hooks rather than values an earlier test cached.
    code = (
        "import importlib, levelscope\n"
        "print(sorted(set(levelscope.__all__) - set(dir(levelscope))))\n"
        "print([n for n in levelscope.__all__ if n != '__version__' and not any(\n"
        "    getattr(importlib.import_module(f'levelscope.{m}'), n, None) is getattr(levelscope, n)\n"
        "    for m in ('numerics', 'spectra', 'presets', 'diffusive', 'open_system'))])"
    )
    assert _fresh(code).splitlines() == ["[]", "[]"]


def test_lazy_names_are_bound_once():
    for name in ("DiffusiveConfig", "fidelity_overlap", "mean_y_series", "distribution"):
        value = getattr(levelscope, name)
        assert vars(levelscope)[name] is value
    assert levelscope.fidelity_overlap is observables.fidelity_overlap is diffusive.fidelity_overlap


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from levelscope import *", namespace)
    assert set(levelscope.__all__) <= set(namespace)
    assert namespace["survival"] is observables.survival


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        levelscope.no_such_name  # noqa: B018
    assert getattr(levelscope, "BACKEND", None) is None


def test_moved_errors_are_one_class():
    assert observables.ZeroEnergy is numerics.ZeroEnergy is levelscope.ZeroEnergy
    assert observables.MismatchedConfig is numerics.MismatchedConfig


def test_zero_energy_in_an_open_system_command_exits_2(tmp_path, capsys):
    # omega = lam = 0 makes <H0> vanish, so <y(b)> has no period estimate.
    argv = ["ymean", "--b", "2", "--omega", "0", "--lambda", "0",
            "--grid", "log:1e-3:1:3", "--out", str(tmp_path / "y.csv")]
    assert main(argv) == EXIT_USAGE
    assert "<H0> = 0" in capsys.readouterr().err


LABELS = ["b=1", "a & b", "<y(b)> / hbar", "x < 1 > 0", "\"quoted\" 'single'", "&amp; &lt;", ""]


@pytest.mark.parametrize("label", LABELS)
def test_escape_matches_saxutils(label):
    assert _escape(label) == escape(label)


def test_svg_labels_are_escaped():
    svg = line_plot([("a & <b>", [1.0, 10.0], [0.0, 1.0])],
                    title="<y(b)> & F", x_label="kappa t", y_label="<y(b)> / hbar")
    assert "&lt;y(b)&gt; &amp; F" in svg
    assert "a &amp; &lt;b&gt;" in svg
