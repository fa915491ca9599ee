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
from levelscope import diffusive, numerics, observables
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


def test_observables_aliases_the_diffusive_objects():
    # The benchmark harness calls and traces these names; each must be the
    # diffusive function itself, so a wrapper on either attribute sees it.
    for name in ("fidelity_overlap", "survival", "mean_y_point", "mean_y_series"):
        assert getattr(observables, name) is getattr(diffusive, name)
    assert levelscope.DiffusiveConfig is diffusive.DiffusiveConfig
    assert callable(main) and callable(build_parser)


def test_import_loads_only_the_closed_system_modules():
    # Both halves load inside the commands that use them: spectra and
    # presets in criterion and scan, the open-system modules in the rest.
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
    # Fidelity, survival and <y(b)> are scalar arithmetic: no b-ladder, no
    # arrays.
    statement = f"from levelscope.cli import main\nassert main({[*argv, '--format', fmt]!r}) == 0"
    assert _loaded_after(statement, cwd=tmp_path) == dict.fromkeys(HEAVY, False)


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
