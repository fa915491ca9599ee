"""End-to-end tests of the command-line interface."""

import argparse
import contextlib
import functools
import gc
import io
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from levelscope import cli, presets, spectra
from levelscope.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, build_parser, main, run
from levelscope.cli_closed import model_from_args
from levelscope.cli_files import csv_rows
from levelscope.diffusive import log_points
from levelscope.numerics import fmt
from oracles import fidelity_terminating, harness, harness_oracles

SRC = Path(__file__).resolve().parents[1] / "src"
WORKLOADS = harness("workloads")
read_table = harness_oracles.read_table


def test_criterion_box_table(capsys):
    assert main(["criterion", "--model", "box", "--n", "4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "unresolvable" in out
    assert "0.458148928649" in out


def test_criterion_box_json(capsys):
    assert main(["criterion", "--model", "box", "--n", "4", "--format", "json"]) == EXIT_OK
    record = json.loads(capsys.readouterr().out)
    assert record["verdict"] == "unresolvable"
    assert record["y_over_hbar"] == pytest.approx(math.pi / 4 * 7 / 12, rel=1e-12)


def test_criterion_harmonic_is_period_blind(capsys):
    assert main(["criterion", "--model", "harmonic", "--n", "7"]) == EXIT_USAGE
    assert "period-blind" in capsys.readouterr().out


def test_quartic_without_its_quartic_term_is_period_blind(tmp_path, capsys):
    # At lam = 0 the period is 2 pi / omega at every level, as for the
    # harmonic oscillator, whatever the level asked for.
    model = ["--model", "quartic", "--omega", "1", "--lambda", "0"]
    assert main(["criterion", *model, "--n", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ("n=3: verdict: period-blind (quartic period is energy independent: "
                            "dTau = 0 for every n, the period cannot probe this spectrum)\n")
    assert captured.err == ""
    out = tmp_path / "q.csv"
    assert main(["scan", *model, "--n-max", "5", "--out", str(out)]) == EXIT_USAGE
    assert "error: quartic period is energy independent" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "box", "--width", "inf"], "width must be finite"),
        (["--model", "quartic", "--lambda", "nan"], "lam must be finite"),
    ],
    ids=["box-width-inf", "quartic-lambda-nan"],
)
def test_criterion_non_finite_model_exits_2(capsys, argv, message):
    assert main(["criterion", *argv, "--n", "4"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv, message",
    [
        (["criterion", "--model", "box", "--mass", "1e-300", "--width", "1e-300", "--n", "3"],
         "E_n is not finite at n=2"),
        (["scan", "--model", "box", "--mass", "1e300", "--width", "1e300",
          "--n-min", "2", "--n-max", "5"], "E_n is not finite at n=1"),
        (["criterion", "--model", "hydrogenoid", "--mass", "1e300", "--charge", "1e300",
          "--n", "3"], "E_n is not finite at n=2"),
        (["criterion", "--model", "hydrogenoid", "--mass", "1e-300", "--charge", "1e-300",
          "--n", "3"], "tau_n is not finite at n=2"),
        (["criterion", "--model", "quartic", "--omega", "1e308", "--lambda", "1e308",
          "--n", "5"], "E_n is not finite at n=5"),
        (["scan", "--model", "quartic", "--omega", "1e308", "--lambda", "5e307",
          "--n-min", "1", "--n-max", "1"], "tau_n is not finite at n=1"),
        (["scan", "--model", "quartic", "--omega", "1e308", "--lambda", "1e308",
          "--n-min", "1", "--n-max", "5"], "E_n is not finite at n=1"),
    ],
    ids=["criterion-box-small", "scan-box-large", "criterion-hydrogenoid-large",
         "criterion-hydrogenoid-small", "criterion-quartic-large", "scan-quartic-zero-period",
         "scan-quartic-large"],
)
def test_closed_model_overflow_exits_2(tmp_path, capsys, argv, message):
    # Finite parameters whose levels or periods leave double range: a
    # message naming the level and the quantity, no traceback, no NaN row.
    # A level formula that raises is named at the lowest level it reaches,
    # n - 1 for a criterion.
    out = tmp_path / "scan.csv"
    if argv[0] == "scan":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (f"error: {message}: "
                            "the model parameters leave double-precision range\n")
    assert captured.out == ""
    assert not out.exists()


def test_criterion_out_of_spectrum_exits_2(tmp_path, capsys):
    # criterion and scan name a first level without its lower neighbor alike.
    out = tmp_path / "s.csv"
    for argv in (["criterion", "--model", "box", "--n", "1"],
                 ["scan", "--model", "box", "--n-min", "1", "--n-max", "5", "--out", str(out)]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr().err == "error: n=1 has no lower neighbor in Box\n"
    assert not out.exists()


# Closed forms sum no series, so the closed-system commands take no --eps
# rather than parse one and ignore it.
def test_criterion_has_no_eps(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["criterion", "--model", "box", "--n", "4", "--eps", "nan"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "unrecognized arguments: --eps" in captured.err
    assert captured.out == ""


def test_scan_has_no_eps(tmp_path, capsys):
    out = tmp_path / "box.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--model", "box", "--n-max", "6", "--eps", "1e-8", "--out", str(out)])
    assert exc.value.code == EXIT_USAGE
    assert "unrecognized arguments: --eps" in capsys.readouterr().err
    assert not out.exists()


def test_scan_manifest_keeps_the_default_tolerances(tmp_path):
    out = tmp_path / "box.csv"
    assert main(["scan", "--model", "box", "--n-max", "6", "--out", str(out)]) == EXIT_OK
    _, _, comments = read_table(out)
    assert "# tolerances: rel_eps=1e-10 max_terms=1000000" in comments


def test_scan_box_footer(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code = main(["scan", "--model", "box", "--n-min", "2", "--n-max", "20", "--out", str(out)])
    assert code == EXIT_OK
    header, rows, comments = read_table(out)
    assert header == ["n", "energy", "tau", "d_energy", "d_tau", "y_over_hbar", "resolvable"]
    assert len(rows) == 19
    assert any("first_unresolvable = 4" in c for c in comments)


def test_scan_hydrogenoid_footer_notes_crossing(tmp_path):
    out = tmp_path / "hyd.csv"
    code = main(
        ["scan", "--model", "hydrogenoid", "--n-min", "2", "--n-max", "20", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, _, comments = read_table(out)
    assert any("first_unresolvable = 10" in c for c in comments)
    assert any("n=9" in c for c in comments)


def test_scan_is_byte_deterministic(tmp_path, monkeypatch):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for path in (a, b):
        assert main(
            ["scan", "--model", "box", "--n-min", "2", "--n-max", "30", "--out", str(path)]
        ) == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


def test_scan_json_mirror(tmp_path):
    out = tmp_path / "box.json"
    code = main(
        ["scan", "--model", "box", "--n-min", "2", "--n-max", "6",
         "--out", str(out), "--format", "json"]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["columns"][0] == "n"
    assert payload["manifest"]["command"] == "scan"
    assert len(payload["rows"]) == 5
    assert any("first_unresolvable" in f for f in payload["footer"])


def header_manifest(path):
    """The `#` manifest lines of a CSV data file, parsed into the shape of
    the JSON `manifest` object."""
    _, _, comments = read_table(path)
    title, generated, parameters, tolerances = comments[:4]
    command, version = title.removeprefix("# levelscope ").rsplit(" v", 1)
    tol = dict(kv.split("=") for kv in tolerances.removeprefix("# tolerances: ").split())
    return {
        "command": command,
        "parameters": dict(kv.split("=", 1) for kv in parameters.split()[2:]),
        "tool_version": version,
        "tolerances": {"rel_eps": float(tol["rel_eps"]), "max_terms": int(tol["max_terms"])},
        "timestamp": generated.removeprefix("# generated: "),
    }


GRID3 = ["--grid", "log:1e-3:1:3"]


@pytest.mark.parametrize(
    "argv, data",
    [
        (["scan", "--model", "quartic", "--omega", "0.3", "--n-max", "6", "--out"], "{}"),
        (["scan", "--preset", "h2_morse", "--n-min", "3", "--out"], "{}"),
        (["evolve", "--b", "2", "--eps", "1e-09", "--weight-floor", "0", *GRID3, "--out"], "{}"),
        (["fidelity", "--b", "1,3", "--kappa", "2.5", *GRID3, "--out"], "{}"),
        (["ymean", "--omega", "0.2", "--lambda", "3", "--out"], "{}"),
        (["figures", "1", "--b", "4", *GRID3, "--out"], "{}/figure1.{}"),
        (["figures", "2", *GRID3, "--out"], "{}/figure2.{}"),
        (["figures", "3", "--kappa", "0.5", "--out"], "{}/figure3.{}"),
        (["figures", "4", *GRID3, "--out"], "{}/figure4.{}"),
    ],
    ids=["scan", "scan-preset", "evolve", "fidelity", "ymean",
         "figures1", "figures2", "figures3", "figures4"],
)
def test_csv_header_and_json_manifest_are_one_manifest(tmp_path, monkeypatch, argv, data):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "1700000000")
    paths = []
    for fmt in ("csv", "json"):
        out = str(tmp_path / fmt)
        assert main([*argv, out, "--format", fmt]) == EXIT_OK
        paths.append(Path(data.format(out, fmt)))
    csv_path, json_path = paths
    manifest = json.loads(json_path.read_text())["manifest"]
    assert header_manifest(csv_path) == manifest
    assert manifest["timestamp"] == "2023-11-14T22:13:20Z"
    assert manifest["command"] == " ".join(argv[:2] if argv[0] == "figures" else argv[:1])


H2 = presets.load_model("h2_morse")
SCAN_RANGE = {"n-min": "2", "n-max": "6", "resolved-n-max": "6"}


@pytest.mark.parametrize(
    "argv, parameters",
    [
        (["--model", "box", "--mass", "2", "--width", "0.5"],
         {"model": "box", "mass": "2.0", "width": "0.5", **SCAN_RANGE}),
        (["--model", "hydrogenoid", "--charge-number", "2"],
         {"model": "hydrogenoid", "reduced-mass": "1.0", "charge-number": "2", "charge": "1.0",
          **SCAN_RANGE}),
        (["--model", "quartic", "--omega", "0.3"],
         {"model": "quartic", "omega": "0.3", "lam": "1.0", **SCAN_RANGE}),
        (["--preset", "h2_morse"],
         {"preset": "h2_morse", "model": "morse",
          **{f: str(getattr(H2, f)) for f in H2._fields}, **SCAN_RANGE}),
    ],
    ids=["box", "hydrogenoid", "quartic", "preset"],
)
def test_scan_manifest_names_the_model_it_built(tmp_path, argv, parameters):
    # The catalog name and every field of the model built, whether flags or a
    # preset gave it; omega and lam only where the model has them.
    for fmt in ("csv", "json"):
        out = tmp_path / f"scan.{fmt}"
        argv_fmt = [*argv, "--n-min", "2", "--n-max", "6", "--out", str(out), "--format", fmt]
        assert main(["scan", *argv_fmt]) == EXIT_OK
        manifest = (header_manifest(out) if fmt == "csv"
                    else json.loads(out.read_text())["manifest"])
        assert manifest["parameters"] == dict(sorted(parameters.items()))


def _command_parsers() -> dict[str, argparse.ArgumentParser]:
    """The subparser of each command, as build_parser() declares them."""
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return commands.choices


def _model_action(command: str) -> argparse.Action:
    return next(a for a in _command_parsers()[command]._actions if a.dest == "model")


@pytest.mark.parametrize("command", ["criterion", "scan"])
def test_model_choices_are_the_catalog(command):
    assert tuple(_model_action(command).choices) == tuple(spectra.MODELS)


@pytest.mark.parametrize(
    "argv, model",
    [
        (["--model", "harmonic", "--mass", "1.5", "--omega", "2"],
         spectra.Harmonic(mass=1.5, omega=2.0)),
        (["--model", "box", "--mass", "2", "--width", "0.5"], spectra.Box(mass=2.0, width=0.5)),
        (["--model", "box"], spectra.Box(mass=1.0, width=1.0)),
        (["--model", "hydrogenoid", "--mass", "0.75", "--charge-number", "3", "--charge", "1.25"],
         spectra.Hydrogenoid(reduced_mass=0.75, charge_number=3, charge=1.25)),
        (["--model", "hydrogenoid"], spectra.Hydrogenoid()),
        (["--model", "quartic", "--omega", "0.3", "--lambda", "0.7"],
         spectra.Quartic(omega=0.3, lam=0.7)),
    ],
    ids=["harmonic", "box", "box-defaults", "hydrogenoid", "hydrogenoid-defaults", "quartic"],
)
def test_model_flags_build_the_constructor_model(argv, model):
    for command in ("criterion", "scan"):
        tail = ["--n", "2"] if command == "criterion" else ["--out", "unused.csv"]
        built = model_from_args(build_parser().parse_args([command, *argv, *tail]))
        assert built == model and repr(built) == repr(model)


def test_morse_flags_point_to_a_preset():
    args = build_parser().parse_args(["criterion", "--model", "morse", "--n", "2"])
    with pytest.raises(ValueError) as exc:
        model_from_args(args)
    assert str(exc.value) == "morse runs from a preset file: use --preset h2_morse or a path"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--model", "box", "--omega", "3", "--charge", "7"],
         "--omega does not apply to --model box, which reads --mass, --width"),
        (["--model", "harmonic", "--lambda", "2"],
         "--lambda does not apply to --model harmonic, which reads --mass, --omega"),
        (["--model", "hydrogenoid", "--width", "2"],
         "--width does not apply to --model hydrogenoid, "
         "which reads --mass, --charge-number, --charge"),
        (["--model", "quartic", "--mass", "2"],
         "--mass does not apply to --model quartic, which reads --omega, --lambda"),
        (["--preset", "h2_morse", "--mass", "50"],
         "--mass does not apply with --preset, which sets the model and each of its fields"),
        (["--model", "box", "--preset", "h2_morse"],
         "--model does not apply with --preset, which sets the model and each of its fields"),
        ([], "one of --model or --preset is required"),
    ],
    ids=["box-omega", "harmonic-lambda", "hydrogenoid-width", "quartic-mass", "preset-mass",
         "preset-model", "no-model"],
)
@pytest.mark.parametrize("command", ["criterion", "scan"])
def test_stray_model_flag_exits_2_and_writes_nothing(tmp_path, capsys, command, argv, message):
    # A flag the chosen model would not read is refused by name, never
    # ignored; with no model at all, the flags that choose one are named.
    out = tmp_path / "scan.csv"
    tail = ["--n", "3"] if command == "criterion" else ["--n-max", "5", "--out", str(out)]
    assert main([command, *argv, *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert list(tmp_path.iterdir()) == []


# Every flag a command declares reaches its output: two valid values of it
# give a different stdout or a different written file once the manifest,
# which only records the flags, is stripped. Two flags are exempt: --out,
# a destination, and --kappa, which names the bath in the manifest alone:
# every open-system value is computed at the kappa*t it is printed with.
_FLAG_EXEMPT = {"--out", "--kappa"}
# command -> the argv each flag's two values are appended to
_FLAG_BASE = {
    "criterion": ["criterion", "--n", "3"],
    "scan": ["scan", "--n-max", "6", "--out", "out"],
    "evolve": ["evolve", "--b", "2", *GRID3, "--out", "out"],
    "fidelity": ["fidelity", "--b", "1,2", *GRID3, "--out", "out"],
    "ymean": ["ymean", "--b", "2", *GRID3, "--out", "out"],
    "figures": ["figures", "3", *GRID3, "--out", "out"],
}
# flag -> two valid values; a flag with choices takes its first two, unless listed
_FLAG_VALUES = {
    "--model": ("box", "hydrogenoid"),
    "--preset": ("h2_morse", "../box.cfg"),
    "--mass": ("1", "2"),
    "--width": ("1", "2"),
    "--omega": ("0.5", "2"),
    "--lambda": ("0.5", "2"),
    "--charge-number": ("1", "2"),
    "--charge": ("1", "2"),
    "--n": ("3", "4"),
    "--n-min": ("2", "3"),
    "--n-max": ("6", "7"),
    "--b": ("2", "3"),
    "--grid": ("log:1e-3:1:3", "log:1e-3:1:4"),
    "--eps": ("1e-12", "1e-2"),
    "--weight-floor": ("0", "1e-3"),
    "--svg": ("a.svg", "b.svg"),
}
# closed-system model flag -> a model that reads it
_FLAG_MODEL = {"--mass": "box", "--width": "box", "--omega": "quartic", "--lambda": "quartic",
               "--charge-number": "hydrogenoid", "--charge": "hydrogenoid"}
_DECLARED_FLAGS = [(command, action) for command, sub in _command_parsers().items()
                   for action in sub._actions
                   if action.option_strings and not isinstance(action, argparse._HelpAction)]


def _without_manifest(data: bytes) -> bytes:
    """A written file without the manifest of a JSON or CSV data file."""
    if data.startswith(b"{"):
        payload = json.loads(data)
        del payload["manifest"]
        return json.dumps(payload).encode()
    manifest = (b"# levelscope ", b"# generated:", b"# parameters:", b"# tolerances:")
    return b"\n".join(line for line in data.splitlines() if not line.startswith(manifest))


@pytest.mark.parametrize(
    "command, action",
    [(c, a) for c, a in _DECLARED_FLAGS if a.option_strings[0] not in _FLAG_EXEMPT],
    ids=lambda v: v if isinstance(v, str) else v.option_strings[0][2:],
)
def test_every_flag_reaches_the_output(tmp_path, monkeypatch, capsys, command, action):
    flag = action.option_strings[0]
    values = _FLAG_VALUES[flag] if flag in _FLAG_VALUES else tuple(action.choices)[:2]
    base = list(_FLAG_BASE[command])
    if command in ("criterion", "scan") and flag not in ("--model", "--preset"):
        base += ["--model", _FLAG_MODEL.get(flag, "box")]
    (tmp_path / "box.cfg").write_text("model = box\nmass = 1\nwidth = 1\n")
    outputs = []
    for k, value in enumerate(values):
        run_dir = tmp_path / f"run{k}"
        run_dir.mkdir()
        monkeypatch.chdir(run_dir)
        assert main([*base, flag, value]) == EXIT_OK
        files = {str(p.relative_to(run_dir)): _without_manifest(p.read_bytes())
                 for p in sorted(run_dir.rglob("*")) if p.is_file()}
        outputs.append((capsys.readouterr().out, files))
    assert outputs[0] != outputs[1], f"{command} {flag} {values[0]} and {values[1]}"


def test_csv_rows_format_each_value_as_fmt():
    rows = [
        (1, 0.1, True, "x", np.float64(1 / 3), 2.5e-300, -0.0),
        (40, 1e22, False, "y", np.float64(math.pi), math.inf, 123456789012345.0),
        (2**60, float("nan"), True, "", np.float64(0.0), 1.0, 7.0),
    ]
    assert csv_rows(rows) == "\n".join(",".join(fmt(v) for v in row) for row in rows)
    assert csv_rows([(0.5,)]) == "0.5"
    assert csv_rows([]) == ""


def test_evolve_trace_column(tmp_path):
    out = tmp_path / "evolve.csv"
    code = main(
        ["evolve", "--b", "2", "--grid", "log:1e-3:1:5", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, rows, _ = read_table(out)
    assert header == ["kt", "n", "weight", "trace", "n_cut", "tail_bound"]
    traces = {row[0]: float(row[3]) for row in rows}
    assert len(traces) == 5
    for value in traces.values():
        assert abs(value - 1.0) <= 1e-8


@pytest.mark.parametrize("floor", ["0", "1e-16", "1e-3", "2"])
def test_evolve_csv_rows_are_the_json_rows_formatted_row_by_row(tmp_path, floor):
    # evolve formats the columns shared by one grid point's rows once; the
    # lines must equal the generic per-row formatting of the same rows.
    argv = ["evolve", "--b", "3", "--grid", "log:1e-6:1e3:9", "--weight-floor", floor]
    assert main([*argv, "--out", str(tmp_path / "e.csv")]) == EXIT_OK
    assert main([*argv, "--format", "json", "--out", str(tmp_path / "e.json")]) == EXIT_OK
    rows = [tuple(row) for row in json.loads((tmp_path / "e.json").read_text())["rows"]]
    lines = (tmp_path / "e.csv").read_text().splitlines()
    body = [line for line in lines if not line.startswith("#")][1:]
    assert "\n".join(body) == csv_rows(rows)
    assert (len(rows) > 0) == (floor != "2")


def test_ymean_reaches_late_times(tmp_path):
    # At kappa*t = 1e5 a certified level cut would pass max_terms; the
    # closed-form moments need no cut.
    out = tmp_path / "y.csv"
    code = main(
        ["ymean", "--b", "2,40", "--omega", "0.1", "--lambda", "1", "--grid",
         "log:1e-3:1e5:5", "--out", str(out)]
    )
    assert code == EXIT_OK
    header, rows, comments = read_table(out)
    assert any("moments=closed-form" in c for c in comments)
    assert len(rows) == 5
    for row in rows:
        kt = float(row[0])
        for j, b in enumerate((2, 40)):
            got = [float(v) for v in row[1 + 3 * j: 4 + 3 * j]]
            for g, want in zip(got, harness_oracles.ymean_closed(b, kt, 0.1, 1.0)):
                assert g == pytest.approx(want, rel=1e-9)


def test_ymean_moment_overflow_exits_2(tmp_path, capsys):
    code = main(["ymean", "--grid", "log:1e-3:1e200:5", "--out", str(tmp_path / "y.csv")])
    assert code == EXIT_USAGE
    assert "overflows" in capsys.readouterr().err
    assert not (tmp_path / "y.csv").exists()


@pytest.mark.parametrize("eps", ["0", "-1", "nan"])
def test_nonpositive_eps_exits_2(tmp_path, capsys, eps):
    out = tmp_path / "e.csv"
    code = main(["evolve", "--b", "2", "--eps", eps, "--grid", "log:1e-3:1:3", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: rel_eps must lie in [1e-12, 1): the weights carry about 1.6e-14 "
        f"relative rounding, got {float(eps):g}\n"
    )
    assert not out.exists()


# Fidelity, survival and <y(b)> are closed forms or finite sums: only evolve
# truncates a series, so only evolve takes --eps.
@pytest.mark.parametrize(
    "argv",
    [
        ["fidelity", "--out", "f.csv"],
        ["ymean", "--out", "y.csv"],
        ["figures", "1", "--out", "figs"],
        ["figures", "2", "--out", "figs"],
        ["figures", "3", "--out", "figs"],
        ["figures", "4", "--out", "figs"],
    ],
    ids=["fidelity", "ymean", "figures1", "figures2", "figures3", "figures4"],
)
def test_only_evolve_takes_eps(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv[:-1], str(tmp_path / argv[-1]), "--eps", "1e-8", "--grid", "log:1e-3:1:3"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert "unrecognized arguments: --eps" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


# F, P_b and the Fock populations are functions of b and kappa*t alone: only
# <y(b)> reads the oscillator, so only ymean takes --omega and --lambda.
@pytest.mark.parametrize(
    "argv, flag",
    [
        (["evolve", "--b", "2", "--omega", "2", "--out", "e.csv"], "--omega"),
        (["fidelity", "--lambda", "3", "--out", "f.csv"], "--lambda"),
        (["figures", "1", "--omega", "2", "--out", "figs"], "--omega"),
    ],
    ids=["evolve", "fidelity", "figures"],
)
def test_only_ymean_takes_the_oscillator(tmp_path, capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv[:-1], str(tmp_path / argv[-1]), "--grid", "log:1e-3:1:3"])
    assert exc.value.code == EXIT_USAGE
    captured = capsys.readouterr()
    assert f"unrecognized arguments: {flag}" in captured.err
    assert captured.out == "" and not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [["fidelity", "--out", "f.csv"], ["figures", "2", "--out", "."]])
def test_open_system_manifest_keeps_the_default_tolerances(tmp_path, argv):
    assert main([*argv[:-1], str(tmp_path / argv[-1]), "--grid", "log:1e-3:1:3"]) == EXIT_OK
    data = next(tmp_path.glob("*.csv"))
    _, _, comments = read_table(data)
    assert "# tolerances: rel_eps=1e-10 max_terms=1000000" in comments


@pytest.mark.parametrize("eps", ["1e-300", "1e-13", "inf"])
def test_eps_outside_the_certifiable_range_exits_2(tmp_path, capsys, eps):
    out = tmp_path / "e.csv"
    code = main(
        ["evolve", "--b", "2", "--eps", eps, "--grid", "log:1e-3:1:3", "--out", str(out)]
    )
    assert code == EXIT_USAGE
    assert "rel_eps must lie in [1e-12, 1)" in capsys.readouterr().err
    assert not out.exists()


def test_eps_at_the_floor_is_certified(tmp_path):
    out = tmp_path / "e.csv"
    code = main(
        ["evolve", "--b", "2", "--eps", "1e-12", "--grid", "log:1e-3:10:4", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, rows, _ = read_table(out)
    assert rows and all(float(row[5]) <= 1e-12 for row in rows)


@pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
def test_evolve_weight_floor_outside_its_domain_exits_2(tmp_path, capsys, floor):
    out = tmp_path / "e.csv"
    code = main(["evolve", "--b", "2", "--weight-floor", floor, "--grid", "log:1e-3:1:3",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "--weight-floor must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


F_NEEDS_B_1 = "fidelity needs b >= 1 (compares |b> with |b-1>)"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fidelity"], F_NEEDS_B_1),
        (["ymean"], "ymean needs b >= 1"),
        (["figures", "1"], F_NEEDS_B_1),
        (["figures", "2"], None),
        (["figures", "3"], "ymean needs b >= 1"),
        (["figures", "4"], "ymean needs b >= 1"),
    ],
    ids=["fidelity", "ymean", "figures-1", "figures-2", "figures-3", "figures-4"],
)
def test_b_0_names_the_curve_that_needs_b_1(tmp_path, capsys, argv, message):
    # F and <y(b)> compare |b> with |b-1>; P_b(0, t) is a curve of its own.
    out = tmp_path / "f"
    code = main([*argv, "--b", "0,5", "--grid", "log:1e-3:1:3", "--out", str(out)])
    if message is None:
        assert code == 0
        header, rows, _ = read_table(out / "figure2.csv")
        assert header == ["kt", "b0", "b5"] and len(rows) == 3
    else:
        assert code == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("b", [2**53 + 1, 10**200], ids=["2**53+1", "10**200"])
@pytest.mark.parametrize("argv", [["evolve"], ["fidelity"], ["ymean"], ["figures", "1"],
                                  ["figures", "2"], ["figures", "3"], ["figures", "4"]],
                         ids=" ".join)
def test_b_beyond_2_to_the_53_exits_2(tmp_path, capsys, argv, b):
    # b and b - 1 round to the same double past 2**53 (<y(b)> read 0 there),
    # and the tables of the weight and fidelity sums would hold b entries.
    code = main([*argv, "--b", str(b), "--grid", "log:1e-3:1:3", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert f"b must be at most 2**53, got {b}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_figures_families(tmp_path):
    for which, columns in ((1, ["kt", "b1", "b5"]), (2, ["kt", "b1", "b5"])):
        out_dir = tmp_path / f"f{which}"
        code = main(
            ["figures", str(which), "--b", "1,5", "--grid", "log:1e-3:1e2:9",
             "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        header, rows, comments = read_table(out_dir / f"figure{which}.csv")
        assert header == columns
        ET.fromstring((out_dir / f"figure{which}.svg").read_text())
        if which == 1:
            assert float(rows[0][1]) < 1e-2  # fidelity starts near zero
        if which == 2:
            # survival ordering at mid-times: higher b decays faster
            mid = rows[len(rows) // 2]
            assert float(mid[1]) >= float(mid[2])


def test_figures_match_the_curve_commands(tmp_path):
    # figures 1 and 3 carry the same numbers as fidelity and ymean.
    grid = ["--grid", "log:1e-3:1e2:9"]
    assert main(["figures", "1", "--b", "1,5", *grid, "--out", str(tmp_path / "f1")]) == EXIT_OK
    assert main(["fidelity", "--b", "1,5", *grid, "--out", str(tmp_path / "fid.csv")]) == EXIT_OK
    _, figure_rows, _ = read_table(tmp_path / "f1" / "figure1.csv")
    _, fidelity_rows, _ = read_table(tmp_path / "fid.csv")
    assert figure_rows == fidelity_rows

    assert main(["figures", "3", *grid, "--out", str(tmp_path / "f3")]) == EXIT_OK
    code = main(
        ["ymean", "--omega", "0.1", "--lambda", "1", *grid, "--out", str(tmp_path / "y.csv")]
    )
    assert code == EXIT_OK
    figure_header, figure_rows, _ = read_table(tmp_path / "f3" / "figure3.csv")
    header, ymean_rows, _ = read_table(tmp_path / "y.csv")
    columns = [0] + [header.index(f"y_mean_{name}") for name in figure_header[1:]]
    assert [[row[j] for j in columns] for row in ymean_rows] == figure_rows


def test_fidelity_reaches_late_times(tmp_path):
    # At kappa*t = 1e5 the distributions span millions of levels; F, a
    # terminating sum, does not need them.
    grid = ["--grid", "log:1e-3:1e5:5", "--format", "json"]
    assert main(["fidelity", *grid, "--out", str(tmp_path / "f.json")]) == EXIT_OK
    assert main(["figures", "1", *grid, "--out", str(tmp_path / "figs")]) == EXIT_OK
    for path in (tmp_path / "f.json", tmp_path / "figs" / "figure1.json"):
        table = json.loads(path.read_text())
        b_values = [int(name.rpartition("b")[2]) for name in table["columns"][1:]]
        assert b_values == [1, 5, 10, 15]
        assert [row[0] for row in table["rows"]] == [1e-3, 1e-1, 10.0, 1e3, 1e5]
        for kt, *values in table["rows"]:
            for b, value in zip(b_values, values):
                want = fidelity_terminating(b, kt)
                assert abs(value - want) <= 3e-14 * want, (path.name, b, kt)


def test_figures_ymean_defaults(tmp_path):
    out_dir = tmp_path / "f3"
    code = main(["figures", "3", "--grid", "log:1e-3:1:5", "--out", str(out_dir)])
    assert code == EXIT_OK
    header, rows, comments = read_table(out_dir / "figure3.csv")
    assert header == ["kt", "b2", "b5", "b10", "b15"]
    assert any("omega-over-lam = 0.1" in c.replace("=", " = ") for c in comments)
    assert any("moments=closed-form" in c for c in comments)
    # the angle brackets of the y-axis label must be XML-escaped
    ET.fromstring((out_dir / "figure3.svg").read_text())


def test_bad_grid_exits_2(tmp_path, capsys):
    code = main(["fidelity", "--grid", "lin:0:1:5", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "grid" in capsys.readouterr().err


def test_infinite_grid_stop_exits_2(tmp_path, capsys):
    # 1e400 parses as inf: the grid is refused before any weight is summed.
    code = main(["fidelity", "--grid", "log:1e-3:1e400:5", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "grid" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["fidelity"], ["ymean"], ["figures", "1"], ["evolve", "--b", "2"]],
    ids=["fidelity", "ymean", "figures", "evolve"],
)
def test_grid_stop_at_the_float_ceiling_exits_2(tmp_path, capsys, argv):
    # STOP is finite, but 10 ** log10(STOP) rounds past the largest double:
    # the grid is refused with a message, and nothing is written.
    out = tmp_path / "out"
    code = main([*argv, "--grid", "log:1:1.7976931348623157e308:3", "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert ("error: log grid STOP=1.7976931348623157e+308 is too close to the float ceiling: "
            "10 ** log10(STOP) overflows") in err
    assert not out.exists()


# Nine log-spaced points between 1 and 1 + 2 ulp round to three doubles,
# each repeated.
REPEATING_GRID = "log:1:1.0000000000000004:9"
REPEATS = ("error: log grid START=1.0, STOP=1.0000000000000004, POINTS=9 is not strictly "
           "increasing: some of its points round to the same double")


@pytest.mark.parametrize(
    "argv",
    [["evolve", "--b", "2"], ["fidelity"], ["ymean"], ["figures", "1"], ["figures", "2"],
     ["figures", "3"], ["figures", "4"]],
    ids=["evolve", "fidelity", "ymean", "figures1", "figures2", "figures3", "figures4"],
)
def test_grid_with_repeated_points_exits_2(tmp_path, capsys, argv):
    # Every grid command refuses the grid itself, with one message, before
    # it writes a file or makes a directory.
    out = tmp_path / "out"
    assert main([*argv, "--grid", REPEATING_GRID, "--out", str(out)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == REPEATS + "\n" and captured.out == ""
    assert not any(tmp_path.iterdir())


def test_evolve_checks_eps_before_the_grid(tmp_path, capsys):
    out = tmp_path / "e.csv"
    code = main(["evolve", "--b", "2", "--eps", "1e-300", "--grid", REPEATING_GRID,
                 "--out", str(out)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "rel_eps must lie in [1e-12, 1)" in err and "log grid" not in err
    assert not any(tmp_path.iterdir())


GRID_RULE = "log grid needs 0 < START < STOP < inf and POINTS >= 2, got "
GRID_FORMAT = "grid must look like log:START:STOP:POINTS"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("log:1e-3:1:1", GRID_RULE + "START=0.001, STOP=1.0, POINTS=1"),
        ("log:1:1e-3:5", GRID_RULE + "START=1.0, STOP=0.001, POINTS=5"),
        ("log:0:1:5", GRID_RULE + "START=0.0, STOP=1.0, POINTS=5"),
        ("log:1e-3:nan:5", GRID_RULE + "START=0.001, STOP=nan, POINTS=5"),
        ("log:1e-3:1", GRID_FORMAT),
        ("lin:1:2:3", GRID_FORMAT),
    ],
    ids=["one-point", "reversed", "zero-start", "nan-stop", "three-fields", "lin"],
)
def test_bad_grid_names_what_is_wrong(tmp_path, capsys, spec, message):
    # A well-formed grid with a bad value names the rule it breaks; only a
    # malformed one gets the format message.
    out = tmp_path / "f.csv"
    assert main(["fidelity", "--b", "1", "--grid", spec, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert (GRID_FORMAT in err) == (message == GRID_FORMAT)
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evolve", "--b", "2", "--kappa", "inf"], "kappa must be finite"),
        (["ymean", "--omega", "nan"], "omega must be finite"),
        (["ymean", "--lambda", "inf"], "lam must be finite"),
        # --kappa is checked once, after the grid spec, with the message of
        # DiffusiveConfig; every configuration a command builds is at kappa = 1.
        (["evolve", "--b", "2", "--kappa", "0"], "kappa must be finite and positive, got 0.0"),
        (["fidelity", "--kappa", "-1"], "kappa must be finite and positive, got -1.0"),
        (["fidelity", "--kappa", "inf"], "kappa must be finite and positive"),
        (["fidelity", "--kappa", "nan"], "kappa must be finite and positive"),
        (["ymean", "--kappa", "inf"], "kappa must be finite and positive"),
        (["ymean", "--kappa", "nan"], "kappa must be finite and positive"),
        (["figures", "1", "--kappa", "inf"], "kappa must be finite and positive"),
        (["figures", "1", "--kappa", "nan"], "kappa must be finite and positive"),
    ],
    ids=["kappa-inf", "omega-nan", "lambda-inf", "evolve-kappa-0", "fidelity-kappa-negative",
         "fidelity-kappa-inf", "fidelity-kappa-nan", "ymean-kappa-inf", "ymean-kappa-nan",
         "figures-1-kappa-inf", "figures-1-kappa-nan"],
)
def test_non_finite_bath_parameters_exit_2(tmp_path, capsys, argv, message):
    code = main(argv + ["--grid", "log:1e-3:1:3", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


OPEN_COMMANDS = [["evolve", "--b", "2"], ["fidelity"], ["ymean"],
                 ["figures", "1"], ["figures", "2"], ["figures", "3"], ["figures", "4"]]


def _open_run(command, kappa, start):
    """(exit code, stdout, {name: text}) of an open command at --kappa kappa,
    each written file without its generated line and with the kappa of its
    manifest blanked."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp, "x")
        svg = ["--svg", f"{out}.svg"] if command[0] in ("fidelity", "ymean") else []
        argv = [*command, *svg, "--kappa", kappa, "--grid", f"log:{start}:1:3", "--out", str(out)]
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
        files = {}
        for path in sorted(Path(tmp).rglob("*")):
            if path.is_file():
                lines = [line for line in path.read_text().splitlines()
                         if not line.startswith("# generated:")]
                files[path.name] = [re.sub(r" kappa=\S+", " kappa=", line)
                                    if line.startswith("# parameters:") else line
                                    for line in lines]
        return code, stdout.getvalue().replace(tmp, "TMP"), files


@functools.cache
def _open_run_at_kappa_1(command, start):
    return _open_run(list(command), "1", start)


@settings(max_examples=50, deadline=None, derandomize=True)
@given(command=st.sampled_from(OPEN_COMMANDS),
       kappa=st.floats(min_value=5e-324, max_value=1.7e308),
       start=st.sampled_from(["1e-16", "1e-3"]))
def test_open_commands_at_any_kappa_write_the_rows_of_kappa_1(command, kappa, start):
    # Every value is computed at the kappa*t it is printed with, so at any
    # valid kappa every open command writes the files of kappa = 1, but for
    # the kappa its manifest names.
    code, stdout, files = _open_run(command, repr(kappa), start)
    assert code == EXIT_OK
    assert (code, stdout, files) == _open_run_at_kappa_1(tuple(command), start)


def test_non_integer_b_exits_2(tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--b", "2.5", "--out", str(tmp_path / "x.csv")])
    assert exc.value.code == EXIT_USAGE
    assert "invalid int value" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["fidelity", "--b", "1,1"], ["ymean", "--b", "2,5,2"], ["figures", "1", "--b", "5,5"]],
    ids=["fidelity", "ymean", "figures"],
)
def test_repeated_b_index_exits_2(tmp_path, capsys, argv):
    # A repeated index would write two columns of the same name.
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "log:1e-3:1:3", "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert "repeats an index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["fidelity", "--b", "1,x"], "expected comma-separated integers, got '1,x'"),
        (["ymean", "--b=-1"], "b list must be non-negative integers, got '-1'"),
    ],
    ids=["not-an-integer", "negative"],
)
def test_b_list_of_no_level_indices_exits_2(tmp_path, capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--grid", "log:1e-3:1:3", "--out", str(tmp_path / "x")])
    assert exc.value.code == EXIT_USAGE
    assert f"argument --b: {message}" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_preset_with_fractional_charge_number_exits_2(tmp_path, capsys):
    cfg = tmp_path / "h.cfg"
    cfg.write_text("model = hydrogenoid\nreduced_mass = 1\ncharge_number = 1.5\ncharge = 1\n")
    assert main(["criterion", "--preset", str(cfg), "--n", "3"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == "error: charge_number must be an integer >= 1, got 1.5\n"
    assert captured.out == ""


@pytest.mark.parametrize("anharmonicity", ["1e7", "1e12"])
def test_wide_morse_well_answers_at_once(tmp_path, capsys, anharmonicity):
    # The well holds only n = 0 of about anharmonicity / 2 climbing levels;
    # the ceiling search must not walk down through them one at a time.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("model = morse\ndepth = 1\nalpha = 1\nanharmonicity = "
                   f"{anharmonicity}\nmass = 1\nr0 = 1\nomega = 1\n")
    start = time.perf_counter()
    code = main(["criterion", "--preset", str(cfg), "--n", "1"])
    assert time.perf_counter() - start < 1.0
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: n=1 lies past the top of the Morse well (last bound level n=0)\n")


def test_missing_preset_exits_2(tmp_path, capsys):
    code = main(["scan", "--preset", "unobtainium", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE


@pytest.mark.parametrize("name", ["unobtainium", "nope.cfg", "{tmp}/nope.cfg"])
@pytest.mark.parametrize("command", ["criterion", "scan"])
def test_missing_preset_names_it_and_the_bundled_ones(tmp_path, monkeypatch, capsys, command,
                                                      name):
    # A missing file ending in .cfg, which is never looked up among the
    # bundled presets, gets the message of a missing name, not a bare errno.
    monkeypatch.chdir(tmp_path)
    preset = name.format(tmp=tmp_path)
    tail = ["--n", "3"] if command == "criterion" else ["--out", "s.csv"]
    assert main([command, "--preset", preset, *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no preset file {preset!r} and no bundled preset of that "
                            "name (bundled: h2_morse)\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("name", ["{tmp}/p/x", "p/x"])
@pytest.mark.parametrize("command", ["criterion", "scan"])
def test_preset_path_is_never_a_bundled_name(tmp_path, monkeypatch, capsys, command, name):
    # Only a bare name is looked up among the bundled presets, so a missing
    # path does not load the x.cfg beside it, and a bundled name still loads.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "p").mkdir()
    (tmp_path / "p" / "x.cfg").write_text("model = box\nmass = 1\nwidth = 1\n")
    (tmp_path / "out").mkdir()
    preset = name.format(tmp=tmp_path)
    tail = ["--n", "3"] if command == "criterion" else ["--out", "out/s.csv"]
    assert main([command, "--preset", preset, *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: no preset file {preset!r} and no bundled preset of that "
                            "name (bundled: h2_morse)\n")
    assert list((tmp_path / "out").iterdir()) == []
    assert main([command, "--preset", "h2_morse", *tail]) == 0


@pytest.mark.parametrize("kind, reason", [("directory", "Is a directory"),
                                          ("not-utf8", "can't decode byte 0xff"),
                                          ("name-too-long", "File name too long")])
@pytest.mark.parametrize("command", ["criterion", "scan"])
def test_unreadable_preset_exits_2_naming_it(tmp_path, capsys, command, kind, reason):
    # A preset that cannot be read as UTF-8 text is a bad argument, not an
    # output failure (exit 4), and the message says which preset it was.
    preset = tmp_path / "preset"
    if kind == "directory":
        preset.mkdir()
    elif kind == "not-utf8":
        preset.write_bytes(b"\xff\xfe")
    else:
        preset = tmp_path / ("a" * 5000)
    out = tmp_path / "out"
    out.mkdir()
    tail = ["--n", "3"] if command == "criterion" else ["--out", str(out / "s.csv")]
    assert main([command, "--preset", str(preset), *tail]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot read preset {str(preset)!r}: ")
    assert reason in captured.err
    assert list(out.iterdir()) == []


def test_scan_without_ceiling_needs_n_max(tmp_path, capsys):
    code = main(["scan", "--model", "box", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: n_max is required: Box has no level ceiling\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("model, name", [
    (["--model", "harmonic"], "harmonic"),
    (["--model", "quartic", "--lambda", "0"], "quartic"),
], ids=["harmonic", "quartic-lambda-0"])
def test_period_blind_scan_without_n_max_is_refused_as_such(tmp_path, capsys, model, name):
    # Not for the --n-max that no value of could help.
    code = main(["scan", *model, "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {name} period is energy independent: dTau = 0 "
                                   "for every n, the period cannot probe this spectrum\n")
    assert list(tmp_path.iterdir()) == []


def test_scan_past_the_top_of_the_well_names_the_level(tmp_path, capsys):
    # --n-max left out resolves to the top of the well, n = 16, and the
    # range is refused by its first level past the top, not as empty.
    code = main(["scan", "--preset", "h2_morse", "--n-min", "17",
                 "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert capsys.readouterr() == (
        "", "error: n=17 lies past the top of the Morse well (last bound level n=16)\n")
    assert list(tmp_path.iterdir()) == []


def test_figures_directory_that_cannot_be_made_exits_4(tmp_path, monkeypatch, capsys):
    # Every OSError is an I/O failure, a FileNotFoundError from mkdir too.
    def refuse(self, *args, **kwargs):
        raise FileNotFoundError(2, "No such file or directory", str(self))

    monkeypatch.setattr(Path, "mkdir", refuse)
    out = tmp_path / "figs"
    assert main(["figures", "1", "--out", str(out)]) == EXIT_IO
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: I/O failure: [Errno 2] No such file or directory: "
                            f"{str(out)!r}\n")
    assert list(tmp_path.iterdir()) == []


def test_unwritable_output_exits_4(tmp_path):
    target = tmp_path / "missing_dir" / "out.csv"
    code = main(["scan", "--model", "box", "--n-max", "5", "--out", str(target)])
    assert code == EXIT_IO
    # evolve streams its CSV through its own open file.
    code = main(["evolve", "--b", "2", "--grid", "log:1e-3:1:3", "--out", str(target)])
    assert code == EXIT_IO
    assert not target.parent.exists()


def test_evolve_reaches_kappa_t_1e4(tmp_path, capsys):
    # The proven cut at kappa*t = 1e4 keeps under 7e5 levels, within
    # max_terms; its tail bound meets rel_eps.
    out = tmp_path / "e.csv"
    code = main(["evolve", "--b", "2", "--grid", "log:1e3:1e4:2", "--out", str(out)])
    assert code == EXIT_OK
    assert capsys.readouterr().err == ""
    with out.open() as lines:
        shared = {tuple(line.split(",")[3:]) for line in lines if line[0].isdigit()}
    assert len(shared) == 2
    for trace, n_cut, tail in shared:
        assert abs(float(trace) - 1.0) <= 1e-10 and float(tail) <= 1e-10
        assert int(n_cut) < 1_000_000


@pytest.mark.parametrize("grid, kt", [("log:1e6:1e7:2", "1e+06"), ("log:1e4:1e5:2", "100000")],
                         ids=["mean-past-the-cap", "cut-past-the-cap"])
def test_evolve_past_the_level_cap_exits_2(tmp_path, capsys, grid, kt):
    # At kappa*t = 1e6 the mean level b + 2 kappa*t is past MAX_TERMS levels;
    # at 1e5 the mean is below it but the proven cut is not. The cap is a
    # refusal: every cut comes before the file is opened, so none is left.
    out = tmp_path / "x.csv"
    code = main(["evolve", "--b", "0", "--grid", grid, "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == ("error: no level cut within max_terms=1000000 levels "
                                       f"proves the tail for b=0 at kappa*t = {kt}\n")
    assert not out.exists()


def test_evolve_past_the_second_moment_range_exits_2(tmp_path, capsys):
    # From kappa*t = 4.75e153 on, <N^2> overflows: a domain error, not a
    # cut that never converges.
    out = tmp_path / "x.csv"
    code = main(["evolve", "--b", "2", "--grid", "log:1e154:1e155:2", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: <N^2> overflows at kappa*t = 1e+154\n"
    assert not out.exists()


# The benchmark's CLI workloads, seeds 1-3: every operation of each plan runs
# through main() in a directory of its own, and the harness's own oracles
# (levelbench/oracles.py check_cli) judge its exit code, stdout and every
# file it writes, as they judge the benchmark's timed runs.
PLANS = {(workload, seed): WORKLOADS.plan(workload, seed)
         for workload in ("closed_cli", "paper_cli") for seed in (1, 2, 3)}
PLAN_ARGV = sorted({op.argv for plan in PLANS.values() for op in plan})


@pytest.fixture(scope="module")
def plan_outputs(tmp_path_factory):
    """(op, exit code, stdout, directory) of each operation of a plan, run once."""
    @functools.cache
    def outputs(workload, seed):
        workdir, runs = tmp_path_factory.mktemp(f"{workload}-{seed}"), []
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(workdir)
            for op in PLANS[workload, seed]:
                out = io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                    code = main(list(op.argv))
                runs.append((op, code, out.getvalue(), workdir))
        return runs

    return outputs


def _oracle_errors(op, code, stdout, workdir):
    checker = harness_oracles.Checker()
    harness_oracles.check_cli(checker, op, code, stdout, str(workdir))
    return checker.errors


def _evolve_grid_errors(op, workdir):
    """An evolve CSV must hold one block per point of its --grid, in order,
    each block's kt the fmt of that log_points value: the harness checks the
    blocks it finds, not that none is missing."""
    if op.check != "evolve":
        return []
    _, start, stop, points = op.argv[op.argv.index("--grid") + 1].split(":")
    want = [fmt(kt) for kt in log_points(float(start), float(stop), int(points))]
    _, rows, _ = read_table(workdir / op.outputs[0])
    got = [kt for kt, _ in itertools.groupby(row[0] for row in rows)]
    return [] if got == want else [f"evolve blocks at kt {got}, grid {want}"]


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("workload", ["closed_cli", "paper_cli"])
def test_benchmark_plans_pass_the_harness_oracles(plan_outputs, workload, seed):
    runs = plan_outputs(workload, seed)
    assert [error for run in runs for error in _oracle_errors(*run)] == []
    assert [error for op, _, _, workdir in runs for error in _evolve_grid_errors(op, workdir)] == []


def _one_digit_off(text):
    """The decimal text with its sixth significant digit moved by one, down
    from a 9 and up from any other digit, so that no carry spreads."""
    value = Decimal(text)
    unit = Decimal(1).scaleb(value.adjusted() - 5).copy_sign(value)
    return str(value - unit if int(value / unit) % 10 == 9 else value + unit)


# Per check kind, the first operation of the seed-1 plans that it judges (the
# harmonic criterion prints no value), and the data column that gets one
# digit changed in its first row: the first value column, unless named here.
# The first row of F is one of the points the harness compares with mpmath.
CHANGED_COLUMN = {"scan": "y_over_hbar", "evolve": "weight"}


@pytest.mark.parametrize("kind", ["criterion", "scan", "fidelity", "survival", "ymean_y",
                                  "ymean", "evolve"])
def test_harness_oracles_catch_one_changed_digit(plan_outputs, kind):
    op, code, stdout, workdir = next(
        run for run in plan_outputs("closed_cli", 1) + plan_outputs("paper_cli", 1)
        if run[0].check == kind and run[0].params.get("model") != "harmonic")
    assert _oracle_errors(op, code, stdout, workdir) == []
    if kind == "criterion":
        changed = re.sub(r"(y / hbar\s*: )(\S+)", lambda m: m[1] + _one_digit_off(m[2]), stdout)
        assert changed != stdout and _oracle_errors(op, code, changed, workdir)
        return
    path = workdir / op.outputs[0]
    text = path.read_text(encoding="utf-8")
    header, rows, _ = read_table(path)
    fields = list(rows[0])
    column = header.index(CHANGED_COLUMN.get(kind, header[1]))
    fields[column] = _one_digit_off(fields[column])
    line = "\n" + ",".join(rows[0]) + "\n"
    assert text.count(line) == 1
    try:
        path.write_text(text.replace(line, "\n" + ",".join(fields) + "\n"), encoding="utf-8")
        assert _oracle_errors(op, code, stdout, workdir)
    finally:
        path.write_text(text, encoding="utf-8")


def test_plan_check_catches_a_deleted_evolve_block(plan_outputs):
    # The harness alone passes an evolve CSV with a block gone; the grid
    # check does not.
    op, code, stdout, workdir = next(
        run for run in plan_outputs("paper_cli", 1) if run[0].check == "evolve")
    assert _evolve_grid_errors(op, workdir) == []
    path = workdir / op.outputs[0]
    _, rows, _ = read_table(path)
    kts = [kt for kt, _ in itertools.groupby(row[0] for row in rows)]
    gone = kts[len(kts) // 2] + ","
    text = path.read_text(encoding="utf-8")
    try:
        path.write_text("".join(line for line in text.splitlines(keepends=True)
                                if not line.startswith(gone)), encoding="utf-8")
        assert _evolve_grid_errors(op, workdir)
        assert _oracle_errors(op, code, stdout, workdir) == []
    finally:
        path.write_text(text, encoding="utf-8")


EDGE_ARGV = [
    [], ["--help"], ["-h"], ["--version"], ["bogus"], ["--bogus"], ["crit"], ["--", "scan"],
    ["criterion", "--model", "box", "--n", "4", "extra"], ["scan", "--n-max", "x"],
    ["figures", "5", "--out", "f"], ["fidelity", "--b", "1,1", "--out", "f.csv"],
    *([name, *flags] for name in cli.COMMANDS for flags in (["--help"], ["-h"], ["--version"],
                                                             ["--bogus"], [])),
    *(["--version", name] for name in cli.COMMANDS),
]


@pytest.mark.parametrize("argv", [list(a) for a in PLAN_ARGV] + EDGE_ARGV,
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_lazy_parser_is_the_full_parser(parse_outcome, argv):
    # main() declares only the flags of the command it runs; the benchmark's
    # argv, help, version and every usage error must parse as with all of them.
    command = next((token for token in argv if not token.startswith("-")), None)
    lazy = cli.build_parser(command if command in cli.COMMANDS else None)
    assert parse_outcome(lazy, argv) == parse_outcome(cli.build_parser(), argv)


@pytest.mark.parametrize("argv", [a for a in EDGE_ARGV
                                  if not any(token in cli.COMMANDS for token in a)],
                         ids=lambda argv: " ".join(argv) or "(none)")
def test_parser_without_command_flags_is_the_full_parser(parse_outcome, argv):
    # main() gives argv that name no command a parser that declares no
    # command's flags: help, version and every usage error stay the same.
    assert parse_outcome(cli.build_parser(""), argv) == parse_outcome(cli.build_parser(), argv)


def test_main_parses_are_checked_against_the_full_parser(monkeypatch):
    # tests/conftest.py compares each parse of main() with build_parser()'s;
    # a full parser that cannot be built shows that it is built for criterion,
    # whose own parser never loads cli_open.
    from levelscope import cli_open

    def broken(command, sub):
        raise RuntimeError("full parser built")

    monkeypatch.setattr(cli_open, "add_arguments", broken)
    with pytest.raises(RuntimeError, match="full parser built"):
        main(["criterion", "--model", "box", "--n", "4"])


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "levelscope" in capsys.readouterr().out


EPOCH_ARGV = [
    ["scan", "--model", "box", "--n-max", "5", "--out", "{out}/s.csv"],
    ["evolve", "--b", "2", "--grid", "log:1e-3:1:3", "--out", "{out}/e.csv"],
    ["fidelity", "--b", "1", "--grid", "log:1e-3:1:3", "--out", "{out}/f.csv",
     "--svg", "{out}/f.svg"],
    ["figures", "3", "--b", "2", "--grid", "log:1e-3:1:3", "--out", "{out}/figs"],
]


@pytest.mark.parametrize("epoch", ["abc", "1e9", "99999999999999999999", "100000000000000000",
                                   "-5", "-1", "999999999999", "253402300800"])
@pytest.mark.parametrize("argv", EPOCH_ARGV)
def test_malformed_source_date_epoch_exits_2_before_writing(tmp_path, monkeypatch, capsys,
                                                            argv, epoch):
    # Not an integer, or a time before 1970 or past 9999-12-31T23:59:59Z,
    # which no four-digit-year timestamp can state.
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    code = main([arg.format(out=tmp_path) for arg in argv])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == (
        "error: SOURCE_DATE_EPOCH must be an integer count of seconds from 0 to "
        f"253402300799 (9999-12-31T23:59:59Z), got {epoch!r}\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("epoch, stamp", [("0", "1970-01-01T00:00:00Z"),
                                          ("253402300799", "9999-12-31T23:59:59Z")])
@pytest.mark.parametrize("argv", EPOCH_ARGV)
def test_source_date_epoch_boundaries_are_written(tmp_path, monkeypatch, capsys, argv, epoch,
                                                  stamp):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", epoch)
    assert main([arg.format(out=tmp_path) for arg in argv]) == EXIT_OK
    assert capsys.readouterr().err == ""
    data = list(tmp_path.rglob("*.csv"))
    assert len(data) == 1
    assert f"# generated: {stamp}\n" in data[0].read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# the process entry point, run()


def _spawn(argv, stdout=subprocess.PIPE, **kwargs):
    """`python -m levelscope.cli ARGV` with PYTHONUNBUFFERED unset, so stdout
    is block-buffered as it is by default: its first write is the flush at
    exit."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run([sys.executable, "-m", "levelscope.cli", *argv], stdout=stdout,
                          stderr=subprocess.PIPE, env=env, timeout=120, **kwargs)


@pytest.mark.parametrize("argv, code", [
    (["criterion", "--model", "box", "--n", "4"], EXIT_OK),
    (["--version"], EXIT_OK),
    (["scan", "--model", "box", "--n-max", "5", "--out", "{out}/s.csv"], EXIT_OK),
    (["criterion", "--model", "box", "--n", "1"], EXIT_USAGE),
    (["criterion", "--model", "box"], EXIT_USAGE),
    (["criterion", "--model", "harmonic", "--n", "3"], EXIT_USAGE),
    (["evolve", "--b", "2", "--grid", "log:1e-3:1e5:3", "--out", "{out}/e.csv"], EXIT_USAGE),
    (["scan", "--model", "box", "--n-max", "5", "--out", "{out}/missing/s.csv"], EXIT_IO),
])
def test_process_exit_code_and_streams_are_mains(tmp_path, capsys, argv, code):
    argv = [arg.format(out=tmp_path) for arg in argv]
    proc = _spawn(argv)
    try:
        expected = main(argv)
    except SystemExit as exc:  # argparse
        expected = exc.code
    out, err = capsys.readouterr()
    assert proc.returncode == expected == code
    assert proc.stdout.decode() == out
    assert proc.stderr.decode() == err
    assert "Exception ignored" not in err


def _assert_io_failure(proc, errno_text):
    assert proc.returncode == EXIT_IO
    err = proc.stderr.decode()
    assert err.startswith(f"error: I/O failure: {errno_text}") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["criterion", "--model", "box", "--n", "4"],
    ["--version"],
    ["scan", "--model", "box", "--n-max", "5", "--out", "{out}/s.csv"],
])
def test_stdout_on_a_full_device_exits_4(tmp_path, argv):
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full")
    with open("/dev/full", "wb") as full:
        proc = _spawn([arg.format(out=tmp_path) for arg in argv], stdout=full)
    _assert_io_failure(proc, "[Errno 28]")


def test_stdout_to_a_closed_pipe_exits_4():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _spawn(["criterion", "--model", "box", "--n", "4"], stdout=write_end)
    finally:
        os.close(write_end)
    _assert_io_failure(proc, "[Errno 32]")


def test_stdout_closed_at_start_is_no_failure():
    # With fd 1 closed before start-up, sys.stdout is None and print writes
    # nothing: there is no stream to flush or to fail.
    proc = _spawn(["criterion", "--model", "box", "--n", "4"], stdout=None,
                  preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (EXIT_OK, b"")


def test_main_leaves_the_heap_unfrozen(capsys):
    assert gc.get_freeze_count() == 0
    assert main(["criterion", "--model", "box", "--n", "4"]) == EXIT_OK
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize("argv, code", [
    (["criterion", "--model", "box", "--n", "4"], EXIT_OK),
    (["criterion", "--model", "harmonic", "--n", "3"], EXIT_USAGE),
    (["criterion", "--model", "box"], EXIT_USAGE),
])
def test_run_exits_with_mains_code_and_a_frozen_heap(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["levelscope", *argv])
    try:
        with pytest.raises(SystemExit) as exc:
            run()
        assert exc.value.code == code
        assert gc.get_freeze_count() > 0
    finally:
        gc.unfreeze()
