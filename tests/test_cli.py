"""End-to-end tests of the command-line interface."""

import argparse
import json
import math
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

from levelscope import presets, spectra
from levelscope.cli import (EXIT_IO, EXIT_NONCONVERGENT, EXIT_OK, EXIT_USAGE, SystemExit2,
                            _csv_rows, _fmt, _model_from_args, build_parser, main)
from oracles import fidelity_terminating


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("#"):
            comments.append(line)
        elif header is None:
            header = line.split(",")
        else:
            rows.append(line.split(","))
    return comments, header, rows


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


def test_criterion_quartic_flags(capsys):
    code = main(["criterion", "--model", "quartic", "--omega", "1", "--lambda", "1", "--n", "2"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    expected = math.pi * 1 * (1 + (2 * 2 - 1)) / ((1 + 2 * 1) * (1 + 2 * 2))
    assert f"{expected:.6g}"[:6] in out


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
         "E_n is not finite at n=3"),
        (["scan", "--model", "box", "--mass", "1e300", "--width", "1e300",
          "--n-min", "2", "--n-max", "5"], "E_n is not finite at n=1"),
        (["criterion", "--model", "hydrogenoid", "--mass", "1e300", "--charge", "1e300",
          "--n", "3"], "E_n is not finite at n=3"),
        (["criterion", "--model", "hydrogenoid", "--mass", "1e-300", "--charge", "1e-300",
          "--n", "3"], "tau_n is not finite at n=3"),
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
    out = tmp_path / "scan.csv"
    if argv[0] == "scan":
        argv = [*argv, "--out", str(out)]
    assert main(argv) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err == (f"error: {message}: "
                            "the model parameters leave double-precision range\n")
    assert captured.out == ""
    assert not out.exists()


def test_criterion_out_of_spectrum_exits_2(capsys):
    assert main(["criterion", "--model", "box", "--n", "1"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


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
    comments, _, _ = read_csv(out)
    assert "# tolerances: rel_eps=1e-10 max_terms=1000000" in comments


def test_scan_box_footer(tmp_path, capsys):
    out = tmp_path / "box.csv"
    code = main(["scan", "--model", "box", "--n-min", "2", "--n-max", "20", "--out", str(out)])
    assert code == EXIT_OK
    comments, header, rows = read_csv(out)
    assert header == ["n", "energy", "tau", "d_energy", "d_tau", "y_over_hbar", "resolvable"]
    assert len(rows) == 19
    assert any("first_unresolvable = 4" in c for c in comments)


def test_scan_hydrogenoid_footer_notes_crossing(tmp_path):
    out = tmp_path / "hyd.csv"
    code = main(
        ["scan", "--model", "hydrogenoid", "--n-min", "2", "--n-max", "20", "--out", str(out)]
    )
    assert code == EXIT_OK
    comments, _, _ = read_csv(out)
    assert any("first_unresolvable = 10" in c for c in comments)
    assert any("n=9" in c for c in comments)


def test_scan_morse_preset_uses_level_ceiling(tmp_path):
    out = tmp_path / "h2.csv"
    code = main(["scan", "--preset", "h2_morse", "--n-min", "1", "--out", str(out)])
    assert code == EXIT_OK
    _, _, rows = read_csv(out)
    assert len(rows) == 16  # n = 1 .. 16
    flags = [row[-1] for row in rows]
    assert flags[:14] == ["false"] * 14  # low levels all below the bound
    assert flags[14:] == ["true", "true"]  # top-of-well levels cross it


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
    comments, _, _ = read_csv(path)
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


def _model_action(command: str) -> argparse.Action:
    commands = next(a for a in build_parser()._actions
                    if isinstance(a, argparse._SubParsersAction))
    return next(a for a in commands.choices[command]._actions if a.dest == "model")


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
        built = _model_from_args(build_parser().parse_args([command, *argv, *tail]))
        assert built == model and repr(built) == repr(model)


def test_morse_flags_point_to_a_preset():
    args = build_parser().parse_args(["criterion", "--model", "morse", "--n", "2"])
    with pytest.raises(SystemExit2) as exc:
        _model_from_args(args)
    assert str(exc.value) == "morse runs from a preset file: use --preset h2_morse or a path"


def test_csv_rows_format_each_value_as_fmt():
    rows = [
        (1, 0.1, True, "x", np.float64(1 / 3), 2.5e-300, -0.0),
        (40, 1e22, False, "y", np.float64(math.pi), math.inf, 123456789012345.0),
        (2**60, float("nan"), True, "", np.float64(0.0), 1.0, 7.0),
    ]
    assert _csv_rows(rows) == "\n".join(",".join(_fmt(v) for v in row) for row in rows)
    assert _csv_rows([(0.5,)]) == "0.5"
    assert _csv_rows([]) == ""


def test_evolve_trace_column(tmp_path):
    out = tmp_path / "evolve.csv"
    code = main(
        ["evolve", "--b", "2", "--grid", "log:1e-3:1:5", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
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
    assert "\n".join(body) == _csv_rows(rows)
    assert (len(rows) > 0) == (floor != "2")


def test_fidelity_series_with_svg(tmp_path):
    out = tmp_path / "fid.csv"
    svg = tmp_path / "fid.svg"
    code = main(
        ["fidelity", "--b", "1,5", "--grid", "log:1e-3:10:9",
         "--out", str(out), "--svg", str(svg)]
    )
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["kt", "F_b1", "F_b5"]
    first = [float(v) for v in rows[0]]
    # orthogonal start; the early-time overlap grows with b
    assert first[1] < 1e-2 and first[2] < 5e-2
    for row in rows:
        assert 0.0 <= float(row[1]) <= 1.0
    ET.fromstring(svg.read_text())  # well-formed XML


def test_ymean_series(tmp_path):
    out = tmp_path / "y.csv"
    code = main(
        ["ymean", "--b", "2", "--omega", "0.1", "--lambda", "1.0",
         "--grid", "log:1e-3:1:7", "--out", str(out)]
    )
    assert code == EXIT_OK
    _, header, rows = read_csv(out)
    assert header == ["kt", "y_mean_b2", "d_energy_b2", "d_tau_b2"]
    values = [float(row[1]) for row in rows]
    assert values[0] == pytest.approx(2.0891, rel=1e-3)
    assert values[-1] < values[0]
    # the signed columns expose the direction of each factor
    assert float(rows[0][2]) > 0.0 > float(rows[0][3])


def ymean_closed(b, kt, omega, lam):
    """(y_mean, d_energy, d_tau) from <N> = b + u, <N^2> = b^2 + 4bu + 2u^2 + u."""
    u = 2.0 * kt

    def energy(k):
        return omega * (k + u) + lam * (k * k + 4.0 * k * u + 2.0 * u * u + u)

    d_energy = (omega + lam * (2 * b - 1 + 4.0 * u)) / 2.0
    d_tau = -math.pi * lam * (b * (b - 1) + 2.0 * u * (b + u - 1.0)) / (energy(b) * energy(b - 1))
    return abs(d_energy * d_tau), d_energy, d_tau


def test_ymean_reaches_late_times(tmp_path):
    # At kappa*t = 1e5 a certified level cut would pass max_terms; the
    # closed-form moments need no cut.
    out = tmp_path / "y.csv"
    code = main(
        ["ymean", "--b", "2,40", "--omega", "0.1", "--lambda", "1", "--grid",
         "log:1e-3:1e5:5", "--out", str(out)]
    )
    assert code == EXIT_OK
    comments, header, rows = read_csv(out)
    assert any("moments=closed-form" in c for c in comments)
    assert len(rows) == 5
    for row in rows:
        kt = float(row[0])
        for j, b in enumerate((2, 40)):
            got = [float(v) for v in row[1 + 3 * j: 4 + 3 * j]]
            for g, want in zip(got, ymean_closed(b, kt, 0.1, 1.0)):
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


@pytest.mark.parametrize("argv", [["fidelity", "--out", "f.csv"], ["figures", "2", "--out", "."]])
def test_open_system_manifest_keeps_the_default_tolerances(tmp_path, argv):
    assert main([*argv[:-1], str(tmp_path / argv[-1]), "--grid", "log:1e-3:1:3"]) == EXIT_OK
    data = next(tmp_path.glob("*.csv"))
    comments, _, _ = read_csv(data)
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
    _, _, rows = read_csv(out)
    assert rows and all(float(row[5]) <= 1e-12 for row in rows)


@pytest.mark.parametrize("floor", ["nan", "inf", "-1"])
def test_evolve_weight_floor_outside_its_domain_exits_2(tmp_path, capsys, floor):
    out = tmp_path / "e.csv"
    code = main(["evolve", "--b", "2", "--weight-floor", floor, "--grid", "log:1e-3:1:3",
                 "--out", str(out)])
    assert code == EXIT_USAGE
    assert "--weight-floor must be finite and non-negative" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "which, message", [("1", "fidelity needs b >= 1"), ("3", "ymean needs b >= 1")]
)
def test_figures_b_0_names_the_curve_that_needs_b_1(tmp_path, capsys, which, message):
    out_dir = tmp_path / "f"
    code = main(["figures", which, "--b", "0,5", "--grid", "log:1e-3:1:3", "--out", str(out_dir)])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_figures_families(tmp_path):
    for which, columns in ((1, ["kt", "b1", "b5"]), (2, ["kt", "b1", "b5"])):
        out_dir = tmp_path / f"f{which}"
        code = main(
            ["figures", str(which), "--b", "1,5", "--grid", "log:1e-3:1e2:9",
             "--out", str(out_dir)]
        )
        assert code == EXIT_OK
        comments, header, rows = read_csv(out_dir / f"figure{which}.csv")
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
    _, _, figure_rows = read_csv(tmp_path / "f1" / "figure1.csv")
    _, _, fidelity_rows = read_csv(tmp_path / "fid.csv")
    assert figure_rows == fidelity_rows

    assert main(["figures", "3", *grid, "--out", str(tmp_path / "f3")]) == EXIT_OK
    code = main(
        ["ymean", "--omega", "0.1", "--lambda", "1", *grid, "--out", str(tmp_path / "y.csv")]
    )
    assert code == EXIT_OK
    _, figure_header, figure_rows = read_csv(tmp_path / "f3" / "figure3.csv")
    _, header, ymean_rows = read_csv(tmp_path / "y.csv")
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
    comments, header, rows = read_csv(out_dir / "figure3.csv")
    assert header == ["kt", "b2", "b5", "b10", "b15"]
    assert any("omega-over-lam = 0.1" in c.replace("=", " = ") for c in comments)
    assert any("moments=closed-form" in c for c in comments)
    # the angle brackets of the y-axis label must be XML-escaped
    ET.fromstring((out_dir / "figure3.svg").read_text())


def test_figures_4_uses_large_ratio(tmp_path):
    out_dir = tmp_path / "f4"
    code = main(["figures", "4", "--b", "2", "--grid", "log:1e-3:1:3", "--out", str(out_dir)])
    assert code == EXIT_OK
    _, _, rows = read_csv(out_dir / "figure4.csv")
    assert float(rows[0][1]) == pytest.approx(0.1544, rel=1e-2)


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
        (["fidelity", "--b", "1", "--kappa", "1e-310"],
         "--kappa 1e-310 is too small for the grid: t = kt / kappa overflows at kappa*t = 0.018"),
        (["evolve", "--b", "2", "--kappa", "1e-320", "--grid", "log:1e-3:1:3"],
         "--kappa 1e-320 is too small for the grid: t = kt / kappa overflows at kappa*t = 0.001"),
    ],
    ids=["fidelity", "evolve"],
)
def test_kappa_too_small_for_the_grid_exits_2(tmp_path, capsys, argv, message):
    out = tmp_path / "x.csv"
    assert main([*argv, "--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert message in err
    assert "t must be finite" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["evolve", "--b", "2", "--kappa", "inf"], "kappa must be finite"),
        (["fidelity", "--omega", "nan"], "omega must be finite"),
        (["fidelity", "--lambda", "inf"], "lam must be finite"),
        # kt / kappa overflows: the message names --kappa, not t = inf
        (["figures", "2", "--kappa", "1e-320"], "--kappa 1e-320 is too small for the grid"),
    ],
    ids=["kappa-inf", "omega-nan", "lambda-inf", "time-inf"],
)
def test_non_finite_bath_parameters_exit_2(tmp_path, capsys, argv, message):
    code = main(argv + ["--grid", "log:1e-3:1:3", "--out", str(tmp_path / "x")])
    assert code == EXIT_USAGE
    assert message in capsys.readouterr().err


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


def test_scan_without_ceiling_needs_n_max(tmp_path, capsys):
    code = main(["scan", "--model", "box", "--out", str(tmp_path / "x.csv")])
    assert code == EXIT_USAGE
    assert "n-max" in capsys.readouterr().err


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


def test_nonconvergent_exits_3(tmp_path, capsys):
    # kappa*t = 1e6 needs a level cut far beyond any sane cap. Every cut
    # comes before the file is opened, so no partial file is left.
    out = tmp_path / "x.csv"
    code = main(["evolve", "--b", "0", "--grid", "log:1e6:1e7:2", "--out", str(out)])
    assert code == EXIT_NONCONVERGENT
    assert "non-convergent" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_past_the_second_moment_range_exits_2(tmp_path, capsys):
    # From kappa*t = 4.75e153 on, <N^2> overflows: a domain error, not a
    # cut that never converges.
    out = tmp_path / "x.csv"
    code = main(["evolve", "--b", "2", "--grid", "log:1e154:1e155:2", "--out", str(out)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err == "error: <N^2> overflows at kappa*t = 1e+154\n"
    assert not out.exists()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert "levelscope" in capsys.readouterr().out
