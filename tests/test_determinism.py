"""Byte determinism of the CLI output under SOURCE_DATE_EPOCH.

Every open-system data file must be a function of the command line alone:
two fresh processes write the same bytes, and so does an in-process run
made after a warm-up that filled the shared tables (ln k!, the fidelity
coefficient ratios) in a different b order. The closed-system output is
pinned by its sha256 digests.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levelscope import cli
from levelscope.diffusive import fidelity_overlap, log_points, survival
from levelscope.open_system import DiffusiveConfig, distribution

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "figures1": ["figures", "1"],
    "figures2": ["figures", "2"],
    "figures3": ["figures", "3"],
    "fidelity": ["fidelity", "--b", "1,5,10,15"],
    "evolve": ["evolve", "--b", "15"],
    "ymean": ["ymean", "--b", "2,5,10,15"],
}


def _argv(name: str, fmt: str, out_dir: Path) -> list[str]:
    # figures write a directory, the other commands one file
    out = out_dir if name.startswith("figures") else out_dir / f"{name}.{fmt}"
    return [*COMMANDS[name], "--format", fmt, "--out", str(out)]


def _files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_do_not_depend_on_process_or_cache_history(tmp_path, monkeypatch, name, fmt):
    env = {**os.environ, "PYTHONPATH": str(SRC), "SOURCE_DATE_EPOCH": "0"}
    dirs = [tmp_path / "fresh_a", tmp_path / "fresh_b", tmp_path / "warm"]
    for d in dirs:
        d.mkdir()
    procs = [
        subprocess.Popen([sys.executable, "-m", "levelscope.cli", *_argv(name, fmt, d)],
                         env=env, stdout=subprocess.DEVNULL)
        for d in dirs[:2]
    ]
    assert [p.wait(timeout=120) for p in procs] == [0, 0]
    fresh = _files(dirs[0])
    assert fresh and _files(dirs[1]) == fresh

    # The CLI sweeps b upwards from cold tables; warm them downwards first.
    for b in (16, 11, 6, 2):
        cfg, lower = DiffusiveConfig(b=b, kappa=1.0), DiffusiveConfig(b=b - 1, kappa=1.0)
        for kt in log_points(1e-3, 1e2, 9):
            distribution(cfg, kt)
            fidelity_overlap(cfg, lower, kt)
            survival(cfg, kt)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert cli.main(_argv(name, fmt, dirs[2])) == cli.EXIT_OK
    assert _files(dirs[2]) == fresh


# The closed-system output is pinned by digest: sha256 of each `scan` data
# file, and of `criterion --format json` on stdout, under SOURCE_DATE_EPOCH=0.
# A change that moves a printed digit updates these digests together with its
# list of moved digits. The harmonic model is period-blind: both commands
# exit 2, `criterion` with its verdict on stdout and `scan` with no file.
CLOSED_MODELS = {
    "harmonic": (["--model", "harmonic"], 7, ["--n-min", "1", "--n-max", "20"]),
    "box": (["--model", "box"], 4, ["--n-max", "5000"]),
    "hydrogenoid": (["--model", "hydrogenoid", "--mass", "0.75", "--charge-number", "3",
                     "--charge", "1.25"], 10, ["--n-max", "400"]),
    "h2_morse": (["--preset", "h2_morse"], 3, []),
    "quartic": (["--model", "quartic", "--omega", "0.3", "--lambda", "0.7"], 5,
                ["--n-min", "1", "--n-max", "400"]),
    "quartic-weak": (["--model", "quartic", "--omega", "1", "--lambda", "1e-6"], 49,
                     ["--n-min", "1", "--n-max", "400"]),
}

CLOSED_DIGESTS = {
    ("harmonic", "criterion"):
        (2, "0b5b13176246b3ec69ceaed42cddac6e92caa3720b9e58b8ea3de66c57aefaf4"),
    ("harmonic", "scan-csv"): (2, None),
    ("harmonic", "scan-json"): (2, None),
    ("box", "criterion"):
        (0, "7843a72cbc456ba2e8f63ad91760a2cb5788cc991b2ef39bc3f95e400e182560"),
    ("box", "scan-csv"):
        (0, "3702a5c671bad4b0392e16af2f8c0086ffdce8931fa241276bcc155874d4da81"),
    ("box", "scan-json"):
        (0, "08dbf520f421d9d5bd92b3d15ecf04bf3370840a9d2bf24fe687c31b55e22349"),
    ("hydrogenoid", "criterion"):
        (0, "9e7ad6d4de332a74b42071711f06730828f94b8256fdf5ddb8ab76f402ba549d"),
    ("hydrogenoid", "scan-csv"):
        (0, "527b39fe688315e8e224676c31e43a5b6d6d0d01c3c803a69ba0c36f349d3820"),
    ("hydrogenoid", "scan-json"):
        (0, "af32c4613f6d84df4ed8c3b3a96b563fed0570510ea7bfe237d7fbf329b4bf84"),
    ("h2_morse", "criterion"):
        (0, "7be4533971eb19bc770103491fff4dbfcccd1bd789192e028261ac5b09950f31"),
    ("h2_morse", "scan-csv"):
        (0, "8e6f54a1a06b566ba3e0bd8f1ef1040612d984991dbea2e0bb5e5e898b40b100"),
    ("h2_morse", "scan-json"):
        (0, "e124ce9f1d81f1cb61462c50edb908d07daa3feb3a2b58c3d955a997e917c73c"),
    ("quartic", "criterion"):
        (0, "96ad2f584922eaf88fc155ff868c2da24edb5d0aa47f5625be3cdad7194d01eb"),
    ("quartic", "scan-csv"):
        (0, "b9ead77b1d68859f902bf1cffe1ee2789c1810aa93286a59327d129738e6f0f5"),
    ("quartic", "scan-json"):
        (0, "25127d3c8cc5b800496d204d4581adedf7d5a1e8112d9141a6f8200c25a08f91"),
    ("quartic-weak", "criterion"):
        (0, "097699a5f5847132e6c7d4a6d506252a6fb5dfc0710a9a18f2ff0fadbed9ff84"),
    ("quartic-weak", "scan-csv"):
        (0, "6b91a24d741d3f7449a6c12e0d842aab0bd3b13f05384481530b16dd2ce98845"),
    ("quartic-weak", "scan-json"):
        (0, "3a4044ebaf70bacef532580c2071787fc7ea7409007eb7255b75c0af0ad380b2"),
}


def _closed_argv(model: str, output: str, out: Path) -> list[str]:
    flags, n, scan_range = CLOSED_MODELS[model]
    if output == "criterion":
        return ["criterion", *flags, "--n", str(n), "--format", "json"]
    return ["scan", *flags, *scan_range, "--format", output.split("-")[1], "--out", str(out)]


@pytest.mark.parametrize("output", ["criterion", "scan-csv", "scan-json"])
@pytest.mark.parametrize("model", list(CLOSED_MODELS))
def test_closed_model_output_digests(tmp_path, monkeypatch, capsys, model, output):
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    out = tmp_path / "scan.out"
    code = cli.main(_closed_argv(model, output, out))
    data = capsys.readouterr().out.encode() if output == "criterion" else (
        out.read_bytes() if out.exists() else None)
    digest = data and hashlib.sha256(data).hexdigest()
    assert (code, digest) == CLOSED_DIGESTS[model, output]
