"""Byte determinism of the CLI output under SOURCE_DATE_EPOCH.

Every open-system data file must be a function of the command line alone:
two fresh processes write the same bytes, and so does an in-process run
made after a warm-up that filled the cached table of coefficient ratios
of the weight and fidelity sums in a different b order. Both
the open-system and the closed-system output are pinned by their sha256
digests, and so are the library curves the open_sweep benchmark computes,
value for value.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from levelscope import cli
from levelscope.diffusive import fidelity_overlap, log_points, mean_y_series, survival
from levelscope.open_system import DiffusiveConfig, distribution

SRC = Path(__file__).resolve().parents[1] / "src"

COMMANDS = {
    "figures1": ["figures", "1"],
    "figures2": ["figures", "2"],
    "figures3": ["figures", "3"],
    "figures4": ["figures", "4"],
    "fidelity": ["fidelity", "--b", "1,5,10,15"],
    "evolve": ["evolve", "--b", "15"],
    "ymean": ["ymean", "--b", "2,5,10,15"],
    "fidelity-svg": ["fidelity", "--b", "1,5,10,15"],
    "ymean-svg": ["ymean", "--b", "2,5,10,15"],
    # --b on a figure adds its b= key to the manifest, which the defaults leave out.
    "figures1-b": ["figures", "1", "--b", "1,5"],
    "figures3-b": ["figures", "3", "--b", "2,5"],
}

# sha256 of every file each command writes under SOURCE_DATE_EPOCH=0 (the
# figures write their data file and an SVG). A change that moves a printed
# digit updates these digests together with its list of moved digits.
OPEN_DIGESTS = {
    ("figures1", "csv"): {
        "figure1.csv": "a0fc60893986efdc85bef998e22d9843be9f4f49eea0cc70faeb05b85922528a",
        "figure1.svg": "efd716d222663fc5c5094c578b281b83216cec55eff9515eb1bd3135127e7513",
    },
    ("figures1", "json"): {
        "figure1.json": "afb49da175d7ab6b0964d59ca7085f987c39c3f19071294d3c7b105ae719adfd",
        "figure1.svg": "efd716d222663fc5c5094c578b281b83216cec55eff9515eb1bd3135127e7513",
    },
    ("figures2", "csv"): {
        "figure2.csv": "063dcf47a27f98e53dc6902fa7f0cb20ba5fc262451c4660058da9264b306f4b",
        "figure2.svg": "2862fbf8ab923149a440d98afcbf26f45f06023ff28dd7493ac6200cc51b4ed5",
    },
    ("figures2", "json"): {
        "figure2.json": "0c30f542967491912a300008fcb0faff4c88c696911da5271ce647dcc8f40fcb",
        "figure2.svg": "2862fbf8ab923149a440d98afcbf26f45f06023ff28dd7493ac6200cc51b4ed5",
    },
    ("figures3", "csv"): {
        "figure3.csv": "5a9da8ec86100a60539231ce54208e11b8e0980c3bff1f56f0e5fe20f2a10681",
        "figure3.svg": "806290920faaeeffdaf8bcf2842f8c3cbac6a77cccacb9d8c927fc1c1c8ad2ef",
    },
    ("figures3", "json"): {
        "figure3.json": "4f459b9f2aa3a4cf0dac832cab1b1f17cef41b8ddcfa0b99327256a2ddc6cdf1",
        "figure3.svg": "806290920faaeeffdaf8bcf2842f8c3cbac6a77cccacb9d8c927fc1c1c8ad2ef",
    },
    ("figures4", "csv"): {
        "figure4.csv": "89a719bec8d002c5173134b7ec7759ccf5b456bef939203b6d5a5c68fae39b76",
        "figure4.svg": "c5d7fc25b1ffaebc81b8ee3dcbf7caf8316f0d1845d4363fd2e66f3c71374df6",
    },
    ("figures4", "json"): {
        "figure4.json": "ad192d3cab8a60ebd013640fd24c9dab7b962ba7beff8fcd00062bda0d600bff",
        "figure4.svg": "c5d7fc25b1ffaebc81b8ee3dcbf7caf8316f0d1845d4363fd2e66f3c71374df6",
    },
    ("fidelity", "csv"): {
        "fidelity.csv": "3753a97d19821fe29edab78f86272ce28c721dc6f10bdc51a998c6ed6a1becde",
    },
    ("fidelity", "json"): {
        "fidelity.json": "1b39164bf4823fa1f16b5a2181b3348f8bd2049c18a7abe8c5eafced62249162",
    },
    ("evolve", "csv"): {
        "evolve.csv": "c28a31ab64902dab51c010aedd19f4e0e2f4a8afd5afc09571873a14aed57b3d",
    },
    ("evolve", "json"): {
        "evolve.json": "58754c32ca41c20561eb6902945fb90f39a1e2dfd21c506bc47de28708393478",
    },
    ("ymean", "csv"): {
        "ymean.csv": "6044fea08c2a8fc780807660144205d5c13e064f96b0d0a6476259756645920d",
    },
    ("ymean", "json"): {
        "ymean.json": "40722264cac5d0cfb36cef6cbb8878b2d0cc0a4629e406ceff9b904242e708d0",
    },
    ("fidelity-svg", "csv"): {
        "fidelity-svg.csv": "3753a97d19821fe29edab78f86272ce28c721dc6f10bdc51a998c6ed6a1becde",
        "fidelity-svg.svg": "9a63feffb60282c56009dfcd3f2249ced1dc2feec5aba3518ac26a10fb1c6b7c",
    },
    ("fidelity-svg", "json"): {
        "fidelity-svg.json": "1b39164bf4823fa1f16b5a2181b3348f8bd2049c18a7abe8c5eafced62249162",
        "fidelity-svg.svg": "9a63feffb60282c56009dfcd3f2249ced1dc2feec5aba3518ac26a10fb1c6b7c",
    },
    ("ymean-svg", "csv"): {
        "ymean-svg.csv": "6044fea08c2a8fc780807660144205d5c13e064f96b0d0a6476259756645920d",
        "ymean-svg.svg": "6107c9df3e8c24f6f73a1098cc47576ef2e51ff6d75eaa370d4737e6eda13b9a",
    },
    ("ymean-svg", "json"): {
        "ymean-svg.json": "40722264cac5d0cfb36cef6cbb8878b2d0cc0a4629e406ceff9b904242e708d0",
        "ymean-svg.svg": "6107c9df3e8c24f6f73a1098cc47576ef2e51ff6d75eaa370d4737e6eda13b9a",
    },
    ("figures1-b", "csv"): {
        "figure1.csv": "8ec48e7b1f0b9e90a433cebd281c12ba4260fc9602b6fddd4c45f3a8b109fc73",
        "figure1.svg": "4a2c4c37941e230f1d9f1fcfddea145c877bf293fab98d50b5665c65239b89f2",
    },
    ("figures1-b", "json"): {
        "figure1.json": "e3fe1342c4bfdf836904212300ca19e6729c39584426b0e428a70bb70b609b58",
        "figure1.svg": "4a2c4c37941e230f1d9f1fcfddea145c877bf293fab98d50b5665c65239b89f2",
    },
    ("figures3-b", "csv"): {
        "figure3.csv": "96e06fcde40775b1f1d9e03b3080b6b6fec16e81d66e3dc3e3ec2b13d03e24fb",
        "figure3.svg": "886622f85519989f55724c2a143c93054376dcf138eb9621924378e6d450c263",
    },
    ("figures3-b", "json"): {
        "figure3.json": "022d3f723cef4bb9293efd4791f0a21abf8cfae1bd3720af30f32004074c06fd",
        "figure3.svg": "886622f85519989f55724c2a143c93054376dcf138eb9621924378e6d450c263",
    },
}


def _argv(name: str, fmt: str, out_dir: Path) -> list[str]:
    # figures write a directory, the other commands one file (and an SVG
    # beside it for the -svg runs)
    if name.startswith("figures"):
        return [*COMMANDS[name], "--format", fmt, "--out", str(out_dir)]
    svg = ["--svg", str(out_dir / f"{name}.svg")] if name.endswith("-svg") else []
    return [*COMMANDS[name], "--format", fmt, "--out", str(out_dir / f"{name}.{fmt}"), *svg]


def _stdout(name: str, fmt: str, out_dir: Path) -> str:
    """The one line each command prints: the figures name both files they
    write, the other commands their data file and its row count."""
    if name.startswith("figures"):
        which = COMMANDS[name][1]
        return f"wrote {out_dir / f'figure{which}.{fmt}'} and {out_dir / f'figure{which}.svg'}\n"
    rows = 133175 if name == "evolve" else 200
    return f"wrote {out_dir / f'{name}.{fmt}'} ({rows} rows)\n"


def _files(out_dir: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}


def _digests(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", list(COMMANDS))
def test_output_bytes_do_not_depend_on_process_or_cache_history(tmp_path, monkeypatch, capsys,
                                                                name, fmt):
    env = {**os.environ, "PYTHONPATH": str(SRC), "SOURCE_DATE_EPOCH": "0"}
    dirs = [tmp_path / "fresh_a", tmp_path / "fresh_b", tmp_path / "warm"]
    for d in dirs:
        d.mkdir()
    procs = [
        subprocess.Popen([sys.executable, "-m", "levelscope.cli", *_argv(name, fmt, d)],
                         env=env, stdout=subprocess.PIPE, text=True)
        for d in dirs[:2]
    ]
    assert [p.communicate(timeout=120)[0] for p in procs] == [_stdout(name, fmt, d)
                                                                for d in dirs[:2]]
    assert [p.returncode for p in procs] == [0, 0]
    fresh = _files(dirs[0])
    assert fresh and _files(dirs[1]) == fresh
    assert _digests(fresh) == OPEN_DIGESTS[name, fmt]

    # The CLI sweeps b upwards from cold tables; warm them downwards first.
    for b in (16, 11, 6, 2):
        cfg, lower = DiffusiveConfig(b=b, kappa=1.0), DiffusiveConfig(b=b - 1, kappa=1.0)
        for kt in log_points(1e-3, 1e2, 9):
            distribution(cfg, kt)
            fidelity_overlap(cfg, lower, kt)
            survival(cfg, kt)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    capsys.readouterr()
    assert cli.main(_argv(name, fmt, dirs[2])) == cli.EXIT_OK
    assert capsys.readouterr().out == _stdout(name, fmt, dirs[2])
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


# The library curves of the open_sweep benchmark, pinned bit for bit: sha256
# of the repr of each family of curves on one 200-point kappa*t grid. repr
# writes every float with all its digits, so any moved bit changes a digest,
# including one of exp, log or log1p: the digests belong to the libm they were
# taken with (glibc 2.36, x86_64). Where both Python versions fail them alike,
# compare against a run of the parent commit on that machine before blaming
# the kernels.
# F and P_b for b = 1..40; <y(b)> for b = 2..40 at omega/lam = 0.1 and 10.
CURVE_KAPPA, CURVE_LAM = 0.8, 1.3
CURVE_DIGESTS = {
    "fidelity": "126d759346571597b29cbd1e214183dd96647fcff823dd7d53c61c20e29fd2be",
    "survival": "9d2252a4e8bf91b65d82bd8172c7c2b86a62d5101e68efdace03a24430a5092d",
    "ymean-0.1": "0fcee214eed297d9ccb9e28126026ba73b4259f7744aa4f1db7987262a2ea6e1",
    "ymean-10": "bae14edb876cafc3b9d6e323fbf719d6c9c5a35eaab7bc0d51611dd5d51aa37b",
}


def _curves(family: str) -> list:
    kts = log_points(1e-3, 1e2, 200)
    ts = [kt / CURVE_KAPPA for kt in kts]
    if family == "fidelity":
        return [[fidelity_overlap(DiffusiveConfig(b, CURVE_KAPPA),
                                  DiffusiveConfig(b - 1, CURVE_KAPPA), t) for t in ts]
                for b in range(1, 41)]
    if family == "survival":
        return [[survival(DiffusiveConfig(b, CURVE_KAPPA), t) for t in ts] for b in range(1, 41)]
    omega = float(family.split("-")[1]) * CURVE_LAM
    return [mean_y_series(DiffusiveConfig(b, CURVE_KAPPA, omega, CURVE_LAM), kts)
            for b in range(2, 41)]


@pytest.mark.parametrize("family", list(CURVE_DIGESTS))
def test_library_curve_digests(family):
    digest = hashlib.sha256(repr(_curves(family)).encode()).hexdigest()
    assert digest == CURVE_DIGESTS[family]
