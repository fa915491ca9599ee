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
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from levelscope import cli, diffusive
from levelscope.diffusive import (DiffusiveConfig, fidelity_overlap, fock_weight, log_points,
                                  mean_y_point, mean_y_series, survival)
from levelscope.open_system import distribution, distributions

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
        "fidelity.csv": "85ebcb16a1c829907ad4763f8d8fcd135a4279331ff0d07b19e0625476717461",
    },
    ("fidelity", "json"): {
        "fidelity.json": "6588118b0d9ae73ec951d94e566f3447bb29471a4bae460ea8f5c47b13164531",
    },
    ("evolve", "csv"): {
        "evolve.csv": "2ec61c1a11a2ec32d9e87ea4b646a8d98c5b9a74920176f5d22c51b48e46c0de",
    },
    ("evolve", "json"): {
        "evolve.json": "12ad9a13e25182cd7a106cc70372143884429e1881c5a54b7985be03475cb5ac",
    },
    ("ymean", "csv"): {
        "ymean.csv": "6044fea08c2a8fc780807660144205d5c13e064f96b0d0a6476259756645920d",
    },
    ("ymean", "json"): {
        "ymean.json": "40722264cac5d0cfb36cef6cbb8878b2d0cc0a4629e406ceff9b904242e708d0",
    },
    ("fidelity-svg", "csv"): {
        "fidelity-svg.csv": "85ebcb16a1c829907ad4763f8d8fcd135a4279331ff0d07b19e0625476717461",
        "fidelity-svg.svg": "9a63feffb60282c56009dfcd3f2249ced1dc2feec5aba3518ac26a10fb1c6b7c",
    },
    ("fidelity-svg", "json"): {
        "fidelity-svg.json": "6588118b0d9ae73ec951d94e566f3447bb29471a4bae460ea8f5c47b13164531",
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


# The same F and P_b curves one b at a time, where the plain loop ends and
# _nested's rescaling begins: P_b runs plain up to b = 284 (C(2b, b) below
# diffusive._PLAIN), F up to b = 285, and on this grid the rescale fires at
# 2 points of P_b and 1 of F at b = 300, and at 14 of each at b = 400.
RESCALE_DIGESTS = {
    ("fidelity", 284): "673ebc4b71c4f25c53f55432c8018481ef136d772ee44aa2e2321f9ee9c3ac4e",
    ("fidelity", 285): "357c35f703c86af0ec66adf093fd3ee49c313c971506915a9c22a007cafe9c13",
    ("fidelity", 300): "506eedf123a34bc6deb19f5067e79519b64abf249ccf93f5133708fc041f9c6c",
    ("fidelity", 400): "d35224e10567aae78f69b84bf2941088fdeec8c796b2f6633cc3d9d4f7f60a0e",
    ("survival", 284): "4b4ec644eacb847279866d7bdeeb7d9ee3691823800e55136ca08b13fbd72983",
    ("survival", 285): "940c00b4b1657c410cc6033e9fef396cd61c2fc48aca3e57eb707e7af47f26bd",
    ("survival", 300): "db76eccef6b44a7c985d40417950a5cdafc4c643a8b3740a4dcf3cadf04ef3f8",
    ("survival", 400): "1b8429a03979600e3172b4e05bec1e4ec87d64c1651a0b69b884d43820b84b8c",
}


def _curve(family: str, b: int) -> list:
    ts = [kt / CURVE_KAPPA for kt in log_points(1e-3, 1e2, 200)]
    cfg = DiffusiveConfig(b, CURVE_KAPPA)
    if family == "fidelity":
        return [fidelity_overlap(cfg, DiffusiveConfig(b - 1, CURVE_KAPPA), t) for t in ts]
    return [survival(cfg, t) for t in ts]


def _curves(family: str) -> list:
    if family in ("fidelity", "survival"):
        return [_curve(family, b) for b in range(1, 41)]
    kts = log_points(1e-3, 1e2, 200)
    omega = float(family.split("-")[1]) * CURVE_LAM
    return [mean_y_series(DiffusiveConfig(b, CURVE_KAPPA, omega, CURVE_LAM), kts)
            for b in range(2, 41)]


@pytest.mark.parametrize("family", list(CURVE_DIGESTS))
def test_library_curve_digests(family):
    digest = hashlib.sha256(repr(_curves(family)).encode()).hexdigest()
    assert digest == CURVE_DIGESTS[family]


@pytest.mark.parametrize("family, b", list(RESCALE_DIGESTS))
def test_rescaling_path_curve_digests(family, b):
    digest = hashlib.sha256(repr(_curve(family, b)).encode()).hexdigest()
    assert digest == RESCALE_DIGESTS[family, b]


# The scalar kernels at the edges of their domain, pinned bit for bit at
# kappa = 1, so that t is kappa*t: b where the plain loop ends and the
# rescaling begins, and kappa*t from 0 through the subnormals to the float
# maximum, with u = 2 kappa t = 1 (where the weights turn their sums round)
# and x = 4 kappa t = 1 (F's) each between its neighbouring doubles. A
# raised exception is pinned by its type and message. fock_weight is taken
# at n = b - 1, b and b + 1; <y(b)> at omega/lam = 0.1.
EDGE_B = (0, 1, 2, 40, 284, 285, 300)
EDGE_KT = (0.0, 5e-324, sys.float_info.min, 1e-300,
           *(math.nextafter(kt, side) for kt in (0.25, 0.5) for side in (0.0, kt, 1.0)),
           1e150, 4.7e153, 1e300, sys.float_info.max)
EDGE_DIGESTS = {
    "survival": "5098682615b9f8762f56cf5813b8c97887fdce3176128753e57bc89d023dbc87",
    "fock_weight": "75f00cf16e035a90c3250f6dd13f07f40c57fe5dd441ee70c6819aed513f0cf0",
    "fidelity": "a4e45b6324e89250e84e31afc4e2002e961c49d2d167e5963aa1ca511f920c32",
    "ymean": "83a9449a21d48d76a5cdb5b4e9908cda7e8561eec8ed3fb10cc8dcb6fc65cb76",
}


def _edge_calls(family: str, b: int, kt: float) -> list:
    cfg = DiffusiveConfig(b, 1.0, 0.1 * CURVE_LAM, CURVE_LAM)
    if family == "survival":
        return [lambda: survival(cfg, kt)]
    if family == "fock_weight":
        return [lambda n=n: fock_weight(cfg, n, kt) for n in (b - 1, b, b + 1)]
    if family == "fidelity":
        return [lambda: fidelity_overlap(cfg, DiffusiveConfig(b - 1, *cfg[1:]), kt)]
    return [lambda: tuple(mean_y_point(cfg, kt))]


def _edge_outcome(call):
    try:
        return call()
    except Exception as exc:  # part of the pinned output
        return f"{type(exc).__name__}: {exc}"


@pytest.mark.parametrize("family", list(EDGE_DIGESTS))
def test_edge_of_domain_digests(family):
    outcomes = [_edge_outcome(call) for b in EDGE_B for kt in EDGE_KT
                for call in _edge_calls(family, b, kt)]
    assert hashlib.sha256(repr(outcomes).encode()).hexdigest() == EDGE_DIGESTS[family]


# Large b, pinned bit for bit at kappa = 1 on grids that span the turn of the
# weight sums at u = 2 kappa t = 1: every row of distributions (weights,
# n_cut and tail bound), whose rows below kappa*t = 1/2 read ln C(M, m) for
# each level up to the cut, and F and P_b at b = 10**5, where the sums run
# with _nested's rescaling.
LARGE_B_DIGESTS = {
    ("distributions", 300): "d53836cd115e915ab565aece7c9fd85601632b07086b281dae4b857fb2dc1ac5",
    ("distributions", 1000): "b7c72e2a37a8beb9546b99f1eae12639a85e8b33f2b7c02f8867d40a0f325985",
    ("fidelity", 10**5): "e8a7c6b51a51355a3a1ae9c07450768d7018cebe65e1a8e60591da05a9524bc5",
    ("survival", 10**5): "9e565027cf5d13800551c8568b7806dabcda845fbe7575a9f36081d9b478f7ad",
}


def _large_b_digest(family: str, b: int) -> str:
    cfg, digest = DiffusiveConfig(b, 1.0), hashlib.sha256()
    if family == "distributions":
        for dist in distributions(cfg, log_points(1e-2, 1e1, 20)):
            digest.update(repr((dist.t, dist.n_cut, dist.tail_bound)).encode())
            digest.update(dist.weights.tobytes())
    elif family == "fidelity":
        lower = DiffusiveConfig(b - 1, 1.0)
        digest.update(repr([fidelity_overlap(cfg, lower, kt) for kt in (0.1, 1.0)]).encode())
    else:
        digest.update(repr([survival(cfg, kt) for kt in (0.1, 1.0)]).encode())
    return digest.hexdigest()


@pytest.mark.parametrize("family, b", list(LARGE_B_DIGESTS))
def test_large_b_digests(family, b):
    assert _large_b_digest(family, b) == LARGE_B_DIGESTS[family, b]


# The exact C(2b, b) at b = 10**5 has 60,000 digits and takes about 0.5 s to
# form; the two points, their ratios included, take a few tens of ms, so the
# bound fails if deciding that the sum is not plain forms it again.
@pytest.mark.parametrize("family", ["fidelity", "survival"])
def test_large_b_points_form_no_huge_binomial(family):
    diffusive._ratios.cache_clear()
    start = time.perf_counter()
    _large_b_digest(family, 10**5)
    assert time.perf_counter() - start < 0.25
