"""Byte determinism of the open-system CLI output under SOURCE_DATE_EPOCH.

Every data file must be a function of the command line alone: two fresh
processes write the same bytes, and so does an in-process run made after a
warm-up that filled the shared tables (ln k!, the fidelity coefficient
ratios) in a different b order.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from levelscope import cli
from levelscope.observables import fidelity_overlap, log_grid, survival
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
        for kt in log_grid(1e-3, 1e2, 9).tolist():
            distribution(cfg, kt)
            fidelity_overlap(cfg, lower, kt)
            survival(cfg, kt)
    monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
    assert cli.main(_argv(name, fmt, dirs[2])) == cli.EXIT_OK
    assert _files(dirs[2]) == fresh
