"""Tests of the package surface: the exported names and what the CLI imports."""

import os
import subprocess
import sys
from pathlib import Path

import levelscope

SRC = Path(__file__).resolve().parents[1] / "src"


def test_every_exported_name_resolves():
    missing = [name for name in levelscope.__all__ if not hasattr(levelscope, name)]
    assert missing == []
    assert len(set(levelscope.__all__)) == len(levelscope.__all__)


def test_cli_import_loads_no_scipy():
    code = "import sys, levelscope.cli; print('scipy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        timeout=60,
    )
    assert result.stdout.strip() == "False"
