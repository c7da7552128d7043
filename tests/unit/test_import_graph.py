"""The package imports without scipy.

Every ``servet run`` and ``servet serve`` is a fresh process, so each
module pulled in at import time is paid on every start.  scipy alone
cost over a second; the two functions it supplied now live in
``repro.core``.  Each entry point is imported in a fresh interpreter,
because this test process may already hold modules another test loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"

PROBE = (
    "import importlib, json, sys; importlib.import_module(sys.argv[1]); "
    "print(json.dumps(sorted(m for m in sys.modules "
    "if m == 'scipy' or m.startswith('scipy.'))))"
)


@pytest.mark.parametrize("module", ["repro", "repro.cli", "repro.serviced.daemon"])
def test_entry_point_loads_no_scipy(module):
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) if not existing else str(SRC) + os.pathsep + existing
    result = subprocess.run(
        [sys.executable, "-c", PROBE, module],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == []
