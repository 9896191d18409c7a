"""The demo scripts run to completion and print their headline."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresbd

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(wresbd.__file__).parent.parent


@pytest.mark.parametrize("script, expected", [
    ("walkthrough_single_case.py", "case b:"),
    ("discrepancy_table.py", "dirac family"),
])
def test_demo_runs(script, expected):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(DEMOS / script)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout
