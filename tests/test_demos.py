"""The demo scripts run to completion and print their headline."""

import filecmp
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import wresbd

DEMOS = Path(__file__).resolve().parents[1] / "demos"
DATA = Path(__file__).resolve().parent / "data"
SRC = Path(wresbd.__file__).parent.parent


def _run(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, str(script)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("script, expected", [
    ("walkthrough_single_case.py", "case b:"),
    ("discrepancy_table.py", "dirac family"),
])
def test_demo_runs(script, expected):
    proc = _run(DEMOS / script)
    assert proc.returncode == 0, proc.stderr
    assert expected in proc.stdout


def test_full_verification_report_writes_the_golden_reports(tmp_path):
    # run from a copy, so that the reports it writes next to itself land
    # in tmp_path and not in demos/
    script = shutil.copy(DEMOS / "full_verification_report.py", tmp_path)
    proc = _run(script)
    assert proc.returncode == 0, proc.stderr
    for family in ("dirac", "signature"):
        name = "report_%s.txt" % family
        assert filecmp.cmp(tmp_path / name, DATA / name, shallow=False), name
