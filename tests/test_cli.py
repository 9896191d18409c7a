"""Command-line entry point."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import wresbd
from wresbd.cli import main

# a device that opens for writing and fails every write with ENOSPC
FULL = "/dev/full"
needs_full = pytest.mark.skipif(not os.path.exists(FULL),
                                reason="no %s on this system" % FULL)


def test_verify_text_output(capsys):
    rc = main(["verify", "--family", "dirac", "--seeds", "5",
               "--case", "aII"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "(3.18)" in out
    assert "all_match_oracle: True" in out


def test_verify_json_output(capsys):
    rc = main(["verify", "--family", "signature", "--seeds", "5,9",
               "--format", "json", "--case", "aIII"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["family"] == "signature"
    assert data["seeds"] == [5, 9]
    assert data["all_match_oracle"] is True
    ids = [e["id"] for e in data["entries"]]
    assert "(5.15)" in ids


def test_case_restriction_limits_entries(capsys):
    main(["verify", "--family", "dirac", "--seeds", "5", "--format",
          "json", "--case", "aI"])
    data = json.loads(capsys.readouterr().out)
    assert all(e["case"] == "aI" for e in data["entries"])


def test_seeds_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("WRESBD_SEEDS", "8")
    rc = main(["verify", "--family", "dirac", "--case", "aII",
               "--format", "json"])
    assert rc == 0
    data = json.loads(capsys.readouterr().out)
    assert data["seeds"] == [8]


def test_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc = main(["verify", "--family", "dirac", "--seeds", "5", "--case",
               "aII", "--format", "json", "--out", str(path)])
    assert rc == 0
    data = json.loads(path.read_text())
    assert data["all_match_oracle"] is True


def test_output_is_deterministic(capsys):
    args = ["verify", "--family", "dirac", "--seeds", "5", "--case", "aIII"]
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second


def test_unknown_family_rejected():
    with pytest.raises(SystemExit):
        main(["verify", "--family", "laplace", "--seeds", "1"])


@pytest.fixture
def no_ledger(monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("build_ledger reached on bad input")
    monkeypatch.setattr("wresbd.cli.build_ledger", unreachable)


def _usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and "Traceback" not in err
    return err


def test_negative_seed_is_usage_error(no_ledger, capsys):
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--case",
                                "aI", "--seeds=-1"])
    assert "nonnegative" in err


# int() reads the first two: "1_0" as 10, and the Arabic-Indic digit one as
# 1; it refuses the third, over the default limit of 4300 digits, with a
# ValueError
NOT_ASCII_DIGITS = ["1_0", "\u0661",
                    pytest.param("9" * 5000, id="5000_digits")]


@pytest.mark.parametrize("seeds", NOT_ASCII_DIGITS)
def test_seed_not_in_ascii_digits_is_usage_error(no_ledger, capsys, seeds):
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--seeds",
                                "1," + seeds])
    assert "ASCII digits" in err


@pytest.mark.parametrize("seeds", NOT_ASCII_DIGITS)
def test_env_seed_not_in_ascii_digits_is_usage_error(no_ledger, capsys,
                                                     monkeypatch, seeds):
    monkeypatch.setenv("WRESBD_SEEDS", seeds)
    err = _usage_error(capsys, ["verify", "--family", "dirac"])
    assert "WRESBD_SEEDS" in err and "ASCII digits" in err


def test_bad_env_seeds_is_usage_error(no_ledger, capsys, monkeypatch):
    monkeypatch.setenv("WRESBD_SEEDS", "x")
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--case",
                                "aI"])
    assert "WRESBD_SEEDS" in err


def test_empty_seed_list_is_usage_error(no_ledger, capsys):
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--seeds", ","])
    assert "at least one seed is required" in err


def test_empty_env_seed_list_is_usage_error(no_ledger, capsys, monkeypatch):
    monkeypatch.setenv("WRESBD_SEEDS", ",")
    err = _usage_error(capsys, ["verify", "--family", "dirac"])
    assert "WRESBD_SEEDS: at least one seed is required" in err


def test_unwritable_out_is_usage_error(no_ledger, capsys, tmp_path):
    path = tmp_path / "missing" / "report.txt"
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--case",
                                "aI", "--out", str(path)])
    assert "--out" in err


def test_empty_out_is_usage_error(no_ledger, capsys):
    # an empty path is not standard output
    err = _usage_error(capsys, ["verify", "--family", "dirac", "--case",
                                "aI", "--out", ""])
    assert "--out" in err


def _write_error(err):
    # one line, no traceback
    assert err.startswith("wresbd: error: cannot write report: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@needs_full
def test_failed_write_to_out_exits_2(capsys):
    # exit 1 means an entry disagrees with the oracle; a lost report is not
    # that
    rc = main(["verify", "--family", "dirac", "--seeds", "1", "--case",
               "aI", "--out", FULL])
    assert rc == 2
    _write_error(capsys.readouterr().err)


@needs_full
def test_failed_write_to_stdout_exits_2():
    # run apart, so that the interpreter's own flush of stdout at exit is
    # checked too (it exits 120 if that flush fails)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(wresbd.__file__).parent.parent),
                    env.get("PYTHONPATH")) if p)
    with open(FULL, "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "wresbd.cli", "verify", "--family",
             "dirac", "--seeds", "1", "--case", "aI"],
            stdout=full, stderr=subprocess.PIPE, env=env, text=True,
            timeout=120)
    assert proc.returncode == 2
    _write_error(proc.stderr)
