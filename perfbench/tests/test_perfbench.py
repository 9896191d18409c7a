"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

The smoke tests run one op of each workload through run.py; the others
feed the correctness checks corrupted outputs, and exercise the tracer.
"""

import copy
import json
import os
import re
import shutil
import subprocess
import sys
import time
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _run(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script] + list(args), cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one-op smoke runs ---------------------------------------------------------


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_one_op(workload):
    res = _result(_run("--workload", workload, "--seed", "7", "--seconds",
                       "1", "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True
    assert (res["attempted"], res["failed"]) == (1, 0)
    assert set(res["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0


def test_traced_smoke_reports_every_layer_metric():
    res = _result(_run("--workload", "assemble", "--seed", "7", "--seconds",
                       "1", "--trace", "1", "--smoke"))
    assert res["correct"] is True and res["attempted"] == 2
    names = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert set(res["metrics"]) == set(names)
    for name, unit in names.items():
        assert res["metrics"][name]["unit"] == unit
    layers = {k: v["value"] for k, v in res["metrics"].items()}
    # a hook whose target has moved reads None; the rest are measurements
    assert all(v is None or isinstance(v, (int, float))
               for v in layers.values())
    assert layers["oracle.quad_calls"] in (0, None)
    if layers["clifford.product_terms"]:
        assert layers["clifford.trace_kept_ratio"] == pytest.approx(
            layers["clifford.trace_kept_terms"]
            / layers["clifford.product_terms"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "assemble", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path,
                script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_run_past_its_deadline_stops_with_a_failed_op(tmp_path):
    late = run.Run("assemble", 1, str(tmp_path),
                   time.monotonic() - run.DEADLINE_S)
    ops, setups, failed, past = run.run_ops(late, 1, False, False)
    assert (len(ops), setups, failed, past) == (1, [], 1, True)
    assert run.check_outputs(late, ops) == ["no op finished"]


# -- the checks reject corrupted output --------------------------------------


@pytest.fixture(scope="module")
def dirac_report():
    from wresbd.ledger import build_ledger, render_json
    return render_json(build_ledger("dirac", [4]))


def _bump_last_digit(text):
    m = list(re.finditer(r"\d", text))[-1]
    d = int(m.group())
    return text[:m.start()] + str((d + 1) % 10) + text[m.end():]


def test_verify_check_accepts_real_report(dirac_report):
    assert checks.check_verify_report("dirac", [4], 0, dirac_report) == []


def test_verify_check_rejects_flipped_match_oracle(dirac_report):
    rep = json.loads(dirac_report)
    row = rep["entries"][3]["seeds"][0]
    row["match_oracle"] = not row["match_oracle"]
    assert checks.check_verify_report("dirac", [4], 0, json.dumps(rep))


def test_verify_check_rejects_case_total_changed_in_last_digit(dirac_report):
    rep = json.loads(dirac_report)
    entry = next(e for e in rep["entries"]
                 if e["case"] == "b" and e["block"] is None)
    entry["exact"] = _bump_last_digit(entry["exact"])
    assert checks.check_verify_report("dirac", [4], 0, json.dumps(rep))


def test_verify_check_rejects_differing_reports(dirac_report):
    assert checks.check_identical([dirac_report, dirac_report + " "])


@pytest.fixture(scope="module")
def assembled():
    import wresbd
    result = {fam: wresbd.assemble(fam) for fam in workloads.FAMILIES}
    return (workloads.assemble_output(wresbd, result),
            checks.oracle_reference([4]))


def test_assemble_check_accepts_real_output(assembled):
    output, reference = assembled
    assert checks.check_assemble(output, reference) == []


@pytest.mark.parametrize("case_id", ["aII", "c"])
def test_assemble_check_rejects_case_changed_in_last_digit(assembled,
                                                           case_id):
    output, reference = assembled
    bad = copy.deepcopy(output)
    cases = bad["signature"]["cases"]
    cases[case_id] = _bump_last_digit(cases[case_id])
    assert checks.check_assemble(bad, reference)


def test_assemble_check_rejects_total_off_the_oracle(assembled):
    output, reference = assembled
    bad = copy.deepcopy(reference)
    env, value = bad["dirac"][0]
    bad["dirac"][0] = (env, value * (1 + 1e-6))
    assert checks.check_assemble(output, bad)


@pytest.fixture(scope="module")
def algebra_sample():
    import wresbd
    import wresbd.clifford
    inputs = {rep: pairs[:400]
              for rep, pairs in workloads.algebra_inputs(5).items()}
    output = workloads.algebra_output(
        wresbd, workloads.algebra_op(wresbd, inputs, None, None))
    return inputs, json.loads(json.dumps(output))


def test_algebra_check_accepts_real_traces(algebra_sample):
    inputs, output = algebra_sample
    ref = checks.algebra_reference(inputs)
    assert any(ref["ext"]) and any(ref["spin"])
    assert checks.check_algebra(output, inputs, ref) == []


@pytest.mark.parametrize("rep", ["spin", "ext"])
def test_algebra_check_rejects_a_wrong_trace(algebra_sample, rep):
    inputs, output = algebra_sample
    ref = checks.algebra_reference(inputs)
    bad = copy.deepcopy(output)
    i = next(i for i, t in enumerate(ref[rep]) if t)
    trace, rot = bad[rep][i]
    bad[rep][i] = ("-" + trace if not trace.startswith("-") else trace[1:],
                   rot)
    assert checks.check_algebra(bad, inputs, ref)
    j = next(i for i, t in enumerate(ref[rep]) if not t)
    bad = copy.deepcopy(output)
    bad[rep][j] = ("8*DIMF", bad[rep][j][1])
    assert checks.check_algebra(bad, inputs, ref)


def test_algebra_reference_matches_reduced_word_rule():
    words = [(), (("C", 1), ("C", 1)), (("CH", 2), ("C", 3), ("CH", 2)),
             (("C", 1), ("CH", 1), ("C", 1), ("CH", 1))]
    traces = checks.matrix_traces(words, checks._ext_matrices())
    # c1 c1 = -1 and c1 ch1 c1 ch1 = -(c1 c1)(ch1 ch1) = 1, times dim 64
    assert traces == [64, -64, 0, 64]


def test_parse_exact_round_trips_rendered_scalars():
    from fractions import Fraction

    from wresbd.ring import GRat, Scalar
    s = (Scalar.sym("PI", 1, GRat(Fraction(1, 2), Fraction(-3, 4)))
         + Scalar.sym("H1", 2, GRat(0, -1))
         + Scalar.sym("T2:w:1:wStar:2", 1, -3)
         + Scalar.from_grat(GRat(Fraction(-1, 3), 1)))
    env = {"PI": 2.0, "H1": 3.0, "T2:w:1:wStar:2": 5.0}
    parsed = checks.parse_exact(s.render())
    assert len(parsed) == 4
    assert checks.evaluate_exact(parsed, env) == pytest.approx(
        s.evaluate(env))
    with pytest.raises(ValueError):
        checks.parse_exact("3/4*PI*?")


# -- tracer -------------------------------------------------------------------------


def _traced_counts():
    import wresbd
    t = tracer.Tracer()
    t.install()
    try:
        wresbd.assemble("dirac")
    finally:
        t.uninstall()
    return t


def test_tracer_counts_repeat_and_uninstall_restores():
    import wresbd.boundary
    before = wresbd.boundary.pi_plus
    first, second = _traced_counts(), _traced_counts()
    assert wresbd.boundary.pi_plus is before
    counts = [{m: t.metrics()[m] for m in tracer.COUNT_METRICS}
              for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["boundary.factor_pairs_calls"] in (5, None)
    layers = first.metrics()
    # inclusive times nest: the factor pairs hold pi_plus and the sigmas
    for inner in ("symbols.pi_plus_s", "catalog.sigma_s"):
        assert layers["boundary.factor_pairs_s"] >= layers[inner] > 0


def test_tracer_reports_moved_internals_as_absent(monkeypatch):
    layer = types.ModuleType("perfbench_fake_layer")

    class Symbol:
        def derive(self):
            return layer.pi_plus()

    layer.pi_plus = lambda: time.sleep(0.001)
    layer.Symbol = Symbol
    monkeypatch.setitem(sys.modules, layer.__name__, layer)
    t = tracer.Tracer()
    t.install([("pi_plus", layer.__name__, "pi_plus"),
               ("derive_restrict", layer.__name__, "Symbol.derive"),
               ("line_integral", layer.__name__, "integrate_line"),
               ("quad", "perfbench_no_such_module", "quad")])
    Symbol().derive()
    t.uninstall()
    layers = t.metrics()
    assert layers["symbols.pi_plus_s"] >= 0.001
    assert layers["symbols.derive_restrict_s"] >= layers["symbols.pi_plus_s"]
    assert layers["symbols.line_integral_s"] is None
    assert layers["oracle.quad_calls"] is None
    assert layers["clifford.trace_kept_ratio"] is None
    assert sorted(t.missing) == ["perfbench_fake_layer.integrate_line",
                                 "perfbench_no_such_module.quad"]
    # pi_plus ran inside derive: its time is in derive's inclusive time
    # but not in derive's self time
    assert t.calls == {"derive_restrict": 1, "pi_plus": 1}
    assert (t.self_["derive_restrict"]
            == pytest.approx(t.incl["derive_restrict"] - t.incl["pi_plus"]))
    # uninstall put the originals back
    assert Symbol.__dict__["derive"].__name__ == "derive"
    assert layer.pi_plus.__name__ == "<lambda>"


def test_import_times_attributes_to_enclosing_package():
    text = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |         pickle",
        "import time:      2000 |       2100 |       numpy",
        "import time:       300 |       2400 |     wresbd.clifford",
        "import time:        50 |         50 |       scipy",
        "import time:      7000 |       7050 |     scipy.integrate",
        "import time:        10 |       9460 |   wresbd",
    ])
    got = run.import_times(text)
    assert got == pytest.approx({"setup.numpy_s": 0.0021,
                                 "setup.scipy_s": 0.00705,
                                 "setup.wresbd_s": 0.00031})
