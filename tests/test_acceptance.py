"""Acceptance gate: end-to-end checks of the exact engine.

Six criteria:

1. algebra suite -- generator relations and trace cyclicity, exhaustive
   over words of length <= 4, plus the degreewise exterior trace pattern
   summing to zero exactly;
2. projection / line-integral suite -- pi^+ idempotence and
   complementarity on 100 seeded symbols, and the residue-formula line
   integral against quadrature on a 200-function corpus at 1e-8;
3. catalog consistency -- the generic composition recursion reproduces the
   catalog's inverse-cube symbols exactly, and the stated derivative
   forms match the published ones.  Three of the published forms contain
   misprints (documented and exactly characterized in test_catalog.py,
   with the engine side confirmed by the numeric oracle); those three
   sub-checks are marked strict-xfail rather than silently weakened;
4. reference-value reproduction for the first three boundary cases;
5. full verification ledgers for both operator families over three seeds,
   every equation id present and every oracle comparison green;
6. internal consistency of assembly and of the mean-curvature
   substitution.
"""

import itertools
import json
import math
import random
import time
from pathlib import Path

import pytest

from references import (dense, equal_on_sphere, equals, evaluate_symbol,
                        invert_cubed, mask_word, paper_form, paper_value,
                        pi_minus)
from test_symbols import _quad_complex, random_restricted
from wresbd.boundary import CASES, assemble, evaluate_case, substitute_K
from wresbd.catalog import (DIRAC, SIGNATURE, _frac, _sandwich, alpha_dirac,
                            c_endo, cubed_sigma)
from wresbd.clifford import CliffordElement, normal_form, trace_ext, trace_spin
from wresbd.ledger import build_ledger, render_json, render_text
from wresbd.oracle import (OracleAssignment, ext_degree_trace, rep_matrix,
                           word_matrix)
from wresbd.ring import Scalar
from wresbd.symbols import (NotIntegrable, RationalSymbol, integrate_line,
                            pi_plus)

CE = CliffordElement
C_GENS = [("C", j) for j in range(1, 7)]
ALL_GENS = C_GENS + [("CH", j) for j in range(1, 7)]
FAMS = [DIRAC, SIGNATURE]
DATA = Path(__file__).resolve().parent / "data"


# -- criterion 1: algebra suite ----------------------------------------------


class TestAlgebraSuite:
    def test_relations_and_cyclicity_exhaustive(self):
        start = time.monotonic()
        # generator relations, symbolically and in the exterior model:
        # plain generators square to -1, hat-generators to +1, every other
        # pair (mixed kinds included) anticommutes
        import numpy as np
        for g in ALL_GENS:
            a = dense(rep_matrix(g, "ext"))
            square = 1 if g[0] == "CH" else -1
            sign, mask = normal_form((g, g))
            assert (sign, mask_word(mask)) == (square, ())
            assert np.allclose(a @ a, square * np.eye(a.shape[0]))
            for h in ALL_GENS:
                if g == h:
                    continue
                b = dense(rep_matrix(h, "ext"))
                assert (CE.word((g, h)) + CE.word((h, g))).is_zero()
                assert np.allclose(a @ b + b @ a, 0)
        env = {"DIMF": 1.0}
        # symbolic trace == matrix trace, and trace is cyclic, for every
        # word of length <= 4 over the spin generators and the full set
        for n in range(5):
            for word in itertools.product(C_GENS, repeat=n):
                sym = trace_spin(CE.word(word)).evaluate(env)
                mat = dense(word_matrix(word, "spin")).trace()
                assert abs(sym - mat) < 1e-9
                if n:
                    rot = word[1:] + word[:1]
                    assert trace_spin(CE.word(rot)) == trace_spin(
                        CE.word(word))
        for n in range(5):
            for word in itertools.product(ALL_GENS, repeat=n):
                sym = trace_ext(CE.word(word)).evaluate(env)
                mat = dense(word_matrix(word, "ext")).trace()
                assert abs(sym - mat) < 1e-9
                if n:
                    rot = word[1:] + word[:1]
                    assert trace_ext(CE.word(rot)) == trace_ext(
                        CE.word(word))
        assert time.monotonic() - start < 10.0

    def test_degreewise_trace_pattern_sums_to_zero(self):
        word = (("C", 1), ("CH", 1), ("C", 6), ("CH", 6))
        per_degree = [ext_degree_trace(word, m) for m in range(7)]
        # each per-degree trace is an exact integer; the alternating-free
        # sum over all exterior degrees cancels identically
        ints = [round(v.real) for v in per_degree]
        assert all(abs(v - i) < 1e-12 for v, i in zip(per_degree, ints))
        assert sum(ints) == 0
        assert trace_ext(CE.word(word)).is_zero()


# -- criterion 2: projection and line integral -------------------------------


class TestProjectionAndResidue:
    def test_projection_idempotent_complementary_100(self):
        rng = random.Random(20240817)
        for _ in range(100):
            s = random_restricted(rng, proper=True, with_xi=True)
            p = pi_plus(s)
            m = pi_minus(s)
            assert equals(pi_plus(p), p)
            assert pi_minus(p).is_zero()
            assert pi_plus(m).is_zero()
            assert equals(p + m, s)

    def test_line_integral_vs_quadrature_200(self):
        start = time.monotonic()
        rng = random.Random(31337)
        checked = 0
        while checked < 200:
            s = random_restricted(rng, proper=True, with_xi=False,
                                  clifford=False)
            try:
                exact = integrate_line(s)
            except NotIntegrable:
                continue
            val = exact.evaluate({"PI": math.pi})
            num = _quad_complex(lambda x: evaluate_symbol(s, x, {}))
            assert abs(val - num) <= 1e-8 * max(abs(num), 1.0)
            checked += 1
        assert time.monotonic() - start < 60.0


# -- criterion 3: catalog consistency ----------------------------------------


class TestCatalogConsistency:
    @pytest.mark.parametrize("fam", FAMS, ids=lambda f: f.name)
    def test_recursion_reproduces_catalog(self, fam):
        q3, q4 = invert_cubed(fam)
        assert equals(q3, cubed_sigma(fam, -3)["total"])
        assert equals(q4, sum(cubed_sigma(fam, -4).values(),
                              RationalSymbol.zero()))

    @pytest.mark.parametrize(
        "eq_id",
        ["(3.15)", "(3.21)", "(3.34)", "(3.39)", "(3.56)",
         pytest.param("(3.31)", marks=pytest.mark.xfail(
             strict=True,
             reason="published form misprints sigma_{-4}(D^-3); engine "
                    "form validated by recursion and oracle, exact "
                    "discrepancy characterized in test_catalog.py")),
         pytest.param("(3.44)", marks=pytest.mark.xfail(
             strict=True,
             reason="published numerator -2 xi_n c(Phi) where the chain "
                    "rule gives -4 xi_n c(Phi); engine equals twice the "
                    "printed form")),
         pytest.param("(5.41)", marks=pytest.mark.xfail(
             strict=True,
             reason="signature copy of the (3.31) misprint"))])
    def test_stated_derivative_forms_match(self, eq_id):
        q3d = cubed_sigma(DIRAC, -3)["total"]
        got = {
            "(3.15)": lambda: q3d.derive("xin").derive("xin").restrict(),
            "(3.21)": lambda: q3d.derive("xin").derive("xn").restrict(),
            "(3.31)": lambda: cubed_sigma(DIRAC, -4)["D1"]
                .derive("xin").restrict(),
            "(3.34)": lambda: _sandwich(alpha_dirac(), 3)
                .derive("xin").restrict(),
            "(3.39)": lambda: _sandwich(c_endo("PhiStar"), 3)
                .derive("xin").restrict(),
            "(3.44)": lambda: _frac([c_endo("Phi")], 2)
                .derive("xin").restrict(),
            "(3.56)": lambda: q3d.derive("xin").restrict(),
            "(5.41)": lambda: cubed_sigma(SIGNATURE, -4)["D1"]
                .derive("xin").restrict(),
        }[eq_id]()
        fam = "dirac" if eq_id.startswith("(3") else "signature"
        assert equal_on_sphere(got, paper_form(fam, eq_id))


# -- criterion 4: reference-value reproduction -------------------------------


class TestReferenceValues:
    @pytest.mark.parametrize(
        "fam,case_id,eq_id",
        [("dirac", "aI", "(3.12)"), ("dirac", "aII", "(3.18)"),
         ("dirac", "aIII", "(3.23)"), ("signature", "aII", "(5.10)"),
         ("signature", "aIII", "(5.15)")])
    def test_case_values(self, fam, case_id, eq_id):
        case = {c.case_id: c for c in CASES}[case_id]
        got = evaluate_case(fam, case).value
        assert (got - paper_value(fam, eq_id)).is_zero()

    def test_tangential_case_vanishes_exactly(self):
        for fam in ("dirac", "signature"):
            assert evaluate_case(fam, CASES[0]).value.is_zero()


# -- criterion 5: full ledgers -----------------------------------------------

_REQUIRED_IDS = {
    "dirac": ["(3.12)", "(3.18)", "(3.23)", "(3.33)", "(3.38)", "(3.43)",
              "(3.48)", "(3.49)", "(3.59)", "(3.63)", "(3.64)", "(3.65)",
              "(3.67)"],
    "signature": ["(5.5)", "(5.10)", "(5.15)", "(5.35)", "(5.36)", "(5.37)",
                  "(5.43)", "(5.45)", "(5.47)", "(5.48)", "(5.49)", "(5.50)",
                  "(5.52)", "(5.29)"],
}


class TestFullLedgers:
    def test_both_families_three_seeds(self):
        start = time.monotonic()
        for fam in ("dirac", "signature"):
            ledger = build_ledger(fam, [1, 2, 3])
            ids = [e["id"] for e in ledger["entries"]]
            for eq_id in _REQUIRED_IDS[fam]:
                assert eq_id in ids, eq_id
            assert ledger["all_match_oracle"] is True
            for e in ledger["entries"]:
                assert e["match_oracle"] is True, e["id"]
            text = render_text(ledger)
            # byte-identical to the committed report of
            # `wresbd verify --family F --seeds 1,2,3 --format text`
            golden = DATA / ("report_%s.txt" % fam)
            assert text == golden.read_text(encoding="utf-8")
            # and to the committed `--format json` report: each oracle
            # value within 1e-13 of its modulus of the committed one, and,
            # with the committed oracle values written in, byte for byte
            golden = (DATA / ("report_%s.json" % fam)).read_text(
                encoding="utf-8")
            want = {(e["id"], e["case"], e["block"]): e["seeds"]
                    for e in json.loads(golden)["entries"]}
            assert len(want) == len(ledger["entries"])
            for e in ledger["entries"]:
                for row, wrow in zip(e["seeds"],
                                     want[e["id"], e["case"], e["block"]],
                                     strict=True):
                    g = complex(row["oracle"]["re"], row["oracle"]["im"])
                    w = complex(wrow["oracle"]["re"], wrow["oracle"]["im"])
                    assert abs(g - w) <= 1e-13 * abs(w), (g, w)
                    row["oracle"] = wrow["oracle"]
            assert render_json(ledger) == golden
            # totals appear side by side: engine total, published total,
            # and the mean-curvature (theorem) form after substitution
            total_id, theorem_id = (("(3.65)", "(3.67)")
                                    if fam == "dirac"
                                    else ("(5.50)", "(5.52)"))
            assert total_id in text and theorem_id in text
            coeff = "-8/5" if fam == "dirac" else "-46/5"
            assert coeff in text
        assert time.monotonic() - start < 120.0


# -- criterion 6: internal consistency ----------------------------------------


class TestInternalConsistency:
    @pytest.mark.parametrize("fam", ["dirac", "signature"])
    def test_assembly_is_sum_of_cases(self, fam):
        results, total = assemble(fam)
        acc = Scalar.zero()
        for res in results.values():
            acc = acc + res.value
        assert (acc - total).is_zero()

    def test_curvature_substitution_exact(self):
        # an h'(0)-coefficient c becomes -(2/5) c K, other terms untouched
        c = Scalar.rational(9) * Scalar.sym("OMEGA4")
        s = Scalar.sym("H1") * c + Scalar.sym("DIMF") * 4
        import fractions
        expected = (Scalar.sym("K") * c
                    * Scalar.rational(fractions.Fraction(-2, 5))
                    + Scalar.sym("DIMF") * 4)
        assert (substitute_K(s) - expected).is_zero()

    @pytest.mark.parametrize("fam", ["dirac", "signature"])
    def test_substituted_total_is_seedwise_consistent(self, fam):
        _, total = assemble(fam)
        subbed = substitute_K(total)
        for seed in (1, 2, 3):
            env = OracleAssignment(seed).env
            a = complex(total.evaluate(env))
            b = complex(subbed.evaluate(env))
            assert abs(a - b) <= 1e-12 * max(abs(a), 1.0)
