"""Boundary-case enumeration and exact evaluation."""

import random
from fractions import Fraction

import pytest

from references import paper_value
from wresbd import boundary
from wresbd.boundary import (CASES, _pair_value, _trace_symbol, assemble,
                             case_factor_pairs, evaluate_case, substitute_K)
from wresbd.catalog import FAMILIES
from wresbd.clifford import CliffordElement as CE
from wresbd.oracle import (OracleAssignment, _line_integral_numeric,
                           _pair_integrand_polys)
from wresbd.ring import GRat, Scalar
from wresbd.symbols import RationalSymbol

FAMS = ["dirac", "signature"]


def test_enumeration_is_complete_and_minimal():
    ids = [c.case_id for c in CASES]
    assert ids == ["aI", "aII", "aIII", "b", "c"]
    # scanning the order constraint over a wide range finds exactly CASES
    bound = 9
    found = {(r, ell, j, k, na)
             for r in range(-bound, 0)
             for ell in range(-bound, -2)
             for j in range(bound)
             for k in range(bound)
             for na in range(bound)
             if r + ell - k - j - na - 1 == -6}
    assert found == {(c.r, c.ell, c.j, c.k, c.nalpha) for c in CASES}
    assert len(found) == len(CASES)


def test_prefactors():
    expected = {
        "aI": GRat(-1),
        "aII": GRat(Fraction(-1, 2)),
        "aIII": GRat(Fraction(-1, 2)),
        "b": GRat(0, -1),
        "c": GRat(0, -1),
    }
    for case in CASES:
        pref = case.prefactor()
        assert pref - Scalar.from_grat(expected[case.case_id]) == \
            Scalar.zero() or (pref - Scalar.from_grat(
                expected[case.case_id])).is_zero()


@pytest.mark.parametrize("fam", FAMS)
def test_tangential_case_vanishes(fam):
    res = evaluate_case(fam, CASES[0])
    assert res.case.case_id == "aI"
    assert res.value.is_zero() and res.blocks == {}


def test_tangential_case_has_no_factor_pairs(monkeypatch):
    # d_x' sigma_l = 0 at x_0 is stated once, as a case with no blocks,
    # before the catalog is read; no symbol is derived tangentially
    def refuse(*args):
        raise AssertionError("case aI read the catalog")

    monkeypatch.setattr(boundary, "first_order_sigma", refuse)
    monkeypatch.setattr(boundary, "cubed_sigma", refuse)
    for fam in FAMS:
        assert case_factor_pairs(fam, CASES[0]) == {}
    with pytest.raises(ValueError, match="unknown derivative"):
        RationalSymbol(False, {1: [CE.one()]}).derive("xprime")


def test_each_factor_reads_the_catalog_once(monkeypatch):
    # the split factor's blocks all meet one read of the other factor
    orders = []
    for name in ("first_order_sigma", "cubed_sigma"):
        monkeypatch.setattr(boundary, name,
                            lambda fam, order, read=getattr(boundary, name):
                            orders.append(order) or read(fam, order))
    for case in CASES[1:]:
        orders.clear()
        case_factor_pairs("dirac", case)
        assert sorted(orders) == sorted([case.r, case.ell]), case.case_id


@pytest.mark.parametrize("fam", FAMS)
def test_blocks_sum_to_case_value(fam):
    for case in CASES:
        res = evaluate_case(fam, case)
        total = Scalar.zero()
        for v in res.blocks.values():
            total = total + v
        assert (total - res.value).is_zero()


@pytest.mark.parametrize("fam", FAMS)
def test_assemble_equals_sum_of_cases(fam):
    results, total = assemble(fam)
    acc = Scalar.zero()
    for cid in ("aI", "aII", "aIII", "b", "c"):
        acc = acc + results[cid].value
    assert (acc - total).is_zero()


@pytest.mark.parametrize(
    "fam,case_id,eq_id",
    [("dirac", "aI", "(3.12)"), ("dirac", "aII", "(3.18)"),
     ("dirac", "aIII", "(3.23)"),
     ("signature", "aI", "(5.5)"), ("signature", "aII", "(5.10)"),
     ("signature", "aIII", "(5.15)")])
def test_first_cases_reproduce_reference_values(fam, case_id, eq_id):
    case = {c.case_id: c for c in CASES}[case_id]
    res = evaluate_case(fam, case)
    assert (res.value - paper_value(fam, eq_id)).is_zero()


def test_untwisted_core_block_matches_reference():
    case = {c.case_id: c for c in CASES}["c"]
    got = evaluate_case("dirac", case).blocks["core"]
    assert (got - paper_value("dirac", "(3.59)")).is_zero()


@pytest.mark.parametrize(
    "fam,case_id,block,eq_id",
    [("dirac", "b", "D3", "(3.43)"),
     ("dirac", "c", "beta", "(3.63)"), ("dirac", "b", "D2", "(3.38)"),
     ("signature", "b", "thetastar", "(5.47)"),
     ("signature", "c", "B4", "(5.36)")])
def test_twisted_blocks_match_reference_up_to_normalization(fam, case_id,
                                                            block, eq_id):
    """The reference prints these block values with an extra dim F factor
    (and (5.36) without its pi factor); the engine value agrees with the
    reference coefficient once those normalization slips are removed."""
    case = {c.case_id: c for c in CASES}[case_id]
    got = evaluate_case(fam, case).blocks[block]
    ref = paper_value(fam, eq_id)
    normalized = ref.substitute({"DIMF": Scalar.one()})
    if eq_id == "(5.36)":
        normalized = normalized * Scalar.sym("PI")
    assert (got - normalized).is_zero()


def test_untwisted_blocks_scale_with_representation_dimension():
    """Untwisted contributions differ between the families exactly by the
    ratio of Clifford representation dimensions, 64/8 = 8."""
    pairs = [("aII", None), ("aIII", None), ("b", "D1"),
             ("c", ("core", "B123"))]
    for case_id, blk in pairs:
        case = {c.case_id: c for c in CASES}[case_id]
        dres = evaluate_case("dirac", case)
        sres = evaluate_case("signature", case)
        if blk is None:
            dval, sval = dres.value, sres.value
        else:
            dname, sname = (blk, blk) if isinstance(blk, str) else blk
            dval, sval = dres.blocks[dname], sres.blocks[sname]
        if case_id == "c":
            # the signature block additionally contains the p-sandwich,
            # whose sphere average vanishes, so scaling still holds
            pass
        assert (sval - dval * 8).is_zero(), case_id


@pytest.mark.parametrize("fam", FAMS)
def test_curvature_substitution(fam):
    _, total = assemble(fam)
    subbed = substitute_K(total)
    # h'(0) is gone, K appears, and substituting K = -(5/2) h'(0) back
    # recovers the original expression
    back = subbed.substitute({"K": Scalar.sym("H1") * Fraction(-5, 2)})
    assert (back - total).is_zero()


def test_curvature_substitution_coefficient():
    """An h'(0)-coefficient c becomes -(2/5) c K."""
    s = Scalar.sym("H1") * Scalar.rational(7) + Scalar.sym("DIMF")
    out = substitute_K(s)
    expected = (Scalar.sym("K") * Scalar.rational(Fraction(-14, 5))
                + Scalar.sym("DIMF"))
    assert (out - expected).is_zero()


# -- the trace pairs only equal words -----------------------------------------

_ENDOS = (("sigmaF", 1), ("Phi", 2), ("PhiStar", 4), ("w", 6))


def _traced_product(family, first, second):
    """The fibre trace of the whole product first * second, coefficientwise."""
    return RationalSymbol(True, {
        key: [CE.scalar(family.trace(c)) for c in poly]
        for key, poly in (first * second).terms.items()})


def _random_coeff(rng, words):
    """A sum of one to three terms: a Gaussian integer, possibly times an
    XI, times a word drawn from `words`, possibly times one endomorphism."""
    out = CE.zero()
    for _ in range(rng.randint(1, 3)):
        c = Scalar.from_grat(GRat(rng.randint(-3, 3), rng.randint(-3, 3)))
        if rng.random() < 0.5:
            c = c * Scalar.sym("XI%d" % rng.randint(1, 5), rng.randint(1, 2))
        term = CE.word(rng.choice(words), c)
        if rng.random() < 0.5:
            term = term * CE.endo(*rng.choice(_ENDOS))
        out = out + term
    return out


def _random_factor(rng, words):
    """A random proper restricted symbol over the given generator words, so
    that the product of two of them is integrable over xi_n."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a == b == 0:
            a = 1
        terms[(a, b)] = [_random_coeff(rng, words)
                         for _ in range(rng.randint(1, a + b))]
    return RationalSymbol(True, terms)


def _random_pair(rng, fam):
    """Two random factors whose words come from one small pool, so that
    equal words meet often; CH generators only for the signature family."""
    kinds = ("C",) if fam == "dirac" else ("C", "CH")
    words = [()] + [[(rng.choice(kinds), rng.randint(1, 6))
                     for _ in range(rng.randint(1, 3))] for _ in range(3)]
    return _random_factor(rng, words), _random_factor(rng, words)


@pytest.mark.parametrize("fam", FAMS)
def test_trace_symbol_on_ledger_pairs_is_the_traced_product(fam):
    family = FAMILIES[fam]
    count = 0
    for case in CASES:
        for first, second in case_factor_pairs(family, case).values():
            assert (_trace_symbol(family, first, second).terms
                    == _traced_product(family, first, second).terms)
            count += 1
    assert count == 8


@pytest.mark.parametrize("fam", FAMS)
def test_trace_symbol_on_random_pairs_is_the_traced_product(fam):
    family = FAMILIES[fam]
    rng = random.Random(17)
    for _ in range(60):
        first, second = _random_pair(rng, fam)
        assert (_trace_symbol(family, first, second).terms
                == _traced_product(family, first, second).terms)


def _single(ce, key=(1, 1)):
    return RationalSymbol(True, {key: [ce]})


@pytest.mark.parametrize("fam, word, square", [
    ("dirac", [("C", 2)], -1),
    ("signature", [("C", 5)], -1),
    ("signature", [("CH", 3)], 1),
    ("signature", [("C", 1), ("CH", 4)], 1),
    ("dirac", [("C", 1), ("C", 3), ("C", 6)], 1),
])
def test_equal_words_square_to_a_sign(fam, word, square):
    family = FAMILIES[fam]
    first = _single(CE.word(word, Scalar.sym("XI1")), (1, 2))
    second = _single(CE.word(word, 3))
    got = _trace_symbol(family, first, second)
    dim = 8 if fam == "dirac" else 64
    want = Scalar.sym("XI1") * Scalar.sym("DIMF") * (3 * dim * square)
    assert got.terms == {(2, 3): [CE.scalar(want)]}
    assert got.terms == _traced_product(family, first, second).terms


@pytest.mark.parametrize("fam, left, right", [
    ("dirac", [("C", 1)], [("C", 2)]),
    ("dirac", [], [("C", 2), ("C", 4)]),
    ("signature", [("CH", 1)], [("C", 1)]),
    ("signature", [("C", 3), ("CH", 3)], []),
])
def test_pairs_sharing_no_word_trace_to_zero(fam, left, right):
    family = FAMILIES[fam]
    first, second = _single(CE.word(left, 2)), _single(CE.word(right, 5))
    assert _trace_symbol(family, first, second).is_zero()
    assert _traced_product(family, first, second).is_zero()


@pytest.mark.parametrize("ch_in", ["first", "second", "both"])
def test_dirac_pair_with_a_ch_word_is_rejected(ch_in):
    ch, c = _single(CE.ch(2) + CE.c(1)), _single(CE.c(1))
    first = ch if ch_in in ("first", "both") else c
    second = ch if ch_in in ("second", "both") else c
    with pytest.raises(ValueError, match="CH generators"):
        _trace_symbol(FAMILIES["dirac"], first, second)


@pytest.mark.parametrize("fam", FAMS)
def test_matched_pair_with_three_endomorphisms_is_rejected(fam):
    two = CE.c(3) * CE.endo("Phi", 1) * CE.endo("Phi", 2)
    first, second = _single(two), _single(CE.c(3) * CE.endo("w", 1))
    with pytest.raises(ValueError, match="endomorphism word of length 3"):
        _trace_symbol(FAMILIES[fam], first, second)


def _env_with_pair_traces(value, assignment):
    """The assignment's values plus the T2 pair traces `value` holds."""
    env = dict(assignment.env)
    for mono, _ in value.monomials():
        for sym, _ in mono:
            if sym.startswith("T2:"):
                f1, j1, f2, j2 = sym.split(":")[1:]
                env[sym] = assignment.endo_trace(
                    ((f1, int(j1)), (f2, int(j2))))
    return env


@pytest.mark.parametrize("fam", FAMS)
def test_pair_value_matches_the_oracle_on_random_pairs(fam):
    family = FAMILIES[fam]
    assignment = OracleAssignment(5)
    rng = random.Random(23)
    nonzero = 0
    for _ in range(25):
        first, second = _random_pair(rng, fam)
        exact = _pair_value(family, first, second)
        want = exact.evaluate(_env_with_pair_traces(exact, assignment))
        polys = _pair_integrand_polys(first, second, family.rep, assignment)
        got = sum((_line_integral_numeric(poly, key)
                   for key, poly in polys.items() if any(poly)), 0j)
        assert abs(got - want) <= 1e-8 * max(1.0, abs(want))
        nonzero += abs(want) > 1e-6
    assert nonzero >= 10
