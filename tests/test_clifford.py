"""Clifford layer: generator relations, normal form, symbolic vs matrix traces."""

import itertools
import random
from math import comb

import numpy as np
import pytest

from references import (dense, mask_word, normal_form_by_sort,
                        reduce_unit_sphere, word_mask)
from wresbd.catalog import FAMILIES, cubed_sigma, first_order_sigma
from wresbd.clifford import (
    _GEN,
    _GENS,
    _PAST,
    EXT_DIM,
    SPIN_DIM,
    CliffordElement,
    normal_form,
    trace_ext,
    trace_ext_degree,
    trace_spin,
)
from wresbd.oracle import ext_degree_trace, rep_matrix, word_matrix
from wresbd.ring import Scalar

CE = CliffordElement

ALL_GENS = [("C", j) for j in range(1, 7)] + [("CH", j) for j in range(1, 7)]
C_GENS = ALL_GENS[:6]


class TestMatrixRelations:
    def test_spin_relations(self):
        gens = [dense(rep_matrix(g, "spin")) for g in C_GENS]
        eye = np.eye(SPIN_DIM)
        for i, a in enumerate(gens):
            assert np.allclose(a @ a, -eye)
            for b in gens[i + 1:]:
                assert np.allclose(a @ b + b @ a, 0)

    def test_ext_relations(self):
        cs = [dense(rep_matrix(("C", j), "ext")) for j in range(1, 7)]
        chs = [dense(rep_matrix(("CH", j), "ext")) for j in range(1, 7)]
        eye = np.eye(EXT_DIM)
        for i in range(6):
            assert np.allclose(cs[i] @ cs[i], -eye)
            assert np.allclose(chs[i] @ chs[i], eye)
            for k in range(6):
                # mixed pairs anticommute for every i, k -- including i == k
                assert np.allclose(cs[i] @ chs[k] + chs[k] @ cs[i], 0)
                if i != k:
                    assert np.allclose(cs[i] @ cs[k] + cs[k] @ cs[i], 0)
                    assert np.allclose(chs[i] @ chs[k] + chs[k] @ chs[i], 0)

    def test_spin_rejects_ch(self):
        with pytest.raises(ValueError):
            rep_matrix(("CH", 1), "spin")


def _sorted_form(word):
    """normal_form with its mask read back as a canonical word."""
    sign, mask = normal_form(word)
    return sign, mask_word(mask)


class TestNormalForm:
    def test_squares(self):
        assert _sorted_form((("C", 3), ("C", 3))) == (-1, ())
        assert _sorted_form((("CH", 2), ("CH", 2))) == (1, ())

    def test_sorting_sign(self):
        sign, w = _sorted_form((("C", 2), ("C", 1)))
        assert sign == -1 and w == (("C", 1), ("C", 2))
        sign, w = _sorted_form((("CH", 1), ("C", 1)))
        assert sign == -1 and w == (("C", 1), ("CH", 1))

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(200):
            word = tuple(rng.choice(ALL_GENS) for _ in range(rng.randint(0, 6)))
            sign, w = _sorted_form(word)
            assert _sorted_form(w) == (1, w)
            assert sign in (1, -1)

    def test_matches_matrices(self):
        # the sign convention must agree with the exterior representation
        rng = random.Random(11)
        for _ in range(150):
            word = tuple(rng.choice(ALL_GENS) for _ in range(rng.randint(1, 5)))
            sign, w = _sorted_form(word)
            assert np.allclose(dense(word_matrix(word, "ext")),
                               sign * dense(word_matrix(w, "ext")))

    def test_matches_insertion_sort(self):
        # all 22,621 words of length <= 4 over the 12 generators, then
        # seeded longer ones
        for n in range(5):
            for word in itertools.product(ALL_GENS, repeat=n):
                assert _sorted_form(word) == normal_form_by_sort(word)
        rng = random.Random(24)
        for _ in range(2000):
            word = tuple(rng.choice(ALL_GENS) for _ in range(rng.randint(5, 10)))
            assert _sorted_form(word) == normal_form_by_sort(word)

    def test_word_takes_one_shot_iterator(self):
        word = [("CH", 2), ("C", 5), ("C", 1)]
        got = CE.word((g for g in word), 3)
        assert got == CE.word(word, 3)
        # C5 passes CH2, C1 passes both: three anticommutations; the key's
        # mask holds C1, C5 and CH2 in bits 0, 4 and 7
        assert mask_word(145) == (("C", 1), ("C", 5), ("CH", 2))
        assert got.terms == {(145, ()): Scalar.rational(-3)}


class TestMaskTables:
    def test_past_masks_match_the_bit_count_formula(self):
        # the bits generator b passes in mask m: those above b, and b
        # itself for a C (c^2 = -1)
        for m in range(4096):
            for b in range(12):
                assert ((m & _PAST[b]).bit_count()
                        == (m >> b + 1).bit_count() + ((m & 63) >> b & 1))
        assert _GEN == {g: (1 << b, _PAST[b]) for b, g in enumerate(ALL_GENS)}
        assert _GENS == ALL_GENS

    @staticmethod
    def _check_product(w1, w2):
        sign, word = normal_form_by_sort(w1 + w2)
        assert ((CE.word(w1) * CE.word(w2)).terms
                == {(word_mask(word), ()): Scalar.rational(sign)})

    def test_products_of_short_reduced_words(self):
        # every pair of the 79 reduced words of length <= 2
        short = [w for n in range(3) for w in itertools.combinations(ALL_GENS, n)]
        assert len(short) == 79
        for w1 in short:
            for w2 in short:
                self._check_product(w1, w2)

    def test_products_of_sampled_masks(self):
        rng = random.Random(28)
        for _ in range(2000):
            self._check_product(mask_word(rng.randrange(4096)),
                                mask_word(rng.randrange(4096)))


class TestTermKeys:
    """Every term key is (12-bit int word mask, endomorphism tuple)."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_catalog_keys_are_masks(self, family):
        fam = FAMILIES[family]
        blocks = [sym for catalog, orders in ((cubed_sigma, (3, 2, -3, -4)),
                                              (first_order_sigma, (-1, -2)))
                  for order in orders
                  for sym in catalog(fam, order).values()]
        keys = 0
        for sym in blocks:
            for poly in sym.terms.values():
                for ce in poly:
                    for key, c in ce.terms.items():
                        mask, endo = key
                        assert type(mask) is int and 0 <= mask < 4096
                        assert type(endo) is tuple
                        # the scalar terms, the only traced ones, are
                        # exactly those with mask 0
                        assert (mask == 0) == (
                            not fam.trace(CE({key: c})).is_zero())
                        keys += 1
        assert keys

    @pytest.mark.parametrize("key", [((), ()), ((("C", 1),), ()), (4096, ()),
                                     (-1, ()), (True, ()), (1.0, ())],
                             ids=["empty-tuple", "word-tuple", "4096", "-1",
                                  "bool", "float"])
    def test_stale_key_rejected(self, key):
        with pytest.raises(TypeError, match="12-bit int mask"):
            CE({key: 1})


def _random_element(rng, gens, max_words=3, max_len=3):
    e = CE.zero()
    for _ in range(rng.randint(1, max_words)):
        word = [rng.choice(gens) for _ in range(rng.randint(0, max_len))]
        e = e + CE.word(word, rng.randint(-3, 3))
    return e


class TestTraces:
    def test_scalar_traces(self):
        assert trace_spin(CE.one()) == SPIN_DIM * Scalar.sym("DIMF")
        assert trace_ext(CE.one()) == EXT_DIM * Scalar.sym("DIMF")

    def test_nonscalar_words_traceless(self):
        for n in (1, 2, 3):
            for word in itertools.combinations(C_GENS, n):
                assert trace_spin(CE.word(word)).is_zero()
        assert trace_spin(CE.word([("C", 1), ("C", 1)])) == -SPIN_DIM * Scalar.sym("DIMF")

    def test_symbolic_vs_matrix_spin(self):
        # exhaustive over words of length <= 3 here; the acceptance test
        # pushes this to length 4
        env = {"DIMF": 1.0}
        for n in range(4):
            for word in itertools.product(C_GENS, repeat=n):
                sym = trace_spin(CE.word(word)).evaluate(env)
                mat = dense(word_matrix(word, "spin")).trace()
                assert abs(sym - mat) < 1e-9

    def test_symbolic_vs_matrix_ext_sampled(self):
        # every one of the 4096 reduced words, each matrix built from its
        # prefix's with one product, walked depth first
        env = {"DIMF": 1.0}
        gens = [(g, dense(rep_matrix(g, "ext"))) for g in ALL_GENS]
        seen = 0
        stack = [((), np.eye(EXT_DIM), 0)]
        while stack:
            word, mat, start = stack.pop()
            sym = trace_ext(CE.word(word)).evaluate(env)
            assert abs(sym - mat.trace()) < 1e-9
            seen += 1
            for i in range(start, len(gens)):
                g, m = gens[i]
                stack.append((word + (g,), mat @ m, i + 1))
        assert seen == 2 ** len(ALL_GENS)

    def test_cyclicity(self):
        rng = random.Random(19)
        for _ in range(200):
            a = _random_element(rng, C_GENS)
            b = _random_element(rng, C_GENS)
            assert trace_spin(a * b) == trace_spin(b * a)
            ae = _random_element(rng, ALL_GENS)
            be = _random_element(rng, ALL_GENS)
            assert trace_ext(ae * be) == trace_ext(be * ae)

    def test_trace_spin_rejects_ch(self):
        with pytest.raises(ValueError):
            trace_spin(CE.ch(1))


@pytest.mark.parametrize("make", [lambda: CE.c(7), lambda: CE.c(0),
                                  lambda: CE.word([("X", 1)]),
                                  lambda: normal_form([("C", 1), "C"]),
                                  lambda: normal_form([["C", 1]]),
                                  lambda: normal_form([("C", [1])]),
                                  lambda: CE.c(1.5),
                                  lambda: CE.word([("C", 2), ("CH", 0)]),
                                  lambda: CE.word(g for g in [("C", 1),
                                                              ("X", 2)])],
                         ids=["c7", "c0", "kind", "not-a-pair", "list",
                              "unhashable-index", "float-index", "ch0",
                              "one-shot-iterator"])
def test_bad_generators_rejected(make):
    # never a bare TypeError, also for an unhashable generator; raised from
    # the generator in hand, so a one-shot iterator is not read again
    with pytest.raises(ValueError, match="bad Clifford generator"):
        make()


class TestEndomorphisms:
    def test_commute_with_clifford_order_kept(self):
        a = CE.c(1) * CE.endo("Phi", 6)
        b = CE.endo("Phi", 6) * CE.c(1)
        assert a == b

    def test_product_order_preserved(self):
        ab = CE.endo("Phi", 1) * CE.endo("PhiStar", 2)
        ba = CE.endo("PhiStar", 2) * CE.endo("Phi", 1)
        assert ab != ba
        assert trace_spin(ab) == SPIN_DIM * Scalar.sym("T2:Phi:1:PhiStar:2")

    def test_three_endos_rejected(self):
        e = CE.endo("Phi", 1)
        with pytest.raises(ValueError):
            (e * e) * e

    def test_single_endo_trace(self):
        x = CE.word([("C", 6), ("C", 6)]) * CE.endo("Phi", 6)
        assert trace_spin(x) == -SPIN_DIM * Scalar.sym("T:Phi:6")
        assert trace_spin(CE.c(6) * CE.endo("Phi", 6)).is_zero()


def _c_prime():
    out = CE.zero()
    for j in range(1, 6):
        out = out + CE.c(j, Scalar.sym("XI%d" % j))
    return out


class TestGeometricIdentities:
    def test_c_prime_squares_to_minus_norm(self):
        cp = _c_prime()
        sq = cp * cp
        want = CE.scalar(-sum((Scalar.sym("XI%d" % j, 2) for j in range(1, 6)),
                              Scalar.zero()))
        assert sq == want

    def test_sandwich_identity(self):
        # c(xi') c(dx_n) c(xi') = |xi'|^2 c(dx_n)
        cp = _c_prime()
        lhs = cp * CE.c(6) * cp
        norm = sum((Scalar.sym("XI%d" % j, 2) for j in range(1, 6)), Scalar.zero())
        assert lhs == CE.c(6, norm)

    def test_trace_c_prime_squared_on_sphere(self):
        tr = trace_spin(_c_prime() * _c_prime())
        assert reduce_unit_sphere(tr) == -SPIN_DIM * Scalar.sym("DIMF")


class TestDegreewiseTraces:
    def test_binomial_pattern(self):
        # per-degree exterior traces of c(e_i) hat-c(e_i) c(e_6) hat-c(e_6)
        # follow C(4,m-2) + C(4,m) - 2 C(4,m-1); frozen from a direct
        # matrix computation
        def C(n, k):
            return comb(n, k) if 0 <= k <= n else 0

        for i in (1, 3, 5):
            word = (("C", i), ("CH", i), ("C", 6), ("CH", 6))
            got = [round(ext_degree_trace(word, m).real) for m in range(7)]
            assert got == [C(4, m - 2) + C(4, m) - 2 * C(4, m - 1) for m in range(7)]

    def test_pattern_sums_to_zero(self):
        word = (("C", 1), ("CH", 1), ("C", 6), ("CH", 6))
        total = sum(ext_degree_trace(word, m) for m in range(7))
        assert abs(total) < 1e-12
        assert trace_ext(CE.word(word)).is_zero()


class TestExactDegreewiseTrace:
    """The exact degree-graded exterior trace against the oracle's matrices."""

    @pytest.mark.parametrize("r", range(7))
    def test_every_pair_subset(self, r):
        # all 64 subsets of pairs c_j chat_j, each word shuffled so that the
        # sign of its normal form varies
        rng = random.Random(r)
        for subset in itertools.combinations(range(1, 7), r):
            word = [g for j in subset for g in (("C", j), ("CH", j))]
            rng.shuffle(word)
            word = tuple(word)
            for m in range(7):
                assert trace_ext_degree(word, m) == ext_degree_trace(word, m)

    def test_every_reduced_word(self):
        # all 4096 reduced words, each matrix built from its prefix's with
        # one product, walked depth first; the diagonal of a word's matrix
        # summed over the forms of one degree is ext_degree_trace's value
        degree = [bin(s).count("1") for s in range(EXT_DIM)]
        gens = [(g, dense(rep_matrix(g, "ext"))) for g in ALL_GENS]
        seen = 0
        stack = [((), np.eye(EXT_DIM), 0)]
        while stack:
            word, mat, start = stack.pop()
            want = np.bincount(degree, weights=mat.diagonal(), minlength=7)
            assert [trace_ext_degree(word, m) for m in range(7)] == list(want)
            seen += 1
            for i in range(start, len(gens)):
                g, m = gens[i]
                stack.append((word + (g,), mat @ m, i + 1))
        assert seen == 2 ** len(ALL_GENS)

    def test_sampled_other_words(self):
        # seeded unreduced words, long enough to repeat generators often
        rng = random.Random(529)
        for _ in range(300):
            word = tuple(rng.choice(ALL_GENS) for _ in range(rng.randint(1, 10)))
            got = [trace_ext_degree(word, m) for m in range(7)]
            assert got == [ext_degree_trace(word, m) for m in range(7)]

    def test_published_pattern(self):
        word = (("C", 1), ("CH", 1), ("C", 6), ("CH", 6))
        got = [trace_ext_degree(word, m) for m in range(7)]
        assert got == [1, 2, -1, -4, -1, 2, 1]
