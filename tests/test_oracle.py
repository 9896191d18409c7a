"""Independent numeric cross-check of the exact engine."""

import itertools
import math

import numpy as np
import pytest

from references import dense, sphere_moment_numeric, word_mask
from wresbd import ring
from wresbd.boundary import (CASES, assemble, case_factor_pairs,
                             evaluate_case)
from wresbd.catalog import FAMILIES
from wresbd.clifford import CliffordElement as CE
from wresbd.oracle import (_MAX_XI_EXP, OracleAssignment, _moment,
                           _pair_integrand_polys, _pair_trace, default_rng,
                           oracle_case, oracle_cases, quad, rep_matrix,
                           word_matrix)
from wresbd.ring import GRat, Scalar, sphere_integrate, sphere_moment
from wresbd.symbols import RationalSymbol

OMEGA4 = 8.0 * math.pi ** 2 / 3.0


def _close(a, b, tol=1e-9):
    scale = max(abs(a), abs(b), 1e-10)
    return abs(a - b) <= tol * scale


def test_numeric_sphere_moments_match_exact_table():
    exps_list = [(0, 0, 0, 0, 0), (2, 0, 0, 0, 0), (0, 0, 4, 0, 0),
                 (2, 2, 0, 0, 0), (2, 2, 2, 0, 0), (6, 0, 0, 0, 0),
                 (4, 2, 0, 0, 0), (2, 2, 2, 2, 0), (1, 0, 0, 0, 0),
                 (3, 1, 2, 0, 0), (0, 0, 0, 0, 2)]
    for exps in exps_list:
        exact = float(sphere_moment(exps)) * OMEGA4
        numeric = sphere_moment_numeric(exps)
        assert _close(exact, numeric, 1e-12), exps


def test_numeric_sphere_integral_matches_exact():
    xi = [Scalar.sym("XI%d" % j) for j in range(1, 6)]
    h1, dimf, t = Scalar.sym("H1"), Scalar.sym("DIMF"), Scalar.sym("T:Phi:2")
    scalars = [
        Scalar.from_grat(1),
        Scalar.sym("XI5", 4) * Scalar.rational(3, 7),
        xi[0] * xi[0] * h1 + xi[1] * xi[2] * dimf + Scalar.sym("XI5", 4) * t,
        (xi[0] + xi[4] * Scalar.from_grat(GRat(1, 2)))
        * (xi[0] - xi[4]) * h1 * h1
        + xi[2] * xi[2] * xi[2] * xi[3] * t,
        (xi[3] * xi[3] * Scalar.sym("XI5", 2) + Scalar.sym("XI5", 4)) * dimf
        * Scalar.sym("SH", 3) + xi[1] * Scalar.sym("PI"),
    ]
    assignments = [OracleAssignment(1), OracleAssignment(2)]
    for s1, s2 in itertools.product(scalars, repeat=2):
        # one term per factor with the empty word: the integrand is the
        # sphere integral times tr(1) = 8 and the fibre trace dim F
        first, second = (RationalSymbol(True, {(1, 1): [CE.scalar(s)]})
                         for s in (s1, s2))
        polys = _pair_integrand_polys(first, second, "spin", assignments)
        for a, got in zip(assignments, polys):
            exact = complex(sphere_integrate(s1 * s2).evaluate(a.env))
            assert list(got) == [(2, 2)], (s1, s2)
            assert _close(got[(2, 2)][0], exact * 8 * a.dimf, 1e-12), (s1, s2)


@pytest.mark.parametrize("exps", [
    (-2, 0, 0, 0, 0), (0, 0, 0, 0, 50),
    # one past either end of the range, in each position
    *(tuple(bad if i == pos else 0 for i in range(5))
      for bad in (-1, _MAX_XI_EXP + 1) for pos in range(5))])
def test_moment_table_range_is_checked(exps):
    # a negative index must not wrap round to the end of the table
    with pytest.raises(ValueError):
        _moment(exps)


def test_moment_tables_reach_the_top_row():
    # the largest row the range check admits reads both tables' last entries
    top = [_MAX_XI_EXP] * 5
    want = float(sphere_moment(top)) * OMEGA4
    assert abs(_moment(top) - want) <= 1e-12 * want


def test_moment_matches_the_exact_table():
    rows = 0
    for exps in itertools.product(range(13), repeat=5):
        if sum(exps) > 12:
            continue
        want = float(sphere_moment(exps)) * OMEGA4
        assert abs(_moment(exps) - want) <= 1e-14 * abs(want), exps
        rows += 1
    assert rows == math.comb(17, 5)


# the seeds of the generator check: a range, seeds of two 32-bit words, and
# one of five, which SeedSequence mixes in after its 4-word pool
_RNG_SEEDS = [*range(200), 2 ** 32 + 5, 2 ** 40, 12345678901234567,
              2 ** 130 + 7]


def test_generator_matches_numpy_stream():
    # the draws OracleAssignment makes, in its order, equal bit for bit
    for seed in _RNG_SEEDS:
        want, got = np.random.default_rng(seed), default_rng(seed)
        assert got.uniform(0.5, 2.0) == want.uniform(0.5, 2.0), seed
        dimf = got.integers(1, 3)
        assert dimf == want.integers(1, 3), seed
        for _ in range(36):
            assert (got.uniform(-1.0, 1.0, (dimf, dimf))
                    == want.uniform(-1.0, 1.0, (dimf, dimf)).tolist()), seed


def test_negative_seed_is_rejected():
    with pytest.raises(ValueError):
        np.random.default_rng(-1)
    with pytest.raises(ValueError):
        OracleAssignment(-1)


def _dense_generators():
    """The generators built densely: Pauli Kronecker products for spin,
    sigma_3^k x i sigma_{1,2} x I^(2-k), and wedge -+ contraction on the
    exterior algebra of R^6, basis e_S indexed by the bitmask of S."""
    s1 = np.array([[0, 1], [1, 0]], dtype=complex)
    s2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
    s3 = np.array([[1, 0], [0, -1]], dtype=complex)
    gens = {}
    for k in range(3):
        for n, s in enumerate((s1, s2)):
            m = np.eye(1, dtype=complex)
            for f in [s3] * k + [1j * s] + [np.eye(2)] * (2 - k):
                m = np.kron(m, f)
            gens[("C", 2 * k + n + 1), "spin"] = m
    for j in range(6):
        bit = 1 << j
        wedge = np.zeros((64, 64), dtype=complex)
        for s in range(64):
            if not s & bit:
                wedge[s | bit, s] = (-1) ** bin(s & (bit - 1)).count("1")
        gens[("C", j + 1), "ext"] = wedge - wedge.T
        gens[("CH", j + 1), "ext"] = wedge + wedge.T
    return gens


def test_monomial_generators_match_dense_ones():
    gens = _dense_generators()
    assert len(gens) == 18
    for (g, rep), m in gens.items():
        assert np.array_equal(dense(rep_matrix(g, rep)), m), (g, rep)


@pytest.mark.parametrize("gen, rep, match", [
    (("C", 1), "foo", "unknown representation"),
    (("C", 7), "ext", "bad Clifford generator")])
def test_rep_matrix_rejects_bad_input(gen, rep, match):
    with pytest.raises(ValueError, match=match):
        rep_matrix(gen, rep)


@pytest.mark.parametrize("rep, kinds", [("spin", ("C",)),
                                        ("ext", ("C", "CH"))])
def test_pair_trace_matches_matrix_product(rep, kinds):
    rng = np.random.default_rng(5)
    gens = [(kind, j) for kind in kinds for j in range(1, 7)]
    for _ in range(40):
        # reduced words: distinct generators in canonical order
        w1, w2 = (tuple(gens[i] for i in sorted(rng.choice(len(gens), n,
                                                           replace=False)))
                  for n in rng.integers(0, 5, size=2))
        want = np.trace(dense(word_matrix(w1, rep))
                        @ dense(word_matrix(w2, rep)))
        assert abs(_pair_trace(word_mask(w1), word_mask(w2), rep)
                   - want) <= 1e-12


@pytest.mark.parametrize("k", range(1, 7))
def test_quad_closed_forms(k):
    # int dx / (1 + x^2)^k = pi (2k-3)!! / (2k-2)!!
    odd = math.prod(range(2 * k - 3, 0, -2))
    even = math.prod(range(2 * k - 2, 0, -2))
    val, err = quad(lambda xs: [1.0 / (1.0 + x * x) ** k for x in xs])
    assert abs(val - math.pi * odd / even) <= 1e-14
    assert err <= 1e-13


def test_quad_matches_scipy_on_random_rationals():
    scipy_quad = pytest.importorskip("scipy.integrate").quad
    rng = np.random.default_rng(13)
    for _ in range(100):
        a_pow, b_pow = (int(v) for v in rng.integers(1, 7, size=2))
        deg = int(rng.integers(0, a_pow + b_pow - 1))
        coeffs = rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1)

        def f(x):
            return (np.polyval(coeffs, x)
                    / ((x - 1j) ** a_pow * (x + 1j) ** b_pow))

        ref, _ = scipy_quad(f, -np.inf, np.inf, epsabs=1e-13, epsrel=1e-13,
                            limit=400, complex_func=True)
        got, _ = quad(lambda xs: [f(x) for x in xs])
        assert abs(got - ref) <= 1e-13 * np.abs(coeffs).max(), (
            a_pow, b_pow, deg)


def test_quad_rejects_a_nonintegrable_integrand():
    with pytest.raises(ArithmeticError):
        quad(lambda xs: [1.0] * len(xs))


def test_integrand_does_not_multiply_scalars(monkeypatch):
    family = FAMILIES["dirac"]
    assignments = [OracleAssignment(1), OracleAssignment(2)]
    pairs = [p for case in CASES
             for p in case_factor_pairs(family, case).values()]
    want = [_pair_integrand_polys(fsym, ssym, family.rep, assignments)
            for fsym, ssym in pairs]

    def refuse(*args):
        raise AssertionError("the oracle formed an exact Scalar product")

    monkeypatch.setattr(ring.Scalar, "__mul__", refuse)
    got = [_pair_integrand_polys(fsym, ssym, family.rep, assignments)
           for fsym, ssym in pairs]
    assert got == want and any(any(poly) for per_seed in got
                               for polys in per_seed
                               for poly in polys.values())


def test_assignment_is_reproducible_and_consistent():
    a = OracleAssignment(42)
    b = OracleAssignment(42)
    assert a.env == b.env
    # the curvature value is tied to the metric derivative
    assert _close(a.env["K"], -2.5 * a.env["H1"], 1e-14)
    assert a.env["SH"] == 1.0
    assert _close(a.env["OMEGA4"], OMEGA4, 1e-14)
    # trace symbols agree with literal matrix traces
    for (key, val) in a.env.items():
        if key.startswith("T:"):
            _, fam, j = key.split(":")
            assert _close(val, a.endo_trace(((fam, int(j)),)), 1e-12)


def test_assignment_holds_only_single_traces():
    # no case value or block reads a pair trace, so the assignment holds
    # none, and a T2 symbol that reached evaluation would fail loudly
    for fam in ("dirac", "signature"):
        results, _ = assemble(fam)
        for res in results.values():
            for val in [res.value, *res.blocks.values()]:
                assert not any(sym.startswith("T2:")
                               for mono, _ in val.monomials()
                               for sym, _ in mono), (fam, res.case.case_id)
    with pytest.raises(KeyError):
        Scalar.sym("T2:Phi:1:PhiStar:2").evaluate(OracleAssignment(1).env)


def test_distinct_seeds_differ():
    assert OracleAssignment(1).env["H1"] != OracleAssignment(2).env["H1"]


@pytest.mark.parametrize("fam", ["dirac", "signature"])
@pytest.mark.parametrize("seed", [3, 11])
def test_engine_matches_oracle_per_block(fam, seed):
    assignment = OracleAssignment(seed)
    for case in CASES:
        exact = evaluate_case(fam, case)
        blocks, total = oracle_case(fam, case, assignment)
        for name, val in exact.blocks.items():
            got = complex(val.evaluate(assignment.env))
            scale = max(abs(got), abs(blocks[name]), 1.0)
            assert abs(got - blocks[name]) <= 1e-8 * scale, (case.case_id,
                                                             name)
        exact_total = complex(exact.value.evaluate(assignment.env))
        assert abs(exact_total - total) <= 1e-8 * max(abs(total), 1.0)


@pytest.mark.parametrize("fam", ["dirac", "signature"])
def test_batched_seeds_match_single_seeds(fam):
    # exact equality: a batch evaluates each seed exactly as alone, and a
    # repeated seed reads nothing left over from the seeds before it
    seeds = [1, 2, 3, 1]
    for case in CASES:
        pairs = case_factor_pairs(fam, case)
        got = oracle_cases(fam, case, [OracleAssignment(s) for s in seeds],
                           pairs)
        want = [oracle_case(fam, case, OracleAssignment(s), pairs)
                for s in seeds]
        assert got == want, case.case_id


def test_seed_free_work_runs_once(monkeypatch):
    # the coefficients are decoded once per pair, not once per seed
    family, case = FAMILIES["signature"], CASES[-1]
    pairs = case_factor_pairs(family, case)
    monomials, calls = ring.Scalar.monomials, []

    def counted(self):
        calls.append(self)
        return monomials(self)

    monkeypatch.setattr(ring.Scalar, "monomials", counted)
    counts = []
    for seeds in ([1], [1, 2, 3]):
        calls.clear()
        oracle_cases(family, case, [OracleAssignment(s) for s in seeds],
                     pairs)
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
