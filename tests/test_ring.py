"""Coefficient ring: exact arithmetic, sphere reduction, sphere moments.

Expected moment values below were frozen from an independent computation
(gamma-function formula for sphere moments, cross-checked by Monte Carlo
with 4e6 samples) before the ring was written.
"""

import json
import math
import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from references import reduce_unit_sphere
import wresbd
from wresbd.clifford import CliffordElement as CE
from wresbd.ring import (
    GRat,
    Scalar,
    XI_SYMBOLS,
    _decode,
    _encode,
    _exponent,
    _sym_rank,
    sphere_integrate,
    sphere_moment,
)
from wresbd.symbols import RationalSymbol


def S(name, exp=1):
    return Scalar.sym(name, exp)


class TestGRat:
    def test_field_ops(self):
        a = GRat(Fraction(1, 2), Fraction(3, 4))
        b = GRat(2, -1)
        assert a + b == GRat(Fraction(5, 2), Fraction(-1, 4))
        assert a * b == GRat(Fraction(7, 4), 1)
        assert (a / b) * b == a
        assert GRat.I * GRat.I == GRat(-1)

    def test_render(self):
        assert str(GRat(Fraction(-15, 16))) == "-15/16"
        assert str(GRat(0, 1)) == "I"
        assert str(GRat(0, Fraction(-1, 2))) == "-1/2*I"
        assert str(GRat(1, 2)) == "(1+2*I)"


FRACS = st.fractions(min_value=-50, max_value=50, max_denominator=48)
PAIRS = st.tuples(FRACS, FRACS)


def _ref_str(re, im):
    """Rendering of a + b*i from its Fraction parts, as in the reports."""
    if im == 0:
        return str(re)
    ims = {1: "I", -1: "-I"}.get(im, "%s*I" % im)
    if re == 0:
        return ims
    return "(%s%s%s)" % (re, "" if ims.startswith("-") else "+", ims)


def _ref_op(op, x, y):
    """+, -, *, / on (re, im) pairs of Fractions."""
    (a, b), (c, d) = x, y
    if op is operator.add:
        return (a + c, b + d)
    if op is operator.sub:
        return (a - c, b - d)
    if op is operator.mul:
        return (a * c - b * d, a * d + b * c)
    n = c * c + d * d
    return ((a * c + b * d) / n, (b * c - a * d) / n)


def _assert_canonical(g):
    assert g.d > 0
    assert math.gcd(g.a, g.b, g.d) == 1
    if not g:
        assert (g.a, g.b, g.d) == (0, 0, 1)


def _assert_matches(g, pair):
    re, im = pair
    _assert_canonical(g)
    assert (g.re, g.im) == (re, im)
    assert g == GRat(re, im)
    assert bool(g) == (re != 0 or im != 0)
    assert str(g) == _ref_str(re, im)
    v, w = g.value(), complex(re, im)
    assert (v.real.hex(), v.imag.hex()) == (w.real.hex(), w.imag.hex())


class TestGRatAgainstFractionPairs:
    """GRat holds integers; every result must equal the same operation on a
    pair of Fractions, in canonical form, with a bit-equal float value."""

    @given(PAIRS)
    def test_construction(self, x):
        _assert_matches(GRat(*x), x)

    @given(st.integers(-10**6, 10**6), st.integers(-10**6, 10**6))
    def test_int_construction(self, a, b):
        _assert_matches(GRat(a, b), (Fraction(a), Fraction(b)))
        _assert_matches(GRat(a) + 0, (Fraction(a), Fraction(0)))

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    @given(x=PAIRS, y=PAIRS)
    def test_binary_ops(self, op, x, y):
        if op is operator.truediv and y == (0, 0):
            with pytest.raises(ZeroDivisionError):
                GRat(*x) / GRat(*y)
            return
        _assert_matches(op(GRat(*x), GRat(*y)), _ref_op(op, x, y))

    @pytest.mark.parametrize("op", [operator.add, operator.sub,
                                    operator.mul, operator.truediv])
    @given(x=PAIRS, k=st.integers(-20, 20) | FRACS)
    def test_mixed_with_rationals(self, op, x, k):
        if k == 0 and op is operator.truediv:
            return
        want = _ref_op(op, x, (Fraction(k), Fraction(0)))
        _assert_matches(op(GRat(*x), k), want)
        if op is not operator.truediv:
            back = _ref_op(op, (Fraction(k), Fraction(0)), x)
            _assert_matches(op(k, GRat(*x)), back)

    @given(PAIRS)
    def test_negation(self, x):
        _assert_matches(-GRat(*x), (-x[0], -x[1]))

    @given(x=PAIRS, n=st.integers(0, 6))
    def test_power(self, x, n):
        want = (Fraction(1), Fraction(0))
        for _ in range(n):
            want = _ref_op(operator.mul, want, x)
        _assert_matches(GRat(*x) ** n, want)

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError, match="exponent"):
            GRat(2, 1) ** -1

    @pytest.mark.parametrize("args", [(1.5,), (1, 0.5), ("1",)])
    def test_non_rational_parts_rejected(self, args):
        with pytest.raises(TypeError, match="int or Fraction"):
            GRat(*args)

    @given(x=PAIRS, y=PAIRS, k=st.integers(1, 30))
    def test_equality_and_hash(self, x, y, k):
        g = GRat(*x)
        # the same value reached through a different unreduced triple
        h = GRat(x[0] * k, x[1] * k) / k
        assert g == h and hash(g) == hash(h)
        assert (g == GRat(*y)) == (x == y)
        if x[1] == 0:
            assert g == x[0]


ALPHABET = ("PI", "H1", "K", "OMEGA4", "DIMF", "SH") + XI_SYMBOLS + (
    "T:sigmaF:1", "T:Phi:3", "T2:Phi:1:PhiStar:2")
MONOS = st.dictionaries(st.sampled_from(ALPHABET), st.integers(-2, 2),
                        max_size=6).map(lambda d: _encode(d.items()))
SCALARS = st.dictionaries(MONOS, PAIRS.map(lambda p: GRat(*p)),
                          max_size=4).map(Scalar)

# exponents whose pairwise sums stay inside a 16-bit field, small ones
# (so that sums cancel) as often as large ones
FIELD = 2 ** 15
EXPS = st.one_of(st.integers(-3, 3),
                 st.integers(-(FIELD // 2 - 1), FIELD // 2 - 1))
PAIR_LISTS = st.dictionaries(st.sampled_from(ALPHABET), EXPS,
                             max_size=8).map(lambda d: list(d.items()))


def _normal(pairs):
    """(symbol, exponent) pairs summed per symbol, zeros dropped, in
    _sym_rank order: the monomial the pairs denote."""
    acc = {}
    for s, e in pairs:
        acc[s] = acc.get(s, 0) + e
    return tuple(sorted(((s, e) for s, e in acc.items() if e),
                        key=lambda p: _sym_rank(p[0])))


class TestPackedMonomials:
    @given(PAIR_LISTS)
    def test_round_trip(self, pairs):
        assert _decode(_encode(pairs)) == _normal(pairs)
        # inverse monomials cancel to the empty one
        assert _encode(pairs) + _encode([(s, -e) for s, e in pairs]) == 0

    def test_negative_lower_fields_borrow_nothing(self):
        # PI and H1 hold the two lowest fields; a negative one below a
        # field must not change what that field reads
        m = _encode([("PI", -1), ("H1", 2), ("T:Phi:3", -2),
                     ("T:sigmaF:1", 1)])
        assert _exponent(m, "H1") == 2
        assert _exponent(m, "T:sigmaF:1") == 1
        assert _decode(m) == (("PI", -1), ("H1", 2), ("T:Phi:3", -2),
                              ("T:sigmaF:1", 1))
        assert Scalar.sym("PI", -1).render() == "PI**-1"

    def test_decode_orders_trace_symbols_by_name(self):
        # fields are given in order of first use, here against name order
        late, early = _encode([("T:order:2", 1)]), _encode([("T:order:1", -1)])
        m = late + early + _encode([("XI2", 3)])
        assert _decode(m) == (("XI2", 3), ("T:order:1", -1), ("T:order:2", 1))
        assert Scalar({m: 2}).render() == "2*XI2**3*T:order:1**-1*T:order:2"

    @given(PAIR_LISTS, PAIR_LISTS)
    def test_product_is_addition(self, p, q):
        assert _encode(p) + _encode(q) == _encode(p + q)
        assert _decode(_encode(p) + _encode(q)) == _normal(p + q)

    @given(PAIR_LISTS)
    def test_one_field_reads_as_the_full_decode(self, pairs):
        m = _encode(pairs)
        full = dict(_decode(m))
        for sym in ALPHABET + ("T:never:used",):
            assert _exponent(m, sym) == full.get(sym, 0)

    @pytest.mark.parametrize("pairs", [
        [("XI1", FIELD)], [("PI", -FIELD)], [("T:Phi:3", FIELD + 5)],
        [("H1", FIELD // 2), ("H1", FIELD // 2)]])
    def test_exponent_outside_the_field_raises(self, pairs):
        with pytest.raises(ValueError, match="field"):
            _encode(pairs)

    def test_field_edges_round_trip(self):
        for e in (FIELD - 1, -(FIELD - 1)):
            for sym in ("PI", "XI5", "T:Phi:3"):
                assert _decode(_encode([(sym, e), ("H1", -1)])) == _normal(
                    [(sym, e), ("H1", -1)])
        with pytest.raises(ValueError, match="field"):
            Scalar.sym("H1", FIELD)


# both families' assemble() rendered, and the trace symbols in field order
_ASSEMBLE_RENDERED = """
import json, sys
import wresbd
from wresbd import ring
for name in json.loads(sys.argv[1]):
    ring._shift(name)
out = {}
for fam in ("dirac", "signature"):
    results, total = wresbd.assemble(fam)
    out[fam] = [[cid, res.value.render(),
                 sorted((k, v.render()) for k, v in res.blocks.items())]
                for cid, res in results.items()]
    out[fam].append(["total", total.render(),
                     wresbd.substitute_K(total).render()])
print(json.dumps([out, [n for n in ring._NAMES if n.startswith("T")]]))
"""


def _assemble_rendered(first_names):
    env = dict(os.environ)
    src = str(Path(wresbd.__file__).parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return json.loads(subprocess.run(
        [sys.executable, "-c", _ASSEMBLE_RENDERED, json.dumps(first_names)],
        env=env, capture_output=True, text=True, timeout=120,
        check=True).stdout)


def test_rendering_ignores_the_field_order():
    reports, names = _assemble_rendered([])
    assert len(names) > 2
    backward = names[::-1]
    reports_back, names_back = _assemble_rendered(backward)
    assert names_back == backward
    assert reports_back == reports


class TestScalarRingAxioms:
    @given(SCALARS, SCALARS, SCALARS)
    def test_associative_and_distributive(self, x, y, z):
        assert (x * y) * z == x * (y * z)
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z

    @given(SCALARS, SCALARS)
    def test_commutative(self, x, y):
        assert x * y == y * x
        assert x + y == y + x

    @given(SCALARS)
    def test_identities(self, x):
        assert x + Scalar.zero() == x
        assert x * Scalar.one() == x
        assert (x * Scalar.zero()).is_zero()
        assert (x - x).is_zero()
        for c in (x * x).terms.values():
            _assert_canonical(c)


# (re, im, extra): a Gaussian rational plus an optional non-constant part
HASH_SPECS = st.tuples(st.fractions(-2, 2, max_denominator=3),
                       st.sampled_from([0, 1, Fraction(-1, 2)]),
                       st.sampled_from([None, "H1", "c1"]))


def _wrappings(spec):
    """The value spec describes, in every type that can hold it."""
    re, im, extra = spec
    g = GRat(re, im)
    if extra == "c1":
        return [CE.scalar(g) + CE.c(1)]
    out = [Scalar.from_grat(g), CE.scalar(g)]
    if extra == "H1":
        return [x + S("H1") for x in out]
    out.append(g)
    if not im:
        out.append(re)
        if re.denominator == 1:
            out.append(int(re))
    return out


class TestHashAgreesWithEquality:
    @given(HASH_SPECS)
    def test_one_value_hashes_alike_in_every_type(self, spec):
        xs = _wrappings(spec)
        for x in xs:
            for y in xs:
                assert x == y
                assert hash(x) == hash(y)

    @given(HASH_SPECS, HASH_SPECS)
    def test_equal_values_hash_equal(self, s1, s2):
        for x in _wrappings(s1):
            for y in _wrappings(s2):
                if x == y:
                    assert hash(x) == hash(y)

    def test_mixed_keys_find_each_other(self):
        assert {GRat(1): "x"}.get(1) == "x"
        assert {Scalar.one(): "y"}.get(1) == "y"
        assert {CE.scalar(1): "z"}.get(1) == "z"
        assert {Fraction(1, 2): "h"}.get(GRat(Fraction(1, 2))) == "h"
        assert {0: "o"}.get(Scalar.zero()) == "o"


class TestScalarRing:
    def test_commutative_ring(self):
        x = S("H1") + 2 * S("DIMF")
        y = S("H1") * S("PI") - Scalar.i()
        assert x * y == y * x
        assert (x + y) * x == x * x + y * x
        assert x - x == Scalar.zero()

    def test_render_canonical(self):
        s = Scalar.rational(-15, 16) * S("PI") * S("H1") * S("OMEGA4") * S("DIMF")
        assert s.render() == "-15/16*PI*H1*OMEGA4*DIMF"
        s2 = S("H1", 2) + Scalar.i() * S("XI1")
        assert s2.render() == "H1**2 + I*XI1"
        assert Scalar.zero().render() == "0"

    def test_substitute(self):
        s = S("H1") * S("PI")
        out = s.substitute({"H1": Scalar.rational(-2, 5) * S("K")})
        assert out == Scalar.rational(-2, 5) * S("K") * S("PI")

    def test_negative_power_needs_a_constant_replacement(self):
        with pytest.raises(ValueError, match="non-constant"):
            S("H1", -1).substitute({"H1": S("K")})
        assert S("H1", -2).substitute({"H1": 2}) == Scalar.rational(1, 4)

    def test_constant_substitution_cancels_and_restrict_drops_the_key(self):
        emptied = S("SH", 2) * S("XI1") - S("XI1")
        assert emptied.substitute({"SH": 1}) == Scalar.zero()
        assert emptied.substitute({"SH": 1}).is_zero()
        sym = RationalSymbol(False, {2: [CE.scalar(emptied)], 1: [CE.one()]})
        assert list(sym.restrict().terms) == [(1, 1)]

    def test_symbol_mapped_to_zero_removes_its_monomials(self):
        s = 3 * S("H1") * S("XI1") + 2 * S("XI2") - S("H1", 2)
        assert s.substitute({"H1": 0}) == 2 * S("XI2")
        assert s.substitute({"H1": Scalar.zero()}) == 2 * S("XI2")

    @given(SCALARS, PAIRS.filter(any).map(lambda p: GRat(*p)))
    def test_constant_substitution_evaluates_alike(self, s, c):
        env = {sym: 0.5 + 0.1 * k for k, sym in enumerate(ALPHABET)}
        cval = c.value()
        want = s.evaluate(env | {"SH": cval})
        got = s.substitute({"SH": c}).evaluate(env)
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    def test_evaluate(self):
        s = Scalar.rational(1, 2) * S("H1") + Scalar.i() * S("PI")
        v = s.evaluate({"H1": 3.0, "PI": math.pi})
        assert v == pytest.approx(1.5 + 1j * math.pi)

    def test_evaluate_is_independent_of_term_order(self):
        # 1e16 + 1 rounds back to 1e16 in a left-to-right float sum
        big, neg = Scalar.sym("H1", 1, 10 ** 16), Scalar.sym("K", 1, -10 ** 16)
        env = {"H1": 1.0, "K": 1.0}
        for s in (big + 1 + neg, big + neg + 1):
            v = s.evaluate(env)
            assert (v.real.hex(), v.imag.hex()) == ((1.0).hex(), (0.0).hex())

    def test_d_xn_weights_sh(self):
        # d/dx_n (SH^k) = (k/2) H1 SH^k at the boundary point
        s = S("SH", 2) * S("XI1")
        assert s.d_xn() == S("H1") * S("SH", 2) * S("XI1")
        assert (S("SH") * S("XI2")).d_xn() == Scalar.rational(1, 2) * S("H1") * S("SH") * S("XI2")
        assert S("XI1").d_xn().is_zero()


def _rational_sphere_points(n):
    """Exact rational points on S^4 via stereographic projection."""
    pts = []
    k = 1
    while len(pts) < n:
        u = [Fraction(((k * 7 + i * 3) % 11) - 5, (k % 4) + 2) for i in range(4)]
        d = 1 + sum(x * x for x in u)
        pt = [2 * x / d for x in u] + [(1 - sum(x * x for x in u)) / d]
        assert sum(c * c for c in pt) == 1
        pts.append(pt)
        k += 1
    return pts


class TestSphereReduction:
    def test_idempotent(self):
        s = S("XI5", 4) * S("H1") + S("XI5", 2) * S("XI1", 2)
        r = reduce_unit_sphere(s)
        assert reduce_unit_sphere(r) == r
        # no XI5 power above 1 left
        for m, _ in r.monomials():
            assert dict(m).get("XI5", 0) <= 1

    def test_relation_killed(self):
        s = sum((S(x, 2) for x in XI_SYMBOLS), Scalar.zero())
        assert reduce_unit_sphere(s) == Scalar.one()
        assert reduce_unit_sphere(s * s) == Scalar.one()

    def test_values_preserved_on_sphere(self):
        # reduction must not change the function on the sphere: check at
        # exact rational sphere points
        s = S("XI5", 3) * S("XI1") + S("XI5", 2) * S("XI2", 2) + S("XI3")
        r = reduce_unit_sphere(s)
        for pt in _rational_sphere_points(100):
            env = dict(zip(XI_SYMBOLS, pt))
            assert s.substitute({k: Scalar.rational(v) for k, v in env.items()}) == \
                r.substitute({k: Scalar.rational(v) for k, v in env.items()})


class TestSphereMoments:
    # frozen from the independent gamma-function/Monte-Carlo oracle
    FROZEN = {
        (2, 0, 0, 0, 0): Fraction(1, 5),
        (2, 2, 0, 0, 0): Fraction(1, 35),
        (4, 0, 0, 0, 0): Fraction(3, 35),
        (2, 2, 2, 0, 0): Fraction(1, 315),
        (6, 0, 0, 0, 0): Fraction(1, 21),
        (4, 2, 0, 0, 0): Fraction(1, 105),
        (2, 2, 2, 2, 0): Fraction(1, 3465),
        (8, 0, 0, 0, 0): Fraction(1, 33),
    }

    def test_frozen_moments(self):
        for exps, want in self.FROZEN.items():
            assert sphere_moment(exps) == want

    def test_odd_vanishes(self):
        assert sphere_moment((1, 0, 0, 0, 0)) == 0
        assert sphere_moment((2, 3, 0, 0, 0)) == 0

    def test_symmetry(self):
        assert sphere_moment((0, 2, 0, 2, 0)) == sphere_moment((2, 2, 0, 0, 0))

    def test_integrate_constant(self):
        assert sphere_integrate(Scalar.one()) == S("OMEGA4")

    def test_integrate_with_spectators(self):
        s = S("H1") * S("XI1", 2) * S("XI2", 2)
        assert sphere_integrate(s) == Scalar.rational(1, 35) * S("H1") * S("OMEGA4")

    def test_integrate_uses_exact_moment(self):
        # XI5^2 has the exact moment 1/5, as every single squared XIj has
        s = S("XI5", 2)
        assert sphere_integrate(s) == Scalar.rational(1, 5) * S("OMEGA4")

    def test_negative_exponent_diverges(self):
        for exps in [(-2, 0, 0, 0, 0), (0, 0, 0, -1, 2)]:
            with pytest.raises(ValueError, match="negative"):
                sphere_moment(exps)
        with pytest.raises(ValueError, match="negative"):
            sphere_integrate(S("XI1", -2))

    def test_sum_of_squares_is_total_volume(self):
        s = sum((S(x, 2) for x in XI_SYMBOLS), Scalar.zero())
        assert sphere_integrate(s) == S("OMEGA4")

    @given(st.dictionaries(
        st.tuples(*[st.integers(0, 3)] * 4, st.integers(0, 6),
                  st.integers(0, 1)),
        PAIRS.map(lambda p: GRat(*p)), min_size=1, max_size=4))
    @settings(max_examples=60)
    def test_sphere_reduction_changes_no_integral(self, terms):
        # keys: XI1..XI4 exponents, the XI5 exponent, the H1 exponent
        s = sum((Scalar({_encode(zip(XI_SYMBOLS + ("H1",), k)): c})
                 for k, c in terms.items()), Scalar.zero())
        assert sphere_integrate(s) == sphere_integrate(reduce_unit_sphere(s))

    @given(st.lists(st.integers(min_value=0, max_value=3), min_size=5, max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_moment_matches_gamma_formula(self, exps):
        got = sphere_moment(tuple(exps))
        if any(e % 2 for e in exps):
            assert got == 0
            return
        a = [e // 2 for e in exps]
        num = 2 * math.prod(math.gamma(ai + 0.5) for ai in a)
        want = num / math.gamma(sum(a) + 2.5)
        omega4 = 2 * math.gamma(0.5) ** 5 / math.gamma(2.5)
        assert float(got) == pytest.approx(want / omega4, rel=1e-12)
