"""Rational symbol calculus: principal parts, projections, line integrals."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from scipy.integrate import quad

from references import (equal_on_sphere, equals, evaluate_symbol,
                        homogeneity_order, pi_minus)
from wresbd.clifford import CliffordElement as CE
from wresbd.ring import GRat, Scalar
from wresbd.symbols import NotIntegrable, RationalSymbol, integrate_line, pi_plus


def _random_scalar(rng, with_xi=False):
    s = Scalar.from_grat(GRat(rng.randint(-3, 3), rng.randint(-3, 3)))
    if with_xi and rng.random() < 0.5:
        s = s * Scalar.sym("XI%d" % rng.randint(1, 5))
    return s


def _random_ce(rng, with_xi=False, clifford=True):
    e = CE.scalar(_random_scalar(rng, with_xi))
    if clifford and rng.random() < 0.5:
        e = e + CE.c(rng.randint(1, 6), _random_scalar(rng, with_xi))
    return e


def random_restricted(rng, proper=True, with_xi=False, clifford=True):
    """Random restricted symbol with poles at +/- i."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        a, b = rng.randint(0, 3), rng.randint(0, 3)
        if a == 0 and b == 0:
            a = 1
        top = a + b - 1 if proper else a + b + 1
        deg = rng.randint(0, max(top, 0))
        poly = [_random_ce(rng, with_xi, clifford) for _ in range(deg + 1)]
        key = (a, b)
        if key in terms:
            continue
        terms[key] = poly
    return RationalSymbol(True, terms)


def random_unrestricted(rng):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        q = rng.randint(0, 2)
        deg = rng.randint(0, 2)
        poly = []
        for _ in range(deg + 1):
            s = _random_scalar(rng, with_xi=True)
            if rng.random() < 0.4:
                s = s * Scalar.sym("SH", rng.randint(1, 2))
            poly.append(CE.scalar(s) + CE.c(rng.randint(1, 6), _random_scalar(rng)))
        terms[q] = poly
    return RationalSymbol(False, terms)


def random_unrestricted_scalar(rng):
    """Random scalar-valued unrestricted symbol with SH and XI powers."""
    terms = {}
    for _ in range(rng.randint(1, 3)):
        poly = []
        for _ in range(rng.randint(1, 3)):
            s = _random_scalar(rng) * Scalar.sym("SH", rng.randint(0, 3))
            s = s * Scalar.sym("XI%d" % rng.randint(1, 5), rng.randint(0, 2))
            poly.append(CE.scalar(s))
        terms[rng.randint(0, 3)] = poly
    return RationalSymbol(False, terms)


# 1/|xi|^4: makes a random_unrestricted_scalar proper after restriction
_INV_B2 = RationalSymbol(False, {2: [CE.one()]})


def _assert_xin_central_difference(derived, sym):
    """derived equals d/dxi_n of sym, both restricted, at one sample point."""
    env = {"H1": 0.7, "XI1": 0.3, "XI2": 0.1, "XI3": -0.4, "XI4": 0.2,
           "XI5": 0.5}
    xin0, h = 0.9, 1e-5
    want = (evaluate_symbol(sym, xin0 + h, env)
            - evaluate_symbol(sym, xin0 - h, env)) / (2 * h)
    assert evaluate_symbol(derived, xin0, env) == pytest.approx(
        want, rel=1e-6, abs=1e-8)


class TestPartialFractions:
    def test_simple_pole_split(self):
        # 1/((x-i)(x+i)) = (i/2)[1/(x+i) - 1/(x-i)] ... check by recombining
        s = RationalSymbol(True, {(1, 1): [CE.one()]})
        plus, minus = pi_plus(s), pi_minus(s)
        assert equals(plus + minus, s)
        assert plus.terms == {(1, 0): [CE.scalar(GRat(0, Fraction(-1, 2)))]}
        assert minus.terms == {(0, 1): [CE.scalar(GRat(0, Fraction(1, 2)))]}

    def test_recombination_random(self):
        # pi_plus + pi_minus is the partial-fraction split of a proper
        # symbol; a non-proper one has no such split and is rejected
        rng = random.Random(23)
        rejected = 0
        for _ in range(100):
            s = random_restricted(rng, proper=rng.random() < 0.8)
            if any(len(p) > a + b for (a, b), p in s.terms.items()):
                rejected += 1
                for proj in (pi_plus, pi_minus):
                    with pytest.raises(ValueError, match="non-proper"):
                        proj(s)
                continue
            assert equals(pi_plus(s) + pi_minus(s), s)
        assert 0 < rejected < 100

    def test_plus_minus_pole_purity(self):
        rng = random.Random(5)
        for _ in range(50):
            s = random_restricted(rng)
            assert all(b == 0 for (_, b) in pi_plus(s).terms)
            assert all(a == 0 for (a, _) in pi_minus(s).terms)


class TestPiPlus:
    def test_idempotent_and_complementary(self):
        rng = random.Random(101)
        for _ in range(100):
            s = random_restricted(rng, proper=True, with_xi=True)
            p = pi_plus(s)
            m = pi_minus(s)
            assert equals(pi_plus(p), p)
            assert pi_minus(p).is_zero() or equals(
                pi_minus(p), RationalSymbol.zero(True))
            assert equals(p + m, s)

    def test_first_order_inverse_projection(self):
        # pi_plus of i(c(xi') + xi_n c6)/(1+xi_n^2) on |xi'| = 1
        cp = sum((CE.c(j, Scalar.sym("XI%d" % j)) for j in range(1, 6)), CE.zero())
        s = RationalSymbol(
            True,
            {(1, 1): [CE.scalar(Scalar.i()) * cp, CE.c(6, GRat(0, 1))]})
        want = RationalSymbol(
            True,
            {(1, 0): [CE._coerce(Fraction(1, 2)) * cp
                      + CE.c(6, GRat(0, Fraction(1, 2)))]})
        assert equals(pi_plus(s), want)

    def test_rejects_nonproper(self):
        s = RationalSymbol(True, {(1, 0): [CE.one(), CE.one()]})
        with pytest.raises(ValueError):
            pi_plus(s)

    def test_commutes_with_xin_derivative(self):
        # the boundary takes d/dxi_n before pi_plus: the projection of the
        # derivative is the xi_n-derivative of the projection
        rng = random.Random(40)
        for _ in range(40):
            s = random_unrestricted_scalar(rng) * _INV_B2
            got = pi_plus(s.derive("xin").restrict())
            _assert_xin_central_difference(got, pi_plus(s.restrict()))


class TestDerivatives:
    def test_leibniz_unrestricted(self):
        rng = random.Random(13)
        for var in ("xn", "xin"):
            for _ in range(20):
                f = random_unrestricted(rng)
                g = random_unrestricted(rng)
                lhs = (f * g).derive(var)
                rhs = f.derive(var) * g + f * g.derive(var)
                assert equals(lhs, rhs)

    def test_restrict_commutes_with_xin(self):
        rng = random.Random(17)
        for _ in range(30):
            f = random_unrestricted_scalar(rng)
            _assert_xin_central_difference(f.derive("xin").restrict(),
                                           f.restrict())

    @pytest.mark.parametrize("var", ["xn", "xin"])
    def test_derivative_after_restriction_rejected(self, var):
        rng = random.Random(3)
        with pytest.raises(ValueError, match="after restriction"):
            random_unrestricted(rng).restrict().derive(var)

    def test_quotient_rule_explicit(self):
        # d/dxi_n |xi|^-2 = -2 xi_n |xi|^-4
        s = RationalSymbol(False, {1: [CE.one()]})
        assert equals(s.derive("xin"),
                      RationalSymbol(False, {2: [CE.zero(), CE.scalar(-2)]}))

    @pytest.mark.parametrize("var", ["xn", "xin"])
    def test_unrestricted_matches_central_difference(self, var):
        # x_n moves only SH = sqrt(h), with h(x_n) = 1 + H1 x_n, so SH = 1
        # at the boundary; xi_n moves itself
        rng = random.Random(var)
        env0 = {"SH": 1.0 if var == "xn" else 1.3, "H1": 0.7, "XI1": 0.3,
                "XI2": 0.1, "XI3": -0.4, "XI4": 0.2, "XI5": 0.5}
        xin0, h = 0.9, 1e-5

        def moved(s, t):
            env = dict(env0)
            if var == "xin":
                return evaluate_symbol(s, xin0 + t, env)
            env["SH"] = math.sqrt(1 + env["H1"] * t)
            return evaluate_symbol(s, xin0, env)

        for _ in range(20):
            s = random_unrestricted_scalar(rng)
            want = (moved(s, h) - moved(s, -h)) / (2 * h)
            got = evaluate_symbol(s.derive(var), xin0, env0)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-8)


class TestHomogeneity:
    def test_homogeneous_order(self):
        cp = sum((CE.c(j, Scalar.sym("SH") * Scalar.sym("XI%d" % j))
                  for j in range(1, 6)), CE.zero())
        s = RationalSymbol(False, {1: [cp, CE.c(6)]})
        assert homogeneity_order(s) == -1

    def test_inhomogeneous_rejected(self):
        s = RationalSymbol(False, {0: [CE.one(), CE.c(6)]})
        with pytest.raises(ValueError):
            homogeneity_order(s)


def _quad_complex(f):
    re = quad(lambda x: f(x).real, -np.inf, np.inf, epsabs=1e-12, limit=200)[0]
    im = quad(lambda x: f(x).imag, -np.inf, np.inf, epsabs=1e-12, limit=200)[0]
    return re + 1j * im


class TestIntegrateLine:
    def test_classic_values(self):
        s = RationalSymbol(True, {(1, 1): [CE.one()]})
        assert integrate_line(s) == Scalar.sym("PI")
        s2 = RationalSymbol(True, {(2, 2): [CE.one()]})
        assert integrate_line(s2) == Scalar.rational(1, 2) * Scalar.sym("PI")
        s3 = RationalSymbol(True, {(2, 1): [CE.one()]})
        assert integrate_line(s3) == Scalar.i() * Scalar.rational(1, 2) * Scalar.sym("PI")

    def test_no_upper_pole_is_zero(self):
        s = RationalSymbol(True, {(0, 2): [CE.one()]})
        assert integrate_line(s).is_zero()

    def test_divergent_rejected(self):
        with pytest.raises(NotIntegrable):
            integrate_line(RationalSymbol(True, {(1, 1): [CE.zero(), CE.one(), CE.one()]}))

    def test_cancelling_tails_integrate(self):
        # 1/(xi_n - i) - 1/(xi_n + i) = 2i/(1 + xi_n^2): each term decays
        # like 1/xi_n, their sum like 1/xi_n^2
        s = RationalSymbol(True, {(1, 0): [CE.one()], (0, 1): [CE.scalar(-1)]})
        assert integrate_line(s) == Scalar.sym("PI") * GRat(0, 2)

    def test_surviving_tail_rejected(self):
        s = RationalSymbol(True, {(1, 0): [CE.one()], (0, 1): [CE.one()]})
        with pytest.raises(NotIntegrable, match="decays like"):
            integrate_line(s)

    def test_residue_is_the_simple_pole_of_pi_plus(self):
        # on the random scalar corpus the line integral is 2*pi*i times the
        # (xi_n - i)^-1 coefficient of pi_plus; what it rejects decays
        # only like 1/xi_n (its tail is a nonzero Gaussian integer)
        rng = random.Random(77)
        rejected = 0
        for _ in range(200):
            s = random_restricted(rng, proper=True, with_xi=False, clifford=False)
            try:
                got = integrate_line(s)
            except NotIntegrable:
                rejected += 1
                assert abs(1e6 * evaluate_symbol(s, 1e6, {})) > 0.5
                continue
            simple = pi_plus(s).terms.get((1, 0), [CE.zero()])[0]
            want = simple.terms.get(((), ()), Scalar.zero())
            assert got == Scalar.sym("PI") * want * GRat(0, 2)
        assert 0 < rejected < 200

    @pytest.mark.parametrize("word", [CE.c(2), CE.endo("Phi", 1)],
                             ids=["clifford", "endomorphism"])
    def test_nonscalar_integrand_rejected(self, word):
        assert not integrate_line(
            RationalSymbol(True, {(2, 1): [CE.one(), CE.one()]})).is_zero()
        s = RationalSymbol(True, {(2, 1): [CE.one(), word]})
        with pytest.raises(ValueError, match="scalar coefficients"):
            integrate_line(s)

    def test_against_quadrature_corpus(self):
        # 200 random proper scalar rational functions, relative 1e-8
        rng = random.Random(77)
        checked = 0
        while checked < 200:
            s = random_restricted(rng, proper=True, with_xi=False, clifford=False)
            # need decay >= 2
            try:
                exact = integrate_line(s)
            except NotIntegrable:
                continue
            val = exact.evaluate({"PI": math.pi})
            num = _quad_complex(lambda x: evaluate_symbol(s, x, {}))
            scale = max(abs(num), 1.0)
            assert abs(val - num) / scale < 1e-8
            checked += 1


class TestRestriction:
    def test_restrict_sets_sh_and_factors(self):
        num = CE.scalar(Scalar.sym("SH", 2) * Scalar.sym("XI3"))
        s = RationalSymbol(False, {2: [num]})
        r = s.restrict()
        assert list(r.terms) == [(2, 2)]
        assert r.terms[(2, 2)][0] == CE.scalar(Scalar.sym("XI3"))

    def test_sphere_comparison_needs_restricted_symbols(self):
        # the XIs are free before restriction: sum XIj^2 / |xi|^2 is not
        # 1 / |xi|^2, and equal_on_sphere must not reduce them as if they were
        xi2 = sum((Scalar.sym("XI%d" % j, 2) for j in range(1, 6)),
                  Scalar.zero())
        lhs = RationalSymbol(False, {1: [CE.scalar(xi2)]})
        rhs = RationalSymbol(False, {1: [CE.one()]})
        assert not equals(lhs, rhs)
        with pytest.raises(ValueError, match="restricted"):
            equal_on_sphere(lhs, rhs)
        assert equal_on_sphere(lhs.restrict(), rhs.restrict())

    def test_restricted_symbol_plus_a_constant(self):
        # a constant joins a restricted symbol as the pole-free key (0, 0)
        s = RationalSymbol(True, {(1, 1): [CE.one()]})
        for c in (2, Scalar.sym("H1"), CE.c(1)):
            t = s + c
            assert t.restricted
            assert t.terms == {(1, 1): [CE.one()], (0, 0): [CE._coerce(c)]}
            assert (c - s).terms[(0, 0)] == [CE._coerce(c)]
        env = {"H1": 0.5}
        for xin in (-1.5, 0.0, 2.0):
            assert evaluate_symbol(s + Scalar.sym("H1"), xin, env) == \
                pytest.approx(1 / (1 + xin ** 2) + 0.5, rel=1e-14)

    def test_mixing_phases_rejected(self):
        rng = random.Random(1)
        with pytest.raises(ValueError):
            random_unrestricted(rng) * random_restricted(rng)


_UNRESTRICTED = RationalSymbol(False, {1: [CE.one()]})


@pytest.mark.parametrize("make, match", [
    (lambda: RationalSymbol(True, {(1,): [CE.one()]}), "restricted key"),
    (lambda: RationalSymbol(True, {(1, -1): [CE.one()]}), "restricted key"),
    (lambda: RationalSymbol(False, {-1: [CE.one()]}), "unrestricted key"),
    (lambda: RationalSymbol(False, {(1, 1): [CE.one()]}), "unrestricted key"),
    (lambda: _UNRESTRICTED.derive("xq"), "unknown derivative"),
    (lambda: pi_plus(_UNRESTRICTED), "restricted phase"),
    (lambda: integrate_line(_UNRESTRICTED), "after restriction"),
], ids=["short-key", "negative-pole", "negative-power", "pair-key",
        "variable", "pi-plus", "integrate-line"])
def test_bad_input_rejected(make, match):
    with pytest.raises(ValueError, match=match):
        make()


@pytest.mark.parametrize("left, right", [
    (GRat(0, 1), CE.c(1)),
    (Scalar.sym("H1"), CE.c(1)),
    (GRat(0, 1), RationalSymbol.constant(CE.c(1))),
    (CE.c(1), RationalSymbol.constant(CE.c(2))),
], ids=["grat-clifford", "scalar-clifford", "grat-symbol",
        "clifford-symbol"])
def test_lower_type_on_the_left_falls_through(left, right):
    # the left operand cannot coerce the right one, so the right operand's
    # reflected method takes the product, in the same order
    got = left * right
    want = right._coerce(left) * right
    assert type(got) is type(right)
    assert got.terms == want.terms
    with pytest.raises(TypeError):
        GRat(1) * 1.5
