"""References that only the tests use.

* ``paper_form`` -- the published intermediate symbol forms, (3.14)-(3.56)
  for the twisted Dirac family and (5.7)-(5.44) for the twisted signature
  family, transcribed literally (misprints included, flagged in
  comments).  The published case values and their equation ids stay in
  ``wresbd.refdata``, where the ledger reads them.
* ``equal_on_sphere`` with ``reduce_unit_sphere`` -- equality of restricted
  symbols modulo the unit-sphere relation XI1^2 + ... + XI5^2 = 1, which
  the printed forms assume.
* ``homogeneity_order``, ``evaluate_symbol`` and ``pi_minus`` -- a
  symbol's degree in the covariables, its numeric value at a real xi_n,
  and the principal part at xi_n = -i, the complement of ``pi_plus``,
  taken as the reflection xi_n -> -xi_n of ``pi_plus``.
* ``compose`` and ``homogeneous_part`` -- the symbol of a composition at
  x_0 to first order, and the terms of one degree in the covariables.
* ``sphere_moment_numeric`` -- one Gamma-function sphere moment, from the
  oracle's moment table.
* ``dense`` -- a numpy array of one of the oracle's (perm, phase)
  representation matrices.
* ``equals`` -- exact equality of two symbols as rational functions.
* ``invert_cubed`` -- the inverse-cube symbols from the generic composition
  recursion, which cross-checks the catalog's parametrix step.
* ``paper_value`` -- one published case value, by its equation id.
* ``normal_form_by_sort`` -- the Clifford normal form by insertion sort,
  one anticommutation at a time, against which the mask reduction of
  ``wresbd.clifford.normal_form`` is checked.
* ``mask_word`` and ``word_mask`` -- the canonical generator word of a
  12-bit word mask (a ``CliffordElement`` term key) and back.
"""

from fractions import Fraction
from math import comb

import numpy as np

from wresbd.catalog import _i_c_xi, cubed_sigma
from wresbd.clifford import CliffordElement
from wresbd.oracle import _moment
from wresbd.refdata import PUBLISHED
from wresbd.ring import XI_SYMBOLS, GRat, Scalar
from wresbd.symbols import (RationalSymbol, _poly_add, _poly_map, _poly_mul,
                            b0_scalar, b_poly, pi_plus)

CE = CliffordElement

_H1 = Scalar.sym("H1")
_I = Scalar.i()
_PLUS_I = GRat(0, 1)
_MINUS_I = GRat(0, -1)


# -- calculus references -----------------------------------------------------


def _binomial_pole_poly(root, n):
    """(xi - root)^n as a CliffordElement poly, root = +/- i."""
    return [CE.scalar(comb(n, k) * (-root) ** (n - k)) for k in range(n + 1)]


def _common(sym):
    """Single-denominator form: returns (key, numerator poly)."""
    if sym.restricted:
        amax = max((k[0] for k in sym.terms), default=0)
        bmax = max((k[1] for k in sym.terms), default=0)
        num = []
        for (a, b), p in sym.terms.items():
            lift = _poly_mul(_binomial_pole_poly(_PLUS_I, amax - a),
                             _binomial_pole_poly(_MINUS_I, bmax - b))
            num = _poly_add(num, _poly_mul(lift, p))
        return (amax, bmax), num
    qmax = max(sym.terms, default=0)
    bpoly = b_poly()
    num = []
    for q, p in sym.terms.items():
        lift = [CE.one()]
        for _ in range(qmax - q):
            lift = _poly_mul(lift, bpoly)
        num = _poly_add(num, _poly_mul(lift, p))
    return qmax, num


def equals(a, b):
    """Exact equality of two symbols as rational functions."""
    _, num = _common(a - b)
    return not num


def scalar_term(pairs, c=1):
    """The Scalar c * prod sym**e over (sym, e) pairs."""
    out = Scalar.from_grat(c)
    for sym, e in pairs:
        out = out * Scalar.sym(sym, e)
    return out


def reduce_unit_sphere(s):
    """Normal form modulo the unit-sphere relation XI1^2+...+XI5^2 = 1.

    Rewrites XI5^2 -> 1 - XI1^2 - XI2^2 - XI3^2 - XI4^2 until the XI5
    exponent is at most 1 everywhere.  Only meaningful after restriction
    to the boundary sphere (SH already set to 1).
    """
    rep = Scalar.from_grat(1)
    for name in XI_SYMBOLS[:4]:
        rep = rep - Scalar.sym(name, 2)
    out = Scalar.zero()
    work = s.monomials()
    while work:
        m, c = work.pop()
        e5 = dict(m).get("XI5", 0)
        if e5 < 2:
            out = out + scalar_term(m, c)
            continue
        rest = [(sym, x) for sym, x in m if sym != "XI5"]
        rest.append(("XI5", e5 - 2))
        work.extend((scalar_term(rest, c) * rep).monomials())
    return out


def equal_on_sphere(a, b):
    """Exact equality of restricted symbols as rational functions, modulo
    the unit-sphere relation in the tangential covariables."""
    if not a.restricted:
        raise ValueError("on_sphere compares restricted symbols only")
    _, num = _common(a - b)
    return not _poly_map(num, reduce_unit_sphere)


def xi_degree_of(mono):
    return sum(e for s, e in mono if s in XI_SYMBOLS)


def homogeneity_order(sym):
    """Degree in the covariables; raises if the symbol is not homogeneous.

    Only meaningful before restriction (XI's count 1 each, xi_n counts
    its power, each denominator factor counts -2, SH counts 0).
    """
    if sym.restricted:
        raise ValueError("homogeneity is checked before restriction")
    order = None
    for q, p in sym.terms.items():
        for k, ce in enumerate(p):
            for (w, e), s in ce.terms.items():
                for mono, _ in s.monomials():
                    d = k + xi_degree_of(mono) - 2 * q
                    if order is None:
                        order = d
                    elif order != d:
                        raise ValueError(
                            "inhomogeneous symbol: found degrees %s and %s"
                            % (order, d))
    if order is None:
        raise ValueError("zero symbol has no homogeneity order")
    return order


def homogeneous_part(sym, order):
    """The terms of an unrestricted symbol of one degree in the covariables,
    counted as in homogeneity_order."""
    if sym.restricted:
        raise ValueError("homogeneity is checked before restriction")
    return RationalSymbol(False, {q: [
        CE({key: sum((scalar_term(m, c) for m, c in s.monomials()
                      if k + xi_degree_of(m) - 2 * q == order), Scalar.zero())
            for key, s in ce.terms.items()})
        for k, ce in enumerate(p)] for q, p in sym.terms.items()})


def compose(p, q):
    """Symbol of P o Q at x_0 to first order, PQ - i d_xin P d_xn Q (the
    tangential summands vanish at x_0)."""
    return p * q - p.derive("xin") * q.derive("xn") * _I


def evaluate_symbol(sym, xin, assignment):
    """Numeric value at a real xi_n (complex output) of a scalar symbol."""
    total = 0j
    for k, p in sym.terms.items():
        if sym.restricted:
            a, b = k
            den = (xin - 1j) ** a * (xin + 1j) ** b
        else:
            b0 = b0_scalar().evaluate(assignment)
            den = (b0 + xin ** 2) ** k
        num = 0j
        for e, ce in enumerate(p):
            for (w, ew), s in ce.terms.items():
                if w or ew:
                    raise ValueError("evaluate needs scalar coefficients")
                num += s.evaluate(assignment) * xin ** e
        total += num / den
    return total


def _reflect(sym):
    """A restricted symbol at -xi_n.

    p(xi_n) / ((xi_n - i)^a (xi_n + i)^b) becomes
    (-1)^(a+b) p(-xi_n) / ((xi_n - i)^b (xi_n + i)^a): key (a, b) goes to
    (b, a) and the coefficient of xi_n^d is scaled by (-1)^(a+b+d).
    """
    return RationalSymbol(True, {
        (b, a): [c * (-1) ** (a + b + d) for d, c in enumerate(p)]
        for (a, b), p in sym.terms.items()})


def pi_minus(sym):
    """Keep the principal part at xi_n = -i; pi_plus + pi_minus = id.

    The reflection xi_n -> -xi_n swaps the poles at +i and -i, so this is
    pi_plus conjugated by it.
    """
    return _reflect(pi_plus(_reflect(sym)))


def sphere_moment_numeric(exps):
    """Integral of XI1^a1 * ... * XI5^a5 over the unit 4-sphere.

    Gamma-function formula for monomial moments on S^{d-1} in R^5:
    zero if any exponent is odd, otherwise
    2 * prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2).
    """
    return _moment(exps)


def dense(m):
    """The dense matrix of a monomial (perm, phase): column s holds
    phase[s] in row perm[s]."""
    perm, phase = m
    phase = np.asarray(phase)  # integer for the exterior generators
    out = np.zeros((len(perm), len(perm)), dtype=phase.dtype)
    out[list(perm), range(len(perm))] = phase
    return out


def invert_cubed(family):
    """Inverse-cube symbols from the composition recursion.

    Returns (q_{-3}, q_{-4}) built only from p_3, p_2 and the generic
    derivative machinery, q_{-3} = p_3^{-1} and
    q_{-4} = -p_3^{-1} [p_2 p_3^{-1} + d_{xi_n} p_3 D_{x_n} p_3^{-1}],
    the bracket being the order -1 part of compose(p_3 + p_2, q_{-3});
    validates p_3 q_{-3} = 1 on the way.
    """
    p3 = cubed_sigma(family, 3)["total"]
    p2 = sum(cubed_sigma(family, 2).values(), RationalSymbol.zero())
    q3 = _i_c_xi(2)
    if not equals(p3 * q3, RationalSymbol.constant(CE.one())):
        raise AssertionError("q_{-3} is not inverse to p_3")
    inner = homogeneous_part(compose(p3 + p2, q3), -1)
    return q3, -(q3 * inner)


def _gkey(g):
    kind, j = g
    return (0 if kind == "C" else 1, j)


def normal_form_by_sort(word):
    """(sign, canonical word) of a word of valid generators.

    Each generator is moved left past every generator above it in (kind,
    index) order, flipping the sign at each step, and contracts with an
    equal neighbour via c^2 = -1 / hat-c^2 = +1.
    """
    sign = 1
    out = []
    for g in word:
        pos = len(out)
        while pos > 0 and _gkey(out[pos - 1]) > _gkey(g):
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == g:
            out.pop(pos - 1)
            if g[0] == "C":
                sign = -sign
        else:
            out.insert(pos, g)
    return sign, tuple(out)


# c(e_1)..c(e_6) are bits 0-5 of a word mask, hat-c(e_1)..hat-c(e_6) 6-11
_MASK_BITS = [("C", j) for j in range(1, 7)] + [("CH", j) for j in range(1, 7)]


def mask_word(mask):
    """The canonical generator word of a 12-bit word mask."""
    if not 0 <= mask < 1 << len(_MASK_BITS):
        raise ValueError("not a 12-bit word mask: %r" % (mask,))
    return tuple(g for b, g in enumerate(_MASK_BITS) if mask >> b & 1)


def word_mask(word):
    """The 12-bit mask of a canonical (reduced, sorted) generator word."""
    if list(word) != sorted(set(word), key=_gkey):
        raise ValueError("not a canonical word: %r" % (word,))
    return sum(1 << _MASK_BITS.index(g) for g in word)


# -- small constructors ------------------------------------------------------


def _gr(re=0, im=0):
    return GRat(Fraction(re), Fraction(im))


def _cp():
    """c(xi') in the restricted phase (collar factor already set to 1)."""
    out = CE.zero()
    for j in range(1, 6):
        out = out + CE.c(j, Scalar.sym("XI%d" % j))
    return out


def _dxn_cp():
    """The boundary value of d_xn c(xi'): (h'(0)/2) c(xi')."""
    return _cp() * (Scalar.sym("H1") * Fraction(1, 2))


def _c_endo(fam):
    out = CE.zero()
    for j in range(1, 7):
        out = out + CE.c(j) * CE.endo(fam, j)
    return out


def _ch_endo(fam):
    out = CE.zero()
    for j in range(1, 7):
        out = out + CE.ch(j) * CE.endo(fam, j)
    return out


def _alpha():
    return _c_endo("sigmaF") - _c_endo("PhiStar")


def _beta():
    return _c_endo("sigmaF") + _c_endo("Phi")


def _p_sig():
    out = CE.zero()
    for i in range(1, 6):
        out = out + CE.word([("C", i), ("CH", 6), ("CH", i)])
    return out * (Scalar.sym("H1") * Fraction(1, 4))


def _vartheta(starred):
    wfam = "wStar" if starred else "w"
    return _c_endo("sigmaFe") - _ch_endo(wfam) * Fraction(1, 2)


def _rs(*terms):
    """Restricted symbol from (key, [CE coefficients in xi_n]) pairs."""
    out = {}
    for key, poly in terms:
        acc = out.setdefault(key, [CE.zero()] * len(poly))
        if len(acc) < len(poly):
            acc.extend(CE.zero() for _ in range(len(poly) - len(acc)))
        for k, c in enumerate(poly):
            acc[k] = acc[k] + c
        out[key] = acc
    return RationalSymbol(True, out)


def _scaled(ce, *coeffs):
    """xi_n-polynomial [a0*ce, a1*ce, ...] from numeric coefficients."""
    return [ce * (c if isinstance(c, (GRat, Scalar)) else Fraction(c))
            for c in coeffs]


# -- published intermediate symbol forms -------------------------------------


def _form_pi_plus_sigma_m1():
    # printed with a leading minus sign in both families
    num = (_cp() + CE.c(6, _I)) * Fraction(-1, 2)
    return _rs(((1, 0), [num]))


def _form_dxn_pi_plus_sigma_m1():
    d = _dxn_cp()
    t1 = _rs(((1, 0), [d * Fraction(1, 2)]))
    t2 = _rs(((1, 0), [_cp() * (_H1 * _gr(im=1) * _gr(im=1) * Fraction(1, 4))]))
    t3 = _rs(((2, 0), [(_cp() + CE.c(6, _I)) * (_H1 * _gr(im=1)
                                                * Fraction(1, 4))]))
    return t1 + t2 + t3


def _form_dxin_pi_plus_sigma_m1():
    num = (_cp() + CE.c(6, _I)) * Fraction(-1, 2)
    return _rs(((2, 0), [num]))


def _form_d2xin_sigma_m3():
    i = _I
    return _rs(((4, 4), [_cp() * (i * -4) + CE.zero(),
                         CE.zero(),
                         _cp() * (i * 20),
                         CE.zero()]),
               ((4, 4), [CE.zero(), CE.c(6, i * -12),
                         CE.zero(), CE.c(6, i * 12)]))


def _form_dxin_dxn_sigma_m3():
    i = _I
    d = _dxn_cp()
    t1 = _rs(((3, 3), [CE.zero(), d * (i * -4)]))
    t2 = _rs(((4, 4), [CE.zero(), _cp() * (i * _H1 * 12)]))
    t3 = _rs(((4, 4), [CE.c(6, i * _H1 * -2), CE.zero(),
                       CE.c(6, i * _H1 * 10)]))
    return t1 + t2 + t3


def _form_dxin_sigma_m3():
    i = _I
    return _rs(((3, 3), [CE.c(6, i), _cp() * (i * -4),
                         CE.c(6, i * -3)]))


def _form_sigma_m4_dm3():
    # final printed form of sigma_{-4} of the untwisted inverse cube
    h = _H1
    d = _dxn_cp()
    cpc = _cp() * CE.c(6) * _cp()
    t44 = _rs(
        ((4, 4), _scaled(cpc * h, Fraction(-17, 4), 0, Fraction(-9, 4))),
        ((4, 4), _scaled(_cp() * h, 0, Fraction(33, 2), 0, Fraction(17, 2))),
        ((4, 4), _scaled(CE.c(6) * h, 0, 0, Fraction(49, 2), 0,
                         Fraction(25, 2))),
    )
    t33 = _rs(
        ((3, 3), [_cp() * CE.c(6) * d]),
        ((3, 3), _scaled(d, 0, -3)),
        ((3, 3), _scaled(_cp() * h, 0, 0, -2)),
        ((3, 3), _scaled(CE.c(6) * h, 1, 0, -1)),
    )
    return t44 + t33


def _form_dxin_sigma_m4_dm3():
    h = _H1
    d = _dxn_cp()
    cpc = _cp() * CE.c(6) * _cp()
    t55 = _rs(
        ((5, 5), _scaled(cpc * h, 0, Fraction(59, 2), 0, Fraction(27, 2))),
        ((5, 5), _scaled(_cp() * h, Fraction(33, 2), 0, -90, 0,
                         Fraction(-85, 2))),
        ((5, 5), _scaled(CE.c(6) * h, 0, Fraction(49, 2), 0,
                         Fraction(-97, 2), 0, -25)),
    )
    t44 = _rs(
        ((4, 4), _scaled(_cp() * CE.c(6) * d, 0, -6)),
        ((4, 4), _scaled(d, -3, 0, 15)),
        ((4, 4), _scaled(CE.c(6) * h, 0, -8, 0, 4)),
        ((4, 4), _scaled(_cp() * h, 2, 0, -10)),
    )
    return t55 + t44


def _form_dxin_sandwich(mid):
    # d_xin of c(xi) mid c(xi) / |xi|^6
    t1 = _rs(((3, 3), [CE.c(6) * mid * _cp() + _cp() * mid * CE.c(6),
                       CE.c(6) * mid * CE.c(6) * 2]))
    cx = [_cp(), CE.c(6)]
    sand = [CE.zero()] * 3
    for a in range(2):
        for b in range(2):
            sand[a + b] = sand[a + b] + cx[a] * mid * cx[b]
    t2 = _rs(((4, 4), [CE.zero()] + [c * Fraction(-6) for c in sand]))
    return t1 + t2


def _form_dxin_cphi():
    return _rs(((3, 3), _scaled(_c_endo("Phi"), 0, -2)))


def _pi_plus_theta_block():
    """Printed first-block shape: the pi^+ of the sigma_0 sandwich plus the
    normal-derivative summand, evaluated form."""
    h = _H1
    d = _dxn_cp()
    num = (CE.c(6, h * Fraction(5, 2))
           + _cp() * (h * _gr(im=-1) * Fraction(5, 2))
           + (_cp() * CE.c(6) * d) * Fraction(-2)
           + d * _gr(im=1))
    lin = (_cp() * CE.c(6) * d) * _gr(im=-1)
    return _rs(((2, 0), [num * Fraction(1, 4), lin * Fraction(1, 4)]))


def _pi_plus_h_block():
    """Printed second-block shape (the h'(0)|xi'|^2 pole block), unsigned."""
    h = _H1
    t1 = _rs(((1, 0), [CE.c(6, _gr(im=-1) * Fraction(1, 4))]))
    t2 = _rs(((2, 0), [(CE.c(6) - _cp() * _gr(im=1)) * Fraction(1, 8)]))
    base = _cp() * _gr(im=1) - CE.c(6)
    t3 = _rs(((3, 0), _scaled(base, _gr(im=-7) * Fraction(1, 8),
                              Fraction(3, 8))))
    return (t1 + t2 + t3) * (h * Fraction(1, 2))


def _pi_plus_mid_block(mid, extra_dxn=False):
    """Printed endomorphism-sandwich block shape (sign folded in)."""
    i = _gr(im=1)
    d = _dxn_cp()
    num0 = (_cp() * mid * _cp() * 2
            + (CE.c(6) * mid * _cp() + _cp() * mid * CE.c(6)) * i)
    num1 = (_cp() * mid * _cp() + CE.c(6) * mid * CE.c(6)) * i
    if extra_dxn:
        num0 = num0 + (_cp() * CE.c(6) * d) * 2 - d * i
        num1 = num1 + (_cp() * CE.c(6) * d) * i
    return _rs(((2, 0), [num0 * Fraction(-1, 4), num1 * Fraction(-1, 4)]))


def paper_form(family_name, eq_id):
    """Published intermediate symbol form, as a restricted symbol."""
    common = {
        # pi^+ sigma_{-1} and its derivatives
        "(3.29)": _form_pi_plus_sigma_m1, "(5.39)": _form_pi_plus_sigma_m1,
        "(3.14)": _form_dxn_pi_plus_sigma_m1,
        "(5.7)": _form_dxn_pi_plus_sigma_m1,
        "(3.20)": _form_dxin_pi_plus_sigma_m1,
        "(5.12)": _form_dxin_pi_plus_sigma_m1,
        # inverse-cube symbol derivatives
        "(3.15)": _form_d2xin_sigma_m3, "(5.8)": _form_d2xin_sigma_m3,
        "(3.21)": _form_dxin_dxn_sigma_m3, "(5.13)": _form_dxin_dxn_sigma_m3,
        "(3.56)": _form_dxin_sigma_m3, "(5.23)": _form_dxin_sigma_m3,
        "(3.30)": _form_sigma_m4_dm3, "(5.40)": _form_sigma_m4_dm3,
        "(3.31)": _form_dxin_sigma_m4_dm3, "(5.41)": _form_dxin_sigma_m4_dm3,
    }
    if eq_id in common:
        return common[eq_id]()
    if family_name == "dirac":
        if eq_id == "(3.34)":
            return _form_dxin_sandwich(_alpha())
        if eq_id == "(3.39)":
            return _form_dxin_sandwich(_c_endo("PhiStar"))
        if eq_id == "(3.44)":
            return _form_dxin_cphi()
        if eq_id == "(3.53)":
            return _pi_plus_theta_block()
        if eq_id == "(3.54)":
            return _pi_plus_h_block()
        if eq_id == "(3.55)":
            return _pi_plus_mid_block(_beta())
    else:
        if eq_id == "(5.44)":
            return _form_dxin_sandwich(_p_sig())
        if eq_id == "(5.19)":
            return _pi_plus_theta_block()
        if eq_id == "(5.20)":
            return -_pi_plus_h_block()
        if eq_id == "(5.21)":
            return _pi_plus_mid_block(_p_sig(), extra_dxn=True)
        if eq_id == "(5.22)":
            return _pi_plus_mid_block(_vartheta(starred=False))
    raise KeyError("no published form %s for family %s"
                   % (eq_id, family_name))


def paper_value(family_name, eq_id):
    """Published value of one tabulated entry, by its equation id."""
    return dict(PUBLISHED[family_name].values())[eq_id]
