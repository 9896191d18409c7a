"""Published reference forms and values used for cross-checking and reports.

Everything in this module is *reference data*: the intermediate symbol
expressions and the tabulated case values of the published computation,
transcribed literally (including any misprints).  The engine never uses
these to compute -- it derives every quantity from the operator catalog --
but reports and tests compare against them and record honest match flags.

Naming: reference items are keyed by their published equation ids, e.g.
"(3.33)" for the twisted Dirac family and "(5.43)" for the twisted
signature family.  Those ids are part of the report format contract.
"""

from fractions import Fraction

from .clifford import CliffordElement
from .ring import GRat, Scalar
from .symbols import RationalSymbol

CE = CliffordElement

__all__ = [
    "paper_value",
    "paper_form",
    "INTERIOR_TERMS",
]


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


def _T(fam, j=6):
    return Scalar.sym("T:%s:%d" % (fam, j))


_PI = Scalar.sym("PI")
_H1 = Scalar.sym("H1")
_K = Scalar.sym("K")
_DIMF = Scalar.sym("DIMF")
_OM = Scalar.sym("OMEGA4")
_I = Scalar.i()


def _val(coeff, *extra):
    out = _PI * _DIMF * _OM * Scalar.rational(coeff)
    for e in extra:
        out = out * e
    return out


# -- published case values ---------------------------------------------------

_PAPER_VALUES = {
    # twisted Dirac family (section 3 of the published computation)
    ("dirac", "(3.12)"): Scalar.zero(),
    ("dirac", "(3.18)"): _val(Fraction(-15, 16), _H1),
    ("dirac", "(3.23)"): _val(Fraction(25, 16), _H1),
    ("dirac", "(3.33)"): _val(Fraction(-129, 16), _H1),
    ("dirac", "(3.38)"): _val(Fraction(3, 2),
                              _T("sigmaF") - _T("PhiStar")),
    ("dirac", "(3.43)"): _val(-3, _T("PhiStar")),
    ("dirac", "(3.48)"): _val(-1, _T("Phi")),
    ("dirac", "(3.49)"): (_val(Fraction(-129, 16), _H1)
                          + _val(Fraction(3, 2), _T("sigmaF") - _T("PhiStar"))
                          + _val(-3, _T("PhiStar"))
                          + _val(-1, _T("Phi"))),
    ("dirac", "(3.59)"): _val(Fraction(55, 16), _H1),
    ("dirac", "(3.63)"): _val(-2, _T("sigmaF") + _T("Phi")),
    # (3.64) is printed with a stray h'(0) in its second term; kept verbatim.
    ("dirac", "(3.64)"): (_val(Fraction(55, 16), _H1)
                          + _val(-2, _H1 * (_T("sigmaF") + _T("Phi")))),
    ("dirac", "(3.65)"): (_val(4, _H1)
                          + _val(-1, _T("Phi")) + _val(-3, _T("PhiStar"))
                          + _val(Fraction(3, 2), _T("sigmaF") - _T("PhiStar"))
                          + _val(-2, _T("sigmaF") + _T("Phi"))),
    ("dirac", "(3.67)"): (_val(Fraction(-8, 5), _K)
                          + _val(-1, _T("Phi")) + _val(-3, _T("PhiStar"))
                          + _val(Fraction(3, 2), _T("sigmaF") - _T("PhiStar"))
                          + _val(-2, _T("sigmaF") + _T("Phi"))),
    # twisted signature family (section 5)
    ("signature", "(5.5)"): Scalar.zero(),
    ("signature", "(5.10)"): _val(Fraction(-15, 2), _H1),
    ("signature", "(5.15)"): _val(Fraction(25, 2), _H1),
    ("signature", "(5.35)"): _val(Fraction(45, 2), _H1),
    # (5.36) is printed without the pi factor; kept verbatim.
    ("signature", "(5.36)"): _DIMF * _OM * _T("sigmaFe")
                             * Scalar.rational(-16),
    ("signature", "(5.37)"): (_val(Fraction(45, 2), _H1)
                              + _val(-16, _T("sigmaFe"))),
    ("signature", "(5.43)"): _val(Fraction(-129, 2), _H1),
    ("signature", "(5.45)"): Scalar.zero(),
    ("signature", "(5.47)"): _val(12, _T("sigmaFe")),
    ("signature", "(5.48)"): _val(4, _T("w")) + _val(-12, _T("wStar")),
    ("signature", "(5.49)"): (_val(Fraction(-129, 2), _H1)
                              + _val(12, _T("sigmaFe"))
                              + _val(4, _T("w")) + _val(-12, _T("wStar"))),
    ("signature", "(5.50)"): (_val(23, _H1) + _val(-4, _T("sigmaFe"))
                              + _val(4, _T("w")) + _val(-12, _T("wStar"))),
    # (5.52) is printed with w and w* exchanged relative to (5.50);
    # kept verbatim.
    ("signature", "(5.52)"): (_val(Fraction(-46, 5), _K)
                              + _val(-4, _T("sigmaFe"))
                              + _val(4, _T("wStar")) + _val(-12, _T("w"))),
}


def paper_value(family_name, eq_id):
    """Published value of one tabulated case entry, as an exact Scalar."""
    return _PAPER_VALUES[(family_name, eq_id)]


# -- interior-term annotations (reported verbatim, never computed) -----------

INTERIOR_TERMS = {
    "dirac": (
        "8*pi^3 Integral_M Tr[-s/12 + c(Phi^*)c(Phi)"
        " - (1/4) sum_i [c(Phi^*)c(e_i) - c(e_i)c(Phi)]^2"
        " - (1/2) sum_j nabla^F_{e_j}(c(Phi^*)) c(e_j)"
        " - (1/2) sum_j c(e_j) nabla^F_{e_j}(c(Phi))] dvol_M   [(3.10)]"
    ),
    "signature": (
        "8*pi^3 Integral_M Tr[-s/12 + (3/8)[chat(w^*) - chat(w)]^2"
        " - (1/4) chat(w^*) chat(w)"
        " - (1/4) sum_j nabla^F_{e_j}(chat(w^*)) c(e_j)"
        " + (1/4) sum_j c(e_j) nabla^F_{e_j}(chat(w))] dvol_M   [(5.3)]"
    ),
}


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

