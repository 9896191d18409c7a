"""Published reference values used for cross-checking and reports.

Everything in this module is *reference data*: the tabulated case values
of the published computation, transcribed literally (including any
misprints).  The engine never uses these to compute -- it derives every
quantity from the operator catalog -- but the ledger compares against
them and records honest match flags.

PUBLISHED is the one map from each family's reported quantity to its
published equation id and printed value.  A quantity is keyed by (case
id, block): block None is the whole case, a block name one named
sub-block, and case "total" the grand total (block None) and its
mean-curvature form.  The ids, e.g. "(3.33)" for the twisted Dirac family
and "(5.43)" for the twisted signature family, are part of the report
format contract.
"""

from fractions import Fraction

from .ring import Scalar

__all__ = [
    "PUBLISHED",
    "INTERIOR_TERMS",
]


def _T(fam, j=6):
    return Scalar.sym("T:%s:%d" % (fam, j))


_PI = Scalar.sym("PI")
_H1 = Scalar.sym("H1")
_K = Scalar.sym("K")
_DIMF = Scalar.sym("DIMF")
_OM = Scalar.sym("OMEGA4")


def _val(coeff, *extra):
    out = _PI * _DIMF * _OM * Scalar.rational(coeff)
    for e in extra:
        out = out * e
    return out


# -- published values, by (case id, block) -----------------------------------

PUBLISHED = {
    # twisted Dirac family (section 3 of the published computation)
    "dirac": {
        ("aI", None): ("(3.12)", Scalar.zero()),
        ("aII", None): ("(3.18)", _val(Fraction(-15, 16), _H1)),
        ("aIII", None): ("(3.23)", _val(Fraction(25, 16), _H1)),
        ("b", "D1"): ("(3.33)", _val(Fraction(-129, 16), _H1)),
        ("b", "D2"): ("(3.38)", _val(Fraction(3, 2),
                                     _T("sigmaF") - _T("PhiStar"))),
        ("b", "D3"): ("(3.43)", _val(-3, _T("PhiStar"))),
        ("b", "D4"): ("(3.48)", _val(-1, _T("Phi"))),
        ("b", None): ("(3.49)", _val(Fraction(-129, 16), _H1)
                      + _val(Fraction(3, 2), _T("sigmaF") - _T("PhiStar"))
                      + _val(-3, _T("PhiStar"))
                      + _val(-1, _T("Phi"))),
        ("c", "core"): ("(3.59)", _val(Fraction(55, 16), _H1)),
        ("c", "beta"): ("(3.63)", _val(-2, _T("sigmaF") + _T("Phi"))),
        # (3.64) is printed with a stray h'(0) in its second term; kept
        # verbatim.
        ("c", None): ("(3.64)", _val(Fraction(55, 16), _H1)
                      + _val(-2, _H1 * (_T("sigmaF") + _T("Phi")))),
        ("total", None): ("(3.65)", _val(4, _H1)
                          + _val(-1, _T("Phi")) + _val(-3, _T("PhiStar"))
                          + _val(Fraction(3, 2),
                                 _T("sigmaF") - _T("PhiStar"))
                          + _val(-2, _T("sigmaF") + _T("Phi"))),
        ("total", "mean-curvature form"): (
            "(3.67)", _val(Fraction(-8, 5), _K)
            + _val(-1, _T("Phi")) + _val(-3, _T("PhiStar"))
            + _val(Fraction(3, 2), _T("sigmaF") - _T("PhiStar"))
            + _val(-2, _T("sigmaF") + _T("Phi"))),
    },
    # twisted signature family (section 5)
    "signature": {
        ("aI", None): ("(5.5)", Scalar.zero()),
        ("aII", None): ("(5.10)", _val(Fraction(-15, 2), _H1)),
        ("aIII", None): ("(5.15)", _val(Fraction(25, 2), _H1)),
        ("b", "D1"): ("(5.43)", _val(Fraction(-129, 2), _H1)),
        ("b", "p"): ("(5.45)", Scalar.zero()),
        ("b", "thetastar"): ("(5.47)", _val(12, _T("sigmaFe"))),
        ("b", "w"): ("(5.48)", _val(4, _T("w")) + _val(-12, _T("wStar"))),
        ("b", None): ("(5.49)", _val(Fraction(-129, 2), _H1)
                      + _val(12, _T("sigmaFe"))
                      + _val(4, _T("w")) + _val(-12, _T("wStar"))),
        ("c", "B123"): ("(5.35)", _val(Fraction(45, 2), _H1)),
        # (5.36) is printed without the pi factor; kept verbatim.
        ("c", "B4"): ("(5.36)", _DIMF * _OM * _T("sigmaFe")
                      * Scalar.rational(-16)),
        ("c", None): ("(5.37)", _val(Fraction(45, 2), _H1)
                      + _val(-16, _T("sigmaFe"))),
        ("total", None): ("(5.50)", _val(23, _H1) + _val(-4, _T("sigmaFe"))
                          + _val(4, _T("w")) + _val(-12, _T("wStar"))),
        # (5.52) is printed with w and w* exchanged relative to (5.50);
        # kept verbatim.
        ("total", "mean-curvature form"): (
            "(5.52)", _val(Fraction(-46, 5), _K)
            + _val(-4, _T("sigmaFe"))
            + _val(4, _T("wStar")) + _val(-12, _T("w"))),
    },
}


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
