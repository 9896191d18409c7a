"""Symbol catalog for the two operator families.

Each family packages the data the boundary computation needs:

* dirac     -- twisted Dirac operator on the spinor bundle tensored with a
               flat bundle F; endomorphism symbols sigmaF (connection form),
               Phi and PhiStar (the twisting potential and its adjoint).
* signature -- twisted signature operator on the full exterior bundle;
               endomorphism symbols sigmaFe (connection form), w and wStar
               (the odd twisting form and its adjoint).

The catalog provides, at the distinguished boundary point in normal
coordinates (straight metric with collar factor h(x_n), h(0)=1, h'(0)=H1):

* first_order_sigma(family, -1 / -2): symbols of the inverse of the
  first-order operator;
* cubed_sigma(family, 3 / 2 / -3 / -4): leading symbols of the cube and
  of its inverse (the -4 entry carries named sub-blocks matching the way
  the boundary cases are reported);
* invert_cubed(family): recomputes the inverse-cube symbols from the
  composition recursion q_{-3} = p_3^{-1},
  q_{-4} = -p_3^{-1} [p_2 p_3^{-1} + sum_j d_{xi_j} p_3 D_{x_j} p_3^{-1}],
  which cross-checks the catalog forms through entirely generic machinery.

The untwisted sigma_{-2} block and the D1 block of sigma_{-4} take their
composition remainder -q (d_xin p)(D_xn q) from one _remainder, built on
the symbol calculus's derivative; the twisting blocks are sandwich forms.
"""

from fractions import Fraction

from .clifford import CliffordElement, trace_ext, trace_spin
from .ring import GRat, Scalar
from .symbols import RationalSymbol, _poly_add, _poly_mul, _poly_scale, b_poly

__all__ = [
    "OperatorFamily",
    "CatalogEntry",
    "DIRAC",
    "SIGNATURE",
    "FAMILIES",
    "first_order_sigma",
    "cubed_sigma",
    "invert_cubed",
]

CE = CliffordElement


class OperatorFamily:
    """Name, representation and trace rule of one operator."""

    __slots__ = ("name", "rep", "trace")

    def __init__(self, name, rep, trace):
        self.name = name
        self.rep = rep
        self.trace = trace

    def __repr__(self):
        return "OperatorFamily(%r)" % self.name


DIRAC = OperatorFamily("dirac", "spin", trace_spin)
SIGNATURE = OperatorFamily("signature", "ext", trace_ext)
FAMILIES = {"dirac": DIRAC, "signature": SIGNATURE}


class CatalogEntry:
    """One catalog symbol with optional named sub-blocks (blocks sum to expr)."""

    __slots__ = ("family", "order", "expr", "blocks")

    def __init__(self, family, order, expr, blocks=None):
        self.family = family
        self.order = order
        self.expr = expr
        self.blocks = blocks or {}

    def __repr__(self):
        return "CatalogEntry(%s, order %d)" % (self.family.name, self.order)


# -- geometric building blocks at the boundary point -----------------------


def c_xi_prime():
    """c(xi') with the collar factor: SH * sum_j XIj c(e_j)."""
    out = CE.zero()
    for j in range(1, 6):
        out = out + CE.c(j, Scalar.sym("SH") * Scalar.sym("XI%d" % j))
    return out


def c_xi_poly():
    """c(xi) = c(xi') + xi_n c(dx_n), as a xi_n-polynomial."""
    return [c_xi_prime(), CE.c(6)]


def c_endo(fam):
    """Clifford-contracted endomorphism symbol sum_j c(e_j) endo(fam, e_j)."""
    out = CE.zero()
    for j in range(1, 7):
        out = out + CE.c(j) * CE.endo(fam, j)
    return out


def ch_endo(fam):
    out = CE.zero()
    for j in range(1, 7):
        out = out + CE.ch(j) * CE.endo(fam, j)
    return out


def alpha_dirac():
    """sum_j c(e_j)(sigmaF_j - PhiStar(e_j))."""
    return c_endo("sigmaF") - c_endo("PhiStar")


def beta_dirac():
    """sum_j c(e_j)(sigmaF_j + Phi(e_j))."""
    return c_endo("sigmaF") + c_endo("Phi")


def p_signature():
    """(1/4) H1 sum_{i<6} c(e_i) ch(e_6) ch(e_i)."""
    out = CE.zero()
    for i in range(1, 6):
        out = out + CE.word([("C", i), ("CH", 6), ("CH", i)])
    return out * (Scalar.sym("H1") * Fraction(1, 4))


def vartheta(starred):
    """Zeroth-order twisting part of the signature operator (or its adjoint)."""
    wfam = "wStar" if starred else "w"
    return c_endo("sigmaFe") - ch_endo(wfam) * Fraction(1, 2)


def sigma0_connection(family):
    """Connection part of the zeroth symbol: -(5/4) H1 c(dx_n) (+ p for ext)."""
    out = CE.c(6, Scalar.sym("H1") * Fraction(-5, 4))
    if family.name == "signature":
        out = out + p_signature()
    return out


def sigma2_cube(family):
    """Second symbol of the cube at x_0 (family independent in shape).

    c(xi)(4 sigma^k - 2 Gamma^k) xi_k - (1/4)|xi|^2 H1 c(dx_n), where at the
    boundary point 4 sigma^k xi_k = H1 sum_{k<6} XIk c(e_k) c(dx_n) and
    2 Gamma^n xi_n = 5 H1 xi_n.
    """
    inner0 = CE.zero()
    for k in range(1, 6):
        inner0 = inner0 + CE.word([("C", k), ("C", 6)], Scalar.sym("XI%d" % k))
    inner0 = inner0 * Scalar.sym("H1")
    h5 = Scalar.sym("H1") * Fraction(-5)
    inner = [inner0, CE.scalar(h5)]  # xi_n-poly: inner0 - 5 H1 xi_n
    poly = _poly_mul(c_xi_poly(), inner)
    corr = _poly_scale(b_poly(), Scalar.sym("H1") * Fraction(-1, 4))
    corr = [c * CE.c(6) for c in corr]
    return RationalSymbol(False, {0: _poly_add(poly, corr)})


# -- catalog entries ---------------------------------------------------------


def _frac(poly, q):
    return RationalSymbol(False, {q: poly})


def _i_c_xi(q):
    """i c(xi) / |xi|^(2q): sigma_1 (q = 0), sigma_{-1} (1), sigma_{-3} (2)."""
    return _frac([c * Scalar.i() for c in c_xi_poly()], q)


def _sandwich(mid, q):
    """c(xi) * mid * c(xi) / |xi|^(2q) as an unrestricted symbol."""
    cx = c_xi_poly()
    poly = _poly_mul(_poly_mul(cx, [mid]), cx)
    return _frac(poly, q)


def _remainder(top, inv):
    """-inv (d_xin top) (D_xn inv) = i inv (d_xin top) (d_xn inv).

    The first-order remainder of the composition formula for the inverse
    of a symbol with leading part top and inverse inv; tangential summands
    vanish at x_0.
    """
    return inv * top.derive("xin") * inv.derive("xn") * Scalar.i()


def first_order_sigma(family, order):
    """Symbols of the inverse first-order operator at x_0 (orders -1, -2)."""
    if order == -1:
        return CatalogEntry(family, -1, _i_c_xi(1))
    if order == -2:
        untwisted = _sandwich(sigma0_connection(family), 2) \
            + _remainder(_i_c_xi(0), _i_c_xi(1))
        if family.name == "dirac":
            blocks = {"core": untwisted,
                      "beta": _sandwich(beta_dirac(), 2)}
        else:
            blocks = {"B123": untwisted,
                      "B4": _sandwich(vartheta(starred=False), 2)}
        expr = sum(blocks.values(), RationalSymbol.zero(False))
        return CatalogEntry(family, -2, expr, blocks)
    raise ValueError("first-order inverse catalog has orders -1 and -2 only")


def _sigma4_dm3():
    """sigma_{-4} of the untwisted inverse cube at x_0 (composition form).

    c(xi) sigma_2(D^3) c(xi)/|xi|^8 + _remainder(sigma_3, sigma_{-3}).
    """
    cx = c_xi_poly()
    first = _frac(_poly_mul(_poly_mul(cx, sigma2_cube(None).terms[0]), cx), 4)
    return first + _remainder(cubed_sigma(None, 3).expr, _i_c_xi(2))


def cubed_sigma(family, order):
    """Leading symbols of the cube (3, 2) and its inverse (-3, -4) at x_0."""
    if order == 3:
        return CatalogEntry(family, 3, _i_c_xi(0) * _frac(b_poly(), 0))
    if order == 2:
        expr = sigma2_cube(family)
        if family.name == "dirac":
            extra = _frac(_poly_scale(b_poly(), alpha_dirac()), 0) \
                + _sandwich(c_endo("Phi") * Fraction(-2), 0) \
                + _frac(_poly_scale(b_poly(), c_endo("PhiStar") * Fraction(-2)), 0)
        else:
            extra = _frac(_poly_scale(
                b_poly(), p_signature() + vartheta(starred=True)), 0) \
                + _sandwich(c_endo("w"), 0) \
                + _frac(_poly_scale(b_poly(), c_endo("wStar") * Fraction(-1)), 0)
        return CatalogEntry(family, 2, expr + extra)
    if order == -3:
        return CatalogEntry(family, -3, _i_c_xi(2))
    if order == -4:
        if family.name == "dirac":
            blocks = {
                "D1": _sigma4_dm3(),
                "D2": _sandwich(alpha_dirac(), 3),
                "D3": _sandwich(c_endo("PhiStar") * Fraction(-2), 3),
                "D4": _frac([c_endo("Phi") * Fraction(-2)], 2),
            }
        else:
            blocks = {
                "D1": _sigma4_dm3(),
                "p": _sandwich(p_signature(), 3),
                "thetastar": _sandwich(vartheta(starred=True), 3),
                "w": _sandwich(c_endo("wStar") * Fraction(-1), 3)
                     + _frac([c_endo("w")], 2),
            }
        expr = sum(blocks.values(), RationalSymbol.zero(False))
        return CatalogEntry(family, -4, expr, blocks)
    raise ValueError("cube catalog has orders 3, 2, -3, -4 only")


def invert_cubed(family):
    """Inverse-cube symbols from the composition recursion.

    Returns (q_{-3}, q_{-4}) built only from p_3, p_2 and the generic
    derivative machinery; validates p_3 q_{-3} = 1 on the way.
    """
    p3 = cubed_sigma(family, 3).expr
    p2 = cubed_sigma(family, 2).expr
    q3 = _frac([c * Scalar.i() for c in c_xi_poly()], 2)
    if not (p3 * q3).equals(RationalSymbol.constant(CE.one())):
        raise AssertionError("q_{-3} is not inverse to p_3")
    minus_i = Scalar.from_grat(GRat(0, -1))
    inner = p2 * q3
    inner = inner + p3.derive("xin") * (q3.derive("xn") * minus_i)
    for j in range(1, 6):
        inner = inner + p3.derive("xi%d" % j) * (q3.derive("xprime") * minus_i)
    q4 = -(q3 * inner)
    return q3, q4
