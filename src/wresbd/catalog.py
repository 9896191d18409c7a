"""Symbol catalog for the two operator families.

Each family packages the data the boundary computation needs:

* dirac     -- twisted Dirac operator on the spinor bundle tensored with a
               flat bundle F; endomorphism symbols sigmaF (connection form),
               Phi and PhiStar (the twisting potential and its adjoint).
* signature -- twisted signature operator on the full exterior bundle;
               endomorphism symbols sigmaFe (connection form), w and wStar
               (the odd twisting form and its adjoint).

The catalog provides, at the distinguished boundary point in normal
coordinates (straight metric with collar factor h(x_n), h(0)=1, h'(0)=H1),
each order as {block name: symbol}, {"total": symbol} when unsplit:

* first_order_sigma(family, -1 / -2): symbols of the inverse of the
  first-order operator (-2 split into the blocks of case c);
* cubed_sigma(family, 3 / 2 / -3 / -4): leading symbols of the cube and
  of its inverse (2 and -4 split into the blocks of case b).

sigma_0 and the cube's sigma_2 are stated once, in _pieces, by the block of
the inverse each piece feeds.  One parametrix step, _parametrix, builds
sigma_{-2} and sigma_{-4} from them: each piece P gives -inv P inv in closed
form, and the untwisted block adds the remainder -inv (d_xin top)(D_xn inv).
"""

from fractions import Fraction

from .clifford import CliffordElement, trace_ext, trace_spin
from .ring import Scalar
from .symbols import RationalSymbol, _poly_add, _poly_mul, _poly_scale, b_poly

__all__ = [
    "OperatorFamily",
    "DIRAC",
    "SIGNATURE",
    "FAMILIES",
    "first_order_sigma",
    "cubed_sigma",
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


def sigma2_cube():
    """Untwisted second symbol of the cube at x_0, as a xi_n-polynomial.

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
    return _poly_add(poly, corr)


def _pieces(family, order):
    """sigma_0 (order 0) or the cube's sigma_2 (order 2), piece by piece.

    Maps each block of the inverse's next symbol (sigma_{-2} or sigma_{-4})
    to the pieces that feed it, the untwisted block first.  A piece (s, mid)
    with s in {0, 1} stands for |xi|^(2s) mid, and (None, mid) for
    c(xi) mid c(xi); mid is a xi_n-polynomial.
    """
    if order == 0:
        untwisted = [(0, [sigma0_connection(family)])]
        if family.name == "dirac":
            return {"core": untwisted, "beta": [(0, [beta_dirac()])]}
        return {"B123": untwisted, "B4": [(0, [vartheta(starred=False)])]}
    if family.name == "dirac":
        return {"D1": [(0, sigma2_cube())],
                "D2": [(1, [alpha_dirac()])],
                "D3": [(1, [c_endo("PhiStar") * Fraction(-2)])],
                "D4": [(None, [c_endo("Phi") * Fraction(-2)])]}
    return {"D1": [(0, sigma2_cube())],
            "p": [(1, [p_signature()])],
            "thetastar": [(1, [vartheta(starred=True)])],
            "w": [(1, [c_endo("wStar") * Fraction(-1)]),
                  (None, [c_endo("w")])]}


# -- catalog entries ---------------------------------------------------------


def _frac(poly, q):
    return RationalSymbol(False, {q: poly})


def _i_c_xi(q):
    """i c(xi) / |xi|^(2q): sigma_1 (q = 0), sigma_{-1} (1), sigma_{-3} (2)."""
    return _frac([c * Scalar.i() for c in c_xi_poly()], q)


def _sandwich(mid, q):
    """c(xi) * mid * c(xi) / |xi|^(2q), mid an element or a xi_n-polynomial."""
    cx = c_xi_poly()
    mid = [mid] if isinstance(mid, CE) else mid
    return _frac(_poly_mul(_poly_mul(cx, mid), cx), q)


def _remainder(top, inv):
    """-inv (d_xin top) (D_xn inv) = i inv (d_xin top) (d_xn inv).

    The first-order remainder of the composition formula for the inverse
    of a symbol with leading part top and inverse inv; tangential summands
    vanish at x_0.
    """
    return inv * Scalar.i() * top.derive("xin") * inv.derive("xn")


def _parametrix(family, order, top):
    """Next inverse symbol, block by block, from the pieces of one order.

    With inv = i c(xi)/|xi|^(2q) the inverse of top (q = 1 for the
    operator, 2 for its cube), each piece P of _pieces(family, order)
    contributes -inv P inv = c(xi) P c(xi)/|xi|^(4q).  By c(xi)^2 = -|xi|^2
    that is _sandwich(mid, 2q - s), or mid/|xi|^(4q - 4) for a sandwiched
    piece.  The untwisted block also takes _remainder(top, inv).
    """
    q = order // 2 + 1
    blocks = {}
    for name, pieces in _pieces(family, order).items():
        parts = [_frac(mid, 2 * q - 2) if s is None
                 else _sandwich(mid, 2 * q - s) for s, mid in pieces]
        if not blocks:
            parts.append(_remainder(top, _i_c_xi(q)))
        blocks[name] = sum(parts[1:], parts[0])
    return blocks


def first_order_sigma(family, order):
    """Symbols of the inverse first-order operator at x_0 (orders -1, -2)."""
    if order == -1:
        return {"total": _i_c_xi(1)}
    if order == -2:
        return _parametrix(family, 0, _i_c_xi(0))
    raise ValueError("first-order inverse catalog has orders -1 and -2 only")


def cubed_sigma(family, order):
    """Leading symbols of the cube (3, 2) and its inverse (-3, -4) at x_0."""
    if order == 3:
        return {"total": _i_c_xi(0) * _frac(b_poly(), 0)}
    if order == 2:
        return {name: sum((_sandwich(mid, 0) if s is None else
                           _frac(_poly_mul(b_poly(), mid) if s else mid, 0)
                           for s, mid in pieces), RationalSymbol.zero(False))
                for name, pieces in _pieces(family, 2).items()}
    if order == -3:
        return {"total": _i_c_xi(2)}
    if order == -4:
        return _parametrix(family, 2, cubed_sigma(family, 3)["total"])
    raise ValueError("cube catalog has orders 3, 2, -3, -4 only")
