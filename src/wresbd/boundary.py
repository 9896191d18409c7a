"""Boundary contribution of the residue pairing, term by term.

The boundary term is a finite sum over derivative multi-indices:

    sum over r + l - j - k - |alpha| - 1 = -6,  r <= -1,  l <= -3  of

    (-i)^(|alpha|+j+k+1) / (alpha! (j+k+1)!) *
    Integral_{|xi'|=1} Integral_{xi_n}
        trace[ d_xn^j d_xi'^alpha d_xin^k  pi^+ sigma_r
               x  d_x'^alpha d_xin^(j+1) d_xn^k  sigma_l ]

where sigma_r are the symbols of the inverse first-order operator and
sigma_l those of its inverse cube.  With the available symbol orders
(r in {-1,-2}, l in {-3,-4}) the constraint admits exactly five cases:

    aI   r=-1, l=-3, |alpha|=1        (vanishes at the boundary point)
    aII  r=-1, l=-3, j=1
    aIII r=-1, l=-3, k=1
    b    r=-1, l=-4
    c    r=-2, l=-3

Each case is evaluated through one pipeline: every derivative on the
unrestricted symbol (d_xin^k commutes with pi^+), restriction to the
boundary fibre, half-line projection on the first factor, product, fibre
trace, exact xi_n line integral, exact sphere integral, prefactor.  All
arithmetic is exact (Gaussian rationals).
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from .catalog import CliffordElement as CE
from .catalog import FAMILIES, cubed_sigma, first_order_sigma
from .ring import GRat, Scalar, sphere_integrate
from .symbols import RationalSymbol, integrate_line, pi_plus

__all__ = [
    "BoundaryCase",
    "CaseResult",
    "CASES",
    "case_factor_pairs",
    "evaluate_case",
    "assemble",
    "substitute_K",
]


@dataclass(frozen=True)
class BoundaryCase:
    """One admissible multi-index combination of the boundary sum."""

    case_id: str
    r: int
    ell: int
    j: int
    k: int
    nalpha: int  # |alpha|; only 0 and 1 occur

    def prefactor(self):
        """(-i)^(|alpha|+j+k+1) / (alpha!(j+k+1)!) as an exact Scalar."""
        n = self.nalpha + self.j + self.k + 1
        val = GRat(1)
        for _ in range(n):
            val = val * GRat(0, -1)
        fact = 1
        for m in range(2, self.j + self.k + 2):
            fact *= m
        # alpha! = 1 for |alpha| <= 1
        return Scalar.from_grat(val * GRat(Fraction(1, fact)))


@dataclass
class CaseResult:
    """Exact outcome of one boundary case."""

    case: "BoundaryCase"
    value: Scalar
    blocks: dict = field(default_factory=dict)


# the five solutions of the order constraint (module docstring), in
# report order
CASES = [
    BoundaryCase("aI", -1, -3, 0, 0, 1),
    BoundaryCase("aII", -1, -3, 1, 0, 0),
    BoundaryCase("aIII", -1, -3, 0, 1, 0),
    BoundaryCase("b", -1, -4, 0, 0, 0),
    BoundaryCase("c", -2, -3, 0, 0, 0),
]


def _trace_symbol(family, sym):
    """Apply the family fibre trace coefficientwise."""
    out = {}
    for key, poly in sym.terms.items():
        out[key] = [CE.scalar(family.trace(c)) for c in poly]
    return RationalSymbol(sym.restricted, out)


def _second_factor_sym(sym, case):
    """d_x'^alpha d_xin^(j+1) d_xn^k applied to one inverse-cube symbol."""
    for _ in range(case.k):
        sym = sym.derive("xn")
    for _ in range(case.j + 1):
        sym = sym.derive("xin")
    if case.nalpha:
        sym = sym.derive("xprime")
    return sym.restrict()


def _first_factor_sym(sym, case, tangent=None):
    """d_xin^k pi^+ d_xn^j d_xi'^alpha sigma_r for one symbol; d_xin is
    taken first, as it commutes with the restriction and pi^+."""
    for _ in range(case.j):
        sym = sym.derive("xn")
    if case.nalpha:
        sym = sym.derive("xi%d" % tangent)
    for _ in range(case.k):
        sym = sym.derive("xin")
    return pi_plus(sym.restrict())


@lru_cache(maxsize=None)
def case_factor_pairs(family, case):
    """Prepared factor pairs for one case, keyed by block name.

    Returns a dict mapping block name to the list of
    (projected first factor, derived second factor) restricted-symbol
    pairs whose traced products, summed and integrated, give that block's
    contribution (before the case prefactor).  Cases without a block split
    carry the single block name "total".  Cached and shared by the engine
    and every oracle seed, so callers must not mutate the result.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    second_entry = cubed_sigma(family, case.ell)
    first_entry = first_order_sigma(family, case.r)

    # the block split follows whichever factor carries named blocks
    if case.r == -2 and first_entry.blocks:
        split = [(name, blk, second_entry.expr)
                 for name, blk in first_entry.blocks.items()]
    elif second_entry.blocks:
        split = [(name, first_entry.expr, blk)
                 for name, blk in second_entry.blocks.items()]
    else:
        split = [("total", first_entry.expr, second_entry.expr)]

    tangents = range(1, 6) if case.nalpha else (None,)
    return {name: [(_first_factor_sym(fexpr, case, t),
                    _second_factor_sym(sexpr, case))
                   for t in tangents]
            for name, fexpr, sexpr in split}


def _pair_value(family, first, second):
    integrand = _trace_symbol(family, first * second)
    return sphere_integrate(integrate_line(integrand))


def evaluate_case(family, case):
    """Exact value of one boundary case, with per-block breakdown."""
    family = FAMILIES[family] if isinstance(family, str) else family
    pref = case.prefactor()
    blocks = {}
    for name, pairs in case_factor_pairs(family, case).items():
        acc = Scalar.zero()
        for fsym, ssym in pairs:
            acc = acc + _pair_value(family, fsym, ssym)
        blocks[name] = acc * pref
    total = Scalar.zero()
    for v in blocks.values():
        total = total + v
    return CaseResult(case, total, blocks)


def assemble(family):
    """Evaluate all five cases and their sum.

    Returns (results, total) where results maps case id to CaseResult and
    total is the exact boundary contribution.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    results = {}
    total = Scalar.zero()
    for case in CASES:
        res = evaluate_case(family, case)
        results[case.case_id] = res
        total = total + res.value
    return results, total


def substitute_K(scalar):
    """Rewrite the collar derivative in terms of the boundary mean
    curvature: h'(0) = -(2/5) K."""
    return scalar.substitute({"H1": Scalar.sym("K") * Fraction(-2, 5)})
