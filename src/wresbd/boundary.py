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

    aI   r=-1, l=-3, |alpha|=1        (d_x' = 0 at x_0: no blocks)
    aII  r=-1, l=-3, j=1
    aIII r=-1, l=-3, k=1
    b    r=-1, l=-4
    c    r=-2, l=-3

Each other case is evaluated block by block, one factor pair per block,
through one pipeline: every derivative, in x_n or xi_n, on the
unrestricted symbol (d_xin^k commutes with pi^+), restriction to the
boundary fibre, half-line projection on the first factor, fibre trace of
the equal-word pairs of the two factors (the only products with a trace),
exact xi_n line integral, exact sphere integral, prefactor.  All
arithmetic is exact (Gaussian rationals).
"""

import math
from collections import namedtuple
from fractions import Fraction

from .catalog import CliffordElement as CE
from .catalog import FAMILIES, cubed_sigma, first_order_sigma
from .clifford import _element, _mac
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


class BoundaryCase(namedtuple("BoundaryCase", "case_id r ell j k nalpha")):
    """One admissible multi-index combination of the boundary sum;
    ``nalpha`` is |alpha|, and only 0 and 1 occur."""

    __slots__ = ()

    def prefactor(self):
        """(-i)^(|alpha|+j+k+1) / (alpha!(j+k+1)!) as an exact Scalar."""
        n = self.nalpha + self.j + self.k + 1
        # alpha! = 1 for |alpha| <= 1
        return Scalar.from_grat(GRat(0, -1) ** n
                                / math.factorial(self.j + self.k + 1))


# exact outcome of one boundary case: its value and {block: value}
CaseResult = namedtuple("CaseResult", "case value blocks")


# the five solutions of the order constraint (module docstring), in
# report order
CASES = [
    BoundaryCase("aI", -1, -3, 0, 0, 1),
    BoundaryCase("aII", -1, -3, 1, 0, 0),
    BoundaryCase("aIII", -1, -3, 0, 1, 0),
    BoundaryCase("b", -1, -4, 0, 0, 0),
    BoundaryCase("c", -2, -3, 0, 0, 0),
]


def _trace_symbol(family, first, second):
    """Fibre trace of first * second, coefficientwise, from equal-word pairs.

    Two reduced Clifford words multiply to the empty word, the only one with
    a trace, exactly when they are equal.  No such product shows a CH word
    to the spin trace, so the spin family rejects one in either factor here.
    """
    if family.rep == "spin" and any(
            ce.has_ch() for sym in (first, second)
            for poly in sym.terms.values() for ce in poly):
        raise ValueError("CH generators have no spin representation")
    by_word = {}
    for key, poly in second.terms.items():
        for j, ce in enumerate(poly):
            for w, terms in _split_by_word(ce).items():
                by_word.setdefault(w, []).append((key, j, terms))
    acc = {}
    for (a, b), poly in first.terms.items():
        for i, ce in enumerate(poly):
            for w, left in _split_by_word(ce).items():
                for (a2, b2), j, right in by_word.get(w, ()):
                    p = acc.setdefault((a + a2, b + b2), [])
                    p.extend({} for _ in range(i + j + 1 - len(p)))
                    _mac(p[i + j], left, right)
    return RationalSymbol(True, {
        key: [CE.scalar(family.trace(_element(t))) for t in p]
        for key, p in acc.items()})


def _split_by_word(ce):
    """{word mask: the terms of ce with that word}."""
    out = {}
    for k, c in ce.terms.items():
        out.setdefault(k[0], {})[k] = c
    return out


def _derived(sym, xn, xin):
    """d_xin^xin d_xn^xn sym, restricted: x_n first, then xi_n."""
    for _ in range(xn):
        sym = sym.derive("xn")
    for _ in range(xin):
        sym = sym.derive("xin")
    return sym.restrict()


def case_factor_pairs(family, case):
    """Prepared factor pair of each block of one case.

    Returns a dict mapping block name to one (projected first factor,
    derived second factor) pair of restricted symbols, whose traced
    product, integrated, gives that block's contribution (before the case
    prefactor).  aI has no blocks.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    # d_x' sigma_l = 0 at x_0 in normal coordinates: aI is zero, (3.12), (5.5)
    if case.nalpha:
        return {}
    firsts = {name: pi_plus(_derived(sym, case.j, case.k))
              for name, sym in first_order_sigma(family, case.r).items()}
    seconds = {name: _derived(sym, case.k, case.j + 1)
               for name, sym in cubed_sigma(family, case.ell).items()}
    # at most one factor is split; a pair takes the split factor's block
    # name, and "total" only when neither is split
    return {min(fname, sname, key="total".__eq__): (first, second)
            for fname, first in firsts.items()
            for sname, second in seconds.items()}


def _pair_value(family, first, second):
    """Sphere and xi_n integrals of tr[first * second], before the case
    prefactor; the product is never formed beyond its traced part."""
    integrand = _trace_symbol(family, first, second)
    return sphere_integrate(integrate_line(integrand))


def evaluate_case(family, case, pairs=None):
    """Exact value of one boundary case, with per-block breakdown, from the
    case's ``case_factor_pairs`` (built here when `pairs` is None): one
    pair per block, and no blocks for aI."""
    family = FAMILIES[family] if isinstance(family, str) else family
    if pairs is None:
        pairs = case_factor_pairs(family, case)
    pref = case.prefactor()
    blocks = {name: _pair_value(family, first, second) * pref
              for name, (first, second) in pairs.items()}
    return CaseResult(case, sum(blocks.values(), Scalar.zero()), blocks)


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
