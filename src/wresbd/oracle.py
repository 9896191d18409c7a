"""Independent numeric cross-check of the exact boundary computation.

The oracle evaluates every boundary case with numeric machinery that
bypasses the exact engine's algebraic rules at each stage where the
engine does something nontrivial:

* Clifford products and traces: literal representation matrices
  (8x8 spin / 64x64 exterior) instead of the normal form and trace rule;
* twisting endomorphisms: concrete random matrices on a model fibre,
  so endomorphism trace symbols become plain numbers;
* the sphere integral: the Gamma-function moment formula instead of
  the engine's double-factorial moment table;
* the xi_n line integral: adaptive quadrature over the real line
  instead of the residue formula;
* the case prefactor: computed here from the case's multi-index.

Both integrals are linear, so the oracle takes them in the other order:
sphere moments of each traced term first, then one quadrature per block
and pole key.  The representation matrices, and the per-degree exterior
traces of the (5.29) ledger entry, are defined here and nowhere else.

The factor symbols come from the engine's own ``case_factor_pairs``, so
a fault in the catalog, pi+, the restriction, d/dx_n or d/dxi_n reaches
both sides unseen (see the fault-injection tests).  Agreement checks the
trace, line-integral, sphere-integral and prefactor stages end to end.
"""

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .boundary import case_factor_pairs
from .catalog import FAMILIES
from .clifford import EXT_DIM, SPIN_DIM, _check_gen
from .ring import XI_SYMBOLS

__all__ = ["OracleAssignment", "oracle_case", "sphere_moment_numeric",
           "rep_matrix", "word_matrix", "ext_degree_trace"]

_ALL_ENDO_FAMS = ("sigmaF", "Phi", "PhiStar", "sigmaFe", "w", "wStar")


class OracleAssignment:
    """Seeded numeric values for every free symbol of the computation.

    The twisting endomorphisms are drawn as concrete dimF x dimF real
    matrices; their traces (and pair traces) supply the values of the
    corresponding trace symbols, so the exact result and the numeric
    result are evaluated at one consistent data point.
    """

    def __init__(self, seed):
        rng = np.random.default_rng(seed)
        self.seed = seed
        self.h1 = float(rng.uniform(0.5, 2.0))
        self.dimf = int(rng.integers(1, 3))
        self.endos = {
            (fam, j): rng.uniform(-1.0, 1.0, (self.dimf, self.dimf))
            for fam in _ALL_ENDO_FAMS for j in range(1, 7)
        }
        env = {
            "PI": math.pi,
            "OMEGA4": 8 * math.pi ** 2 / 3,
            "H1": self.h1,
            "K": -2.5 * self.h1,
            "DIMF": float(self.dimf),
            "SH": 1.0,
        }
        for (fam, j), m in self.endos.items():
            env["T:%s:%d" % (fam, j)] = float(np.trace(m))
        for (f1, j1), m1 in self.endos.items():
            for (f2, j2), m2 in self.endos.items():
                env["T2:%s:%d:%s:%d" % (f1, j1, f2, j2)] = \
                    float(np.trace(m1 @ m2))
        self.env = env

    def endo_trace(self, word):
        """Numeric fibre trace of a product of endomorphism symbols."""
        if not word:
            return float(self.dimf)
        m = np.eye(self.dimf)
        for fam, j in word:
            m = m @ self.endos[(fam, j)]
        return float(np.trace(m))


# -- representation matrices -----------------------------------------------

_PAULI1 = np.array([[0, 1], [1, 0]], dtype=complex)
_PAULI2 = np.array([[0, -1j], [1j, 0]], dtype=complex)
_PAULI3 = np.array([[1, 0], [0, -1]], dtype=complex)
_ID2 = np.eye(2, dtype=complex)


@lru_cache(maxsize=None)
def _spin_gens():
    gens = []
    for k in range(3):
        for pauli in (_PAULI1, _PAULI2):
            mats = [_PAULI3] * k + [1j * pauli] + [_ID2] * (2 - k)
            m = mats[0]
            for x in mats[1:]:
                m = np.kron(m, x)
            gens.append(m)
    return tuple(gens)


@lru_cache(maxsize=None)
def _ext_gens():
    """c(e_j) = wedge - contraction, hat-c(e_j) = wedge + contraction (real)."""
    cs, chs = [], []
    for j in range(6):
        eps = np.zeros((EXT_DIM, EXT_DIM))
        iot = np.zeros((EXT_DIM, EXT_DIM))
        for s in range(EXT_DIM):
            if not s & (1 << j):
                sign = (-1) ** bin(s & ((1 << j) - 1)).count("1")
                eps[s | (1 << j), s] = sign
                iot[s, s | (1 << j)] = sign
        cs.append(eps - iot)
        chs.append(eps + iot)
    return tuple(cs), tuple(chs)


def rep_matrix(gen, rep):
    """Matrix of one generator: rep is 'spin' (8x8) or 'ext' (64x64)."""
    _check_gen(gen)
    kind, j = gen
    if rep == "spin":
        if kind == "CH":
            raise ValueError("CH generators have no spin representation")
        return _spin_gens()[j - 1]
    if rep == "ext":
        cs, chs = _ext_gens()
        return cs[j - 1] if kind == "C" else chs[j - 1]
    raise ValueError("unknown representation %r" % (rep,))


def word_matrix(word, rep):
    """Matrix of a generator word, multiplied out left to right."""
    dim = SPIN_DIM if rep == "spin" else EXT_DIM
    m = np.eye(dim)
    for g in word:
        m = m @ rep_matrix(g, rep)
    return m


def ext_degree_trace(word, degree):
    """Trace of a word's exterior matrix restricted to forms of one degree."""
    m = word_matrix(word, "ext")
    idx = [s for s in range(EXT_DIM) if bin(s).count("1") == degree]
    return complex(m[idx, idx].sum())


# only reduced words (CliffordElement term keys) reach this cache
_wmat = lru_cache(maxsize=None)(word_matrix)


def sphere_moment_numeric(exps):
    """Integral of XI1^a1 * ... * XI5^a5 over the unit 4-sphere.

    Gamma-function formula for monomial moments on S^{d-1} in R^5:
    zero if any exponent is odd, otherwise
    2 * prod Gamma((a_i+1)/2) / Gamma(sum (a_i+1)/2).
    """
    if any(a % 2 for a in exps):
        return 0.0
    num = 2.0
    for a in exps:
        num *= math.gamma((a + 1) / 2.0)
    return num / math.gamma(sum(a + 1 for a in exps) / 2.0)


def _sphere_numeric(scalar, env):
    """Integral of a Scalar over the unit 4-sphere in XI1..XI5.

    Each XI-monomial becomes its Gamma-function moment; every other
    symbol is looked up in `env`.
    """
    total = 0j
    for mono, c in scalar.terms.items():
        exps = [0] * 5
        v = c.value()
        for sym, e in mono:
            if sym in XI_SYMBOLS:
                exps[XI_SYMBOLS.index(sym)] = e
            else:
                v *= env[sym] ** e
        total += v * sphere_moment_numeric(exps)
    return total


def _pair_integrand_polys(fsym, ssym, rep, assignment, out):
    """Add the sphere-integrated numeric trace of one factor product to out.

    out maps the pole key (A, B) -- denominator (xi_n - i)^A (xi_n + i)^B --
    to the list of complex xi_n-polynomial coefficients of the numerator.
    """
    for k1, p1 in fsym.terms.items():
        for k2, p2 in ssym.terms.items():
            poly = out.setdefault((k1[0] + k2[0], k1[1] + k2[1]), [])
            for i1, c1 in enumerate(p1):
                for i2, c2 in enumerate(p2):
                    deg = i1 + i2
                    for (w1, e1), s1 in c1.terms.items():
                        for (w2, e2), s2 in c2.terms.items():
                            tc = np.trace(_wmat(w1, rep) @ _wmat(w2, rep))
                            if abs(tc) < 1e-14:
                                continue
                            te = assignment.endo_trace(e1 + e2)
                            if te == 0.0:
                                continue
                            if len(poly) <= deg:
                                poly.extend([0j] * (deg + 1 - len(poly)))
                            poly[deg] += (_sphere_numeric(s1 * s2,
                                                          assignment.env)
                                          * tc * te)


def _line_integral_numeric(poly, key):
    """Adaptive quadrature of poly(xi_n) / ((xi_n-i)^A (xi_n+i)^B)."""
    a_pow, b_pow = key
    coeffs = list(reversed(poly))  # np.polyval convention

    def f(x):
        return np.polyval(coeffs, x) / ((x - 1j) ** a_pow * (x + 1j) ** b_pow)

    val, _ = quad(f, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12, limit=400,
                  complex_func=True)
    return val


def oracle_case(family, case, assignment):
    """Numeric value of one boundary case, with per-block breakdown.

    Returns (blocks, total) where blocks maps block name to a complex
    number and total is their sum; directly comparable to the exact
    CaseResult evaluated at the same assignment.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    n = case.nalpha + case.j + case.k + 1
    pref = (-1j) ** n / math.factorial(case.j + case.k + 1)  # alpha! = 1
    blocks = {}
    for name, pairs in case_factor_pairs(family, case).items():
        polys = {}
        for fsym, ssym in pairs:
            _pair_integrand_polys(fsym, ssym, family.rep, assignment, polys)
        blocks[name] = pref * sum(
            (_line_integral_numeric(poly, key)
             for key, poly in polys.items() if any(poly)), 0j)
    return blocks, sum(blocks.values())
