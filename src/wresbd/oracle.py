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
* the xi_n line integral: the midpoint rule in theta = arctan(xi_n),
  which samples the integrand on the real line only, instead of the
  residue formula;
* the case prefactor: computed here from the case's multi-index.

Both integrals are linear, so the oracle takes them in the other order:
sphere moments of each traced term first, then one quadrature per block
and pole key.  It turns each factor coefficient into floats once and
integrates products of them numerically, so it never forms the engine's
exact Scalar product.  The representation matrices, and the per-degree
exterior traces of the (5.29) ledger entry, are defined here and nowhere
else.

The factor symbols come from the engine's own ``case_factor_pairs``, so
a fault in the catalog, pi+, the restriction, d/dx_n or d/dxi_n reaches
both sides unseen (see the fault-injection tests).  Agreement checks the
trace, line-integral, sphere-integral and prefactor stages end to end.
"""

import math
from functools import lru_cache

import numpy as np

from .boundary import case_factor_pairs
from .catalog import FAMILIES
from .clifford import EXT_DIM, SPIN_DIM, _check_gen
from .ring import XI_SYMBOLS

__all__ = ["OracleAssignment", "oracle_case", "rep_matrix", "word_matrix",
           "ext_degree_trace"]

_ALL_ENDO_FAMS = ("sigmaF", "Phi", "PhiStar", "sigmaFe", "w", "wStar")


class OracleAssignment:
    """Seeded numeric values for every free symbol of the computation.

    The twisting endomorphisms are drawn as concrete dimF x dimF real
    matrices; their traces supply the values of the corresponding trace
    symbols, so the exact result and the numeric result are evaluated at
    one consistent data point.
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


# Gamma((a+1)/2) for even a (zero for odd a) and Gamma((s+5)/2), indexed by
# XI exponent a and exponent sum s; see _moments.  The products of the two
# ledgers reach XI exponent 6.
_MAX_XI_EXP = 48
_HALF_GAMMA = np.array([math.gamma((a + 1) / 2.0) if a % 2 == 0 else 0.0
                        for a in range(_MAX_XI_EXP + 1)])
_SUM_GAMMA = np.array([math.gamma((s + 5) / 2.0)
                       for s in range(5 * _MAX_XI_EXP + 1)])
_XI_INDEX = {sym: i for i, sym in enumerate(XI_SYMBOLS)}


def _moments(exps):
    """Sphere moments of integer XI-exponent rows (last axis XI1..XI5)."""
    if exps.size and (exps.min() < 0 or exps.max() > _MAX_XI_EXP):
        raise ValueError("XI exponent outside 0..%d" % _MAX_XI_EXP)
    return (2.0 * _HALF_GAMMA[exps].prod(axis=-1)
            / _SUM_GAMMA[exps.sum(axis=-1)])


def _numeric_coeff(scalar, env):
    """A Scalar as (XI-exponent rows, complex values), one row per term.

    Every symbol other than XI1..XI5 is looked up in `env`.
    """
    exps = np.zeros((len(scalar.terms), 5), dtype=np.intp)
    vals = np.empty(len(scalar.terms), dtype=complex)
    for row, (mono, c) in enumerate(scalar.terms.items()):
        v = c.value()
        for sym, e in mono:
            if sym in _XI_INDEX:
                exps[row, _XI_INDEX[sym]] = e
            else:
                v *= env[sym] ** e
        vals[row] = v
    return exps, vals


def _sphere_product(first, second):
    """Integral over the unit 4-sphere of the product of two numeric coeffs."""
    (e1, v1), (e2, v2) = first, second
    return v1 @ _moments(e1[:, None, :] + e2[None, :, :]) @ v2


@lru_cache(maxsize=None)
def _pair_trace(w1, w2, rep):
    """tr(M(w1) M(w2)), without forming the product."""
    return complex((_wmat(w1, rep) * _wmat(w2, rep).T).sum())


def _numeric_terms(sym, env):
    """[(pole key, [[(word, endo word, numeric coeff)] per degree])]."""
    return [(key, [[(w, e, _numeric_coeff(s, env))
                    for (w, e), s in ce.terms.items()] for ce in poly])
            for key, poly in sym.terms.items()]


def _pair_integrand_polys(fsym, ssym, rep, assignment):
    """The sphere-integrated numeric trace of one factor product.

    Returns a dict mapping the pole key (A, B) -- denominator
    (xi_n - i)^A (xi_n + i)^B -- to the list of complex xi_n-polynomial
    coefficients of the numerator.
    """
    first = _numeric_terms(fsym, assignment.env)
    second = _numeric_terms(ssym, assignment.env)
    out = {}
    for k1, p1 in first:
        for k2, p2 in second:
            poly = out.setdefault((k1[0] + k2[0], k1[1] + k2[1]), [])
            for i1, c1 in enumerate(p1):
                for i2, c2 in enumerate(p2):
                    deg = i1 + i2
                    for w1, e1, n1 in c1:
                        for w2, e2, n2 in c2:
                            tc = _pair_trace(w1, w2, rep)
                            if abs(tc) < 1e-14:
                                continue
                            te = assignment.endo_trace(e1 + e2)
                            if te == 0.0:
                                continue
                            if len(poly) <= deg:
                                poly.extend([0j] * (deg + 1 - len(poly)))
                            poly[deg] += _sphere_product(n1, n2) * tc * te
    return out


# midpoint rule in theta: the largest node count, and the agreement of two
# successive sums relative to the sum of |summand|
_QUAD_MAX_NODES = 4096
_QUAD_TOL = 1e-13


def quad(f):
    """Integral of f over the real line, and an error estimate.

    Substitutes x = tan(theta) and sums f(tan theta) sec^2(theta) at the
    midpoints theta_k = -pi/2 + (k + 1/2) pi/N; f takes an array of nodes.
    N starts at 8 and doubles until two successive sums agree to _QUAD_TOL
    of the sum of |summand|; the last difference is the error estimate.  The rule is
    exact on p(x) / ((x-i)^A (x+i)^B) with deg p <= A+B-2 once
    N >= max(A, B), where the summand is a trigonometric polynomial, and
    converges geometrically on integrands analytic in a strip (Trefethen
    and Weideman, SIAM Review 56, 2014).  Raises ArithmeticError when the
    sums still disagree at _QUAD_MAX_NODES nodes.
    """
    n, prev = 8, None
    while n <= _QUAD_MAX_NODES:
        theta = (np.arange(n) + 0.5) * (np.pi / n) - np.pi / 2
        summand = f(np.tan(theta)) / np.cos(theta) ** 2 * (np.pi / n)
        total = complex(summand.sum())
        if prev is not None and (abs(total - prev)
                                 <= _QUAD_TOL * np.abs(summand).sum()):
            return total, abs(total - prev)
        n, prev = 2 * n, total
    raise ArithmeticError("midpoint rule unconverged at %d nodes"
                          % _QUAD_MAX_NODES)


def _line_integral_numeric(poly, key):
    """Midpoint-rule integral of poly(xi_n) / ((xi_n-i)^A (xi_n+i)^B)."""
    a_pow, b_pow = key
    coeffs = list(reversed(poly))  # np.polyval convention

    def f(x):
        return np.polyval(coeffs, x) / ((x - 1j) ** a_pow * (x + 1j) ** b_pow)

    return quad(f)[0]


def oracle_case(family, case, assignment, pairs=None):
    """Numeric value of one boundary case, with per-block breakdown.

    Returns (blocks, total) where blocks maps block name to a complex
    number and total is their sum; directly comparable to the exact
    CaseResult evaluated at the same assignment.  `pairs` is the case's
    ``case_factor_pairs``, one pair per block and no blocks for aI, built
    here when None.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    if pairs is None:
        pairs = case_factor_pairs(family, case)
    n = case.nalpha + case.j + case.k + 1
    pref = (-1j) ** n / math.factorial(case.j + case.k + 1)  # alpha! = 1
    blocks = {name: pref * sum(
        (_line_integral_numeric(poly, key) for key, poly in
         _pair_integrand_polys(fsym, ssym, family.rep, assignment).items()
         if any(poly)), 0j)
        for name, (fsym, ssym) in pairs.items()}
    return blocks, sum(blocks.values(), 0j)
