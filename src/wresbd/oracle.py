"""Independent numeric cross-check of the exact boundary computation.

The oracle evaluates every boundary case with numeric machinery that
bypasses the exact engine's algebraic rules at each stage where the
engine does something nontrivial:

* Clifford products and traces: literal representation matrices
  (8x8 spin / 64x64 exterior) instead of the normal form and trace rule.
  Each generator has one entry, +-1 or +-i, per column, so a matrix is
  held as (perm, phase), M e_s = phase[s] e_perm[s], and its products
  and traces are exact Gaussian integers;
* twisting endomorphisms: concrete random matrices on a model fibre, the
  draws of numpy's ``default_rng(seed)`` (SeedSequence, then PCG64),
  reproduced here, so endomorphism trace symbols become plain numbers;
* the sphere integral: the Gamma-function moment formula instead of
  the engine's double-factorial moment table;
* the xi_n line integral: the midpoint rule in theta = arctan(xi_n),
  which samples the integrand on the real line only, instead of the
  residue formula;
* the case prefactor: computed here from the case's multi-index.

Both integrals are linear, so the oracle takes them in the other order:
sphere moments of each traced term first, then one quadrature per block
and pole key.  It lowers each factor pair once for all seeds: it decodes
every coefficient into XI exponents, an exact value and its other
symbols, and takes the trace of each word pair and the sphere moment of
each row pair.  Each seed then only evaluates the rows and the fibre
traces and sums the products numerically, so the oracle never forms the
engine's exact Scalar product.  The representation matrices, and the
per-degree exterior traces of the (5.29) ledger entry, are defined here
and nowhere else.

The factor symbols come from the engine's own ``case_factor_pairs``, so
a fault in the catalog, pi+, the restriction, d/dx_n or d/dxi_n reaches
both sides unseen (see the fault-injection tests).  Agreement checks the
trace, line-integral, sphere-integral and prefactor stages end to end.
Beyond those symbols the oracle reads only names from the engine: the
fibre dimensions and the XI symbols.  It reads each reduced Clifford word
of a symbol as the engine keys it, a 12-bit mask, and decodes the bits
into generators itself.
"""

import math
from functools import lru_cache, reduce

from .boundary import case_factor_pairs
from .catalog import FAMILIES
from .clifford import EXT_DIM, SPIN_DIM
from .ring import XI_SYMBOLS

__all__ = ["OracleAssignment", "oracle_case", "oracle_cases", "rep_matrix",
           "word_matrix", "ext_degree_trace"]

_ALL_ENDO_FAMS = ("sigmaF", "Phi", "PhiStar", "sigmaFe", "w", "wStar")


# -- numpy's default_rng, reproduced -----------------------------------------

_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _seed_state(seed):
    """numpy's SeedSequence(seed).generate_state(4, uint64) for an int seed."""
    if seed < 0:
        raise ValueError("expected non-negative integer")
    entropy = [seed & _M32]  # 32-bit words, least significant first
    while seed >> 32:
        seed >>= 32
        entropy.append(seed & _M32)
    hash_const = 0x43B0D7E5

    def hashmix(value):
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * 0x931E8875 & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xCA01F9DD * x - 0x4973F715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const, words = 0x8B51F9DD, []
    for i in range(8):
        value = pool[i % 4] ^ hash_const
        hash_const = hash_const * 0x58F38DED & _M32
        value = value * hash_const & _M32
        words.append(value ^ value >> 16)
    return [words[k] | words[k + 1] << 32 for k in range(0, 8, 2)]


class default_rng:
    """numpy.random.default_rng(seed) for the draws the oracle makes.

    PCG64 (O'Neill, HMC-CS-2014-0905, 2014): a 128-bit LCG seeded by
    ``srandom`` from the SeedSequence state, each step output by XSL-RR.
    """

    def __init__(self, seed):
        s0, s1, i0, i1 = _seed_state(seed)
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        # srandom: one step from 0 gives inc, then add the state and step
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128

    def _next64(self):
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def uniform(self, low, high, size=None):
        """One float in [low, high), or a list of lists of shape size."""
        span = high - low
        if size is None:
            return low + span * ((self._next64() >> 11) * 2.0 ** -53)
        rows, cols = size
        return [[self.uniform(low, high) for _ in range(cols)]
                for _ in range(rows)]

    def integers(self, low, high):
        """One int in [low, high), for high - low == 2 only.

        Lemire's method on the low 32 bits of one u64.  Its rejection
        threshold, (2**32 - 2) mod 2, is 0, so it never rejects.  numpy
        keeps the high half for the next 32-bit draw; the oracle makes
        none, so it is dropped here.
        """
        if high - low != 2:
            raise ValueError("only a range of two integers is reproduced")
        return low + ((self._next64() & _M32) * 2 >> 32)


class OracleAssignment:
    """Seeded numeric values for every free symbol of the computation.

    The twisting endomorphisms are drawn as concrete dimF x dimF real
    matrices; their traces supply the values of the corresponding trace
    symbols, so the exact result and the numeric result are evaluated at
    one consistent data point.
    """

    def __init__(self, seed):
        rng = default_rng(seed)
        self.seed = seed
        self.h1 = rng.uniform(0.5, 2.0)
        self.dimf = rng.integers(1, 3)
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
            env["T:%s:%d" % (fam, j)] = sum(m[i][i] for i in range(self.dimf))
        self.env = env

    def endo_trace(self, word):
        """Numeric fibre trace of a product of endomorphism symbols."""
        if not word:
            return float(self.dimf)
        m = self.endos[word[0]]
        for key in word[1:]:
            m = [[sum(a * b for a, b in zip(row, col))
                  for col in zip(*self.endos[key])] for row in m]
        return sum(m[i][i] for i in range(self.dimf))


# -- representation matrices, as (perm, phase) --------------------------------

def _kron(a, b):
    (pa, fa), (pb, fb) = a, b
    n = len(pb)
    return (tuple(i * n + j for i in pa for j in pb),
            tuple(x * y for x in fa for y in fb))


def _mul(a, b):
    (pa, fa), (pb, fb) = a, b
    return tuple(pa[t] for t in pb), tuple(fa[t] * f for t, f in zip(pb, fb))


def _ext_gen(j, hat):
    """c(e_j) = wedge - contraction, hat-c(e_j) = wedge + contraction."""
    bit = 1 << j - 1
    # the sign of moving e_j past the basis vectors of S below it; c(e_j)
    # negates it on the forms that hold e_j, which it contracts
    sign = [(-1) ** (s & bit - 1).bit_count() for s in range(EXT_DIM)]
    return (tuple(s ^ bit for s in range(EXT_DIM)),
            tuple(-x if s & bit and not hat else x
                  for s, x in enumerate(sign)))


# spin: c(e_(2k+1)), c(e_(2k+2)) = sigma_3^(x k) x i sigma_(1,2) x I^(x 2-k)
_PAULI3, _ID2 = ((0, 1), (1, -1)), ((0, 1), (1, 1))
_I_PAULI = (((1, 0), (1j, 1j)), ((1, 0), (-1, 1)))  # i sigma_1, i sigma_2
_GENS = {
    "spin": {("C", 2 * k + n + 1):
             reduce(_kron, [_PAULI3] * k + [p] + [_ID2] * (2 - k))
             for k in range(3) for n, p in enumerate(_I_PAULI)},
    "ext": {(kind, j): _ext_gen(j, kind == "CH")
            for kind in ("C", "CH") for j in range(1, 7)},
}


# the generator of each bit of a word mask: C1..C6 are bits 0-5, CH1..CH6
# bits 6-11
_BIT_GENS = list(_GENS["ext"])


def rep_matrix(gen, rep):
    """(perm, phase) of one generator: rep is 'spin' (8x8) or 'ext' (64x64)."""
    # a list, so that an unhashable gen is only unequal
    if gen not in _BIT_GENS:
        raise ValueError("bad Clifford generator %r" % (gen,))
    if rep not in _GENS:
        raise ValueError("unknown representation %r" % (rep,))
    if gen not in _GENS[rep]:
        raise ValueError("CH generators have no spin representation")
    return _GENS[rep][gen]


def word_matrix(word, rep):
    """(perm, phase) of a generator word, multiplied out left to right."""
    dim = SPIN_DIM if rep == "spin" else EXT_DIM
    return reduce(_mul, (rep_matrix(g, rep) for g in word),
                  (tuple(range(dim)), (1,) * dim))


def ext_degree_trace(word, degree):
    """Trace of a word's exterior matrix restricted to forms of one degree."""
    perm, phase = word_matrix(word, "ext")
    return complex(sum(phase[s] for s in range(EXT_DIM)
                       if perm[s] == s and s.bit_count() == degree))


@lru_cache(maxsize=None)
def _mask_matrix(mask, rep):
    """(perm, phase) of the reduced word of a CliffordElement term key."""
    return word_matrix([g for b, g in enumerate(_BIT_GENS) if mask >> b & 1],
                       rep)


# Gamma((a+1)/2) for even a (zero for odd a) and Gamma((s+5)/2), indexed by
# XI exponent a and exponent sum s; see _moment.  The products of the two
# ledgers reach XI exponent 6.
_MAX_XI_EXP = 48
_HALF_GAMMA = [math.gamma((a + 1) / 2.0) if a % 2 == 0 else 0.0
               for a in range(_MAX_XI_EXP + 1)]
_SUM_GAMMA = [math.gamma((s + 5) / 2.0) for s in range(5 * _MAX_XI_EXP + 1)]
_XI_INDEX = {sym: i for i, sym in enumerate(XI_SYMBOLS)}


def _moment(exps):
    """Sphere moment of one row of integer exponents of XI1..XI5."""
    if min(exps) < 0 or max(exps) > _MAX_XI_EXP:
        raise ValueError("XI exponent outside 0..%d" % _MAX_XI_EXP)
    return (2.0 * math.prod(_HALF_GAMMA[a] for a in exps)
            / _SUM_GAMMA[sum(exps)])


@lru_cache(maxsize=None)
def _pair_trace(m1, m2, rep):
    """tr(M(m1) M(m2)) of two word masks, without forming the product."""
    (p1, f1), (p2, f2) = _mask_matrix(m1, rep), _mask_matrix(m2, rep)
    return complex(sum(f1[t] * f for s, (t, f) in enumerate(zip(p2, f2))
                       if p1[t] == s))


def _lower_factor(sym, rows):
    """[(pole key, [[(word mask, endo word, coeff)] per degree])].

    Each coefficient becomes a list of (row index, XI exponents), one per
    term; the row, appended to `rows`, is the term's exact value and its
    other (symbol, exponent) pairs.
    """
    out = []
    for key, poly in sym.terms.items():
        degrees = []
        for ce in poly:
            coeffs = []
            for (m, e), s in ce.terms.items():
                coeff = []
                for mono, c in s.monomials():
                    exps, rest = [0] * 5, []
                    for name, k in mono:
                        if name in _XI_INDEX:
                            exps[_XI_INDEX[name]] = k
                        else:
                            rest.append((name, k))
                    coeff.append((len(rows), exps))
                    rows.append((c.value(), rest))
                coeffs.append((m, e, coeff))
            degrees.append(coeffs)
        out.append((key, degrees))
    return out


def _pair_integrand_polys(fsym, ssym, rep, assignments):
    """The sphere-integrated numeric trace of one factor product per seed.

    Returns one dict per assignment, mapping the pole key (A, B) --
    denominator (xi_n - i)^A (xi_n + i)^B -- to the list of complex
    xi_n-polynomial coefficients of the numerator.  Everything that does
    not depend on the seed -- the decoded coefficients, the traces of the
    word pairs and the sphere moments of the row pairs -- is taken once,
    before the first seed.
    """
    rows = []
    first, second = _lower_factor(fsym, rows), _lower_factor(ssym, rows)
    keys, words, terms = {}, {}, []
    for k1, p1 in first:
        for k2, p2 in second:
            key = keys.setdefault((k1[0] + k2[0], k1[1] + k2[1]), len(keys))
            for i1, c1 in enumerate(p1):
                for i2, c2 in enumerate(p2):
                    for m1, e1, n1 in c1:
                        for m2, e2, n2 in c2:
                            tc = _pair_trace(m1, m2, rep)
                            if abs(tc) < 1e-14:
                                continue
                            word = words.setdefault(e1 + e2, len(words))
                            terms.append((key, i1 + i2, word, tc, [
                                (r1, r2, _moment([a + b for a, b
                                                  in zip(x1, x2)]))
                                for r1, x1 in n1 for r2, x2 in n2]))
    out = []
    for assignment in assignments:
        env = assignment.env
        values = []
        for v, rest in rows:
            for name, k in rest:
                v *= env[name] ** k
            values.append(v)
        traces = [assignment.endo_trace(w) for w in words]
        polys = [[] for _ in keys]
        for key, deg, word, tc, pairs in terms:
            te = traces[word]
            if te == 0.0:
                continue
            poly = polys[key]
            if len(poly) <= deg:
                poly.extend([0j] * (deg + 1 - len(poly)))
            poly[deg] += sum(values[r1] * values[r2] * mom
                             for r1, r2, mom in pairs) * tc * te
        out.append(dict(zip(keys, polys)))
    return out


# midpoint rule in theta: the largest node count, and the agreement of two
# successive sums relative to the sum of |summand|
_QUAD_MAX_NODES = 4096
_QUAD_TOL = 1e-13


def quad(f):
    """Integral of f over the real line, and an error estimate.

    Substitutes x = tan(theta) and sums f(tan theta) sec^2(theta) at the
    midpoints theta_k = -pi/2 + (k + 1/2) pi/N; f takes and returns lists.
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
        step = math.pi / n
        theta = [(k + 0.5) * step - math.pi / 2 for k in range(n)]
        values = f([math.tan(t) for t in theta])
        summand = [v / math.cos(t) ** 2 * step for v, t in zip(values, theta)]
        total = complex(sum(summand))
        if prev is not None and (abs(total - prev)
                                 <= _QUAD_TOL * sum(map(abs, summand))):
            return total, abs(total - prev)
        n, prev = 2 * n, total
    raise ArithmeticError("midpoint rule unconverged at %d nodes"
                          % _QUAD_MAX_NODES)


def _line_integral_numeric(poly, key):
    """Midpoint-rule integral of poly(xi_n) / ((xi_n-i)^A (xi_n+i)^B)."""
    a_pow, b_pow = key

    def f(xs):  # Horner's rule, from the highest degree
        return [reduce(lambda num, c: num * x + c, reversed(poly), 0j)
                / ((x - 1j) ** a_pow * (x + 1j) ** b_pow) for x in xs]

    return quad(f)[0]


def oracle_cases(family, case, assignments, pairs=None):
    """Numeric value of one boundary case at each assignment.

    Returns one (blocks, total) per assignment, where blocks maps block
    name to a complex number and total is their sum; directly comparable
    to the exact CaseResult evaluated at the same assignment.  `pairs` is
    the case's ``case_factor_pairs``, one pair per block and no blocks for
    aI, built here when None.  Each pair is lowered once for all the
    assignments.
    """
    family = FAMILIES[family] if isinstance(family, str) else family
    if pairs is None:
        pairs = case_factor_pairs(family, case)
    n = case.nalpha + case.j + case.k + 1
    pref = (-1j) ** n / math.factorial(case.j + case.k + 1)  # alpha! = 1
    blocks = [{} for _ in assignments]
    for name, (fsym, ssym) in pairs.items():
        for out, polys in zip(blocks, _pair_integrand_polys(
                fsym, ssym, family.rep, assignments)):
            out[name] = pref * sum(
                (_line_integral_numeric(poly, key)
                 for key, poly in polys.items() if any(poly)), 0j)
    return [(out, sum(out.values(), 0j)) for out in blocks]


def oracle_case(family, case, assignment, pairs=None):
    """``oracle_cases`` at one assignment: (blocks, total)."""
    return oracle_cases(family, case, [assignment], pairs)[0]
