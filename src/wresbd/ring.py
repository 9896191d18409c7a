"""Exact scalar coefficient ring.

Scalars are finite sums  c * m  where c is a Gaussian rational (a + b*i)/d,
held as three integers in lowest terms, and m is a monomial over a small
fixed alphabet:

    H1      h'(0), the normal derivative of the collar metric factor at x_n=0
    DIMF    rank of the auxiliary flat bundle F
    OMEGA4  volume of the unit 4-sphere
    PI      the circle constant
    K       extrinsic curvature scalar (only after the final substitution)
    SH      square root of the collar factor h(x_n); bookkeeping symbol that
            carries normal derivatives, equal to 1 on the boundary
    XI1..XI5  tangential covariables
    T:fam:j   trace of a single endomorphism symbol (see clifford.py)
    T2:f1:j1:f2:j2  trace of an ordered product of two endomorphism symbols

A monomial is one int, a packed exponent vector (Monagan and Pearce,
"Polynomial division using dynamic arrays, heaps, and packed exponent
vectors", CASC 2007): each symbol owns a 16-bit field, the named symbols
fields 0-10 and any other symbol the next free one on first use, so old
monomials keep their meaning.  A field holds a signed exponent, |e| <
2**15, so the empty monomial is 0 and a product of monomials is the sum
of their ints.  Constructors reject an exponent outside its field and
products add unchecked: assemble() and verify meet 47 symbols and no
|exponent| above 6, sums over the fixed factors of the residue formula.
A negative field borrows from the ones above it, so _exponent and
_decode bias the fields before reading them.  Output decodes monomials
in _sym_rank order, so the field order never shows.

Everything downstream (Clifford elements, rational symbols) keeps its
coefficients in this ring, so the whole pipeline is exact.
"""

import sys
from fractions import Fraction
from math import fsum, gcd, lcm

__all__ = [
    "GRat",
    "Scalar",
    "XI_SYMBOLS",
    "sphere_moment",
    "sphere_integrate",
]

XI_SYMBOLS = ("XI1", "XI2", "XI3", "XI4", "XI5")

# display / sort order of the named symbols; trace symbols come after these,
# ordered lexicographically
_BASE_ORDER = ("PI", "H1", "K", "OMEGA4", "DIMF", "SH") + XI_SYMBOLS
_RANK = {s: i for i, s in enumerate(_BASE_ORDER)}


def _sym_rank(sym):
    r = _RANK.get(sym)
    if r is not None:
        return (0, r, "")
    return (1, 0, sym)


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError("expected int or Fraction, got %r" % (x,))


def _grat(a, b, d):
    """The GRat (a + b*i)/d in lowest terms, for integers a, b and d > 0."""
    g = gcd(a, b, d)
    x = object.__new__(GRat)
    x.a, x.b, x.d = a // g, b // g, d // g
    return x


class GRat:
    """Gaussian rational (a + b*i)/d held as integers.

    The triple is canonical: d > 0 and gcd(a, b, d) = 1, so zero is
    (0, 0, 1).  ``re`` and ``im`` read the parts back as Fractions.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        re, im = _as_fraction(re), _as_fraction(im)
        self.d = d = lcm(re.denominator, im.denominator)
        self.a = re.numerator * d // re.denominator
        self.b = im.numerator * d // im.denominator

    re = property(lambda self: Fraction(self.a, self.d))
    im = property(lambda self: Fraction(self.b, self.d))

    # an operand the ring cannot coerce goes to its own reflected method
    def __add__(self, other):
        try:
            return _gadd(self, _coerce(other))
        except TypeError:
            return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return _coerce(other) - self

    def __mul__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        a, b, c, e = self.a, self.b, other.a, other.b
        return _grat(a * c - b * e, a * e + b * c, self.d * other.d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        a, b, c, e = self.a, self.b, other.a, other.b
        n = c * c + e * e
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        f = other.d
        return _grat((a * c + b * e) * f, (b * c - a * e) * f, self.d * n)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("GRat power needs an exponent >= 0, got %r" % (n,))
        a, b = 1, 0
        for _ in range(n):
            a, b = a * self.a - b * self.b, a * self.b + b * self.a
        return _grat(a, b, self.d ** n)

    def __neg__(self):
        return _grat(-self.a, -self.b, self.d)

    def __eq__(self, other):
        try:
            other = _coerce(other)
        except TypeError:
            return NotImplemented
        return (self.a, self.b, self.d) == (other.a, other.b, other.d)

    def __hash__(self):
        # a real value hashes as its Fraction, like an equal int or Fraction
        return hash((self.a, self.b, self.d) if self.b else self.re)

    def __bool__(self):
        return bool(self.a or self.b)

    def value(self):
        return complex(self.a / self.d, self.b / self.d)

    def __repr__(self):
        return "GRat(%s, %s)" % (self.re, self.im)

    def __str__(self):
        return _coeff_str(self)


GRat.I = GRat(0, 1)


def _gadd(x, y):
    d, e = x.d, y.d
    if d == e:
        return _grat(x.a + y.a, x.b + y.b, d)
    return _grat(x.a * e + y.a * d, x.b * e + y.b * d, d * e)


def _coerce(x):
    if isinstance(x, GRat):
        return x
    if type(x) is int:
        return _grat(x, 0, 1)
    if isinstance(x, (int, Fraction)):
        return GRat(x, 0)
    raise TypeError("cannot coerce %r to GRat" % (x,))


def _coeff_str(c):
    """Render a Gaussian rational: 3/4, -2, I, -1/2*I, (1+2*I)."""
    if c.im == 0:
        return str(c.re)
    ims = {1: "I", -1: "-I"}.get(c.im, "%s*I" % c.im)
    if c.re == 0:
        return ims
    return "(%s%s%s)" % (c.re, "" if ims.startswith("-") else "+", ims)


# -- packed monomials ---------------------------------------------------

_W = 16                      # bits per field; _decode reads them as "H"
_HALF = 1 << _W - 1          # an exponent e has |e| < _HALF
_MASK = (1 << _W) - 1
_NAMES = []                  # field k -> symbol
_SHIFT = {}                  # symbol -> bit offset _W * k of its field
_BIAS = [0]                  # _BIAS[k]: _HALF in each of the fields 0..k-1


def _shift(sym):
    """The bit offset of sym's field, giving a new symbol the next field."""
    s = _SHIFT.get(sym)
    if s is None:
        s = _SHIFT[sym] = _W * len(_NAMES)
        _NAMES.append(sym)
        _BIAS.append(_BIAS[-1] + (_HALF << s))
    return s


for _sym in _BASE_ORDER:
    _shift(_sym)
_NBASE = len(_NAMES)


def _encode(pairs):
    """The monomial of (symbol, exponent) pairs; a repeated symbol adds up,
    and a sum outside the field raises ValueError instead of carrying."""
    acc = {}
    for s, e in pairs:
        acc[s] = acc.get(s, 0) + e
    m = 0
    for s, e in acc.items():
        if not -_HALF < e < _HALF:
            raise ValueError("exponent %d of %s leaves its %d-bit field"
                             % (e, s, _W))
        m += e << _shift(s)
    return m


def _exponent(m, sym):
    """The exponent of sym in m, read with every field up to sym's biased
    to be non-negative, so that a negative lower field borrows nothing."""
    s = _SHIFT.get(sym)
    if s is None:
        return 0
    return ((m + _BIAS[s // _W + 1]) >> s & _MASK) - _HALF


def _pair_rank(pair):
    return _sym_rank(pair[0])


def _decode(m):
    """The (symbol, exponent) pairs of monomial m, in _sym_rank order."""
    n = abs(m).bit_length() // _W + 1   # the fields up to the top nonzero one
    digits = memoryview((m + _BIAS[n]).to_bytes(2 * n, sys.byteorder))
    pairs = [(_NAMES[k], e - _HALF)
             for k, e in enumerate(digits.cast("H")) if e != _HALF]
    if n > _NBASE + 1:  # two trace fields are not in name order
        pairs.sort(key=_pair_rank)
    return tuple(pairs)


def _scalar(terms):
    """A Scalar over a dict of nonzero GRats, taken as it is."""
    s = Scalar.__new__(Scalar)
    s.terms = terms
    return s


def _add_term(out, m, c):
    """out[m] += c, dropping a zero sum; c is a nonzero GRat."""
    v = out.get(m)
    v = c if v is None else _gadd(v, c)
    if v:
        out[m] = v
    else:
        del out[m]


class Scalar:
    """Exact polynomial over the coefficient alphabet with GRat coefficients,
    ``terms`` mapping each packed monomial to its nonzero coefficient."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for m, c in terms.items():
                c = _coerce(c)
                if c:
                    self.terms[m] = c

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def from_grat(cls, c):
        c = _coerce(c)
        return _scalar({0: c} if c else {})

    @classmethod
    def one(cls):
        return cls.from_grat(1)

    @classmethod
    def i(cls):
        return cls.from_grat(GRat.I)

    @classmethod
    def rational(cls, p, q=1):
        return cls.from_grat(Fraction(p, q))

    @classmethod
    def sym(cls, name, exp=1, coeff=1):
        return cls({_encode([(name, exp)]): coeff})

    # -- ring operations ----------------------------------------------

    # an operand the ring cannot coerce goes to its own reflected method
    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = dict(self.terms)
        for m, c in other.terms.items():
            _add_term(out, m, c)
        return _scalar(out)

    __radd__ = __add__

    def __neg__(self):
        return _scalar({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self.__add__(-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        """Monomials multiply by int addition, coefficients on the GRat
        integers."""
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        out = {}
        for m1, x in self.terms.items():
            for m2, y in other.terms.items():
                _add_term(out, m1 + m2, _grat(x.a * y.a - x.b * y.b,
                                              x.a * y.b + x.b * y.a, x.d * y.d))
        return _scalar(out)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a constant hashes as its coefficient, the zero Scalar as 0
        if self.terms.keys() <= {0}:
            return hash(self.terms.get(0, 0))
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, (int, Fraction, GRat)):
            return Scalar.from_grat(x)
        raise TypeError("cannot coerce %r to Scalar" % (x,))

    def monomials(self):
        """(pairs, coeff) per term, in the order of ``terms``; pairs are the
        monomial's (symbol, exponent), in _sym_rank order."""
        return [(_decode(m), c) for m, c in self.terms.items()]

    # -- calculus helpers ----------------------------------------------

    def d_xn(self):
        """Normal derivative at the boundary point.

        Each power of SH carries half a unit of H1 (SH = sqrt(h), and
        h'(0) = H1 with h(0) = 1); every other symbol is constant in x_n.
        """
        out, h1 = {}, 1 << _SHIFT["H1"]
        for m, c in self.terms.items():
            k = _exponent(m, "SH")
            if k:
                _add_term(out, m + h1, _grat(c.a * k, c.b * k, c.d * 2))
        return _scalar(out)

    def substitute(self, mapping):
        """Replace symbols by Scalars (other symbols pass through).

        A constant replacement, such as SH = 1 at restriction, scales the
        coefficient; only a non-constant one is multiplied in, so it may
        replace positive powers only (a negative one raises ValueError).
        """
        reps = []
        for s, rep in sorted(mapping.items(), key=_pair_rank):
            rep = Scalar._coerce(rep)
            if s in _SHIFT:
                k = (_coerce(rep.terms.get(0, 0))
                     if rep.terms.keys() <= {0} else None)
                reps.append((s, _SHIFT[s], rep, k))
        out = {}
        for m, c in self.terms.items():
            factors = []
            for s, shift, rep, k in reps:
                e = _exponent(m, s)
                if not e:
                    continue
                m -= e << shift
                if k is None:
                    if e < 0:
                        raise ValueError("cannot substitute the non-constant "
                                         "%s into %s**%d" % (rep, s, e))
                    factors += [rep] * e
                elif k != 1:
                    c = c * k ** e if e > 0 else c / k ** -e
            term = Scalar({m: c})
            for rep in factors:
                term = term * rep
            for m, c in term.terms.items():
                _add_term(out, m, c)
        return _scalar(out)

    def evaluate(self, assignment):
        """Numeric value given symbol -> number (must cover all symbols),
        summed by fsum, so independent of the order the terms were built in."""
        vals = []
        for pairs, c in self.monomials():
            v = c.value()
            for s, e in pairs:
                v *= assignment[s] ** e
            vals.append(v)
        return complex(fsum(v.real for v in vals), fsum(v.imag for v in vals))

    # -- rendering ------------------------------------------------------

    def render(self):
        """Canonical text form, e.g. '-15/16*PI*H1*OMEGA4*DIMF'."""
        if not self.terms:
            return "0"
        parts = []
        for pairs, c in sorted(self.monomials(), key=lambda t: [
                (_sym_rank(s), e) for s, e in t[0]]):
            cs = _coeff_str(c)
            factors = []
            for s, e in pairs:
                factors.append(s if e == 1 else "%s**%d" % (s, e))
            if factors:
                if cs == "1":
                    body = "*".join(factors)
                elif cs == "-1":
                    body = "-" + "*".join(factors)
                else:
                    body = cs + "*" + "*".join(factors)
            else:
                body = cs
            parts.append(body)
        out = parts[0]
        for p in parts[1:]:
            if p.startswith("-"):
                out += " - " + p[1:]
            else:
                out += " + " + p
        return out

    def __repr__(self):
        return "Scalar(%s)" % self.render()

    __str__ = render


def _double_factorial(n):
    r = 1
    while n > 1:
        r *= n
        n -= 2
    return r


def sphere_moment(exps):
    """Exact moment of a XI-monomial over the unit 4-sphere, in units of
    the sphere volume: integral of prod xi_j^(e_j) dsigma = moment * OMEGA4.

    Zero when any exponent is odd; for exponents 2a_j the value is
    prod (2a_j - 1)!! / prod_{m=1..A} (3 + 2m) with A = sum a_j.  A negative
    exponent raises ValueError: near xi_j = 0 that integral diverges.
    """
    if any(e < 0 for e in exps):
        raise ValueError("sphere moment of a negative power: %r" % (exps,))
    if any(e % 2 for e in exps):
        return Fraction(0)
    num = 1
    a_total = 0
    for e in exps:
        num *= _double_factorial(e - 1)
        a_total += e // 2
    den = 1
    for m in range(1, a_total + 1):
        den *= 3 + 2 * m
    return Fraction(num, den)


def sphere_integrate(s):
    """Integrate a Scalar over the unit sphere in the tangential covariables.

    XI-monomials are replaced by their exact moments times OMEGA4; all
    other symbols pass through as spectators.
    """
    out = {}
    for m, c in s.terms.items():
        exps = [_exponent(m, x) for x in XI_SYMBOLS]
        mom = sphere_moment(exps)
        if mom:
            for x, e in zip(XI_SYMBOLS, exps):
                m -= e << _SHIFT[x]
            _add_term(out, m + (1 << _SHIFT["OMEGA4"]), c * mom)
    return _scalar(out)
