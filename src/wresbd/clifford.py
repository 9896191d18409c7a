"""Clifford algebra elements with endomorphism symbols.

Two anticommuting families of generators over a 6-dimensional space:

    ('C', j)    c(e_j),      c(e_j)^2 = -1
    ('CH', j)   hat-c(e_j),  hat-c(e_j)^2 = +1

Distinct generators anticommute, including every mixed pair c(e_i) hat-c(e_j)
(also for i = j).  A reduced word is a 12-bit mask: bits 0-5 are
c(e_1)..c(e_6), bits 6-11 hat-c(e_1)..hat-c(e_6), and 0 is the empty word,
so ascending bits are the canonical order (all C's before all CH's, each by
index).  normal_form reduces a generator word to (sign, mask), and the
sign of a product of two reduced words comes from bit counts alone, as for
the bitmap basis blades of Dorst, Fontijne and Mann, Geometric Algebra for
Computer Science, ch. 19.

An element maps (mask, endomorphism word) keys to Scalar coefficients.  The
endomorphism word is a short tuple of formal bundle endomorphisms ('fam', j)
-- the connection-form symbols of the twisting bundle.  These commute with
the Clifford generators but not with each other; at most two survive any
product that the residue computation needs, so longer endomorphism words
are an error.  Traces of endomorphism words stay symbolic: T:fam:j for one
factor, T2:f1:j1:f2:j2 for an ordered pair, DIMF for the empty word.

One fibre-trace rule serves the 8-dimensional spin module (C only) and the
64-dimensional exterior module (C = wedge - contraction, CH = wedge +
contraction): only the empty word, mask 0, has a trace.  trace_ext_degree
splits the exterior trace by form degree, exactly.  The representation
matrices that check both rules live in the numeric oracle.

Products accumulate in place through one primitive, _mac: out += t1 * t2
on term dicts.  An accumulator holds only Scalars that it made itself, so
adding into them changes no operand; a key whose sum cancels keeps an
empty Scalar until _element drops it.
"""

from fractions import Fraction
from math import comb

from .ring import GRat, Scalar, _add_term, _coerce, _encode, _grat, _scalar
from .ring import _mac as _coeff_mac

__all__ = [
    "CliffordElement",
    "normal_form",
    "trace_spin",
    "trace_ext",
    "trace_ext_degree",
    "SPIN_DIM",
    "EXT_DIM",
]

SPIN_DIM = 8
EXT_DIM = 64

# the generator of each mask bit
_GENS = [("C", j) for j in range(1, 7)] + [("CH", j) for j in range(1, 7)]
# the bits that generator b passes on joining a reduced word: every bit
# above its own, and its own for a C, whose square is -1
_PAST = [4096 - (2 << b) | (1 << b if b < 6 else 0) for b in range(12)]
# generator -> (its bit, the bits it passes)
_GEN = {g: (1 << b, _PAST[b]) for b, g in enumerate(_GENS)}


def normal_form(word):
    """Reduce a generator word, tracking the anticommutation sign.

    Returns (sign, mask), sign +1 or -1.  Each generator, read left to
    right into the mask m so far, passes the (m & past).bit_count()
    generators of m in its entry's past, contracts with its own bit if m
    has it, and m becomes m ^ bit.
    """
    odd = m = 0
    for g in word:
        try:
            bit, past = _GEN[g]
        except (KeyError, TypeError):
            raise ValueError("bad Clifford generator %r" % (g,)) from None
        odd += (m & past).bit_count()
        m ^= bit
    return -1 if odd & 1 else 1, m


def _product_sign(m1, m2):
    """Sign of reduced word m1 times reduced word m2, whose mask is m1 ^ m2.

    The bits of m2 join m1 in ascending order, so each one passes only
    bits of m1.
    """
    odd = 0
    while m2:
        low = m2 & -m2
        odd += (m1 & _PAST[low.bit_length() - 1]).bit_count()
        m2 ^= low
    return -1 if odd & 1 else 1


def _mac(out, t1, t2):
    """out += t1 * t2 on term dicts {(mask, endomorphism word): Scalar},
    and return out.

    Masks multiply by XOR with _product_sign, endomorphism words by
    concatenation, and the coefficients through ring._mac into the Scalar
    that out holds at the key, made here on the key's first product.
    """
    for (m1, e1), c1 in t1.items():
        x1 = c1.terms
        for (m2, e2), c2 in t2.items():
            endo = e1 + e2
            if len(endo) > 2:
                raise ValueError(
                    "endomorphism word of length %d; the residue "
                    "computation never needs more than two factors" % len(endo)
                )
            key = (m1 ^ m2, endo)
            v = out.get(key)
            if v is None:
                v = out[key] = _scalar({})
            _coeff_mac(v.terms, x1, c2.terms, _product_sign(m1, m2))
    return out


def _add(out, t):
    """out += t on term dicts, and return out; a key new to out takes a
    copy of t's Scalar, so that out adds into Scalars of its own."""
    for k, c in t.items():
        v = out.get(k)
        if v is None:
            out[k] = _scalar(dict(c.terms))
        else:
            v = v.terms
            for m, x in c.terms.items():
                _add_term(v, m, x)
    return out


def _element(out):
    """The CliffordElement of an accumulator, its emptied Scalars dropped."""
    r = CliffordElement.__new__(CliffordElement)
    r.terms = {k: c for k, c in out.items() if c.terms}
    return r


class CliffordElement:
    """Linear combination of (word mask, endomorphism word) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                # a stale word tuple would make a separate, wrong term
                if type(k[0]) is not int or not 0 <= k[0] < 4096:
                    raise TypeError("term key %r: the word must be a 12-bit "
                                    "int mask" % (k,))
                c = Scalar._coerce(c)
                if not c.is_zero():
                    self.terms[k] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def scalar(cls, c):
        return cls({(0, ()): c})

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def c(cls, j, coeff=1):
        return cls.word((("C", j),), coeff)

    @classmethod
    def ch(cls, j, coeff=1):
        return cls.word((("CH", j),), coeff)

    @classmethod
    def endo(cls, fam, j, coeff=1):
        return cls({(0, ((fam, j),)): Scalar._coerce(coeff)})

    @classmethod
    def word(cls, gens, coeff=1):
        sign, m = normal_form(gens)
        if sign < 0:
            coeff = -coeff
        r = cls.__new__(cls)
        if isinstance(coeff, Scalar):
            r.terms = {(m, ()): coeff} if coeff.terms else {}
        else:
            c = _coerce(coeff)
            r.terms = {(m, ()): _scalar({0: c})} if c else {}
        return r

    # -- algebra ----------------------------------------------------------

    # an operand the algebra cannot coerce goes to its own reflected method
    def __add__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return _element(_add(_add({}, self.terms), other.terms))

    __radd__ = __add__

    def __neg__(self):
        r = CliffordElement.__new__(CliffordElement)
        r.terms = {k: -c for k, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self.__add__(-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Scalar)):
            c0 = Scalar._coerce(other)
            return self.map_scalars(lambda c: c * c0)
        if not isinstance(other, CliffordElement):
            return NotImplemented
        return _element(_mac({}, self.terms, other.terms))

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a scalar-only element hashes as its Scalar
        if self.terms.keys() <= {(0, ())}:
            return hash(self.terms.get((0, ()), 0))
        return hash(frozenset(self.terms.items()))

    def is_zero(self):
        return not self.terms

    @staticmethod
    def _coerce(x):
        if isinstance(x, CliffordElement):
            return x
        if isinstance(x, (int, Fraction, GRat, Scalar)):
            return CliffordElement.scalar(x)
        raise TypeError("cannot coerce %r to CliffordElement" % (x,))

    def map_scalars(self, f):
        """Apply f to every coefficient; drops terms that map to zero."""
        out = {}
        for k, c in self.terms.items():
            v = f(c)
            if not v.is_zero():
                out[k] = v
        r = CliffordElement.__new__(CliffordElement)
        r.terms = out
        return r

    def has_ch(self):
        return any(m >> 6 for m, _ in self.terms)

    def __repr__(self):
        if not self.terms:
            return "CliffordElement(0)"
        words = {k: [g for b, g in enumerate(_GENS) if k[0] >> b & 1]
                 for k in self.terms}
        bits = []
        for k in sorted(self.terms,
                        key=lambda k: (len(words[k]), words[k], k[1])):
            c, w, e = self.terms[k], words[k], k[1]
            gens = ".".join("%s%d" % (("c" if kind == "C" else "ch"), j) for kind, j in w)
            endo = ".".join("%s(%s)" % (fam, j) for fam, j in e)
            name = ".".join(x for x in (gens, endo) if x) or "1"
            bits.append("[%s]*(%s)" % (name, c.render()))
        return "CliffordElement(%s)" % " + ".join(bits)


def _endo_trace_symbol(endo):
    if not endo:
        return "DIMF"
    if len(endo) == 1:
        return "T:%s:%d" % endo[0]
    return "T2:%s:%d:%s:%d" % (endo[0] + endo[1])


def _trace(elt, dim):
    """Trace over a dim-dimensional Clifford module tensored with F.

    With an even number of generators (6 spin, 12 exterior) every reduced
    nonempty word anticommutes with some generator and is traceless; each
    empty-word term is scaled by dim, on the coefficient's integers, times
    the trace of its endomorphisms, a one-symbol monomial, so its packed
    key adds to each monomial.
    """
    out = {}
    for (mask, endo), c in elt.terms.items():
        if not mask:
            t = _encode([(_endo_trace_symbol(endo), 1)])
            for m, x in c.terms.items():
                _add_term(out, m + t, _grat(x.a * dim, x.b * dim, x.d))
    return _scalar(out)


def trace_spin(elt):
    """Trace over the 8-dimensional spin module tensored with F."""
    if elt.has_ch():
        raise ValueError("CH generators have no spin representation")
    return _trace(elt, SPIN_DIM)


def trace_ext(elt):
    """Trace over the 64-dimensional exterior module tensored with F."""
    return _trace(elt, EXT_DIM)


def trace_ext_degree(word, degree):
    """Exact trace of a generator word on the exterior forms of one degree.

    Each generator maps a basis form e_S to +-e_(S xor {j}), so a reduced
    word whose indices do not pair up as c_j chat_j has no diagonal entry.
    c_j chat_j acts as +1 on forms containing e_j and -1 on the others, so
    a product of p such pairs has trace [t^m] (1+t)^(6-p) (t-1)^p on
    m-forms; the reduced word (p C's, then p CH's) is (-1)^(p(p-1)/2) times it.
    """
    sign, m = normal_form(word)
    if m & 63 != m >> 6:
        return 0
    p = (m & 63).bit_count()
    coeff = sum(comb(6 - p, degree - k) * comb(p, k) * (-1) ** (p - k)
                for k in range(max(0, degree - 6 + p), min(p, degree) + 1))
    return sign * (-1) ** (p * (p - 1) // 2) * coeff
