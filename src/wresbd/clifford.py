"""Clifford algebra elements with endomorphism symbols.

Two anticommuting families of generators over a 6-dimensional space:

    ('C', j)    c(e_j),      c(e_j)^2 = -1
    ('CH', j)   hat-c(e_j),  hat-c(e_j)^2 = +1

Distinct generators anticommute, including every mixed pair c(e_i) hat-c(e_j)
(also for i = j).  Words are kept in a canonical sorted order (all C's before
all CH's, each by index) with signs tracked by the bubble normal form.

Elements may carry a short word of formal bundle endomorphisms ('fam', j) --
the connection-form symbols of the twisting bundle.  These commute with the
Clifford generators but not with each other; at most two survive any product
that the residue computation needs, so longer endomorphism words are an
error.  Traces of endomorphism words stay symbolic: T:fam:j for one factor,
T2:f1:j1:f2:j2 for an ordered pair, DIMF for the empty word.

One fibre-trace rule serves the 8-dimensional spin module (C only) and the
64-dimensional exterior module (C = wedge - contraction, CH = wedge +
contraction): only the empty word has a trace.  trace_ext_degree splits
the exterior trace by form degree, exactly.  The representation matrices
that check both rules live in the numeric oracle.
"""

from fractions import Fraction
from math import comb

from .ring import GRat, Scalar

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


def _gkey(g):
    kind, j = g
    return (0 if kind == "C" else 1, j)


def _check_gen(g):
    if (
        not isinstance(g, tuple)
        or len(g) != 2
        or g[0] not in ("C", "CH")
        or not 1 <= g[1] <= 6
    ):
        raise ValueError("bad Clifford generator %r" % (g,))


def normal_form(word):
    """Sort a generator word, tracking the anticommutation sign.

    Returns (sign, canonical_word).  Repeated generators contract via
    c^2 = -1 / hat-c^2 = +1.  sign is +1 or -1.
    """
    sign = 1
    out = []
    for g in word:
        _check_gen(g)
        pos = len(out)
        while pos > 0 and _gkey(out[pos - 1]) > _gkey(g):
            pos -= 1
            sign = -sign
        if pos > 0 and out[pos - 1] == g:
            out.pop(pos - 1)
            if g[0] == "C":
                sign = -sign
        else:
            out.insert(pos, g)
    return sign, tuple(out)


def _coerce_scalar(x):
    if isinstance(x, Scalar):
        return x
    if isinstance(x, (int, Fraction, GRat)):
        return Scalar.from_grat(x)
    raise TypeError("cannot use %r as a coefficient" % (x,))


class CliffordElement:
    """Linear combination of (clifford word, endomorphism word) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = {}
        if terms:
            for k, c in terms.items():
                c = _coerce_scalar(c)
                if not c.is_zero():
                    self.terms[k] = c

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls):
        return cls()

    @classmethod
    def scalar(cls, c):
        c = _coerce_scalar(c)
        return cls({((), ()): c})

    @classmethod
    def one(cls):
        return cls.scalar(1)

    @classmethod
    def gen(cls, kind, j, coeff=1):
        _check_gen((kind, j))
        return cls({(((kind, j),), ()): _coerce_scalar(coeff)})

    @classmethod
    def c(cls, j, coeff=1):
        return cls.gen("C", j, coeff)

    @classmethod
    def ch(cls, j, coeff=1):
        return cls.gen("CH", j, coeff)

    @classmethod
    def endo(cls, fam, j, coeff=1):
        return cls({((), ((fam, j),)): _coerce_scalar(coeff)})

    @classmethod
    def word(cls, gens, coeff=1):
        sign, w = normal_form(tuple(gens))
        c = _coerce_scalar(coeff)
        return cls({(w, ()): -c if sign < 0 else c})

    # -- algebra ----------------------------------------------------------

    def _add_term(self, out, key, coeff):
        v = out.get(key)
        v = coeff if v is None else v + coeff
        if v.is_zero():
            out.pop(key, None)
        else:
            out[key] = v

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            self._add_term(out, k, c)
        r = CliffordElement.__new__(CliffordElement)
        r.terms = out
        return r

    __radd__ = __add__

    def __neg__(self):
        r = CliffordElement.__new__(CliffordElement)
        r.terms = {k: -c for k, c in self.terms.items()}
        return r

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Scalar)):
            c0 = _coerce_scalar(other)
            r = CliffordElement.__new__(CliffordElement)
            r.terms = {}
            for k, c in self.terms.items():
                v = c * c0
                if not v.is_zero():
                    r.terms[k] = v
            return r
        other = self._coerce(other)
        out = {}
        for (w1, e1), c1 in self.terms.items():
            for (w2, e2), c2 in other.terms.items():
                endo = e1 + e2
                if len(endo) > 2:
                    raise ValueError(
                        "endomorphism word of length %d; the residue "
                        "computation never needs more than two factors" % len(endo)
                    )
                sign, w = normal_form(w1 + w2)
                c = c1 * c2
                if sign < 0:
                    c = -c
                self._add_term(out, (w, endo), c)
        r = CliffordElement.__new__(CliffordElement)
        r.terms = out
        return r

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Scalar)):
            return self * other
        return self._coerce(other) * self

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        # a scalar-only element hashes as its Scalar
        if self.terms.keys() <= {((), ())}:
            return hash(self.terms.get(((), ()), 0))
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
        return any(g[0] == "CH" for w, _ in self.terms for g in w)

    def __repr__(self):
        if not self.terms:
            return "CliffordElement(0)"
        bits = []
        for (w, e) in sorted(self.terms, key=lambda k: (len(k[0]), k)):
            c = self.terms[(w, e)]
            gens = ".".join("%s%d" % (("c" if kind == "C" else "ch"), j) for kind, j in w)
            endo = ".".join("%s(%s)" % (fam, j) for fam, j in e)
            name = ".".join(x for x in (gens, endo) if x) or "1"
            bits.append("[%s]*(%s)" % (name, c.render()))
        return "CliffordElement(%s)" % " + ".join(bits)


def _endo_trace_scalar(endo):
    if not endo:
        return Scalar.sym("DIMF")
    if len(endo) == 1:
        fam, j = endo[0]
        return Scalar.sym("T:%s:%d" % (fam, j))
    (f1, j1), (f2, j2) = endo
    return Scalar.sym("T2:%s:%d:%s:%d" % (f1, j1, f2, j2))


def _trace(elt, dim):
    """Trace over a dim-dimensional Clifford module tensored with F.

    With an even number of generators (6 spin, 12 exterior) every reduced
    nonempty word anticommutes with some generator and is traceless.
    """
    out = Scalar.zero()
    for (w, endo), c in elt.terms.items():
        if not w:
            out = out + c * dim * _endo_trace_scalar(endo)
    return out


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
    m-forms.  The reduced word differs from that product by a sign.
    """
    sign, w = normal_form(word)
    pairs = [j for kind, j in w if kind == "C"]
    if pairs != [j for kind, j in w if kind == "CH"]:
        return 0
    order, _ = normal_form([g for j in pairs for g in (("C", j), ("CH", j))])
    p = len(pairs)
    coeff = sum(comb(6 - p, degree - k) * comb(p, k) * (-1) ** (p - k)
                for k in range(max(0, degree - 6 + p), min(p, degree) + 1))
    return sign * order * coeff
