"""Rational symbol calculus in the normal covariable.

A RationalSymbol is a rational function of xi_n with CliffordElement
coefficients, in one of two phases:

* unrestricted: denominators are powers of |xi|^2 = SH^2(XI1^2+..+XI5^2)
  + xi_n^2.  This is the phase where every derivative is taken; terms
  is a dict {q: numerator} for denominator |xi|^(2q).

* restricted: evaluated at the boundary (SH = 1) on the unit tangential
  sphere, so |xi|^2 = 1 + xi_n^2 = (xi_n - i)(xi_n + i) and denominators
  factor over the two poles; terms is a dict {(a, b): numerator} for
  denominator (xi_n - i)^a (xi_n + i)^b.

Numerators are polynomials in xi_n stored as coefficient lists (index =
power).  Coefficient scalars may still carry the tangential covariables
XI1..XI5 polynomially; those are spectators here and are integrated over
the sphere later.

The boundary projection pi_plus keeps the principal part at the pole
xi_n = +i of a proper restricted symbol (numerator degree below the
denominator degree in every term, as for every symbol of negative order).
integrate_line evaluates the xi_n integral over the whole real line
exactly as 2*pi*i times the residue at +i.

Each rule is stated once.  One quotient rule serves both derivatives, in
x_n and in xi_n (no symbol is derived tangentially); a restricted symbol
has neither.
One expansion at the pole xi_n = +i, the Gaussian-rational weights of
_pole_weights for each numerator power, serves pi_plus and
integrate_line: the projection scales every numerator coefficient by all
of its weights, the line integral by the last one, the residue.  Nothing
expands at -i: the tests' pi_minus is pi_plus reflected in xi_n.
"""

from fractions import Fraction
from functools import lru_cache
from math import comb

from .clifford import CliffordElement
from .ring import GRat, Scalar

__all__ = [
    "RationalSymbol",
    "pi_plus",
    "integrate_line",
    "NotIntegrable",
]

CE = CliffordElement


class NotIntegrable(ValueError):
    """Raised when the xi_n integrand does not decay fast enough."""


# -- polynomial helpers (coefficient lists of CliffordElements) ------------


def _trim(p):
    while p and p[-1].is_zero():
        p.pop()
    return p


def _poly_add(p, q):
    n = max(len(p), len(q))
    out = []
    for k in range(n):
        a = p[k] if k < len(p) else CE.zero()
        b = q[k] if k < len(q) else CE.zero()
        out.append(a + b)
    return _trim(out)


def _poly_mul(p, q):
    if not p or not q:
        return []
    out = [CE.zero() for _ in range(len(p) + len(q) - 1)]
    for i, a in enumerate(p):
        if a.is_zero():
            continue
        for j, b in enumerate(q):
            if b.is_zero():
                continue
            out[i + j] = out[i + j] + a * b
    return _trim(out)


def _poly_scale(p, s):
    return _trim([CE._coerce(s) * c for c in p])


def _poly_deriv(p):
    return _trim([p[k] * k for k in range(1, len(p))])


def _poly_map(p, f):
    return _trim([c.map_scalars(f) for c in p])


_I = GRat(0, 1)


@lru_cache(maxsize=None)
def _pole_weights(n, m, d):
    """Principal part at xi = i of xi^d / ((xi - i)^n (xi + i)^m).

    With xi = i + u these are the u^t coefficients, t < n, of
    (u + i)^d (u + 2i)^-m; weight t belongs to (xi - i)^(t - n), so the
    last one is the residue.  Empty when n = 0.
    """
    inv = GRat(1) / (_I * 2)
    shift = [comb(d, k) * _I ** (d - k) for k in range(min(d, n - 1) + 1)]
    tail = [inv ** m]
    for s in range(n - 1):
        tail.append(tail[-1] * inv * Fraction(-(m + s), s + 1))
    return tuple(sum(shift[k] * tail[t - k] for k in range(min(t, d) + 1))
                 for t in range(n))


def b0_scalar():
    """|xi'|^2 = SH^2 (XI1^2 + ... + XI5^2)."""
    out = Scalar.zero()
    for j in range(1, 6):
        out = out + Scalar.sym("SH", 2) * Scalar.sym("XI%d" % j, 2)
    return out


def b_poly():
    """|xi|^2 = |xi'|^2 + xi_n^2 as a xi_n-polynomial."""
    return [CE.scalar(b0_scalar()), CE.zero(), CE.one()]


class RationalSymbol:
    """Rational function of xi_n with CliffordElement coefficients."""

    __slots__ = ("restricted", "terms")

    def __init__(self, restricted, terms=None):
        self.restricted = restricted
        self.terms = {}
        if terms:
            for k, p in terms.items():
                p = _trim(list(p))
                if p:
                    self._check_key(k)
                    self.terms[k] = p

    def _check_key(self, k):
        if self.restricted:
            if not (isinstance(k, tuple) and len(k) == 2
                    and all(isinstance(x, int) and x >= 0 for x in k)):
                raise ValueError("restricted key must be (a, b), got %r" % (k,))
        else:
            if not (isinstance(k, int) and k >= 0):
                raise ValueError("unrestricted key must be int >= 0, got %r" % (k,))

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, restricted=False):
        return cls(restricted)

    @classmethod
    def constant(cls, ce, restricted=False):
        key = (0, 0) if restricted else 0
        return cls(restricted, {key: [CE._coerce(ce)]})

    # -- linear structure -------------------------------------------------

    def _same_phase(self, other):
        if self.restricted != other.restricted:
            raise ValueError("mixing restricted and unrestricted symbols")

    def __add__(self, other):
        other = self._coerce(other)
        self._same_phase(other)
        out = {k: list(p) for k, p in self.terms.items()}
        for k, p in other.terms.items():
            out[k] = _poly_add(out.get(k, []), p)
        return RationalSymbol(self.restricted, out)

    __radd__ = __add__

    def __neg__(self):
        return self * -1

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def _coerce(self, x):
        if isinstance(x, RationalSymbol):
            return x
        if isinstance(x, (int, Fraction, GRat, Scalar, CE)):
            return RationalSymbol.constant(x, self.restricted)
        raise TypeError("cannot coerce %r to RationalSymbol" % (x,))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Scalar)):
            return self.__rmul__(other)  # central scalars commute
        other = self._coerce(other)
        self._same_phase(other)
        out = {}
        for k1, p1 in self.terms.items():
            for k2, p2 in other.terms.items():
                if self.restricted:
                    k = (k1[0] + k2[0], k1[1] + k2[1])
                else:
                    k = k1 + k2
                prod = _poly_mul(p1, p2)
                out[k] = _poly_add(out.get(k, []), prod)
        return RationalSymbol(self.restricted, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GRat, Scalar, CE)):
            return RationalSymbol(
                self.restricted,
                {k: _poly_scale(p, other) for k, p in self.terms.items()})
        return self._coerce(other) * self

    def is_zero(self):
        return not self.terms

    # -- calculus ----------------------------------------------------------

    def derive(self, var):
        """Derivative in 'xn' or 'xin'; both need the unrestricted phase."""
        if var not in ("xin", "xn"):
            raise ValueError("unknown derivative variable %r" % (var,))
        if self.restricted:
            raise ValueError("%s derivative after restriction is lost" % var)
        if var == "xin":
            return self._quotient_rule(_poly_deriv)
        return self._quotient_rule(lambda p: _poly_map(p, Scalar.d_xn))

    def _quotient_rule(self, d):
        """d(p/B^q) = d(p)/B^q - q d(B) p/B^(q+1), with B = |xi|^2.

        d is a derivation of xi_n-polynomials; d(B) is d applied to B.
        """
        dB = d(b_poly())
        out = {}
        for q, p in self.terms.items():
            out[q] = _poly_add(out.get(q, []), d(p))
            if q:
                out[q + 1] = _poly_add(out.get(q + 1, []),
                                       _poly_scale(_poly_mul(dB, p), -q))
        return RationalSymbol(False, out)

    def restrict(self):
        """Evaluate at the boundary on the unit tangential sphere.

        Sets SH = 1 and factors each denominator power |xi|^(2q) as
        (xi_n - i)^q (xi_n + i)^q.  Numerator XI-monomials survive; they
        are handled by the sphere reduction and integration later.
        """
        if self.restricted:
            return self
        one = Scalar.one()
        out = {}
        for q, p in self.terms.items():
            rp = _poly_map(p, lambda s: s.substitute({"SH": one}))
            if rp:
                key = (q, q)
                out[key] = _poly_add(out.get(key, []), rp)
        return RationalSymbol(True, out)

    def __repr__(self):
        phase = "restricted" if self.restricted else "unrestricted"
        return "RationalSymbol(%s, %d terms)" % (phase, len(self.terms))


def pi_plus(sym):
    """Keep the principal part at xi_n = +i (the boundary projection).

    Sums the principal parts at +i of the terms
    p / ((xi_n - i)^a (xi_n + i)^b); the result has keys (a, 0) only.
    Raises ValueError before any work if some numerator has degree
    >= a + b.
    """
    if not sym.restricted:
        raise ValueError("principal parts require the restricted phase")
    if any(len(p) > a + b for (a, b), p in sym.terms.items()):
        raise ValueError("principal part of a non-proper symbol")
    out = {}
    for (a, b), p in sym.terms.items():
        part = [CE.zero()] * a
        for d, c in enumerate(p):
            for t, w in enumerate(_pole_weights(a, b, d)):
                if w:
                    part[t] = part[t] + c * w
        for t, c in enumerate(part):
            key = (a - t, 0)
            out[key] = _poly_add(out.get(key, []), [c])
    return RationalSymbol(True, out)


def integrate_line(sym):
    """Exact integral over xi_n of a scalar-valued restricted symbol.

    Equal to 2*pi*i times the residue at xi_n = +i, summed term by term
    from the pole weights; returns a Scalar with an explicit PI factor.
    Every term must be proper (numerator degree below a + b, as for every
    symbol of negative order); then the integrand decays like |xi_n|^-2
    unless the top coefficients p[a+b-1], its 1/xi_n tail, sum to nonzero.
    A non-proper term or a surviving tail raises NotIntegrable.
    """
    if not sym.restricted:
        raise ValueError("integrate over xi_n after restriction")
    if any(w or e for p in sym.terms.values() for ce in p for w, e in ce.terms):
        raise ValueError("integrate_line needs scalar coefficients; "
                         "take the trace first")
    zero = Scalar.zero()
    residue = tail = zero
    for (a, b), p in sym.terms.items():
        p = [ce.terms.get(((), ()), zero) for ce in p]
        if len(p) > a + b:
            raise NotIntegrable("term of xi_n-degree %d over (xi_n - i)^%d "
                                "(xi_n + i)^%d" % (len(p) - 1, a, b))
        if len(p) == a + b:
            tail = tail + p[-1]
        for d, c in enumerate(p):
            if a and c.terms:
                residue = residue + c * _pole_weights(a, b, d)[-1]
    if tail.terms:
        raise NotIntegrable("integrand decays like |xi_n|^-1")
    return Scalar.sym("PI") * (residue * GRat(0, 2))
