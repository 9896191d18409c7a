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
denominator degree in every term, as for every symbol of negative order);
pi_minus keeps the principal part at -i, and the two sum to the symbol.
integrate_line evaluates the xi_n integral over the whole real line
exactly as 2*pi*i times the residue at +i.

Each rule is stated once.  One quotient rule serves every derivative
(x_n, xi_n and the tangential covariables); a restricted symbol has none.
One principal-part expansion at a pole serves pi_plus and pi_minus, and
integrate_line forms only its last coefficient, the residue at +i.
"""

from fractions import Fraction
from math import comb

from .clifford import CliffordElement
from .ring import GRat, Scalar, reduce_unit_sphere

__all__ = [
    "RationalSymbol",
    "pi_plus",
    "pi_minus",
    "integrate_line",
    "NotIntegrable",
]

CE = CliffordElement

_XI_VARS = ("xi1", "xi2", "xi3", "xi4", "xi5")


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


def _poly_neg(p):
    return [-c for c in p]


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


def _grat_poly(coeffs):
    """Lift a list of GRat/int/Fraction to a CliffordElement poly."""
    return _trim([CE.scalar(c) for c in coeffs])


def _binomial_pole_poly(root, n):
    """(xi - root)^n as a GRat coefficient list, root = +/- i."""
    out = []
    for k in range(n + 1):
        out.append(GRat(0, 0) + comb(n, k) * _grat_pow(-root, n - k))
    return out


def _grat_pow(x, n):
    r = GRat(1, 0)
    for _ in range(n):
        r = r * x
    return r


def _shift_series(p, center, length):
    """First `length` Taylor coefficients of p(center + u) in u."""
    out = [CE.zero() for _ in range(length)]
    for m, c in enumerate(p):
        if c.is_zero():
            continue
        for k in range(min(m, length - 1) + 1):
            out[k] = out[k] + c * (comb(m, k) * _grat_pow(center, m - k))
    return out


def _inv_shifted_pole_series(delta, n, length):
    """Taylor coefficients of (u + delta)^(-n) in u, delta = +/- 2i."""
    inv = GRat(1, 0) / delta
    out = []
    for m in range(length):
        c = Fraction((-1) ** m) * comb(n + m - 1, m) if n > 0 else Fraction(m == 0)
        out.append(c * _grat_pow(inv, n + m))
    return out


def _series_mul(p, q, length):
    out = [CE.zero() for _ in range(length)]
    for i, a in enumerate(p[:length]):
        if a.is_zero():
            continue
        for j, b in enumerate(q[: length - i]):
            out[i + j] = out[i + j] + a * b
    return out


def _principal_part(p, root, n, m):
    """Principal part of p / ((xi - root)^n (xi + root)^m) at xi = root.

    Returns the coefficients of (xi - root)^-n, ..., (xi - root)^-1;
    empty when n = 0.
    """
    series = _inv_shifted_pole_series(root * 2, m, n)
    return _series_mul(_shift_series(p, root, n), _grat_poly(series), n)


_I = GRat(0, 1)
_MINUS_I = GRat(0, -1)


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
        return RationalSymbol(self.restricted,
                              {k: _poly_neg(p) for k, p in self.terms.items()})

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
        """Derivative: var in 'xn', 'xin', 'xi1'..'xi5', 'xprime'.

        Tangential base derivatives vanish at the distinguished boundary
        point (normal coordinates); every other derivative requires the
        unrestricted phase, where |xi|^2 still carries SH and the XIj.
        """
        if var == "xprime":
            return RationalSymbol.zero(self.restricted)
        if var not in ("xin", "xn") + _XI_VARS:
            raise ValueError("unknown derivative variable %r" % (var,))
        if self.restricted:
            raise ValueError("%s derivative after restriction is lost" % var)
        if var == "xin":
            return self._quotient_rule(_poly_deriv)
        f = Scalar.d_xn if var == "xn" else lambda s: s.d_xi(int(var[2]))
        return self._quotient_rule(lambda p: _poly_map(p, f))

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

    # -- normalization and comparison ---------------------------------------

    def _common(self):
        """Single-denominator form: returns (key, numerator poly)."""
        if self.restricted:
            amax = max((k[0] for k in self.terms), default=0)
            bmax = max((k[1] for k in self.terms), default=0)
            num = []
            for (a, b), p in self.terms.items():
                lift = _poly_mul(_grat_poly(_binomial_pole_poly(_I, amax - a)),
                                 _grat_poly(_binomial_pole_poly(_MINUS_I, bmax - b)))
                num = _poly_add(num, _poly_mul(lift, p))
            return (amax, bmax), num
        qmax = max(self.terms, default=0)
        bpoly = b_poly()
        num = []
        for q, p in self.terms.items():
            lift = [CE.one()]
            for _ in range(qmax - q):
                lift = _poly_mul(lift, bpoly)
            num = _poly_add(num, _poly_mul(lift, p))
        return qmax, num

    def equals(self, other, on_sphere=False):
        """Exact equality as rational functions.

        With on_sphere=True (restricted phase only) the comparison is
        modulo the unit-sphere relation in the tangential covariables.
        """
        other = self._coerce(other)
        self._same_phase(other)
        diff = self - other
        _, num = diff._common()
        if on_sphere:
            num = _poly_map(num, reduce_unit_sphere)
        return not num

    def homogeneity_order(self):
        """Degree in the covariables; raises if the symbol is not homogeneous.

        Only meaningful before restriction (XI's count 1 each, xi_n counts
        its power, each denominator factor counts -2, SH counts 0).
        """
        if self.restricted:
            raise ValueError("homogeneity is checked before restriction")
        order = None
        for q, p in self.terms.items():
            for k, ce in enumerate(p):
                for (w, e), s in ce.terms.items():
                    for mono in s.terms:
                        d = k + s.xi_degree_of(mono) - 2 * q
                        if order is None:
                            order = d
                        elif order != d:
                            raise ValueError(
                                "inhomogeneous symbol: found degrees %s and %s"
                                % (order, d))
        if order is None:
            raise ValueError("zero symbol has no homogeneity order")
        return order

    def evaluate(self, xin, assignment):
        """Numeric value at a real xi_n (complex output) of a scalar symbol."""
        total = 0j
        for k, p in self.terms.items():
            if self.restricted:
                a, b = k
                den = (xin - 1j) ** a * (xin + 1j) ** b
            else:
                b0 = b0_scalar().evaluate(assignment)
                den = (b0 + xin ** 2) ** k
            num = 0j
            for e, ce in enumerate(p):
                for (w, ew), s in ce.terms.items():
                    if w or ew:
                        raise ValueError("evaluate needs scalar coefficients")
                    num += s.evaluate(assignment) * xin ** e
            total += num / den
        return total

    def __repr__(self):
        phase = "restricted" if self.restricted else "unrestricted"
        return "RationalSymbol(%s, %d terms)" % (phase, len(self.terms))


def _principal_parts(sym, root):
    """Principal part at xi_n = root (+/- i) of a proper restricted symbol.

    Sums the principal parts at `root` of the terms
    p / ((xi_n - i)^a (xi_n + i)^b); the result has poles at `root` only.
    Raises ValueError before any work if some numerator has degree
    >= a + b.
    """
    if not sym.restricted:
        raise ValueError("principal parts require the restricted phase")
    if any(len(p) > a + b for (a, b), p in sym.terms.items()):
        raise ValueError("principal part of a non-proper symbol")
    plus = root == _I
    out = {}
    for (a, b), p in sym.terms.items():
        n, m = (a, b) if plus else (b, a)
        for j, c in enumerate(_principal_part(p, root, n, m)):
            key = (n - j, 0) if plus else (0, n - j)
            out[key] = _poly_add(out.get(key, []), [c])
    return RationalSymbol(True, out)


def pi_plus(sym):
    """Keep the principal part at xi_n = +i (the boundary projection)."""
    return _principal_parts(sym, _I)


def pi_minus(sym):
    """Keep the principal part at xi_n = -i; pi_plus + pi_minus = id."""
    return _principal_parts(sym, _MINUS_I)


def integrate_line(sym):
    """Exact integral over xi_n of a scalar-valued restricted symbol.

    Equal to 2*pi*i times the residue at xi_n = +i; returns a Scalar with
    an explicit PI factor.  Raises NotIntegrable unless the integrand
    decays at least like |xi_n|^-2.
    """
    if not sym.restricted:
        raise ValueError("integrate over xi_n after restriction")
    if any(w or e for p in sym.terms.values() for ce in p for w, e in ce.terms):
        raise ValueError("integrate_line needs scalar coefficients; "
                         "take the trace first")
    (A, B), num = sym._common()
    if not num:
        return Scalar.zero()
    deg = len(num) - 1
    if deg > A + B - 2:
        raise NotIntegrable("integrand decays like |xi_n|^%d" % (deg - A - B))
    if A == 0:
        return Scalar.zero()
    # the residue is the (xi_n - i)^-1 coefficient of the principal part
    shifted = _shift_series(num, _I, A)
    series = _inv_shifted_pole_series(_I * 2, B, A)
    coeff = sum((shifted[k] * series[A - 1 - k] for k in range(A)), CE.zero())
    scal = coeff.terms.get(((), ()), Scalar.zero())
    return Scalar.sym("PI") * (scal * GRat(0, 2))
