"""Exact base-field arithmetic: rationals and small number fields Q[alpha]/(p).

Every value is immutable and equality is exact.  Number-field elements are
stored as reduced polynomial representatives in the generator, with Fraction
coefficients; fractions are gcd-normalized by the Fraction type itself.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Iterable, Union
import warnings

Rat = Union[int, Fraction]

MAX_FIELD_DEGREE = 6
MAX_DIVISOR_STEPS = 10 ** 6  # trial divisions allowed per integer in _divisors
# candidate pairs (p, q), p | a_0 and q | a_n, that rational_roots may test at
# degree n <= 12.  A coprime pair costs 1.3-5.7 us at degree 2-12 (CPython 3.11
# on one core of a shared 2-core Xeon) and a pair that shares a factor about
# 0.1 us, so the bound is about 1 s at degree 12; a Horner test grows with n,
# so past degree 12 the bound is scaled by 12 / n
MAX_ROOT_CANDIDATES = 200_000


class FieldError(ValueError):
    pass


class FactorizationError(ValueError):
    """A factorization the engine cannot carry out: too large an integer to
    split by trial division, or a factor of too high degree."""


def _poly_trim(cs):
    cs = list(cs)
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _poly_divmod(a, b):
    """(q, r) with q b + r = a and deg r < deg b, both trimmed; a and b are
    ascending coefficient lists, b with a nonzero last coefficient.  The
    dividend is trimmed once, then each quotient degree is read off the
    top coefficient left, from the highest down."""
    a = _poly_trim(a)
    n = len(b) - 1
    inv = Fraction(1) / b[-1]
    q = [Fraction(0)] * max(0, len(a) - n)
    for k in reversed(range(len(q))):
        c = a[k + n] * inv
        if c:
            q[k] = c
            for i in range(n):  # the top coefficient cancels and is not read again
                a[k + i] -= c * b[i]
    return q, _poly_trim(a[:n])


def _poly_mul(a, b):
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _poly_trim(out)


def _poly_sub(a, b):
    n = max(len(a), len(b))
    out = [Fraction(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] -= c
    return _poly_trim(out)


def rational_roots(coeffs):
    """Rational roots of a polynomial with rational coefficients (ascending).

    With denominators cleared to integers a_0..a_n and the root 0 split off
    (so a_0 != 0), a root p/q in lowest terms has p | a_0 and q | a_n.  Each
    such candidate is tested on integers: p/q is a root iff
    sum_i a_i p^i q^(n-i) = 0, evaluated by Horner.  The divisors still come
    from trial division, O(sqrt|a_0| + sqrt|a_n|) steps; past
    MAX_DIVISOR_STEPS for either integer, or past MAX_ROOT_CANDIDATES pairs
    (p, q) at degree n <= 12 and MAX_ROOT_CANDIDATES * 12 / n pairs at a
    higher degree, it raises FactorizationError before testing any candidate.
    """
    cs = _poly_trim([Fraction(c) for c in coeffs])
    if len(cs) <= 1:
        return []
    roots = set()
    k = 0
    while cs[k] == 0:
        k += 1
    if k > 0:
        roots.add(Fraction(0))
        cs = cs[k:]
    if len(cs) > 1:
        den = lcm(*(c.denominator for c in cs))
        ints = [int(c * den) for c in cs]
        lower = ints[-2::-1]
        nums, dens = _divisors(ints[0]), _divisors(ints[-1])
        pairs = len(nums) * len(dens)
        bound = MAX_ROOT_CANDIDATES * 12 // max(len(lower), 12)
        if pairs > bound:
            raise FactorizationError(f"the rational-root search needs {pairs} candidate "
                                     f"pairs, more than {bound}")
        for p in nums:
            for q in dens:
                if gcd(p, q) != 1:
                    continue
                for s in (p, -p):
                    acc, qk = ints[-1], 1
                    for a in lower:
                        qk *= q
                        acc = acc * s + a * qk
                    if acc == 0:
                        roots.add(Fraction(s, q))
    return sorted(roots)


def _divisors(n):
    n = abs(n)
    if n == 0:
        return [1]
    if isqrt(n) > MAX_DIVISOR_STEPS:
        raise FactorizationError(f"the divisors of a {len(str(n))}-digit integer need more "
                                 f"than {MAX_DIVISOR_STEPS} trial divisions")
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _square_root(x: Fraction):
    """The nonnegative rational square root of x, or None if x is no square."""
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def factor_over_Q(coeffs):
    """Monic factors of a monic polynomial over Q, ascending coefficients.

    Returns (factors, rest).  ``factors`` lists the irreducible factors found,
    repeated by multiplicity: the linear factors of the rational roots, then
    either a cofactor of degree 2 or 3 (irreducible, having no rational root)
    or the two quadratic factors of a quartic cofactor, or that quartic itself
    when it does not split.  A cofactor of degree >= 5 is not factored: it is
    returned as ``rest``, which is [1] otherwise.
    """
    cs = _poly_trim([Fraction(c) for c in coeffs])
    factors = []
    for r in rational_roots(cs):
        while True:
            quot, rem = _poly_divmod(cs, [-r, Fraction(1)])
            if rem:
                break
            factors.append([-r, Fraction(1)])
            cs = quot
    if len(cs) == 5:
        split = _quartic_split(cs)
        factors.extend(split if split is not None else [cs])
    elif len(cs) > 5:
        return factors, cs
    elif len(cs) > 1:
        factors.append(cs)
    return factors, [Fraction(1)]


def _quartic_split(cs):
    """Two monic quadratics multiplying to the monic quartic cs, or None.

    With x = y - a/4 the quartic becomes y^4 + p y^2 + q y + r, and
    (y^2 + s y + u)(y^2 - s y + v) is a factorization iff z = s^2 is a root of
    the resolvent cubic z^3 + 2p z^2 + (p^2 - 4r) z - q^2, u + v = p + z and
    s (v - u) = q.
    """
    d, c, b, a, _ = cs
    p = b - 3 * a * a / 8
    q = c - a * b / 2 + a ** 3 / 8
    r = d - a * c / 4 + a * a * b / 16 - 3 * a ** 4 / 256
    for z in rational_roots([-q * q, p * p - 4 * r, 2 * p, 1]):
        s = _square_root(z)
        if s is None:
            continue
        if s == 0:
            disc = _square_root(p * p - 4 * r)
            if disc is None:
                continue
            u, v = (p - disc) / 2, (p + disc) / 2
        else:
            u, v = (p + z - q / s) / 2, (p + z + q / s) / 2
        # back to x: y^2 + s y + u at y = x + a/4
        f1 = [u + s * a / 4 + a * a / 16, s + a / 2, Fraction(1)]
        f2 = [v - s * a / 4 + a * a / 16, -s + a / 2, Fraction(1)]
        if _poly_mul(f1, f2) == cs:
            return f1, f2
    return None


def descend(coeffs, h):
    """Q with Q(X^h) = coeffs(X), both ascending, or None when coeffs is not
    in Q[X^h]: the descent of a polynomial along the cover t = s^h."""
    cs = _poly_trim(coeffs)
    if any(c for k, c in enumerate(cs) if k % h):
        return None
    return cs[::h]


def _irreducible_over_Q(coeffs):
    """Irreducibility of a monic polynomial over Q.

    A polynomial Q(X^h) with Q reducible is reducible.  The verdict None means
    "not verified": a modulus of degree 5 or 6 without a rational root that
    this does not split is trusted with a warning.
    """
    factors, rest = factor_over_Q(coeffs)
    if len(rest) > 1:
        descents = (descend(coeffs, h) for h in range(2, len(coeffs)))
        if factors or any(_irreducible_over_Q(Q) is False for Q in descents if Q):
            return False
        return None
    return len(factors) == 1


class NumberField:
    """Q or Q[alpha]/(p(alpha)) with p monic of degree <= 6."""

    def __init__(self, modulus=None, gen_name: str = "a"):
        if modulus is None:
            self.modulus = None
            self.degree = 1
        else:
            cs = [Fraction(c) for c in modulus]
            cs = _poly_trim(cs)
            if len(cs) - 1 < 1 or len(cs) - 1 > MAX_FIELD_DEGREE:
                raise FieldError("modulus degree must be between 1 and %d" % MAX_FIELD_DEGREE)
            if cs[-1] != 1:
                raise FieldError("modulus must be monic")
            verdict = _irreducible_over_Q(cs)
            if verdict is False:
                raise FieldError("modulus is reducible over Q")
            if verdict is None:
                warnings.warn("irreducibility not verified for degree > 4 modulus; trusted")
            self.modulus = tuple(cs)
            self.degree = len(cs) - 1
        self.gen_name = gen_name

    @property
    def is_rational(self):
        return self.modulus is None

    def __eq__(self, other):
        return isinstance(other, NumberField) and self.modulus == other.modulus

    def __hash__(self):
        return hash(self.modulus)

    def __repr__(self):
        if self.is_rational:
            return "QQ"
        return f"NumberField({self.gen_name}: {list(self.modulus)})"

    def __call__(self, value) -> "Scalar":
        if isinstance(value, Scalar):
            if value.field == self:
                return value
            if value.field.is_rational:
                return Scalar(self, (value.coeffs[0],) if value.coeffs else ())
            raise FieldError("cannot coerce between distinct number fields")
        return Scalar._rational(self, value if type(value) is Fraction else Fraction(value))

    def zero(self):
        return Scalar._rational(self, 0)

    def one(self):
        return Scalar(self, (Fraction(1),))

    def gen(self):
        if self.is_rational:
            raise FieldError("QQ has no generator")
        return Scalar(self, (Fraction(0), Fraction(1)))


QQ = NumberField()


class Scalar:
    """Element of a NumberField, reduced mod the defining polynomial.

    Over Q the representative is () or one nonzero Fraction.  When both
    operands are rational, ``+``, ``-``, ``*`` and negation act on that
    Fraction directly and skip the polynomial code of the number-field path.
    """

    __slots__ = ("field", "coeffs")

    def __init__(self, field: NumberField, coeffs: Iterable[Fraction]):
        cs = [Fraction(c) for c in coeffs]
        if field.modulus is not None and len(cs) >= len(field.modulus):
            _, cs = _poly_divmod(cs, list(field.modulus))
        elif field.modulus is None and len(cs) > 1:
            raise FieldError("rational scalar with nonconstant representative")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", tuple(_poly_trim(cs)))

    @classmethod
    def _rational(cls, field: NumberField, value: Rat) -> "Scalar":
        """Trusted constructor of the rational scalar ``value`` over ``field``."""
        out = object.__new__(cls)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "coeffs", (value if type(value) is Fraction
                                           else Fraction(value),) if value else ())
        return out

    def _rational_operands(self, other):
        """The values of self and other when both are rational, else None."""
        if self.field.modulus is not None:
            return None
        if type(other) is Scalar:
            if other.field.modulus is not None:
                return None
            other = other.coeffs[0] if other.coeffs else 0
        elif not isinstance(other, (int, Fraction)):
            return None
        return (self.coeffs[0] if self.coeffs else 0), other

    def __setattr__(self, *a):
        raise AttributeError("Scalar is immutable")

    def _pair(self, other):
        """Promote self and other into a common field; None if impossible."""
        if isinstance(other, (int, Fraction)):
            return self, self.field(other)
        if isinstance(other, Scalar):
            if other.field == self.field:
                return self, other
            if other.field.is_rational:
                return self, self.field(other)
            if self.field.is_rational:
                return other.field(self), other
            raise FieldError("cannot mix distinct number fields")
        return None

    @property
    def is_zero(self):
        return not self.coeffs

    def is_rational_value(self):
        return len(self.coeffs) <= 1

    def rational_value(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        if len(self.coeffs) == 1:
            return self.coeffs[0]
        raise FieldError("scalar is not rational")

    def __add__(self, other):
        xy = self._rational_operands(other)
        if xy is not None:
            return Scalar._rational(self.field, xy[0] + xy[1])
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        n = max(len(a.coeffs), len(b.coeffs))
        cs = [Fraction(0)] * n
        for i, c in enumerate(a.coeffs):
            cs[i] += c
        for i, c in enumerate(b.coeffs):
            cs[i] += c
        return Scalar(a.field, cs)

    __radd__ = __add__

    def __neg__(self):
        if self.field.modulus is None:
            return Scalar._rational(self.field, -self.coeffs[0] if self.coeffs else 0)
        return Scalar(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        xy = self._rational_operands(other)
        if xy is not None:
            return Scalar._rational(self.field, xy[0] - xy[1])
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a + (-b)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if type(other) is int and self.field.modulus is None:
            if not (self.coeffs and other):
                return Scalar._rational(self.field, 0)
            x = self.coeffs[0]
            return Scalar._rational(self.field, Fraction(x.numerator * other, x.denominator))
        xy = self._rational_operands(other)
        if xy is not None:
            x, y = xy
            return Scalar._rational(self.field, Fraction(x.numerator * y.numerator,
                                                         x.denominator * y.denominator))
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return Scalar(a.field, _poly_mul(list(a.coeffs), list(b.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "Scalar":
        if self.is_zero:
            raise ZeroDivisionError("scalar inverse of zero")
        if self.field.modulus is None:
            x = self.coeffs[0]
            return Scalar._rational(self.field, Fraction(x.denominator, x.numerator))
        # extended Euclid in Q[alpha]
        r0, r1 = list(self.field.modulus), list(self.coeffs)
        t0, t1 = [], [Fraction(1)]
        while r1:
            q, r = _poly_divmod(r0, r1)
            r0, r1 = r1, r
            t0, t1 = t1, _poly_sub(t0, _poly_mul(q, t1))
        if len(r0) != 1:
            raise FieldError("modulus not irreducible: gcd has positive degree")
        inv_lead = Fraction(1) / r0[0]
        return Scalar(self.field, [c * inv_lead for c in t0])

    def __truediv__(self, other):
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b = pair
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if type(other) is int:
            return self.coeffs == ((other,) if other else ())
        if isinstance(other, (int, Fraction)):
            return self.coeffs == (() if other == 0 else (Fraction(other),))
        if isinstance(other, Scalar):
            if other.field != self.field:
                return self.is_rational_value() and other.is_rational_value() and \
                    self.rational_value() == other.rational_value()
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self):
        if len(self.coeffs) <= 1:
            return hash(self.rational_value())
        return hash((self.field, self.coeffs))

    def __repr__(self):
        return f"Scalar({self})"

    def __str__(self):
        if not self.coeffs:
            return "0"
        if len(self.coeffs) == 1:
            return str(self.coeffs[0])
        a = self.field.gen_name
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*{a}" if c != 1 else a)
            else:
                parts.append(f"{c}*{a}^{i}" if c != 1 else f"{a}^{i}")
        return " + ".join(parts)


def parse_rational(text) -> Fraction:
    """Parse "p/q" or integer-like strings into an exact Fraction.  A bool,
    JSON true or false, is no number."""
    if type(text) is int:
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if isinstance(text, str):
        try:
            return Fraction(text.strip())
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in rational {text!r}") from None
    raise FieldError(f"cannot parse rational from {text!r}")
