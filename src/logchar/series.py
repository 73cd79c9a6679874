"""One-variable Laurent series: exact arithmetic, and quotients to a window.

A LaurentSeries stores finitely many exact coefficients below a precision
bound ``prec``: terms of exponent >= prec are unknown.  ``prec = None`` marks
a series that is exactly its stored finite sum.  Sums, products, derivatives
and exact quotients ``//`` take exact operands only, and raise PrecisionError
on a series with a bound; negation keeps the bound.  The quotient ``/`` is
the one source of a finite bound: its long division runs to a window of 32
terms past its valuation.

The series are over Q: coefficients are stored as Fractions, and any other
value given (an int or a "p/q" string) is converted once, on construction.
``zero``, ``constant`` and ``monomial`` build series in t; the variable name
is only compared and printed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional

_WINDOW = 32


class PrecisionError(ArithmeticError):
    pass


class LaurentSeries:
    __slots__ = ("var", "terms", "prec")

    def __init__(self, var: str, terms: Mapping[int, object], prec: Optional[int] = None):
        clean = {}
        for e, c in terms.items():
            e = int(e)
            if prec is not None and e >= prec:
                continue
            if type(c) is not Fraction:
                c = Fraction(c)
            if c:
                clean[e] = c
        object.__setattr__(self, "var", var)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))
        object.__setattr__(self, "prec", prec)

    def __setattr__(self, *a):
        raise AttributeError("LaurentSeries is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls):
        return cls("t", {})

    @classmethod
    def constant(cls, value):
        return cls("t", {0: value})

    @classmethod
    def monomial(cls, exp: int, coeff=1):
        return cls("t", {exp: coeff})

    # -- structure ---------------------------------------------------------

    def __bool__(self):
        """False only for the exact zero."""
        return bool(self.terms) or self.prec is not None

    def valuation(self) -> Optional[int]:
        """Certified valuation: stored nonzero term, exact zero -> None.

        Raises PrecisionError when the series is indistinguishable from zero
        at its precision.
        """
        if self.terms:
            return min(self.terms)
        if self.prec is None:
            return None
        raise PrecisionError(f"valuation unknown: zero up to O({self.var}^{self.prec})")

    # -- arithmetic --------------------------------------------------------

    def _operand(self, other):
        """``other`` as a series in the same variable; both must be exact."""
        o = other if isinstance(other, LaurentSeries) else LaurentSeries(self.var, {0: other})
        if self.prec is not None or o.prec is not None:
            raise PrecisionError("series arithmetic needs exact operands")
        if self.var != o.var:
            raise ValueError("series variables differ")
        return o

    def __add__(self, other):
        o = self._operand(other)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return LaurentSeries(self.var, out)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.var, {e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._operand(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        """Product of exact series, or of an exact series and a scalar c,
        which scales each term as the product with the constant series c
        does."""
        if not isinstance(other, LaurentSeries):
            if self.prec is not None:
                raise PrecisionError("series arithmetic needs exact operands")
            c = other if isinstance(other, (int, Fraction)) else Fraction(other)
            return LaurentSeries(self.var, {e: t * c for e, t in self.terms.items()})
        o = self._operand(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return LaurentSeries(self.var, out)

    __rmul__ = __mul__

    def derivative(self) -> "LaurentSeries":
        if self.prec is not None:
            raise PrecisionError("series arithmetic needs exact operands")
        return LaurentSeries(self.var, {e - 1: c * e for e, c in self.terms.items() if e != 0})

    def __truediv__(self, other):
        """The quotient of exact series, known to 32 terms past its valuation.

        Writing self = t^a sum b_n t^n and other = t^v sum c_k t^k, with b_0
        and c_0 nonzero, power-series long division gives self / other =
        t^(a-v) sum q_n t^n with q_n = (b_n - sum_{k=1..n} c_k q_(n-k)) / c_0,
        for n < 32: the quotient has prec = a - v + 32.  An exact-zero
        numerator gives the exact zero.
        """
        o = self._operand(other)
        v = o.valuation()
        if v is None:
            raise ZeroDivisionError("division by the zero series")
        a = self.valuation()
        if a is None:
            return self
        inv_lead = 1 / o.terms[v]
        tail = [(e - v, c) for e, c in o.terms.items() if 0 < e - v < _WINDOW]
        q = []
        for n in range(_WINDOW):
            acc = self.terms.get(a + n, 0)
            for k, c in tail:
                if k > n:
                    break
                if q[n - k]:
                    acc -= c * q[n - k]
            q.append(acc * inv_lead)
        return LaurentSeries(self.var, {a - v + n: c for n, c in enumerate(q)},
                             a - v + _WINDOW)

    def __floordiv__(self, other):
        """The exact quotient of exact series, by long division from the lowest
        term: for self from t^a to t^A and other from t^v to t^V it runs from
        t^(a-v) to t^(A-V), and a remainder left then is refused."""
        o = self._operand(other)
        if not o:
            raise ZeroDivisionError("division by the zero series")
        (v, lead), *tail = o.terms.items()
        rem = dict(self.terms)
        q = {}
        if rem:
            for n in range(next(iter(rem)) - v, next(reversed(rem)) - max(o.terms) + 1):
                c = rem.pop(n + v, 0)
                if c:
                    q[n] = c = c / lead
                    for e, ce in tail:
                        rem[n + e] = rem.get(n + e, 0) - c * ce
        if any(rem.values()):
            raise ArithmeticError(f"{o} does not divide {self}")
        return LaurentSeries(self.var, q)

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            other = LaurentSeries(self.var, {0: other})
        return (self.var == other.var and self.terms == other.terms
                and self.prec == other.prec)

    def __hash__(self):
        return hash((self.var, tuple(self.terms.items()), self.prec))

    def __repr__(self):
        return f"LaurentSeries({self})"

    def __str__(self):
        t = self.var
        parts = []
        for e, c in self.terms.items():
            if e == 0:
                parts.append(f"{c}")
            else:
                mono = t if e == 1 else f"{t}^{e}"
                parts.append(mono if str(c) == "1" else f"({c})*{mono}")
        body = " + ".join(parts) if parts else "0"
        if self.prec is not None:
            body += f" + O({t}^{self.prec})"
        return body
