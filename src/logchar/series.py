"""One-variable truncated Laurent series with worst-case precision tracking.

A LaurentSeries stores finitely many exact coefficients below a precision
bound ``prec``: terms of exponent >= prec are unknown.  ``prec = None`` marks
a series that is exactly its stored finite sum (polynomial-born); such series
stay exact under ring operations, and only inversion forces a finite window.

The series are over Q: coefficients are stored as Fractions, and any other
value given (an int or a "p/q" string) is converted once, on construction.
``zero``, ``constant`` and ``monomial`` build series in t; the variable name
is only compared and printed.  ``inverse`` works to a fixed window of 32
terms.
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

    @property
    def is_exact(self):
        return self.prec is None

    @property
    def is_exactly_zero(self):
        return self.prec is None and not self.terms

    def low_bound(self):
        """A lower bound for the valuation (exact when a term is stored)."""
        if self.terms:
            return min(self.terms)
        return self.prec  # None means +infinity (exact zero)

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

    def coefficient(self, e: int):
        if self.prec is not None and e >= self.prec:
            raise PrecisionError(f"coefficient of {self.var}^{e} beyond precision {self.prec}")
        return self.terms.get(e, Fraction(0))

    def _check(self, other):
        if self.var != other.var:
            raise ValueError("series variables differ")

    @staticmethod
    def _min_prec(p1, p2):
        if p1 is None:
            return p2
        if p2 is None:
            return p1
        return min(p1, p2)

    # -- arithmetic --------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, LaurentSeries):
            return other
        return LaurentSeries(self.var, {0: other})

    def __add__(self, other):
        o = self._coerce(other)
        self._check(o)
        prec = self._min_prec(self.prec, o.prec)
        out = dict(self.terms)
        for e, c in o.terms.items():
            s = out.get(e)
            out[e] = c if s is None else s + c
        return LaurentSeries(self.var, out, prec)

    __radd__ = __add__

    def __neg__(self):
        return LaurentSeries(self.var, {e: -c for e, c in self.terms.items()}, self.prec)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, o):
        """Product of series, or of a series and a scalar.

        A scalar c scales each term and keeps ``prec``, which is what the
        product with the exact constant series c gives; c = 0 gives the exact
        zero series, whatever the precision of self.
        """
        if not isinstance(o, LaurentSeries):
            c = o if isinstance(o, (int, Fraction)) else Fraction(o)
            if not c:
                return LaurentSeries(self.var, {})
            return LaurentSeries(self.var, {e: t * c for e, t in self.terms.items()},
                                 self.prec)
        self._check(o)
        v1, v2 = self.low_bound(), o.low_bound()
        if (self.is_exactly_zero and o.prec is None) or (o.is_exactly_zero and self.prec is None):
            return LaurentSeries(self.var, {})
        # unknown tail of one factor times the lowest term of the other
        cands = []
        if self.prec is not None:
            if v2 is None:
                return LaurentSeries(self.var, {})
            cands.append(self.prec + v2)
        if o.prec is not None:
            if v1 is None:
                return LaurentSeries(self.var, {})
            cands.append(o.prec + v1)
        prec = min(cands) if cands else None
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in o.terms.items():
                e = e1 + e2
                if prec is not None and e >= prec:
                    continue
                c = c1 * c2
                s = out.get(e)
                out[e] = c if s is None else s + c
        return LaurentSeries(self.var, out, prec)

    __rmul__ = __mul__

    def shift(self, k: int) -> "LaurentSeries":
        """Multiply by t^k."""
        return LaurentSeries(self.var, {e + k: c for e, c in self.terms.items()},
                             None if self.prec is None else self.prec + k)

    def derivative(self) -> "LaurentSeries":
        out = {e - 1: c * e for e, c in self.terms.items() if e != 0}
        prec = None if self.prec is None else self.prec - 1
        return LaurentSeries(self.var, out, prec)

    def truncate(self, prec: int) -> "LaurentSeries":
        p = self._min_prec(self.prec, prec)
        return LaurentSeries(self.var, {e: c for e, c in self.terms.items() if e < p}, p)

    def inverse(self) -> "LaurentSeries":
        """Multiplicative inverse up to a finite window of terms.

        Requires a certified valuation v; the result has finite precision
        w - v even for exact input, with w the window of 32 terms, capped at
        prec - v.  Writing self = t^v sum a_k t^k, the coefficients of
        t^v / self come from the triangular recurrence b_0 = 1/a_0,
        b_n = -(1/a_0) sum_{k=1..n} a_k b_{n-k}, for n < w.
        """
        v = self.valuation()
        if v is None:
            raise ZeroDivisionError("inverse of zero series")
        lead = self.terms[v]
        w = _WINDOW if self.prec is None else min(_WINDOW, self.prec - v)
        inv_lead = 1 / lead
        tail = [(e - v, c) for e, c in self.terms.items() if 0 < e - v < w]
        b = [inv_lead]
        for n in range(1, w):
            acc = None
            for k, a in tail:
                if k > n:
                    break
                if b[n - k] is not None:
                    term = a * b[n - k]
                    acc = term if acc is None else acc + term
            b.append(None if acc is None else -(acc * inv_lead))
        return LaurentSeries(self.var, {n - v: c for n, c in enumerate(b) if c is not None},
                             w - v)

    def __truediv__(self, other):
        o = self._coerce(other)
        return self * o.inverse()

    def __eq__(self, other):
        if not isinstance(other, LaurentSeries):
            other = self._coerce(other)
        return (self.var == other.var and self.terms == other.terms
                and self.prec == other.prec)

    def agrees_with(self, other, upto: Optional[int] = None) -> bool:
        """Coefficientwise agreement on the jointly known exponent range."""
        o = self._coerce(other)
        self._check(o)
        bound = self._min_prec(self.prec, o.prec)
        if upto is not None:
            bound = self._min_prec(bound, upto)
        for e in set(self.terms) | set(o.terms):
            if bound is not None and e >= bound:
                continue
            if self.terms.get(e, 0) != o.terms.get(e, 0):
                return False
        return True

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
