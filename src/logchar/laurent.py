"""Exact multivariate Laurent polynomials and the twisted differential.

A LaurentPolynomial is a finite support map from integer exponent vectors to
nonzero Scalars over a fixed ordered variable list.  Values are immutable;
all arithmetic is exact.

Every value is kept in one normal form: its terms are sorted by exponent,
each exponent is a tuple of ints with one entry per variable, and each
coefficient is a nonzero Scalar of the polynomial's field.  The public
constructor ``LaurentPolynomial(vars, terms, field)`` checks and builds that
form, so it takes external input and results of operands over different
fields (QQ is widened to the number field).  Results of operations on
normalized operands over one field are built by the private ``_trusted``
without a check.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Mapping, Optional, Sequence, Tuple

from .field import QQ, NumberField, Scalar


class DimensionMismatch(ValueError):
    pass


def _join(a: NumberField, b: NumberField) -> NumberField:
    """The field of a sum or product of operands over ``a`` and ``b``, with or
    without terms: QQ widens to a number field, distinct number fields clash."""
    if a == b or b.is_rational:
        return a
    if a.is_rational:
        return b
    raise DimensionMismatch("fields differ")


class LaurentPolynomial:
    __slots__ = ("vars", "terms", "field")

    def __init__(self, vars: Sequence[str], terms: Mapping[Tuple[int, ...], object],
                 field: NumberField = QQ):
        vs = tuple(vars)
        if len(set(vs)) != len(vs):
            raise ValueError("variable names must be distinct")
        # widen the declared field when number-field coefficients appear
        for coef in terms.values():
            if isinstance(coef, Scalar) and coef.field is not field and coef.field != field:
                if field.is_rational:
                    field = coef.field
                elif not coef.field.is_rational:
                    raise DimensionMismatch("coefficients from distinct number fields")
        clean = {}
        for e, coef in terms.items():
            if type(e) is not tuple or not all(type(x) is int for x in e):
                e = tuple(int(x) for x in e)
            if len(e) != len(vs):
                raise DimensionMismatch(f"exponent arity {len(e)} != {len(vs)} variables")
            c = coef if isinstance(coef, Scalar) else field(coef)
            if c.field is not field and c.field != field:
                c = field(c)
            if not c.is_zero:
                prev = clean.get(e)
                c = c if prev is None else prev + c
                if c.is_zero:
                    del clean[e]
                else:
                    clean[e] = c
        object.__setattr__(self, "vars", vs)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "terms", dict(sorted(clean.items())))

    @classmethod
    def _trusted(cls, vars, terms, field):
        """A polynomial whose ``terms`` already hold the normal form (see the
        module docstring) over ``field``, for the tuple ``vars``; no check."""
        out = object.__new__(cls)
        object.__setattr__(out, "vars", vars)
        object.__setattr__(out, "field", field)
        object.__setattr__(out, "terms", terms)
        return out

    def __setattr__(self, *a):
        raise AttributeError("LaurentPolynomial is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, vars, field=QQ):
        return cls(vars, {}, field)

    @classmethod
    def constant(cls, vars, value, field=QQ):
        return cls(vars, {(0,) * len(vars): value}, field)

    @classmethod
    def monomial(cls, vars, exp, coeff=1, field=QQ):
        return cls(vars, {tuple(exp): coeff}, field)

    @classmethod
    def variable(cls, vars, name, field=QQ):
        i = tuple(vars).index(name)
        e = [0] * len(vars)
        e[i] = 1
        return cls(vars, {tuple(e): 1}, field)

    # -- basic structure ---------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def support(self):
        return tuple(self.terms.keys())

    def coefficient(self, exp) -> Scalar:
        c = self.terms.get(tuple(exp))
        return self.field.zero() if c is None else c

    def constant_term(self) -> Scalar:
        return self.coefficient((0,) * len(self.vars))

    def min_exponent(self, j: int):
        """Smallest exponent of variable j over the support; None if zero."""
        if self.is_zero:
            return None
        return min(e[j] for e in self.terms)

    def max_exponent(self, j: int):
        if self.is_zero:
            return None
        return max(e[j] for e in self.terms)

    def _check_same(self, other):
        if self.vars != other.vars:
            raise DimensionMismatch("variable lists differ")
        return _join(self.field, other.field)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPolynomial.constant(self.vars, other, self.field)
        field = self._check_same(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e)
            s = c if s is None else s + c
            if s.is_zero:
                out.pop(e, None)
            else:
                out[e] = s
        return self._same_field_result(other, out, field)

    __radd__ = __add__

    def _same_field_result(self, other, out, field):
        """The sum or product with the terms ``out``: trusted after one sort
        when both operands share the field, else validated (widened)."""
        if self.field == other.field:
            return LaurentPolynomial._trusted(self.vars, dict(sorted(out.items())), field)
        return LaurentPolynomial(self.vars, out, field)

    def __neg__(self):
        return LaurentPolynomial._trusted(self.vars, {e: -c for e, c in self.terms.items()},
                                          self.field)

    def __sub__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPolynomial.constant(self.vars, other, self.field)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            c0 = other if isinstance(other, Scalar) else self.field(other)
            field = _join(self.field, c0.field)
            if c0.is_zero:
                return LaurentPolynomial.zero(self.vars, field)
            if c0.field != self.field:
                return LaurentPolynomial(self.vars, {e: c * c0 for e, c in self.terms.items()},
                                         field)
            # a trusted degree 5-6 modulus may be reducible: drop zero divisors' products
            return LaurentPolynomial._trusted(self.vars, {e: v for e, c in self.terms.items()
                                                          if not (v := c * c0).is_zero},
                                              self.field)
        field = self._check_same(other)
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                c = c1 * c2
                s = out.get(e)
                s = c if s is None else s + c
                if s.is_zero:
                    out.pop(e, None)
                else:
                    out[e] = s
        return self._same_field_result(other, out, field)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            if len(self.terms) != 1:
                raise ValueError("negative powers only for monomials")
            (e, c), = self.terms.items()
            return LaurentPolynomial(self.vars, {tuple(x * n for x in e): c ** n}, self.field)
        out = LaurentPolynomial.constant(self.vars, 1, self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, Scalar)):
            other = LaurentPolynomial.constant(self.vars, other, self.field)
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self.vars == other.vars and self.terms == other.terms

    def __hash__(self):
        return hash((self.vars, tuple(sorted((e, c.coeffs) for e, c in self.terms.items()))))

    # -- derivations and substitutions -------------------------------------

    def partial(self, j: int) -> "LaurentPolynomial":
        step = [0] * len(self.vars)
        step[j] = -1
        return _shifted(self.log_partial(j), step)

    def log_partial(self, j: int) -> "LaurentPolynomial":
        """x_j * d/dx_j, an exponent-preserving derivation.

        The surviving coefficients c * e_j are nonzero, so the terms keep
        their normal form."""
        return LaurentPolynomial._trusted(
            self.vars, {e: c * e[j] for e, c in self.terms.items() if e[j]}, self.field)

    def shift_variable(self, j: int, value) -> "LaurentPolynomial":
        """Substitute x_j -> x_j + value; requires nonnegative exponents in x_j."""
        val = value if isinstance(value, Scalar) else self.field(value)
        powers = [val.field(1)]  # val ** k, each one product from the last
        for _ in range(max((e[j] for e in self.terms), default=0)):
            powers.append(powers[-1] * val)
        acc = {}
        for e, c in self.terms.items():
            n = e[j]
            if n < 0:
                raise ValueError("shift of a variable with negative exponent")
            binomial = 1  # C(n, k), each one step from the last
            for k in range(n + 1):
                e2 = list(e)
                e2[j] = k
                key = tuple(e2)
                add = c * binomial * powers[n - k]
                binomial = binomial * (n - k) // (k + 1)
                s = acc.get(key)
                s = add if s is None else s + add
                if s.is_zero:
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return LaurentPolynomial._trusted(self.vars, dict(sorted(acc.items())), self.field)

    def evaluate(self, point: Mapping[str, object]) -> Scalar:
        """Full evaluation; negative exponents require nonzero coordinates."""
        vals = []
        for name in self.vars:
            if name not in point:
                raise ValueError(f"missing coordinate {name}")
            v = point[name]
            vals.append(v if isinstance(v, Scalar) else self.field(v))
        total = self.field.zero()
        for e, c in self.terms.items():
            term = c
            for x, a in zip(vals, e):
                if a == 0:
                    continue
                if x.is_zero:
                    if a < 0:
                        raise ZeroDivisionError("pole evaluated at its divisor")
                    term = self.field.zero()
                    break
                term = term * x ** a
            total = total + term
        return total

    def __repr__(self):
        return f"LaurentPolynomial({self})"

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms.items():
            mono = "*".join(f"{v}^{a}" if a != 1 else v
                            for v, a in zip(self.vars, e) if a != 0)
            cs = str(c)
            if mono:
                parts.append(f"({cs})*{mono}" if ("+" in cs or " " in cs) else
                             (mono if cs == "1" else f"-{mono}" if cs == "-1" else f"{cs}*{mono}"))
            else:
                parts.append(cs)
        return " + ".join(parts)


# -- module operations -----------------------------------------------------

def pole_orders(phi: LaurentPolynomial, indices: Sequence[int]) -> Tuple[int, ...]:
    """Pole order max(0, -min exponent) of phi along each variable in ``indices``."""
    return tuple(max(0, -(phi.min_exponent(j) or 0)) for j in indices)


def _pole_vector(phi: LaurentPolynomial, indices: Sequence[int]):
    """Exponent vector of the pole monomial prod x_j^{pole order} over ``indices``."""
    exp = [0] * len(phi.vars)
    for j, p in zip(indices, pole_orders(phi, indices)):
        exp[j] = p
    return exp


def _shifted(phi: LaurentPolynomial, shift: Sequence[int]) -> LaurentPolynomial:
    """phi times the monomial x^shift.  A translation keeps the lexicographic
    order of the exponents, so the terms stay sorted."""
    if not any(shift):
        return phi
    return LaurentPolynomial._trusted(
        phi.vars, {tuple(map(add, e, shift)): c for e, c in phi.terms.items()}, phi.field)


def log_gradient(phi: LaurentPolynomial) -> Tuple[LaurentPolynomial, ...]:
    """The log gradient (x_l d/dx_l phi)_l over every variable of phi.

    Every twisted differential of phi is an exponent shift of it (``twist``),
    so a caller that needs several of them differentiates once."""
    return tuple(phi.log_partial(l) for l in range(len(phi.vars)))


def _entry_shifts(pole: Sequence[int], log_indices: Sequence[int]):
    """The exponent shift of each entry l of a twist: ``pole``, and -1 more in
    x_l where D_l is d/dx_l."""
    for l in range(len(pole)):
        if l in log_indices:
            yield pole
        else:
            shift = list(pole)
            shift[l] -= 1
            yield shift


def twist(gradient: Sequence[LaurentPolynomial], pole: Sequence[int],
          log_indices: Sequence[int], on: Optional[int] = None
          ) -> Tuple[LaurentPolynomial, ...]:
    """The coefficients t * D_l(phi) of the twisted differential theta, from
    the log gradient of phi; with ``on=j``, theta restricted to x_j = 0.

    D_l is x_l d/dx_l for l in ``log_indices`` and d/dx_l otherwise; t is the
    monomial with exponent vector ``pole``.  Multiplying by t is an exponent
    shift, and d/dx_l is x_l d/dx_l shifted once more by -1 in x_l.  With
    pole[j] the pole order of phi along x_j, the restriction keeps the terms
    whose x_j exponent is -pole[j] (log derivatives keep exponents), so only
    those are shifted.  For a log variable x_j the x_j entry on x_j = 0 is
    -pole[j] times those terms of phi: it is never zero when pole[j] > 0.
    """
    shifts = _entry_shifts(pole, log_indices)
    if on is None:
        return tuple(map(_shifted, gradient, shifts))
    a = -pole[on]
    return tuple(LaurentPolynomial._trusted(
        g.vars, {tuple(map(add, e, shift)): c for e, c in g.terms.items() if e[on] == a},
        g.field) for g, shift in zip(gradient, shifts))


def twist_at_origin(gradient: Sequence[LaurentPolynomial], pole: Sequence[int],
                    log_indices: Sequence[int]) -> Tuple[Scalar, ...]:
    """The constant terms of ``twist(gradient, pole, log_indices)``, read
    without shifting: the constant term of x^shift * g is the coefficient
    of g at -shift."""
    return tuple(g.coefficient([-x for x in shift])
                 for g, shift in zip(gradient, _entry_shifts(pole, log_indices)))


def is_unit_in_R_n0(u: LaurentPolynomial) -> bool:
    """Unit test in the formal power-series ring: support in N^n, u(0) != 0."""
    if u.is_zero:
        return False
    if any(a < 0 for e in u.terms for a in e):
        return False
    return not u.constant_term().is_zero


def monomial_times_unit(phi: LaurentPolynomial, log_indices: Sequence[int]):
    """Decompose phi = u * prod x_j^{-i_j} over the log variables, if possible.

    Returns (i_vector, u) with i_j >= 0 and u a power-series unit, or None if
    no such form exists.  Entries of i_vector follow log_indices order.
    """
    if phi.is_zero:
        return None
    shifted = _shifted(phi, _pole_vector(phi, log_indices))
    if is_unit_in_R_n0(shifted):
        return pole_orders(phi, log_indices), shifted
    return None
