import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from logchar.field import QQ, NumberField, Scalar
from logchar.laurent import (
    DimensionMismatch,
    LaurentPolynomial,
    is_unit_in_R_n0,
    log_gradient,
    monomial_times_unit,
    twist,
)

L = LaurentPolynomial


def P(vars, d):
    return L(vars, d)


def _random_poly(rng, vars):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        e = tuple(rng.randint(-3, 3) for _ in vars)
        terms[e] = Fraction(rng.randint(-4, 4))
    return L(vars, terms)


def test_log_derivative_examples():
    # x^-2, log in x -> -2 x^-2
    phi = P(("x",), {(-2,): 1})
    assert phi.log_partial(0) == P(("x",), {(-2,): -2})
    # x/y^2, y ordinary: d/dy -> -2 x y^-3
    phi = P(("x", "y"), {(1, -2): 1})
    assert phi.partial(1) == P(("x", "y"), {(1, -3): -2})
    # 3 + x^-1 y^-1, log in y -> -x^-1 y^-1
    phi = P(("x", "y"), {(0, 0): 3, (-1, -1): 1})
    assert phi.log_partial(1) == P(("x", "y"), {(-1, -1): -1})


def test_log_derivatives_commute():
    # x, y log and z ordinary: x d/dx, y d/dy and d/dz commute pairwise
    rng = random.Random(7)
    vars = ("x", "y", "z")
    ops = (lambda p: p.log_partial(0), lambda p: p.log_partial(1), lambda p: p.partial(2))
    for _ in range(40):
        phi = _random_poly(rng, vars)
        for di in ops:
            for dj in ops:
                assert di(dj(phi)) == dj(di(phi))


def test_unit_detection():
    assert is_unit_in_R_n0(P(("x", "y"), {(0, 0): 1, (1, 0): 1, (0, 2): 1}))
    assert not is_unit_in_R_n0(P(("x", "y"), {(1, 0): 1}))
    assert not is_unit_in_R_n0(P(("x",), {(0,): 2, (-1,): 1}))
    assert not is_unit_in_R_n0(L.zero(("x",)))


def test_monomial_times_unit():
    # (1+x) y^-2 over log var y (index 1)
    phi = P(("x", "y"), {(0, -2): 1, (1, -2): 1})
    got = monomial_times_unit(phi, [1])
    assert got is not None
    pole, u = got
    assert pole == (2,)
    assert is_unit_in_R_n0(u)
    # x * y^-2 is not monomial-times-unit
    assert monomial_times_unit(P(("x", "y"), {(1, -2): 1}), [1]) is None


def test_shift_and_restrict():
    phi = P(("x", "y"), {(1, -2): 1})  # x / y^2
    shifted = phi.shift_variable(0, 1)  # x -> x + 1
    assert shifted == P(("x", "y"), {(0, -2): 1, (1, -2): 1})
    with pytest.raises(ValueError):
        phi.shift_variable(1, 1)
    # theta = (y^2 d/dx, y^2 y d/dy) phi on y = 0, y the log variable
    assert twist(log_gradient(phi), (0, 2), (1,), on=1) == \
        (P(("x", "y"), {(0, 0): 1}), P(("x", "y"), {(1, 0): -2}))


def test_evaluate():
    phi = P(("x", "y"), {(-1, 1): 1, (0, 0): 2})
    v = phi.evaluate({"x": Fraction(1, 2), "y": 3})
    assert v.rational_value() == 8
    with pytest.raises(ZeroDivisionError):
        phi.evaluate({"x": 0, "y": 1})


# -- the twisted differential against its product formula ----------------------

Q2 = NumberField([-2, 0, 1])  # Q(a), a^2 = 2
VARS = ("x", "y", "z")


def _reference_derivative(phi, l, log):
    """x_l d/dx_l (log) or d/dx_l of phi, term by term through the public
    constructor."""
    terms = {}
    for e, c in phi.terms.items():
        if e[l]:
            d = list(e)
            d[l] -= 0 if log else 1
            terms[tuple(d)] = c * e[l]
    return L(phi.vars, terms, phi.field)


def _reference_pole(phi, along):
    """Exponent vector of prod x_j^{pole order of phi along x_j} over ``along``."""
    return [max([0] + [-e[j] for e in phi.terms]) if j in along else 0
            for j in range(len(phi.vars))]


def _reference_twisted_differential(phi, log_indices, along):
    """theta_l = pole monomial(phi, along) * D_l(phi) as a polynomial product."""
    tw = L.monomial(phi.vars, _reference_pole(phi, along), 1, phi.field)
    return tuple(tw * _reference_derivative(phi, l, l in log_indices)
                 for l in range(len(phi.vars)))


def _reference_restriction(p, j):
    """p at x_j = 0: its terms free of x_j, when p has no pole along x_j."""
    assert all(e[j] >= 0 for e in p.terms)
    return L(p.vars, {e: c for e, c in p.terms.items() if e[j] == 0}, p.field)


def _subsets(n):
    return [c for k in range(n + 1) for c in itertools.combinations(range(n), k)]


@st.composite
def _laurent(draw, n=None, field=None):
    """phi over Q or Q(sqrt 2) on 1-3 variables; log variables may carry poles."""
    n = draw(st.integers(1, 3)) if n is None else n
    field = draw(st.sampled_from((QQ, Q2))) if field is None else field
    log = draw(st.sets(st.integers(0, n - 1)))
    exps = st.tuples(*[st.integers(-3, 3) if j in log else st.integers(0, 3)
                       for j in range(n)])
    rat = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    coeff = rat.map(field) if field.is_rational else \
        st.tuples(rat, rat).map(lambda ab: field(ab[0]) + field.gen() * ab[1])
    return L(VARS[:n], draw(st.dictionaries(exps, coeff, max_size=4)), field)


def _assert_normal(p, field=None):
    """p holds the normal form: sorted int-tuple exponents of p's arity and
    nonzero coefficients of p's field (``field`` when given)."""
    assert type(p.vars) is tuple
    if field is not None:
        assert p.field == field
    keys = list(p.terms)
    assert keys == sorted(keys)
    for e, c in p.terms.items():
        assert type(e) is tuple and len(e) == len(p.vars)
        assert all(type(a) is int for a in e)
        assert isinstance(c, Scalar) and c.field == p.field and not c.is_zero
    rebuilt = L(p.vars, p.terms, p.field)
    assert list(rebuilt.terms.items()) == list(p.terms.items())


@settings(derandomize=True, deadline=None, max_examples=80)
@given(_laurent())
def test_twisted_differential_is_the_pole_monomial_product(phi):
    # twist builds theta from the log gradient; on x_j = 0, for a log x_j
    # whose pole theta is twisted by, it is theta with x_j set to 0
    gradient = log_gradient(phi)
    for log_indices in _subsets(len(phi.vars)):
        for along in _subsets(len(phi.vars)):
            pole = _reference_pole(phi, along)
            got = twist(gradient, pole, log_indices)
            want = _reference_twisted_differential(phi, log_indices, along)
            assert got == want, (phi, log_indices, along)
            for j in set(along) & set(log_indices):
                on = twist(gradient, pole, log_indices, on=j)
                assert on == tuple(_reference_restriction(t, j) for t in want), \
                    (phi, log_indices, along, j)
                got += on
            for t in got:
                _assert_normal(t, phi.field)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(st.integers(1, 3).flatmap(lambda n: st.tuples(
    _laurent(n=n), _laurent(n=n), _laurent(n=n, field=QQ), _laurent(n=n, field=Q2))))
def test_trusted_results_hold_the_normal_form(polys):
    p, q, r, k = polys
    n = len(p.vars)
    same = [q] if q.field == p.field else []
    for out in [-p, p * 3, p * Fraction(-2, 3), p * p.field(5), p * 0] + \
            [p + o for o in same] + [p * o for o in same] + [p - o for o in same]:
        _assert_normal(out, p.field)
    # Q x Q(sqrt 2): the result lives in the number field
    for out in (r + k, k + r, r * k, k * r, r - k):
        _assert_normal(out, Q2)
    _assert_normal(r * Q2.gen(), Q2)  # also when r is zero
    for j in range(n):
        _assert_normal(p.partial(j), p.field)
        _assert_normal(p.log_partial(j), p.field)
        lifted = p * L.monomial(p.vars, [3 if i == j else 0 for i in range(n)], 1, p.field)
        _assert_normal(lifted.shift_variable(j, Fraction(1, 2)), p.field)
    got = monomial_times_unit(p, list(range(n)))
    if got is not None:
        _assert_normal(got[1], p.field)


def test_field_of_a_product_is_the_join_of_the_operand_fields():
    # with or without terms, QQ widens to the number field of the other operand
    vs = ("x", "y")
    zero, one = L.zero(vs), L.constant(vs, 1)
    for p in (zero, one):
        assert (p * Q2.gen()).field == Q2
        assert (Q2.gen() * p).field == Q2
        assert (p * Q2.zero()).field == Q2
        assert (p + L.zero(vs, Q2)).field == Q2
        assert (p * L.zero(vs, Q2)).field == Q2
    assert (zero * Q2.gen()).is_zero and (one * Q2.gen()).terms == {(0, 0): Q2.gen()}
    for p in (L.zero(vs, Q2), L.constant(vs, Q2.gen(), Q2)):
        assert (p * 3).field == Q2 and (p * QQ(0)).field == Q2
    Q3 = NumberField([-3, 0, 1])
    for p in (zero, one):
        with pytest.raises(DimensionMismatch):
            (p * Q2.gen()) * Q3.gen()


def test_scalar_product_drops_zero_divisor_products():
    # a degree-5 modulus with no rational root is trusted unverified;
    # (a^2 - 2)(a^3 - 3) is reducible
    with pytest.warns(UserWarning):
        k = NumberField([6, 0, -3, -2, 0, 1])
    a = k.gen()
    p = L(("x", "y"), {(1, 0): a ** 2 - 2, (0, 1): 1}, k)
    assert (p * (a ** 3 - 3)).terms == {(0, 1): a ** 3 - 3}
