import random
from fractions import Fraction

import pytest

from logchar.laurent import (
    LaurentPolynomial,
    is_unit_in_R_n0,
    monomial_times_unit,
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
        phi.restrict_to_zero(1)
    assert (phi * P(("x", "y"), {(0, 2): 1})).restrict_to_zero(1) == \
        P(("x", "y"), {(1, 0): 1})


def test_evaluate():
    phi = P(("x", "y"), {(-1, 1): 1, (0, 0): 2})
    v = phi.evaluate({"x": Fraction(1, 2), "y": 3})
    assert v.rational_value() == 8
    with pytest.raises(ZeroDivisionError):
        phi.evaluate({"x": 0, "y": 1})


def test_scale_exponents():
    phi = P(("x", "y"), {(-2, 1): 5})
    assert phi.scale_exponents((3, 1)) == P(("x", "y"), {(-6, 1): 5})
