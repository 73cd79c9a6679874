import random
from fractions import Fraction

import pytest

from logchar.field import QQ, FieldError, NumberField, Scalar, parse_rational


def test_rational_basics():
    a = QQ(Fraction(3, 4))
    b = QQ(2)
    assert (a + b).rational_value() == Fraction(11, 4)
    assert (a * b).rational_value() == Fraction(3, 2)
    assert (a - a).is_zero
    assert (b / a).rational_value() == Fraction(8, 3)
    assert a == Fraction(3, 4)
    assert QQ(0).is_zero


def test_field_axioms_random_triples():
    rng = random.Random(11)
    for _ in range(200):
        x, y, z = (QQ(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        if not x.is_zero:
            assert (x * x.inverse()) == 1


def test_number_field_sqrt2():
    K = NumberField([-2, 0, 1])  # a^2 = 2
    a = K.gen()
    assert a * a == 2
    assert (a + 1) * (a - 1) == 1
    inv = (a + 1).inverse()
    assert (a + 1) * inv == 1
    # mixing with rationals promotes
    assert (QQ(3) + a) == (a + 3)


def test_number_field_inverse_random():
    K = NumberField([1, 0, 1, 1])  # a^3 + a + 1, irreducible (no rational root)
    rng = random.Random(5)
    for _ in range(40):
        x = Scalar(K, [Fraction(rng.randint(-5, 5)) for _ in range(3)])
        if x.is_zero:
            continue
        assert x * x.inverse() == 1


def test_reducible_modulus_rejected():
    with pytest.raises(FieldError):
        NumberField([-1, 0, 1])  # a^2 = 1 splits
    with pytest.raises(FieldError):
        NumberField([0, 1, 1])  # root 0
    with pytest.raises(FieldError):
        NumberField([-4, 0, 0, 0, 1])  # x^4 - 4 = (x^2-2)(x^2+2)
    with pytest.raises(FieldError):
        NumberField([2, 1, 2, 0, 1])  # (x^2 - x + 2)(x^2 + x + 1)
    with pytest.raises(FieldError):
        NumberField([3, 5, 6, 3, 1])  # (x^2 + x + 1)(x^2 + 2x + 3)


def test_irreducible_quartic_accepted():
    NumberField([2, 0, 0, 0, 1])  # x^4 + 2, Eisenstein
    NumberField([1, 1, 1, 1, 1])  # 5th cyclotomic
    NumberField([1, 0, -10, 0, 1])  # minimal polynomial of sqrt(2) + sqrt(3)


def test_degree_cap_and_warning():
    with pytest.raises(FieldError):
        NumberField([1] + [0] * 6 + [1])  # degree 7
    with pytest.warns(UserWarning):
        NumberField([3, 0, 0, 0, 0, 1])  # degree 5 trusted with warning


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == -7
    assert parse_rational(5) == 5
    with pytest.raises(FieldError, match="zero denominator"):
        parse_rational(" 1/0 ")


def test_rational_path_agrees_with_generic_path():
    # Over QQ the arithmetic works on the stored Fraction; the degree-1 field
    # Q[a]/(a - c) is Q again, but its scalars go through the polynomial code.
    rng = random.Random(53)
    ops = [
        ("add", lambda x, y: x + y), ("sub", lambda x, y: x - y),
        ("mul", lambda x, y: x * y), ("div", lambda x, y: x / y),
        ("radd", lambda x, y: y + x), ("rsub", lambda x, y: y - x),
        ("rmul", lambda x, y: y * x), ("rdiv", lambda x, y: y / x),
    ]
    for _ in range(300):
        c = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        K = NumberField([-c, 1])
        xv, yv = (rng.choice([0, rng.randint(-9, 9),
                              Fraction(rng.randint(-20, 20), rng.randint(1, 12))])
                  for _ in range(2))
        xq, xk = QQ(xv), K(xv)
        assert xk.field.modulus is not None and xq.coeffs == xk.coeffs
        assert (-xq).coeffs == (-xk).coeffs
        assert hash(xq) == hash(xk)
        for n in (-2, 0, 1, 3):
            if n >= 0 or xv:
                assert (xq ** n).coeffs == (xk ** n).coeffs
        for yq, yk in ((QQ(yv), K(yv)), (yv, yv)):
            assert (xq == yq) == (xk == yk)
            for name, op in ops:
                try:
                    expected = op(xk, yk).coeffs
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(xq, yq)
                    continue
                got = op(xq, yq)
                assert got.field == QQ and got.coeffs == expected, (name, xv, yv)
                assert all(type(v) is Fraction for v in got.coeffs)
