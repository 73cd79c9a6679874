import random
from collections import Counter
from fractions import Fraction
from math import lcm

import pytest

from logchar import cdvf
from logchar.field import (MAX_DIVISOR_STEPS, MAX_ROOT_CANDIDATES, QQ, FactorizationError,
                           FieldError, NumberField, Scalar, _divisors, _poly_divmod, _poly_mul,
                           factor_over_Q, parse_rational, rational_roots)


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


def test_modulus_reducible_by_descent():
    # m(a) = Q(a^h) with Q reducible over Q factors as Q does
    for modulus in ([6, 0, 0, -5, 0, 0, 1],      # (a^3 - 2)(a^3 - 3)
                    [-30, 0, 31, 0, -10, 0, 1],  # (a^2 - 2)(a^2 - 3)(a^2 - 5)
                    [4, 0, 4, 0, 1, 0, 1]):      # (a^4 + 4)(a^2 + 1)
        with pytest.raises(FieldError, match="reducible"):
            NumberField(modulus)
    # Q irreducible for every h decides nothing: a^6 + a^3 + 1 is irreducible,
    # and (a^3 - a - 1)(a^2 + 1) is not in Q[a^h]; both stay trusted
    for modulus in ([1, 0, 0, 1, 0, 0, 1], [-1, -1, -1, 0, 0, 1]):
        with pytest.warns(UserWarning):
            NumberField(modulus)


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


def _reference_rational_roots(coeffs):
    """Every candidate +-p/q with p | a_0 and q | a_n, p and q not necessarily
    coprime, evaluated as a sum of Fraction powers."""
    cs = [Fraction(c) for c in coeffs]
    while cs and cs[-1] == 0:
        cs.pop()
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
        for p in _divisors(ints[0]):
            for q in _divisors(ints[-1]):
                for cand in (Fraction(p, q), Fraction(-p, q)):
                    if sum(c * cand**i for i, c in enumerate(cs)) == 0:
                        roots.add(cand)
    return sorted(roots)


def test_rational_roots_agree_with_reference():
    # degree 1-6: rational linear factors, some repeated, times X^k (a zero
    # constant term) and a factor without rational roots, scaled by a
    # rational leading coefficient
    rng = random.Random(71)
    for _ in range(320):
        degree = rng.randint(1, 6)
        poly, roots = [Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 4))], []
        while len(poly) - 1 < degree:
            room = degree - (len(poly) - 1)
            kind = rng.random()
            if kind < 0.15:
                factor = [Fraction(0), Fraction(1)]
                root = Fraction(0)
            elif kind < 0.75 or room < 2:
                root = (roots[-1] if roots and rng.random() < 0.3
                        else Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
                m = rng.randint(1, 2)
                factor = [-root * m, Fraction(m)]
            else:  # X^2 + bX + c with b^2 <= 4 < 4c: no rational root
                factor, root = [Fraction(rng.randint(2, 5)), Fraction(rng.randint(-2, 2)),
                                Fraction(1)], None
            poly = _poly_mul(poly, factor)
            if root is not None:
                roots.append(root)
        got = rational_roots(poly)
        assert got == _reference_rational_roots(poly), poly
        assert set(got) == set(roots), poly
        assert all(type(r) is Fraction for r in got)
    assert rational_roots([0, 0, 3]) == [0]
    assert rational_roots([5]) == [] and rational_roots([]) == []


def test_trial_division_is_bounded():
    # isqrt(n) trial divisions are allowed up to the bound, one more is refused
    assert len(_divisors(MAX_DIVISOR_STEPS ** 2)) == 169  # 10^12 = 2^12 5^12
    with pytest.raises(FactorizationError, match="13-digit integer"):
        _divisors((MAX_DIVISOR_STEPS + 1) ** 2)
    with pytest.raises(FactorizationError):
        rational_roots([-(10**24 + 7), 0, 1])
    assert cdvf.FactorizationError is FactorizationError


def test_rational_root_candidates_are_bounded():
    # 2^4 3^4 5^3 7^3 has 400 divisors and 2^4 3^4 5^4 7^3 has 500: the pairs
    # are allowed up to the bound, and a factor 11 of a_n doubles them
    a0, an = 2 ** 4 * 3 ** 4 * 5 ** 3 * 7 ** 3, 2 ** 4 * 3 ** 4 * 5 ** 4 * 7 ** 3
    assert len(_divisors(a0)) * len(_divisors(an)) == MAX_ROOT_CANDIDATES
    assert rational_roots([a0, 0, an]) == []
    with pytest.raises(FactorizationError, match=f"needs {2 * MAX_ROOT_CANDIDATES} candidate"):
        rational_roots([a0, 0, 11 * an])
    # the quartic resolvent goes through the same search: X^4 + 210 X + 1/720720
    # needs 240 pairs, while its resolvent z^3 - z/180180 - 210^2, with ends
    # 210^2 * 180180 and 180180 once cleared, needs 1600 * 144
    with pytest.raises(FactorizationError, match="needs 230400 candidate pairs"):
        factor_over_Q([Fraction(1, 720720), 210, 0, 0, 1])


def _evaluate(cs, x):
    return sum(c * x ** i for i, c in enumerate(cs))


def test_poly_divmod_random():
    # q b + r = a, checked at more points than either side's degree, and
    # deg r < deg b; dividends may carry zero top coefficients
    rng = random.Random(22)

    def poly(n):
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]

    for _ in range(300):
        b = poly(rng.randint(0, 4)) + [Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 3))]
        a = poly(rng.randint(0, 9)) + [Fraction(0)] * rng.randint(0, 2)
        q, r = _poly_divmod(a, b)
        for x in range(len(a) + len(b)):
            assert _evaluate(q, x) * _evaluate(b, x) + _evaluate(r, x) == _evaluate(a, x)
        assert len(r) < len(b) and (not r or r[-1])
        deg_a = max((i for i, c in enumerate(a) if c), default=-1)
        assert len(q) == max(0, deg_a - len(b) + 2) and (not q or q[-1])
    assert _poly_divmod([0, 0], [1, 1]) == ([], [])


def test_scalar_reduction_by_the_modulus():
    # modulo a^n - m the coefficient of a^j is sum over i = j mod n of
    # c_i m^((i - j)/n); Scalar reduces through _poly_divmod
    rng = random.Random(23)
    for n, m in ((2, 2), (2, -1), (3, 2), (3, -5)):
        K = NumberField([-m] + [0] * (n - 1) + [1])
        for _ in range(40):
            cs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                  for _ in range(rng.randint(n, 3 * n + 2))] + [Fraction(0)] * rng.randint(0, 2)
            want = [sum(c * Fraction(m) ** ((i - j) // n) for i, c in enumerate(cs) if i % n == j)
                    for j in range(n)]
            while want and not want[-1]:
                want.pop()
            assert list(Scalar(K, cs).coeffs) == want


def test_factor_over_Q():
    # ascending coefficients; factors repeated by multiplicity, rest [1] when
    # the factorization is complete
    assert factor_over_Q([-1, 0, 1]) == ([[1, 1], [-1, 1]], [1])
    assert factor_over_Q([-2, 0, 1]) == ([[-2, 0, 1]], [1])
    # (X^2 + 1)^2
    assert factor_over_Q([1, 0, 2, 0, 1]) == ([[1, 0, 1], [1, 0, 1]], [1])
    # (X^2 - 2)(X^2 - 3)
    factors, rest = factor_over_Q([6, 0, -5, 0, 1])
    assert sorted(factors) == [[-3, 0, 1], [-2, 0, 1]] and rest == [1]
    # a quintic without a rational root is left unsplit, as rest
    assert factor_over_Q([-2, 0, 0, 0, 0, 1]) == ([], [-2, 0, 0, 0, 0, 1])
    # a 201-digit coefficient: the rational roots come from the end
    # coefficients alone, and the quadratic is irreducible
    assert factor_over_Q([1, 10**200, 1]) == ([[1, 10**200, 1]], [1])


def test_factor_over_Q_quartic_with_odd_terms():
    # (X^2 - X + 2)(X^2 + X + 1): the depressed quartic has a linear term
    factors, rest = factor_over_Q([2, 1, 2, 0, 1])
    assert sorted(factors) == [[1, 1, 1], [2, -1, 1]] and rest == [1]
    # (X^2 + X + 1)(X^2 + 2X + 3): a cubic term as well
    factors, rest = factor_over_Q([3, 5, 6, 3, 1])
    assert sorted(factors) == [[1, 1, 1], [3, 2, 1]] and rest == [1]


def test_factor_over_Q_products_of_known_irreducibles():
    # linear factors times one cofactor of degree <= 4: a root-free quadratic
    # (maybe squared), two of them, a root-free cubic, an irreducible quartic
    # shifted by a rational, or a Sophie Germain quartic
    # X^4 + 4c^4 = (X^2 + 2cX + 2c^2)(X^2 - 2cX + 2c^2)
    rng = random.Random(24)

    def rat(bound):
        return Fraction(rng.randint(-bound, bound), rng.randint(1, 3))

    def root_free(degree):
        while True:
            f = [rat(9) for _ in range(degree)] + [Fraction(1)]
            if f[0] and not _reference_rational_roots(f):
                return f

    def shifted(f, s):
        """f(X + s) for the monic f, ascending, by Horner."""
        out = [Fraction(1)]
        for c in f[-2::-1]:
            out = _poly_mul(out, [s, Fraction(1)])
            out[0] += c
        return out

    irreducible_quartics = ([-2, 0, 0, 0, 1], [1, 0, 0, 0, 1], [1, 1, 1, 1, 1],
                            [1, 0, -10, 0, 1])
    kinds = Counter()
    for _ in range(200):
        known = []
        for _ in range(rng.randint(0, 3)):
            root = -known[-1][0] if known and rng.random() < 0.3 else rat(5)
            known.append([-root, Fraction(1)])
        kind = rng.choice(("quadratic", "square", "quadratics", "cubic", "quartic", "germain"))
        kinds[kind] += 1
        if kind == "quadratic":
            known.append(root_free(2))
        elif kind == "square":
            known += [root_free(2)] * 2
        elif kind == "quadratics":
            known += [root_free(2), root_free(2)]
        elif kind == "cubic":
            known.append(root_free(3))
        elif kind == "quartic":
            known.append(shifted(rng.choice(irreducible_quartics), rat(4)))
        else:
            c = rat(3) or Fraction(1)
            known += [[2 * c * c, 2 * c, Fraction(1)], [2 * c * c, -2 * c, Fraction(1)]]
        poly = [Fraction(1)]
        for f in known:
            poly = _poly_mul(poly, f)
        factors, rest = factor_over_Q(poly)
        assert rest == [1], poly
        assert sorted(factors) == sorted(known), poly
    assert min(kinds.values()) >= 20, kinds
