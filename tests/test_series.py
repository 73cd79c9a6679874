import random
from fractions import Fraction

import pytest

from logchar.series import LaurentSeries, PrecisionError

S = LaurentSeries


def test_exact_arithmetic():
    f = S("t", {-2: 1, 0: 3})
    g = S("t", {1: 2})
    assert (f + g).terms == {-2: 1, 0: 3, 1: 2}
    assert (f * g).terms == {-1: 2, 1: 6}
    assert (f * g).is_exact
    assert (f - f).is_exactly_zero


def test_precision_min_on_add():
    f = S("t", {0: 1}, prec=5)
    g = S("t", {0: 1}, prec=9)
    assert (f + g).prec == 5
    assert (f + S("t", {0: 4})).prec == 5


def test_precision_on_mul_tracks_valuations():
    f = S("t", {-3: 1}, prec=4)   # t^-3 + O(t^4)
    g = S("t", {2: 1})            # exact t^2
    assert (f * g).prec == 6
    h = S("t", {1: 1}, prec=3)
    # unknown tail of f times t^1, unknown tail of h times t^-3
    assert (f * h).prec == min(4 + 1, 3 - 3)


def test_valuation_certification():
    assert S("t", {3: 5}, prec=10).valuation() == 3
    assert S.zero().valuation() is None
    with pytest.raises(PrecisionError):
        S("t", {}, prec=7).valuation()


def test_derivatives():
    f = S("t", {-2: 1, 0: 4, 3: 2})
    assert f.derivative().terms == {-3: -2, 2: 6}
    assert S("t", {0: 1}, prec=6).derivative().prec == 5


def test_inverse():
    f = S("t", {1: 1, 2: 1})  # t(1+t)
    inv = f.inverse()
    assert inv.prec == 31  # the window of 32 terms from t^-1
    assert (f * inv).agrees_with(S.constant(1))
    # alternating geometric coefficients
    assert inv.terms[-1] == 1
    assert inv.terms[0] == -1
    assert inv.terms[1] == 1


def test_division_round_trip():
    f = S("t", {-1: 2, 3: 5})
    g = S("t", {2: 3, 4: 1})
    q = f / g
    assert (q * g).agrees_with(f, upto=10)


def test_never_reports_more_precision_than_inputs():
    f = S("t", {0: 1}, prec=5)
    g = S("t", {0: 1}, prec=7)
    assert (f * g).prec <= 5
    assert (f + g).prec <= 5


# -- the inversion by truncated geometric powers that the recurrence replaced,
# kept as a reference


def _reference_inverse(s):
    v = s.valuation()
    lead = s.terms[v]
    w = 32 if s.prec is None else min(32, s.prec - v)
    inv_lead = 1 / lead
    norm = s.shift(-v) * inv_lead
    u = S.constant(1) - norm
    acc = S.constant(1).truncate(w)
    power = u.truncate(w)
    while not power.is_exactly_zero and power.terms:
        acc = (acc + power).truncate(w)
        power = (power * u).truncate(w)
    return (acc * inv_lead).shift(-v).truncate(w - v)


def _random_series(rng):
    coeff = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    v = rng.randint(-4, 4)
    terms = {v: coeff()}
    for _ in range(rng.randint(0, 5)):
        terms[v + rng.randint(1, 12)] = coeff()
    prec = None if rng.random() < 0.5 else v + rng.randint(1, 20)
    return S("t", terms, prec)


def test_inverse_agrees_with_reference():
    rng = random.Random(17)
    for _ in range(100):
        s = _random_series(rng)
        got = s.inverse()
        want = _reference_inverse(s)
        assert (got.terms, got.prec) == (want.terms, want.prec), s
        product = s * got
        assert product.prec >= 1  # the constant term is known
        assert product.agrees_with(S.constant(1))


def _coeff_data(s):
    return [(e, type(c), c) for e, c in s.terms.items()]


def test_scalar_product_agrees_with_constant_series_product():
    # scaling each term must give the product with the exact constant series
    rng = random.Random(29)
    scalars = (lambda: rng.randint(-5, 5),
               lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               lambda: 0, lambda: Fraction(0))
    zeros = 0
    for _ in range(150):
        if rng.random() < 0.1:
            s = S("t", {}, rng.choice((None, rng.randint(-3, 5))))
        else:
            s = _random_series(rng)
        c = rng.choice(scalars)()
        want = s * S.constant(c)
        for got in (s * c, c * s):
            assert (_coeff_data(got), got.prec) == (_coeff_data(want), want.prec), (s, c)
        if c == 0:
            zeros += 1
            assert (s * c).is_exactly_zero
    assert zeros >= 20
