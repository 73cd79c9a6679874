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
    assert (f * g).prec is None
    assert (f - f).is_exactly_zero


def test_inexact_arithmetic_raises():
    # a precision bound is born only in a quotient; sums, products and
    # derivatives refuse it rather than carry it on
    f = S("t", {0: 1}, prec=5)
    g = S("t", {-1: 2, 3: 1})
    for op in (lambda: f + g, lambda: g + f, lambda: f - g, lambda: g - f, lambda: 1 + f,
               lambda: f - 1, lambda: 1 - f, lambda: f * g, lambda: g * f, lambda: f * f,
               lambda: 3 * f, lambda: f * Fraction(1, 2), lambda: f * 0, lambda: f.derivative(),
               lambda: g / f, lambda: f / g, lambda: (g / g) * g):
        with pytest.raises(PrecisionError, match="exact operands"):
            op()
    # negation keeps the bound
    assert -f == S("t", {0: -1}, prec=5)


def test_valuation_certification():
    assert S("t", {3: 5}, prec=10).valuation() == 3
    assert S.zero().valuation() is None
    with pytest.raises(PrecisionError):
        S("t", {}, prec=7).valuation()


def test_derivatives():
    f = S("t", {-2: 1, 0: 4, 3: 2})
    assert f.derivative().terms == {-3: -2, 2: 6}
    with pytest.raises(PrecisionError):
        S("t", {0: 1}, prec=6).derivative()


def test_inverse():
    f = S("t", {1: 1, 2: 1})  # t(1+t)
    inv = S.constant(1) / f
    assert inv.prec == 31  # the window of 32 terms from t^-1
    # alternating geometric coefficients
    assert inv.terms == {n - 1: (-1) ** n for n in range(32)}


def test_division_round_trip():
    f = S("t", {-1: 2, 3: 5})
    g = S("t", {2: 3, 4: 1})
    q = f / g
    assert q.prec == -1 - 2 + 32
    # the known terms of q times g give f below q.prec + v(g)
    back = S("t", q.terms) * g
    assert S("t", back.terms, q.prec + 2) == S("t", f.terms, q.prec + 2)
    assert S.zero() / g == S.zero()
    with pytest.raises(ZeroDivisionError):
        f / S.zero()


# -- the quotient as the engine formed it before: the inverse by a triangular
# recurrence to 32 terms, times the exact numerator, truncated where the
# inverse's unknown tail reaches the product; kept as a reference


def reference_quotient(m, det):
    v = det.valuation()
    inv_lead = 1 / det.terms[v]
    tail = [(e - v, c) for e, c in det.terms.items() if e > v]
    b = [inv_lead]
    for n in range(1, 32):
        b.append(-inv_lead * sum((c * b[n - k] for k, c in tail if k <= n), Fraction(0)))
    if m.is_exactly_zero:
        return S.zero()
    prec = 32 - v + min(m.terms)
    out = {}
    for e1, c1 in m.terms.items():
        for n, c2 in enumerate(b):
            if e1 + n - v < prec:
                out[e1 + n - v] = out.get(e1 + n - v, 0) + c1 * c2
    return S("t", out, prec)


def _random_series(rng, exact=None):
    coeff = lambda: Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 4))
    v = rng.randint(-4, 4)
    terms = {v: coeff()}
    for _ in range(rng.randint(0, 5)):
        terms[v + rng.randint(1, 40)] = coeff()
    if exact is None:
        exact = rng.random() < 0.5
    return S("t", terms, None if exact else v + rng.randint(1, 20))


def test_quotient_agrees_with_reference():
    rng = random.Random(17)
    for _ in range(200):
        det = _random_series(rng, exact=True)
        m = S.zero() if rng.random() < 0.05 else _random_series(rng, exact=True)
        got, want = m / det, reference_quotient(m, det)
        assert (got.terms, got.prec) == (want.terms, want.prec), (m, det)


def _coeff_data(s):
    return [(e, type(c), c) for e, c in s.terms.items()]


def test_scalar_product_agrees_with_constant_series_product():
    # scaling each term must give the product with the exact constant
    # series, and refuse a series with a bound as that product does
    rng = random.Random(29)
    scalars = (lambda: rng.randint(-5, 5),
               lambda: Fraction(rng.randint(-5, 5), rng.randint(1, 4)),
               lambda: 0, lambda: Fraction(0))
    zeros = refused = 0
    for _ in range(150):
        if rng.random() < 0.1:
            s = S("t", {}, rng.choice((None, rng.randint(-3, 5))))
        else:
            s = _random_series(rng)
        c = rng.choice(scalars)()
        if s.prec is not None:
            for product in (lambda: s * c, lambda: c * s, lambda: s * S.constant(c)):
                with pytest.raises(PrecisionError):
                    product()
            refused += 1
            continue
        want = s * S.constant(c)
        for got in (s * c, c * s):
            assert (_coeff_data(got), got.prec) == (_coeff_data(want), want.prec), (s, c)
        if c == 0:
            zeros += 1
            assert (s * c).is_exactly_zero
    assert zeros >= 10 and refused >= 50, (zeros, refused)
