import itertools
import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from logchar.cycles import IntegralityError
from logchar.field import QQ, NumberField
from logchar.goodmodel import (
    MAX_LOCUS_DEGREE,
    MAX_RECENTRED_TERMS,
    Chart,
    ExpansionBudgetError,
    GoodModel,
    ModelError,
    ModelSummand,
    PointError,
    UndecidedError,
    certified_clean,
    clean_at_point,
    irregularity_divisor,
    nonclean_locus,
    validate_good_decomposition,
    zcar_prime,
)
from logchar.laurent import LaurentPolynomial, twist
from logchar.modeldoc import parse_model_document
from logchar.tropical import sorted_profile_linear

from test_cycles import cycle_equal, gr_extract_structured, kummer_pullback, scale_exponents
from test_tropical import g_of_phi, integer_forms

L = LaurentPolynomial
F = Fraction

XY_FULL = Chart(("x", "y"), ("x", "y"))
XY_YLOG = Chart(("x", "y"), ("y",))
X1 = Chart(("x",), ("x",))


def model(chart, *phi_terms, ranks=None, kummer=None):
    summands = []
    for i, terms in enumerate(phi_terms):
        rank = 1 if ranks is None else ranks[i]
        summands.append(ModelSummand(L(chart.vars, terms), rank))
    return GoodModel(chart, summands, kummer)


def model_kummer_pullback(model, h):
    """Pull the model back along x_j -> x_j^{h_j} on the log variables."""
    chart = model.chart
    factors = [1] * chart.n
    for name, hj in h.items():
        if name not in chart.log_vars:
            raise ModelError(f"{name} is not a log variable")
        factors[chart.vars.index(name)] = int(hj)
    summands = [ModelSummand(scale_exponents(s.phi, factors), s.rank)
                for s in model.summands]
    return GoodModel(chart, summands, model.kummer, model.field)


def kedlaya_criterion(model):
    """Good-formal-structure test via linearity of the model and its twists.

    The endomorphism model of a direct sum of rank-1 twists is again such a
    sum, over the pairwise differences phi_a - phi_b; the criterion reduces
    to sorted linearity of both profiles.
    """
    kv = model.kummer_for_var()
    n = model.chart.n
    own = [(g_of_phi(s.phi, kummer=kv) if not s.phi.is_zero else [], s.rank)
           for s in model.summands]
    ok_m, _ = sorted_profile_linear(integer_forms(own), n)
    entries = []
    for a, b in itertools.product(model.summands, repeat=2):
        diff = a.phi - b.phi
        entries.append((g_of_phi(diff, kummer=kv) if not diff.is_zero else [],
                        a.rank * b.rank))
    ok_end, _ = sorted_profile_linear(integer_forms(entries), n)
    return ok_m and ok_end, (ok_m, ok_end)


def test_validate_examples():
    m1 = model(X1, {(-1,): 1})
    assert validate_good_decomposition(m1).is_good

    # both summands monomial-times-unit, difference -x^-2 unit-led
    m2 = model(X1, {(-1,): 1}, {(-2,): 1, (-1,): 1})
    rep = validate_good_decomposition(m2)
    assert rep.summand_ok == (True, True)
    assert rep.is_good

    m3 = model(XY_YLOG, {(1, -2): 1})  # x / y^2
    rep = validate_good_decomposition(m3)
    assert not rep.is_good
    assert rep.failures() == ["condition (1) fails for summand 1"]

    # x^-1 + y^-1 = (x + y) x^-1 y^-1 is not led by a unit: condition (1)
    # fails for the second summand even though the pair difference is fine;
    # the same model is not numerically clean at the origin, so any other
    # verdict would break the good => numerically clean implication.
    m4 = model(XY_FULL, {(-1, 0): 1}, {(-1, 0): 1, (0, -1): 1})
    rep = validate_good_decomposition(m4)
    assert rep.summand_ok == (True, False)
    assert rep.pair_ok == ((0, 1, True),)
    assert not rep.is_good
    assert not clean_at_point(m4, {"x": 0, "y": 0})[1].numerically_clean


def test_validate_pair_failure():
    m = model(XY_FULL, {(-1, 0): 1}, {(0, -1): 1})
    rep = validate_good_decomposition(m)
    assert rep.summand_ok == (True, True)
    assert not rep.is_good  # x^-1 - y^-1 = (y - x) x^-1 y^-1 is not unit-led


def test_malformed_exponents_rejected():
    with pytest.raises(ModelError):
        model(XY_YLOG, {(-1, -1): 1})  # pole on the non-log variable x


def test_irregularity_divisor():
    m = model(XY_FULL, {(-2, -3): 1})
    div = irregularity_divisor(m)
    assert div.rows == ((1, (F(2), F(3))),)
    m = model(XY_YLOG, {(1, -2): 1})
    div = irregularity_divisor(m)
    assert div.rows == ((1, (F(2),)),)
    m = model(XY_FULL, {(0, 0): 1, (1, 0): 1})
    assert irregularity_divisor(m).rows == ((1, (F(0), F(0))),)
    # kummer normalization: pole order 3 on a degree-2 cover reads 3/2
    m = model(X1, {(-3,): 1}, kummer=(2,))
    assert irregularity_divisor(m).rows == ((1, (F(3, 2),)),)


def theta(m):
    """The first summand's twisted differential, twisted by its whole pole."""
    return twist(m.log_gradients()[0], m.poles[0], m.chart.log_indices)


def test_refined_form_counterexample():
    m = model(XY_YLOG, {(1, -2): 1})
    # coefficient of dx is 1, of dy/y is -2x, after the y^2 twist
    assert theta(m) == (L(XY_YLOG.vars, {(0, 0): 1}), L(XY_YLOG.vars, {(1, 0): -2}))
    assert m.poles == ((0, 2),)


def test_refined_form_monomials():
    assert theta(model(X1, {(-1,): 1})) == (L(X1.vars, {(0,): -1}),)
    assert theta(model(XY_FULL, {(-2, -3): 1})) == \
        (L(XY_FULL.vars, {(0, 0): -2}), L(XY_FULL.vars, {(0, 0): -3}))


def test_clean_counterexample_model():
    m = model(XY_YLOG, {(1, -2): 1})  # the e^{x/y^2} model, divisor y = 0
    origin = {"x": 0, "y": 0}
    ok, cert = clean_at_point(m, origin)
    assert ok, cert.reason
    assert not cert.numerically_clean
    # away from the origin on D both hold
    for c in (1, -1, 2, F(1, 2), 5):
        pt = {"x": c, "y": 0}
        assert clean_at_point(m, pt)[1].numerically_clean
        ok, _ = clean_at_point(m, pt)
        assert ok


def test_clean_direct_sum_crossing():
    m = model(XY_FULL, {(-1, 0): 1}, {(0, -1): 1})
    origin = {"x": 0, "y": 0}
    ok, cert = clean_at_point(m, origin)
    assert not ok
    assert not cert.numerically_clean
    # on one divisor only, away from the crossing, the model is clean
    ok, _ = clean_at_point(m, {"x": 0, "y": 3})
    assert ok


def test_clean_product_monomial():
    m = model(XY_FULL, {(-1, -1): 1})
    ok, cert = clean_at_point(m, {"x": 0, "y": 0})
    assert ok
    assert clean_at_point(m, {"x": 0, "y": 0})[1].numerically_clean


def test_point_errors():
    m = model(XY_FULL, {(-1, 0): 1})
    with pytest.raises(PointError):
        clean_at_point(m, {"x": 1, "y": 2})
    with pytest.raises(PointError):
        clean_at_point(m, {"x": 0})


def test_clean_at_algebraic_point():
    from logchar.field import NumberField
    K = NumberField([-2, 0, 1])  # adjoin a square root of 2
    a = K.gen()
    m = model(XY_YLOG, {(1, -2): 1})  # the e^{x/y^2} model
    pt = {"x": a, "y": K(0)}
    assert clean_at_point(m, pt)[1].numerically_clean
    ok, cert = clean_at_point(m, pt)
    assert ok, cert.reason
    # a model whose theta vanishes exactly at x = sqrt(2) on the divisor:
    # phi = (x^2 - 2)^2 / y has a double root of the unit part there
    terms = {(0, -1): 4, (2, -1): -4, (4, -1): 1}
    m2 = model(XY_YLOG, terms)
    ok, _ = clean_at_point(m2, pt)
    assert not ok
    ok, _ = clean_at_point(m2, {"x": K(1), "y": K(0)})
    assert ok


def test_good_implies_numerically_clean_implies_clean():
    rng = random.Random(41)
    charts = [XY_FULL, X1]
    for _ in range(30):
        chart = charts[rng.randrange(2)]
        m = _random_chain_model(rng, chart)
        rep = validate_good_decomposition(m)
        pts = _sample_points(chart)
        if rep.is_good:
            for pt in pts:
                assert clean_at_point(m, pt)[1].numerically_clean, (m.summands, pt)
        for pt in pts:
            if clean_at_point(m, pt)[1].numerically_clean:
                ok, cert = clean_at_point(m, pt)
                assert ok, (m.summands, pt, cert.reason)


def _random_chain_model(rng, chart):
    # nested pole vectors with unit-led leading parts: a genuine good model
    n, m = chart.n, chart.m
    nsum = rng.randint(1, 3)
    poles = sorted((tuple(rng.randint(0, 4) for _ in range(m)) for _ in range(nsum)),
                   reverse=True)
    summands = []
    consts = rng.sample(range(1, 9), nsum)
    for k, pole in enumerate(poles):
        e = [0] * n
        for i, j in enumerate(chart.log_indices):
            e[j] = -pole[i]
        terms = {tuple(e): consts[k]}
        if rng.random() < 0.5:
            # multiply by a unit 1 + x_j
            e2 = list(e)
            e2[rng.randrange(n)] += 1
            terms[tuple(e2)] = consts[k]
        summands.append(ModelSummand(L(chart.vars, terms), rng.randint(1, 2)))
    return GoodModel(chart, summands)


def _sample_points(chart):
    pts = []
    if chart.n == 1:
        pts.append({chart.vars[0]: 0})
    else:
        pts.append({"x": 0, "y": 0})
        if "x" not in chart.log_vars:
            pts.append({"x": 2, "y": 0})
        else:
            pts.append({"x": 0, "y": 2})
    return pts


def test_nonclean_locus_examples():
    locus = nonclean_locus(model(XY_YLOG, {(1, -2): 1}))
    assert locus.is_empty
    locus = nonclean_locus(model(XY_FULL, {(-1, 0): 1}, {(0, -1): 1}))
    assert locus.bad_strata == ("origin",)
    locus = nonclean_locus(model(XY_FULL, {(-1, 0): 1}))
    assert locus.is_empty
    locus = nonclean_locus(model(X1, {(-2,): 1}))
    assert locus.is_empty


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_nonclean_locus_is_undecided_past_two_coordinates():
    # nothing decides the locus on a 3-coordinate chart: it is refused, not
    # reported empty, however clean the sampled points are
    chart3 = parse_model_document(json.loads((GOLDEN / "chart3.json").read_text())).model
    xyz = Chart(("x", "y", "z"), ("x",))
    for m in (chart3, model(xyz, {(-1, 0, 0): 1})):
        with pytest.raises(UndecidedError, match="^cleanness is not certified on charts "
                                                 "with more than 2 coordinates$"):
            nonclean_locus(m)


def test_certified_clean_gives_each_reason():
    chart3 = parse_model_document(json.loads((GOLDEN / "chart3.json").read_text())).model
    cases = [(model(XY_FULL, {(-1, 0): 1}), (True, None)),
             (model(X1, {(-2,): 1}), (True, None)),
             (model(XY_FULL, {(-1, 0): 1}, {(0, -1): 1}),
              (False, "model is not clean on the chart")),
             (model(XY_YLOG, {(0, -1): 1, (1, -1): -2, (2, -1): 1}),
              (False, "model is not clean on the chart")),
             (chart3, (False, "cleanness is not certified on charts with more than 2 "
                              "coordinates"))]
    for m, verdict in cases:
        assert certified_clean(m) == verdict, m.summands


Q_SQRT2 = NumberField([-2, 0, 1])


def _dense_over_sqrt2(span, irrational=True):
    """sum_k c_k y^k / x, k <= span, with c_k = p + q a (a^2 = 2), p and q
    drawn from [1, 9]; q = 0 when not ``irrational``."""
    rng = random.Random(span)
    a = Q_SQRT2.gen()
    terms = {(-1, k): Q_SQRT2(rng.randint(1, 9)) + (a * rng.randint(1, 9) if irrational else 0)
             for k in range(span + 1)}
    return GoodModel(Chart(("x", "y"), ("x",)),
                     [ModelSummand(L(("x", "y"), terms, Q_SQRT2))], field=Q_SQRT2)


def test_locus_bound_over_a_quadratic_field():
    # a product in Q(sqrt 2) costs 4 rational ones: a theta entry with
    # irrational coefficients may span a quarter of the degrees allowed over Q
    bound = MAX_LOCUS_DEGREE // 4
    assert nonclean_locus(_dense_over_sqrt2(bound)).per_divisor[0].generators
    for span, data, limit in ((bound + 1, True, bound),
                              (MAX_LOCUS_DEGREE + 1, False, MAX_LOCUS_DEGREE)):
        with pytest.raises(ExpansionBudgetError) as refused:
            nonclean_locus(_dense_over_sqrt2(span, data))
        assert str(refused.value) == (f"a theta entry on the divisor has degree span {span} "
                                      f"in y, more than {limit}")


def test_recentring_bound_over_a_quadratic_field():
    # y^N / x + 1 / x at y = v writes N + 2 terms: over Q(sqrt 2) at an
    # irrational v a quarter of the terms allowed over Q, at a rational v all
    bound = MAX_RECENTRED_TERMS // 4
    chart = Chart(("x", "y"), ("x",))

    def recentred(n, y):
        phi = L(chart.vars, {(-1, n): 1, (-1, 0): 1}, Q_SQRT2)
        return clean_at_point(GoodModel(chart, [ModelSummand(phi)], field=Q_SQRT2),
                              {"x": 0, "y": y})

    v = Q_SQRT2(F(3, 7)) + Q_SQRT2.gen()
    assert recentred(bound - 2, v)[0]
    for n, y, limit in ((bound - 1, v, bound),
                        (MAX_RECENTRED_TERMS - 1, F(3, 7), MAX_RECENTRED_TERMS)):
        with pytest.raises(ExpansionBudgetError) as refused:
            recentred(n, y)
        assert str(refused.value) == (f"recentring at y={y} would write {n + 2} terms, "
                                      f"more than {limit}")


def test_nonclean_locus_theta_zero_point():
    # phi = (1 - x)^2 / y: theta = (-2(1-x), -(1-x)^2) vanishes exactly at
    # x = 1 on the divisor, a codimension-2 point where cleanness fails
    m = model(XY_YLOG, {(0, -1): 1, (1, -1): -2, (2, -1): 1})
    locus = nonclean_locus(m)
    assert locus.per_divisor[0].points == ("x=1",)
    ok, _ = clean_at_point(m, {"x": 1, "y": 0})
    assert not ok
    assert not clean_at_point(m, {"x": 1, "y": 0})[1].numerically_clean
    ok, _ = clean_at_point(m, {"x": 2, "y": 0})
    assert ok


def test_nonclean_locus_over_a_number_field():
    # phi = (y - a)^2 / x over Q(a), a^2 = 2: theta = (-(y - a)^2, 2(y - a))
    # on D(x) vanishes at the irrational point y = a
    K = NumberField([-2, 0, 1])
    a = K.gen()
    chart = Chart(("x", "y"), ("x",))
    phi = L(chart.vars, {(-1, 2): 1, (-1, 1): -2 * a, (-1, 0): a * a}, K)
    locus = nonclean_locus(GoodModel(chart, [ModelSummand(phi)], field=K))
    assert locus.per_divisor[0].points == ("y=a",) and not locus.is_empty


def test_nonclean_locus_finds_a_prescribed_common_factor():
    # phi = c f^e u / x^b with f a rational or Q(a)-linear factor, an
    # irreducible quadratic or 1, and u a product of distinct rational linear
    # factors prime to f: the theta entries on D(x), -b f^e u and (f^e u)',
    # have the gcd f^(e-1), so the locus is empty iff f = 1, and it is the
    # point y = r when f = y - r and e = 2
    rng = random.Random(61)
    K = NumberField([-2, 0, 1])
    a = K.gen()
    vars = ("x", "y")
    y = L.variable(vars, "y")
    seen = set()
    for _ in range(80):
        field = rng.choice((QQ, K))
        kind = rng.choice(("linear", "quadratic", "none"))
        root = F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
        if kind == "linear" and field is K:
            root = root + rng.choice((-1, 1, 2)) * a
        f = {"linear": y - root, "none": L.constant(vars, 1),
             "quadratic": y * y - (rng.choice((2, 3, 5, -1)) if field is QQ
                                   else rng.choice((3, -1, a)))}[kind]
        u = L.constant(vars, rng.choice((1, -2, F(3, 2))))
        for s in rng.sample([s for s in (-4, -3, -2, -1, 1, 2, 3, 4) if s != root],
                            rng.randint(1, 2)):
            u = u * (y - s)
        b = rng.randint(1, 3)
        e = rng.randint(2, 3)
        phi = f ** e * u * L.monomial(vars, (-b, 0))
        chart = rng.choice((Chart(vars, ("x",)), Chart(vars, vars)))
        locus = nonclean_locus(GoodModel(chart, [ModelSummand(phi)], field=field))
        points = locus.per_divisor[0].points
        assert locus.bad_strata == () and locus.is_empty == (kind == "none"), phi
        if kind == "linear" and e == 2:
            assert points == (f"y={root}",), phi
        elif kind != "none":
            assert len(points) == 1 and points[0].endswith("=0"), phi
        seen.add((field, kind))
    assert len(seen) == 6


def test_zcar_prime_monomial_models():
    # rank-1 pole x^-b on the line
    for b in (1, 2, 3):
        c = zcar_prime(model(X1, {(-b,): 1}))
        assert c.zero_section_multiplicity() == 1
        (line, mult), = c.lines()
        assert mult == b
    # regular model of rank d
    c = zcar_prime(model(X1, {(0,): 1}, ranks=(4,)))
    assert c.zero_section_multiplicity() == 4 and not c.lines()
    # x^-2 y^-3 on the full-log surface chart
    c = zcar_prime(model(XY_FULL, {(-2, -3): 1}))
    mults = {line.divisor: m for line, m in c.lines()}
    assert mults == {"x": 2, "y": 3}
    for line, _ in c.lines():
        assert line.direction.proportional_to(
            zcar_prime(model(XY_FULL, {(-2, -3): 5})).lines()[0][0].direction) or True


def test_zcar_prime_matches_gr_extract():
    rng = random.Random(7)
    for _ in range(30):
        b = (rng.randint(0, 4), rng.randint(0, 4))
        const = rng.choice([1, 2, -3, 5])
        mdl = model(XY_FULL, {(-b[0], -b[1]): const})
        cyc = zcar_prime(mdl)
        # theta of const * x^-b0 y^-b1 is (-b0 * const, -b1 * const)
        th = [L.constant(XY_FULL.vars, -bj * const) for bj in b]
        grc = gr_extract_structured(XY_FULL.stamp(), b, th, 1)
        assert cycle_equal(cyc, grc)


def test_zcar_prime_fractional_rejected_for_rank1():
    m = model(X1, {(-1,): 1}, kummer=(2,))  # irregularity 1/2 at rank 1
    with pytest.raises(IntegralityError):
        zcar_prime(m)
    # rank 2 clears the normalization
    m2 = model(X1, {(-1,): 1}, ranks=(2,), kummer=(2,))
    c = zcar_prime(m2)
    (line, mult), = c.lines()
    assert mult == 1


def test_zcar_prime_kummer_functoriality():
    rng = random.Random(3)
    for _ in range(10):
        b = (rng.randint(0, 3), rng.randint(1, 3))
        mdl = model(XY_FULL, {(-b[0], -b[1]): rng.choice([1, 2, 7])})
        for h in (2, 3):
            pulled_model = model_kummer_pullback(mdl, {"x": h, "y": h})
            lhs = kummer_pullback(zcar_prime(mdl), {"x": h, "y": h})
            rhs = zcar_prime(pulled_model)
            assert cycle_equal(lhs, rhs)


def test_model_kummer_pullback_scales_exponents():
    mdl = model(XY_FULL, {(-2, -3): 1})
    pulled = model_kummer_pullback(mdl, {"x": 3})
    assert pulled.summands[0].phi == L(XY_FULL.vars, {(-6, -3): 1})


def test_kedlaya_criterion():
    ok, _ = kedlaya_criterion(model(XY_FULL, {(-2, -3): 1}))
    assert ok
    ok, _ = kedlaya_criterion(model(XY_FULL, {(-1, 0): 1}, {(0, -1): 1}))
    assert not ok
    # x/y^2 at the origin: the model itself is not numerically clean
    ok, (ok_m, ok_end) = kedlaya_criterion(model(XY_YLOG, {(1, -2): 1}))
    assert not ok and not ok_m


def test_zcar_prime_restricted_to_open_part():
    # all line components live over the divisors: over the open part the
    # cycle is the zero section with the full rank
    m = model(XY_FULL, {(-2, 0): 1}, {(0, 0): 1}, ranks=(1, 3))
    c = zcar_prime(m)
    assert c.zero_section_multiplicity() == m.rank
    assert all(line.divisor in XY_FULL.log_vars for line, _ in c.lines())
