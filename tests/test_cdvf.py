import glob
import itertools
import math
import os
import random
from collections import Counter
from fractions import Fraction
from math import gcd, lcm

import pytest

from logchar.cdvf import (
    GAUGE_LOG,
    GAUGE_PARTIAL,
    DiffOperator,
    FactorizationError,
    NewtonPolygon,
    OperatorError,
    RefinedClass,
    cyclic_vector,
    newton_polygon,
    refined_residue,
)
from logchar.cdvf import _apply_derivation, _face_polynomial, _maximal_minors
from logchar.cycles import ChartStamp, CycleError, Direction, DivisorLine, LogCycle, ZeroSection
from logchar.field import descend
from logchar.laurent import LaurentPolynomial
from logchar.modeldoc import load_json, parse_operator_document
from logchar.series import LaurentSeries, PrecisionError
from test_series import reference_quotient

S = LaurentSeries
L = LaurentPolynomial
F = Fraction


def op_partial(*coeff_dicts):
    return DiffOperator(GAUGE_PARTIAL, [S("t", d) for d in coeff_dicts])


def E_phi(exp, coeff=1):
    """Annihilator of the rank-1 twist attached to phi = coeff * t^exp."""
    return rank1_operator(S("t", {exp: coeff}))


def irr(op):
    return newton_polygon(op).irregularity_multiset()


def residue(op, b):
    return refined_residue(op, newton_polygon(op), b)


# -- the two gauges: reference expansions both ways ---------------------------


def _signed_stirling_first(n):
    """table[k][j]: coefficient of D^j in D(D-1)...(D-k+1), for k, j <= n."""
    rows = [[1] + [0] * n]
    for k in range(1, n + 1):
        prev = rows[-1]
        rows.append([(prev[j - 1] if j else 0) - (k - 1) * prev[j] for j in range(n + 1)])
    return rows


def to_log_gauge(op):
    """The operator in the log gauge, from t^k (d/dt)^k = D(D-1)..(D-k+1):
    times t^d, the coefficient of D^j is sum_i s(d-i, j) t^i c_i, known below
    the least c_i.prec + i that enters it.  A log-gauge operator is returned
    as it is."""
    if op.gauge == GAUGE_LOG:
        return op
    d = op.order
    stir1 = _signed_stirling_first(d)
    coeffs = []
    for j in reversed(range(d)):
        terms, prec = {}, None
        for i in range(d - j + 1):
            s, c = stir1[d - i][j], op.coefficient_of_power(d - i)
            if not s:
                continue
            if c.prec is not None and (prec is None or c.prec + i < prec):
                prec = c.prec + i
            for e, x in c.terms.items():
                terms[e + i] = terms.get(e + i, 0) + s * x
        coeffs.append(S("t", terms, prec))
    return DiffOperator(GAUGE_LOG, coeffs)


def _stirling_second(n):
    """table[k][j]: coefficient of t^j (d/dt)^j in D^k."""
    table = [[Fraction(0)] * (n + 1) for _ in range(n + 1)]
    table[0][0] = Fraction(1)
    for k in range(1, n + 1):
        for j in range(n + 1):
            table[k][j] = (table[k - 1][j - 1] if j else Fraction(0)) \
                + j * table[k - 1][j]
    return table


def _shift(f, k):
    """f times t^k, of an exact series."""
    return S(f.var, {e + k: c for e, c in f.terms.items()})


def to_partial_gauge(op):
    """The operator in the d/dt gauge, from D^k = sum_j S(k, j) t^j (d/dt)^j."""
    if op.gauge == GAUGE_PARTIAL:
        return op
    d = op.order
    stir2 = _stirling_second(d)
    acc = [S.zero() for _ in range(d + 1)]
    for i in range(d + 1):
        c_i = op.coefficient_of_power(d - i)
        k = d - i
        for j in range(k + 1):
            s = stir2[k][j]
            if s:
                acc[j] = acc[j] + _shift(c_i * s, j)
    coeffs = [_shift(acc[d - i], -d) for i in range(1, d + 1)]
    return DiffOperator(GAUGE_PARTIAL, coeffs)


def companion_matrix(op):
    """Matrix of d/dt on the basis v, v', .., v^{(d-1)} of the cyclic module."""
    p = to_partial_gauge(op)
    d = p.order
    zero = S.zero()
    one = S.constant(1)
    A = [[zero for _ in range(d)] for _ in range(d)]
    for j in range(d - 1):
        A[j + 1][j] = one
    for i in range(d):
        A[i][d - 1] = -p.coeffs[d - 1 - i]
    return A


# -- rank-1 local data -------------------------------------------------------


def rank1_operator(phi_series):
    """Annihilator d/dt - phi' of the rank-1 twist attached to phi."""
    return DiffOperator(GAUGE_PARTIAL, [-phi_series.derivative()])


def reference_theta_on_divisor(phi, log_indices, j0):
    """theta of phi twisted by its pole along x_j0 alone, at x_j0 = 0: the
    pole monomial times D_l(phi), D_l = x_l d/dx_l for l in ``log_indices``
    and d/dx_l otherwise, then the terms free of x_j0."""
    pole = [0] * len(phi.vars)
    pole[j0] = max(0, -(phi.min_exponent(j0) or 0))
    t = LaurentPolynomial.monomial(phi.vars, pole, 1, phi.field)
    out = []
    for l in range(len(phi.vars)):
        d = t * (phi.log_partial(l) if l in log_indices else phi.partial(l))
        out.append(LaurentPolynomial(d.vars, {e: c for e, c in d.terms.items() if e[j0] == 0},
                                     d.field))
    return out


def theta_relation_check(phi, cdvf_var=0):
    """Compatibility of the refined coefficients of a rank-1 class d(phi).

    With b the pole order along the distinguished variable and theta_j the
    reduction of t^b x_j d_j(phi) in the all-log basis, checks
    b * theta_j = -x_j d_j(theta_1) for every j distinct from the
    distinguished one.
    """
    n = len(phi.vars)
    j0 = cdvf_var
    m = phi.min_exponent(j0)
    if m is None or m >= 0:
        raise OperatorError("phi must have a pole along the distinguished variable")
    b = -m
    thetas = reference_theta_on_divisor(phi, range(n), j0)
    theta1 = thetas[j0]
    for j in range(n):
        if j == j0:
            continue
        if thetas[j] * b != -theta1.log_partial(j):
            return False
    return True


def local_zcar_rank1(phi, rank, chart_vars, cdvf_var_name=None):
    """Cycle of a rank-1 twist with regular padding over a one-divisor chart.

    The distinguished variable is the only log direction; basis
    dt/t, dx_2, .., dx_n.  Yields rank * [X] plus, for a pole of order b > 0,
    the line with direction (theta_1, .., theta_n) and multiplicity rank * b.
    """
    vars = tuple(chart_vars)
    name = cdvf_var_name if cdvf_var_name is not None else vars[0]
    j0 = vars.index(name)
    chart = ChartStamp(vars, (name,))
    if rank < 1:
        raise OperatorError("rank must be positive")
    m = phi.min_exponent(j0)
    b = -(m if m is not None else 0)
    parts = [(ZeroSection(), rank)]
    if b > 0:
        entries = reference_theta_on_divisor(phi, (j0,), j0)
        if entries[j0].is_zero:
            raise CycleError("leading refined coefficient vanished for a positive slope")
        parts.append((DivisorLine(name, Direction(entries), (Fraction(b),)), rank * b))
    return LogCycle(chart, parts)


# -- brute-force radius oracle -----------------------------------------------


def radius_oracle(A, s_max=40):
    """Interval bracketing the largest irregularity, by iterating d/dt.

    Exact iteration of the derivation on a basis; the growth rate of the
    pole order of the s-th iterate approaches (largest irregularity) + 1.
    Only meant as an independent test oracle (rank <= 2).
    """
    d = len(A)
    if d > 2:
        raise OperatorError("radius oracle implemented for rank <= 2")
    if s_max < 10:
        raise OperatorError("s_max must be at least 10")
    A = [[c if isinstance(c, LaurentSeries) else LaurentSeries.constant(c) for c in row]
         for row in A]
    if any(c.prec is not None for row in A for c in row):
        raise PrecisionError("oracle needs exact matrix entries")
    M = [[LaurentSeries.constant(1 if i == j else 0) for j in range(d)]
         for i in range(d)]
    samples = []
    for s in range(1, s_max + 1):
        M = [[M[i][j].derivative() + sum((A[i][k] * M[k][j] for k in range(d)),
                                         LaurentSeries.zero())
              for j in range(d)] for i in range(d)]
        vals = [c.valuation() for row in M for c in row if not c.is_exactly_zero]
        # the derivation on the base field alone already grows like t^{-s}
        pole = max(-min(vals), s) if vals else s
        if s >= s_max - 8:
            samples.append(Fraction(pole, s) - 1)
    slack = Fraction(3, s_max)
    return (min(samples) - slack, max(samples) + slack)


def test_polygon_euler_operator_regular():
    # d/dt - a/t: regular
    assert irr(op_partial({-1: F(-5, 3)})) == (0,)
    assert irr(op_partial({-1: 2})) == (0,)


def test_polygon_rank1_twists():
    # the twist by t^{-2} is annihilated by d/dt + 2 t^{-3}
    assert irr(E_phi(-2)) == (2,)
    assert E_phi(-2).coeffs[0].terms == {-3: 2}
    assert irr(op_partial({-3: 2})) == (2,)
    for b in range(1, 7):
        assert irr(E_phi(-b)) == (b,)


def test_polygon_half_slope():
    p = op_partial({}, {-3: -1})  # d^2 - t^-3
    poly = newton_polygon(p)
    assert poly.irregularity_multiset() == (F(1, 2), F(1, 2))
    assert poly.total_irregularity == 1


def test_polygon_gauge_conversion_round_trip():
    p = op_partial({-3: 2, 0: 1}, {-1: 5})
    q = to_partial_gauge(to_log_gauge(p))
    assert p.coeffs == q.coeffs
    assert irr(p) == irr(to_log_gauge(p))


def test_signed_stirling_rows_are_falling_factorials():
    for n in range(11):
        table = _signed_stirling_first(n)
        falling = [1]  # ascending coefficients of D(D-1)...(D-k+1)
        for k in range(n + 1):
            assert table[k] == falling + [0] * (n + 1 - len(falling))
            falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]


def _polygon_and_refined(op):
    """The polygon and every refined residue, an error standing for its value."""
    def attempt(f, *args):
        try:
            return f(*args)
        except (OperatorError, FactorizationError, PrecisionError) as exc:
            return type(exc), str(exc)
    poly = attempt(newton_polygon, op)
    if not isinstance(poly, NewtonPolygon):
        return [poly]
    return [poly] + [attempt(refined_residue, op, poly, v)
                     for v, _ in poly.irregularities if v > 0]


GOLDEN_OPS = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "golden", "op_*.json")))


@pytest.mark.parametrize("path", GOLDEN_OPS, ids=os.path.basename)
def test_polygon_and_refined_residue_same_in_either_gauge_golden(path):
    op = parse_operator_document(load_json(path))
    logop = to_log_gauge(op)
    assert logop.gauge == GAUGE_LOG and to_log_gauge(logop) is logop
    assert _polygon_and_refined(op) == _polygon_and_refined(logop)


def test_polygon_and_refined_residue_same_in_either_gauge_random():
    rng = random.Random(31)
    refined = 0
    for _ in range(80):
        coeffs = [{e: F(rng.randint(-4, 4), rng.randint(1, 3))
                   for e in range(-6, 2) if rng.random() < 0.3}
                  for _ in range(rng.randint(1, 4))]
        op = op_partial(*coeffs)
        want = _polygon_and_refined(op)
        assert _polygon_and_refined(to_log_gauge(op)) == want
        refined += sum(isinstance(r, RefinedClass) for r in want)
    assert refined >= 20


def malgrange_reference(logop):
    """Vertices and irregularity multiset of Malgrange's polygon of an exact
    log-gauge operator, by brute force: its height at x is the least height
    of the lower hull of the points (i, v(c_i)) at an abscissa <= x, and the
    hull's height at an integer is the least height there of a point or of a
    chord between two points."""
    d = logop.order
    pts = [(0, 0)] + [(i, c.valuation()) for i, c in enumerate(logop.coeffs, start=1)
                      if not c.is_exactly_zero]

    def hull_at(x):
        return min([F(y) for px, y in pts if px == x]
                   + [y0 + F((y1 - y0) * (x - x0), x1 - x0)
                      for x0, y0 in pts for x1, y1 in pts if x0 < x < x1], default=math.inf)

    heights = list(itertools.accumulate(map(hull_at, range(d + 1)), min))
    steps = [b - a for a, b in zip(heights, heights[1:])]
    vertices = tuple((x, heights[x]) for x in range(d + 1)
                     if x in (0, d) or steps[x - 1] != steps[x])
    return vertices, tuple(sorted((-s for s in steps), reverse=True))


def test_malgrange_polygon_and_faces_in_either_gauge_random():
    # 4,000 exact operators of order 1-7, each drawn in the d/dt or the log
    # gauge and read in both: the polygon is the brute-force Malgrange
    # polygon of the log-gauge expansion, the polygon and every refined
    # residue or error are those of that expansion, and every face polynomial
    # of positive irregularity is the one read on the pulled-back operator
    rng = random.Random(26)
    seen = Counter()
    for _ in range(4000):
        gauge = rng.choice((GAUGE_PARTIAL, GAUGE_LOG))
        op = DiffOperator(gauge, [
            S("t", {e: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))
                    for e in range(-9, 2) if rng.random() < 0.25})
            for _ in range(rng.randint(1, 7))])
        logop, partial = to_log_gauge(op), to_partial_gauge(op)
        assert to_log_gauge(partial).coeffs == logop.coeffs
        want = _polygon_and_refined(logop)
        assert _polygon_and_refined(partial) == want
        poly = want[0]
        assert (poly.vertices, poly.irregularity_multiset()) == malgrange_reference(logop)
        for b, _ in poly.irregularities:
            if b > 0:
                q = face_on_cover(logop, b)[1]
                assert _face_polynomial(partial, poly, b) == _face_polynomial(logop, poly, b) == q
                seen["face", b.denominator > 1] += 1
        seen["ray"] += poly.slopes[-1][0] == 0
    assert seen["face", False] >= 2000 and seen["face", True] >= 500, seen
    assert seen["ray"] >= 1000, seen


def test_polygon_total_integrality_random():
    rng = random.Random(9)
    for _ in range(100):
        d = rng.randint(1, 4)
        coeffs = []
        for _ in range(d):
            coeffs.append({e: rng.randint(-5, 5)
                           for e in range(-5, 3) if rng.random() < 0.5})
        poly = newton_polygon(op_partial(*coeffs))
        assert poly.total_irregularity.denominator == 1
        assert all(v >= 0 for v, _ in poly.irregularities)
        assert sum(m for _, m in poly.irregularities) == d


def test_polygon_precision_audit():
    # coefficient zero up to O(t^-5): cannot certify the polygon
    c = S("t", {}, prec=-5)
    with pytest.raises(PrecisionError):
        newton_polygon(DiffOperator(GAUGE_PARTIAL, [c]))
    # zero up to O(t^2): safely above the hull, treated as regular tail
    c2 = S("t", {}, prec=2)
    poly = newton_polygon(DiffOperator(GAUGE_LOG, [c2]))
    assert poly.irregularity_multiset() == (0,)


def test_refined_residue_rank1():
    # twist by t^{-2}: theta_1 = reduction of t^{b+1} phi' = -2
    ref = residue(E_phi(-2), 2)
    assert ref.residue_poly == (1, 2)  # X + 2, root -2
    assert ref.theta_values() == [-2]
    assert len(ref.orbits) == 1
    assert ref.orbits[0].residue_degree == 1


def test_refined_residue_direct_sum():
    # product annihilator of the twists by t^{-1} and -t^{-1}
    # (d + t^-2)(d - t^-2) = d^2 + (2 t^-3) d ... compute symbolically instead:
    # composition via companion of the product operator
    p1 = E_phi(-1)        # d + t^-2
    p2 = E_phi(-1, -1)    # d - t^-2
    prod = _compose(p1, p2)
    ref = residue(prod, 1)
    assert ref.residue_poly == (1, 0, -1)  # X^2 - 1
    assert sorted(ref.theta_values()) == [-1, 1]
    assert len(ref.orbits) == 2


def test_refined_residue_kummer():
    ref = residue(op_partial({}, {-3: -1}), F(1, 2))
    assert ref.kummer == 2
    assert ref.residue_poly == (1, 0, -4)  # X^2 - 4 after t -> t^2
    assert sorted(ref.theta_values()) == [-2, 2]
    # the two rational roots are swapped by the cover twist: one class
    assert len(ref.orbits) == 1
    assert ref.orbits[0].dimension == 2
    assert descend(ref.residue_poly[::-1], 2) == [-4, 1]


def test_refined_residue_polygon_count(monkeypatch):
    # the face is read on the base polygon the caller passes: no polygon is
    # computed, neither of the operator nor of a pulled-back one
    import logchar.cdvf as cdvf
    calls = []

    def counting(op):
        calls.append(op)
        return newton_polygon(op)

    monkeypatch.setattr(cdvf, "newton_polygon", counting)
    for op, b in [(E_phi(-2), F(2)), (_compose(E_phi(-1), E_phi(-3, 2)), F(3)),
                  (op_partial({}, {-3: -1}), F(1, 2)), (op_partial({}, {-5: 1}), F(3, 2))]:
        poly = newton_polygon(op)
        ref = refined_residue(op, poly, b)
        assert calls == []
        assert ref == refined_residue(to_log_gauge(op), poly, b)


# -- the Kummer pullback: reference for the face read on the base ------------


def substitute_power(f, h, scale=1):
    """Substitute t -> t^h (Kummer pullback of the coefficient field) and
    multiply by the nonzero scalar ``scale``; a bound prec becomes h prec."""
    return S(f.var, {e * h: c * scale for e, c in f.terms.items()},
             None if f.prec is None else f.prec * h)


def kummer(op, h):
    """Substitute t -> t^h in log gauge: coefficients pull back and the
    log derivation rescales by 1/h, so c_i picks up h^i."""
    op = to_log_gauge(op)
    return DiffOperator(GAUGE_LOG, [substitute_power(c, h, h ** i)
                                    for i, c in enumerate(op.coeffs, start=1)])


def _coefficient(f, e):
    """The coefficient of t^e, which must lie below the bound of f."""
    if f.prec is not None and e >= f.prec:
        raise PrecisionError(f"coefficient of t^{e} beyond precision {f.prec}")
    return f.terms.get(e, F(0))


def face_on_cover(op, b):
    """The face polynomial of slope -B read on the explicitly pulled-back
    operator and its own polygon, b = B/h; also returns that polygon."""
    h, B = b.denominator, b.numerator
    cover = kummer(op, h)
    poly = newton_polygon(cover)
    k = next(k for k, (sigma, _) in enumerate(poly.slopes) if sigma == -B)
    (i0, v0), (i1, _) = poly.vertices[k:k + 2]
    qs = [_coefficient(cover.coefficient_of_power(cover.order - i0 - l), v0 - B * l)
          for l in range(i1 - i0 + 1)]
    return poly, tuple(x / qs[0] for x in qs)


def test_substitute_power():
    f = S("t", {-2: 1, 1: 3})
    assert substitute_power(f, 3).terms == {-6: 1, 3: 3}
    assert substitute_power(S("t", {0: 1}, prec=2), 3).prec == 6
    assert substitute_power(f, 2, F(1, 2)).terms == {-4: F(1, 2), 2: F(3, 2)}


def _face_or_error(read, *args):
    try:
        return read(*args)
    except PrecisionError:
        return PrecisionError


def test_face_read_on_base_matches_pulled_back_operator():
    # log-gauge operators of order 1-6, some coefficients known only to a
    # finite precision: the face polynomial read on the base equals the one
    # read on the cover t = s^h, or both reads raise PrecisionError
    rng = random.Random(14)
    seen = Counter()
    for _ in range(1000):
        coeffs = _random_log_coeffs(rng)
        try:
            poly = newton_polygon(DiffOperator(GAUGE_LOG, coeffs))
        except PrecisionError:
            continue
        # a coefficient inside a face known only up to the face itself keeps
        # the polygon and leaves the face read short of one coefficient
        inside = [(i, v0 + sigma * (i - i0))
                  for (i0, v0), (sigma, w) in zip(poly.vertices, poly.slopes)
                  for i in range(i0 + 1, i0 + w)]
        inside = [(i, int(y)) for i, y in inside if y.denominator == 1]
        if inside and rng.random() < 0.5:
            i, y = rng.choice(inside)
            coeffs[i - 1] = S("t", {}, y + rng.randint(0, 1))
        op = DiffOperator(GAUGE_LOG, coeffs)
        assert newton_polygon(op) == poly
        for b, _ in poly.irregularities:
            if b <= 0:
                continue
            h = b.denominator
            want = _face_or_error(face_on_cover, op, b)
            if want is not PrecisionError:
                cover_poly, want = want
                # the cover polygon is the base polygon stretched by h, and
                # its face polynomial descends: it lies in Q[X^h]
                assert cover_poly.vertices == tuple((i, h * v) for i, v in poly.vertices)
                assert descend(want[::-1], h) is not None, (op, b)
            assert _face_or_error(_face_polynomial, op, poly, b) == want, (op, b)
            seen[h, want is PrecisionError] += 1
    assert all(seen[h, False] >= 10 for h in range(1, 7)), seen
    assert all(seen[h, True] >= 3 for h in range(1, 7)), seen


def _random_log_coeffs(rng):
    """Half the draws: order 1-6, sparse coefficients, some known to a finite
    precision.  The other half: one face of slope -B/h, h in 2..6, from (0, 0)
    with width h or 2h, every point on or above it."""
    def value():
        return F(rng.choice([-5, -3, -2, -1, 1, 2, 3, 5]), rng.randint(1, 3))

    if rng.random() < 0.5:
        return [S("t", {e: value() for e in range(-8, 3) if rng.random() < 0.3},
                  rng.randint(-6, 2) if rng.random() < 0.3 else None)
                for _ in range(rng.randint(1, 6))]
    h = rng.randint(2, 6)
    B = rng.choice([B for B in range(1, 8) if gcd(B, h) == 1])
    w = h * rng.randint(1, 2)
    coeffs = [S("t", {e: value() for e in range(-(B * i // h), 2 - (B * i // h))
                      if rng.random() < 0.4})
              for i in range(1, w)]
    return coeffs + [S("t", {-B * w // h: value(), 1 - B * w // h: value()})]


def _polygon_and_faces(op):
    """The polygon and each face polynomial of positive irregularity, with
    PrecisionError standing for a read that raised it."""
    poly = _face_or_error(newton_polygon, op)
    if poly is PrecisionError:
        return [poly]
    return [poly] + [_face_or_error(_face_polynomial, op, poly, b)
                     for b, _ in poly.irregularities if b > 0]


def _completed(op, rng):
    """The operator with each bounded coefficient made exact by random terms
    from its bound on."""
    return DiffOperator(op.gauge, [
        c if c.prec is None else
        S("t", {**c.terms, **{e: rng.randint(-2, 2) for e in range(c.prec, c.prec + 3)}})
        for c in op.coeffs])


def _random_bounded_partial(rng):
    """A d/dt operator of order 1-6 with some coefficients known only to a
    bound; when its polygon has a lattice point inside a face of negative
    slope, one such point is replaced by a bound at or one above the face."""
    coeffs = [S("t", {e: F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
                      for e in range(-9, 2) if rng.random() < 0.3},
                rng.randint(-8, 2) if rng.random() < 0.3 else None)
              for _ in range(rng.randint(1, 6))]
    try:
        poly = newton_polygon(DiffOperator(GAUGE_PARTIAL, coeffs))
    except PrecisionError:
        return DiffOperator(GAUGE_PARTIAL, coeffs)
    inside = [(i, v0 + sigma * (i - i0))
              for (i0, v0), (sigma, w) in zip(poly.vertices, poly.slopes) if sigma < 0
              for i in range(i0 + 1, i0 + w)]
    inside = [(i, int(y)) for i, y in inside if y.denominator == 1]
    if inside:
        i, y = rng.choice(inside)
        coeffs[i - 1] = S("t", {}, y - i + rng.randint(0, 1))
    return DiffOperator(GAUGE_PARTIAL, coeffs)


def test_polygon_and_faces_read_in_the_d_dt_gauge_within_its_bounds():
    # d/dt operators with coefficients known to O(t^p), and the annihilators
    # cyclic_vector returns for conjugated companions.  In the log-gauge
    # expansion c_j is known only below the least c_i.prec + i, i <= j; in the
    # d/dt gauge c_i is read against prec + i.  The polygon and every face
    # read raise PrecisionError or answer exactly as on the expansion, and a
    # read that answers is the one of two exact completions of the operator
    rng = random.Random(27)
    ops = [(False, _random_bounded_partial(rng)) for _ in range(1500)]
    for _ in range(30):
        source = op_partial(*[{e: rng.randint(-3, 3) for e in range(-5, 2) if rng.random() < 0.3}
                              for _ in range(rng.randint(2, 4))])
        A = _unitriangular_conjugate(companion_matrix(source), rng)
        ops.append((True, cyclic_vector(A)))
    seen = Counter()
    for cyclic, op in ops:
        got = _polygon_and_faces(op)
        assert got == _polygon_and_faces(to_log_gauge(op)), op
        for _ in range(2):
            exact = _polygon_and_faces(to_log_gauge(_completed(op, rng)))
            if got[0] is not PrecisionError:
                assert got[0] == exact[0], op
                assert all(g is PrecisionError or g == x for g, x in zip(got, exact)), op
        for k, g in enumerate(got):
            seen[cyclic, k > 0, g is PrecisionError] += 1
    for face in (False, True):
        assert seen[False, face, False] >= 100 and seen[False, face, True] >= 20, seen
    assert seen[True, True, False] >= 10, seen


def test_refined_residue_irrational_orbit():
    # twists by +-sqrt(2)/t descend to X^2 - 2: one orbit of size 2
    # annihilator with q(X) = X^2 - 2: D^2 + c1 D + c2 with face values
    op = DiffOperator(GAUGE_LOG, [S("t", {0: 0}), S("t", {-2: -2})])
    ref = residue(op, 1)
    assert ref.residue_poly == (1, 0, -2)
    assert len(ref.orbits) == 1
    assert ref.orbits[0].residue_degree == 2
    # Hasse-Arf: dim * slope / r = 2 * 1 / 2 = 1


def _face_operator(q, B, h):
    """A log-gauge operator with one face, of slope -B/h, whose face
    polynomial is q (monic, descending, in Q[X^h], q(0) != 0): its
    coefficients are c_l = q_l h^-l t^(-B l/h)."""
    return DiffOperator(GAUGE_LOG, [S("t", {-B * l // h: c / h ** l} if c else {})
                                    for l, c in enumerate(q[1:], start=1)])


def _lift(P, h):
    """P(X^h), descending coefficients."""
    out = [F(0)] * ((len(P) - 1) * h + 1)
    out[::h] = P
    return out


def _divide(g, f):
    """Quotient and remainder of g by the monic f, descending coefficient
    lists; the remainder keeps only its nonzero coefficients."""
    g, quot = list(g), []
    while len(g) >= len(f):
        c = g.pop(0)
        quot.append(c)
        for i, fc in enumerate(f[1:]):
            g[i] -= c * fc
    return quot, [c for c in g if c]


def _signed_divisors(n):
    return [s * d for d in range(1, abs(n) + 1) if n % d == 0 for s in (1, -1)]


def _rational_root(P):
    """A rational root of P (descending coefficients, P(0) != 0), or None."""
    den = lcm(*(c.denominator for c in P))
    a = [int(c * den) for c in P]
    candidates = (F(p, r) for p in _signed_divisors(a[-1]) for r in _signed_divisors(a[0]))
    return next((x for x in candidates
                 if sum(c * x ** (len(a) - 1 - i) for i, c in enumerate(a)) == 0), None)


def _quadratic_factor(g):
    """A monic quadratic factor over Q of the monic g, or None, by brute force
    (Kronecker).  With D the lcm of the denominators, G(X) = D^n g(X/D) is
    monic over Z, so by Gauss's lemma its monic quadratic factors
    X^2 + aX + c are integral, with c | G(0) and 1 + a + c | G(1) != 0."""
    D = lcm(*(c.denominator for c in g))
    G = [int(c * D ** i) for i, c in enumerate(g)]
    for c in _signed_divisors(G[-1]):
        for d in _signed_divisors(sum(G)):
            if not _divide(G, [1, d - 1 - c, c])[1]:
                return (F(1), F(d - 1 - c, D), F(c, D * D))
    return None


def _reference_factors(f):
    """The monic irreducible factors over Q of the monic f (descending,
    f(0) != 0), repeated by multiplicity, when each has degree <= 4; None
    otherwise.  Rational roots come off first, then quadratic factors; a
    cofactor left then has no factor of degree <= 2, so of degree 3 or 4 it
    is irreducible, and of degree >= 5 it is beyond this reference."""
    out = []
    while (x := _rational_root(f)) is not None:
        out.append((F(1), -x))
        f = _divide(f, [1, -x])[0]
    while len(f) > 4 and (g := _quadratic_factor(f)) is not None:
        out.append(g)
        f = _divide(f, g)[0]
    if len(f) > 5:
        return None
    return out + [tuple(f)] if len(f) > 1 else out


def _random_irreducible(rng, deg):
    """A monic irreducible polynomial over Q of degree <= 3 with P(0) != 0."""
    while True:
        P = (F(1),) + tuple(F(rng.randint(-6, 6), rng.choice((1, 1, 2))) for _ in range(deg))
        if P[-1] and (deg == 1 or _rational_root(P) is None):
            return P


def _sign_twist_classes(Ps, h):
    """Reference for h <= 2: the classes of the former pairing rule, as
    (factors, multiplicity, residue degree, dimension), from the
    factorization of q = prod P(X^h)^m by ``_reference_factors``, or None
    when that leaves a factor it cannot split.  On the cover t = s^2 each
    irreducible factor f of q is paired with its sign twist
    (-1)^deg f f(-X); on t = s each factor is a class of its own."""
    mults = Counter()
    for P, m in Ps.items():
        factors = _reference_factors(_lift(P, h))
        if factors is None:
            return None
        for f in factors:
            mults[f] += m
    out, seen = [], set()
    for f in sorted(mults):
        if f in seen:
            continue
        twin = tuple(c * (-1) ** i for i, c in enumerate(f)) if h == 2 else f
        cls = (f,) if twin == f else (f, twin)
        seen.update(cls)
        out.append((cls, mults[f], len(f) - 1, sum((len(g) - 1) * mults[g] for g in cls)))
    return out


def test_classes_by_descent_random():
    # q = prod P_i(X^h)^m_i on one face of slope -B/h: the classes are the
    # P_i, they multiply back to q, and every X-factor found lies in the one
    # class whose P(X^h) it divides
    rng = random.Random(21)
    seen = Counter()
    for _ in range(300):
        h = rng.randint(1, 5)
        B = rng.choice([B for B in range(1, 6) if gcd(B, h) == 1])
        Ps, budget = {}, 4
        while budget and (not Ps or rng.random() < 0.6):
            if rng.random() < 0.4:
                # Y - r^h: X - r divides P(X^h), whose cofactor then splits
                d, P = 1, (F(1), -F(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2)) ** h)
            else:
                # a cubic half the time: P(X^h) of degree >= 6 keeps a
                # cofactor of degree >= 5 for every h >= 2
                d = min(3, budget, rng.randint(1, 4))
                P = _random_irreducible(rng, d)
            if P not in Ps:
                Ps[P] = rng.randint(1, budget // d)
                budget -= d * Ps[P]
        q = [F(1)]
        for P, m in Ps.items():
            for _ in range(m):
                q = _mul_desc(q, _lift(P, h))
        op = _face_operator(q, B, h)
        poly = newton_polygon(op)
        assert poly.slopes == ((F(-B, h), len(q) - 1),)
        ref = refined_residue(op, poly, F(B, h))
        assert ref.residue_poly == tuple(q) and descend(q[::-1], h) is not None
        assert {orb.descent: orb.multiplicity for orb in ref.orbits} == Ps
        product = [F(1)]
        for orb in ref.orbits:
            assert orb.dimension == h * (len(orb.descent) - 1) * orb.multiplicity
            assert (orb.dimension * ref.slope).denominator == 1
            for _ in range(orb.multiplicity):
                product = _mul_desc(product, _lift(orb.descent, h))
            for f in orb.factors:
                assert [o for o in ref.orbits if not _divide(_lift(o.descent, h), f)[1]] \
                    == [orb]
            if orb.residue_degree is not None:
                whole = [F(1)]
                for f in orb.factors:
                    whole = _mul_desc(whole, f)
                assert whole == _lift(orb.descent, h)
                assert orb.residue_degree == len(orb.factors[0]) - 1
        assert product == q
        assert sum(orb.dimension for orb in ref.orbits) == len(q) - 1
        found = [f for orb in ref.orbits for f in orb.factors]
        assert len(set(found)) == len(found)
        for theta in ref.theta_values():
            assert sum(c * theta ** (len(q) - 1 - i) for i, c in enumerate(q)) == 0
        complete = all(orb.residue_degree is not None for orb in ref.orbits)
        if h <= 2:
            want = _sign_twist_classes(Ps, h)
            assert (want is not None) == complete
            assert not complete or [(o.factors, o.multiplicity, o.residue_degree, o.dimension)
                                    for o in ref.orbits] == want
        seen[h, complete] += 1
    assert all(seen[h, True] >= 3 and seen[h, False] >= 20 for h in range(2, 6)), seen


def test_classes_by_descent_named_by_P_when_a_factor_is_missing():
    # q = (X^2 - 4)(X^6 - 2) on t = s^2: Q = (Y - 4)(Y^3 - 2), and the sextic
    # cofactor is not split, so its class is named by P(Y)
    q = _mul_desc([F(1), F(0), F(-4)], [F(1), 0, 0, 0, 0, 0, F(-2)])
    ref = residue(_face_operator(q, 1, 2), F(1, 2))
    assert [orb.describe() for orb in ref.orbits] == [
        "orbit r=1 dim=2 factors=['X - 2', 'X + 2']", "orbit dim=6 P(Y)=Y^3 - 2"]
    assert ref.theta_values() == [-2, 2]
    # X^5 - 2 is Q(X^5) with Q = Y - 2 on t = s^5: one class of dim 5; on t = s
    # Q is the quintic itself, which factor_over_Q does not split: refused
    quintic = [F(1), 0, 0, 0, 0, F(-2)]
    (orb,) = residue(_face_operator(quintic, 1, 5), F(1, 5)).orbits
    assert orb.describe() == "orbit dim=5 P(Y)=Y - 2"
    # X^7 - 128 on t = s^7: X - 2 is found, but the sextic cofactor is not
    # split, so the class is still named by P(Y)
    (orb,) = residue(_face_operator([F(1)] + [0] * 6 + [F(-128)], 1, 7), F(1, 7)).orbits
    assert orb.factors == ((1, -2),) and orb.describe() == "orbit dim=7 P(Y)=Y - 128"
    with pytest.raises(FactorizationError,
                       match=r"^Q\(Y\) has a factor of degree 5 with no rational root; "
                             "factor_over_Q splits such factors only up to degree 4$"):
        residue(_face_operator(quintic, 1, 1), 1)


def test_refined_residue_errors():
    with pytest.raises(OperatorError):
        residue(E_phi(-2), 3)
    with pytest.raises(OperatorError):
        residue(op_partial({-1: 1}), 0)


def _mul_desc(f, g):
    out = [F(0)] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


def _compose(p, q):
    """Annihilator of the direct sum as the product operator p . q (rank 2)."""
    # multiply monic operators symbolically in the d/dt gauge
    d1, d2 = p.order, q.order
    # represent p as sum a_k d^k, q as sum b_k d^k with a_d1 = b_d2 = 1
    def coeffs_of(op):
        out = {op.order: S("t", {0: 1})}
        for i, c in enumerate(op.coeffs, start=1):
            out[op.order - i] = c
        return out

    a, b = coeffs_of(to_partial_gauge(p)), coeffs_of(to_partial_gauge(q))
    prod = {}
    for k, ak in a.items():
        # d^k . (b_l d^l): push d through coefficients by Leibniz
        terms = {l: bl for l, bl in b.items()}
        for _ in range(k):
            new = {}
            for l, bl in terms.items():
                new[l + 1] = new.get(l + 1, S.zero()) + bl
                new[l] = new.get(l, S.zero()) + bl.derivative()
            terms = new
        for l, bl in terms.items():
            prod[l] = prod.get(l, S.zero()) + ak * bl
    order = d1 + d2
    cs = [prod.get(order - i, S.zero()) for i in range(1, order + 1)]
    return DiffOperator(GAUGE_PARTIAL, cs)


def test_compose_direct_sum_polygon():
    prod = _compose(E_phi(-1), E_phi(-1, -1))
    assert irr(prod) == (1, 1)
    prod2 = _compose(E_phi(-2), op_partial({-1: F(1, 2)}))
    assert irr(prod2) == (2, 0)


def test_polygon_mixed_slopes_by_hand():
    # d^3 + t^-1 d + t^-5: log-gauge points (0,0), (1,0), (2,0), (3,-2),
    # a single face of slope -2/3
    p = op_partial({-1: 1}, {}, {-5: 1})
    poly = newton_polygon(p)
    assert poly.irregularity_multiset() == (F(2, 3), F(2, 3), F(2, 3))
    assert poly.total_irregularity == 2


def test_polygon_of_products_is_union_random():
    # the polygon of a composition is the Minkowski sum: irregularity
    # multisets are unions; rank-1 factors make an independent oracle
    rng = random.Random(37)
    for _ in range(25):
        b1, b2 = rng.randint(0, 4), rng.randint(0, 4)
        c1, c2 = rng.choice([1, 2, -1]), rng.choice([3, -2, F(1, 2)])
        p = E_phi(-b1, c1) if b1 else op_partial({-1: F(1, 3)})
        q = E_phi(-b2, c2) if b2 else op_partial({-1: F(2, 5)})
        want = tuple(sorted([F(b1), F(b2)], reverse=True))
        assert irr(_compose(p, q)) == want
        assert irr(_compose(q, p)) == want


def test_cyclic_vector_rank1():
    A = [[S("t", {-2: -1})]]  # twist by t^{-1}
    p = cyclic_vector(A)
    assert p.order == 1
    # the quotient by det = 1 is known to 32 terms past t^-2
    assert p.coeffs[0] == S("t", {-2: 1}, prec=30)
    assert irr(p) == (1,)


def test_cyclic_vector_diagonal_euler():
    A = [[S("t", {0: 0}), S.zero()], [S.zero(), S("t", {-1: F(1, 2)})]]
    p = cyclic_vector(A)
    assert p.order == 2
    assert newton_polygon(p).irregularity_multiset() == (0, 0)


def test_cyclic_vector_companion_round_trip():
    for op in [op_partial({}, {-3: -1}), E_phi(-2), _compose(E_phi(-1), E_phi(-1, -1))]:
        A = companion_matrix(op)
        q = cyclic_vector(A)
        assert newton_polygon(q).irregularity_multiset() == \
            newton_polygon(op).irregularity_multiset()


def test_cyclic_vector_rank3():
    # third-order operator with a single steep slope
    op = op_partial({}, {}, {-4: 1})  # d^3 + t^-4
    A = companion_matrix(op)
    q = cyclic_vector(A)
    assert q.order == 3
    assert newton_polygon(q).irregularity_multiset() == \
        newton_polygon(op).irregularity_multiset()


def _mat_mul(X, Y):
    return [[sum((X[i][k] * Y[k][j] for k in range(len(Y))), S.zero())
             for j in range(len(Y[0]))] for i in range(len(X))]


def _unitriangular_inverse(g):
    """Inverse of an upper unitriangular matrix, by back substitution."""
    d = len(g)
    ginv = [[S.constant(int(i == j)) for j in range(d)] for i in range(d)]
    for j in range(d):
        for i in range(j - 1, -1, -1):
            ginv[i][j] = -sum((g[i][k] * ginv[k][j] for k in range(i + 1, j + 1)), S.zero())
    return ginv


def test_cyclic_vector_random_conjugation_invariance():
    # A -> G^-1 A G + G^-1 G' for 50 exact unimodular Laurent-polynomial
    # gauges G = U diag(t^a), U upper unitriangular: the same connection on
    # another basis, so the annihilator keeps the companion operator's
    # irregularities
    rng = random.Random(4)
    irregular = 0
    for _ in range(50):
        d = rng.randint(2, 3)
        op = op_partial(*[{e: rng.randint(-3, 3) for e in range(-5, 2) if rng.random() < 0.3}
                          for _ in range(d)])
        U = [[S.constant(int(i == j)) if j <= i else
              S("t", {e: rng.randint(-2, 2) for e in range(-2, 2) if rng.random() < 0.5})
              for j in range(d)] for i in range(d)]
        a = [rng.randint(-2, 2) for _ in range(d)]
        G = [[U[i][j] * S.monomial(a[j]) for j in range(d)] for i in range(d)]
        Uinv = _unitriangular_inverse(U)
        Ginv = [[S.monomial(-a[i]) * Uinv[i][j] for j in range(d)] for i in range(d)]
        AG = _mat_mul(companion_matrix(op), G)
        A = _mat_mul(Ginv, [[AG[i][j] + G[i][j].derivative() for j in range(d)]
                            for i in range(d)])
        assert _mat_mul(Ginv, G) == [[S.constant(int(i == j)) for j in range(d)]
                                     for i in range(d)]
        want = irr(op)
        assert irr(cyclic_vector(A)) == want
        irregular += max(want) > 0
    assert irregular >= 25, irregular


def _unitriangular_conjugate(A, rng):
    """G^-1 A G for a constant upper unitriangular integer gauge G: the same
    connection on another basis (G' = 0)."""
    d = len(A)
    g = [[S.constant(int(i == j) if j <= i else rng.randint(-2, 2)) for j in range(d)]
         for i in range(d)]
    return _mat_mul(_unitriangular_inverse(g), _mat_mul(A, g))


@pytest.mark.parametrize("op", [
    op_partial({}, {}, {}, {}, {-6: -1}),                             # d^5 - t^-6
    op_partial({-1: 1}, {-3: 2}, {}, {-5: 1, -4: 1}, {-7: -1}),
    op_partial({}, {-3: 1}, {}, {}, {-2: 1}, {-8: 2}),
    op_partial({-2: 1}, {}, {-4: -1, -3: 1}, {}, {-6: 1}, {-9: 3}),
])
def test_cyclic_vector_rank5_and_6_round_trip(op):
    A = _unitriangular_conjugate(companion_matrix(op), random.Random(op.order))
    q = cyclic_vector(A)
    assert q.order == op.order
    assert newton_polygon(q).irregularities == newton_polygon(op).irregularities


def test_cyclic_op_contract():
    # the benchmark and tools/compare_ops.py build each matrix entry as
    # LaurentSeries("t", {int(e): "p/q"}) and compare the repr of the result
    one = S("t", {-2: "3/4", 0: "-2", 1: "0", 5: "0/7"})
    assert one == S("t", {-2: F(3, 4), 0: -2}) == S("t", {-2: F(6, 8), 0: F(-2), 1: 0})
    assert one.terms == {-2: F(3, 4), 0: -2}
    assert all(type(c) is F for c in one.terms.values())
    rows = [[{"-1": "1/2"}, {"0": "1"}, {}],
            [{}, {"-2": "-3"}, {"0": "1"}],
            [{"-4": "2"}, {}, {"-1": "-1/3"}]]
    A = [[S("t", {int(e): c for e, c in entry.items()}) for entry in row] for row in rows]
    assert repr(cyclic_vector(A)) == (
        "d^3 + ((3)*t^-2 + (47/6)*t^-1 + O(t^30))*d^2"
        " + ((23/2)*t^-3 + (59/6)*t^-2 + O(t^29))*d^1"
        " + ((-7)*t^-4 + (-10/3)*t^-3 + O(t^28))*d^0")


# -- the permutation-expansion determinant and Cramer solve that the shared
# maximal minors replaced, kept as a reference


def _reference_det(mat):
    n = len(mat)
    total = S.zero()
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        term = S.constant(sign)
        for i in range(n):
            term = term * mat[i][perm[i]]
        total = total + term
    return total


def _reference_cyclic_vector(A):
    d = len(A)
    zero = S.zero()
    for ncand in range(1, d + 1):
        v = [S.monomial(k, 1) if k < ncand else zero for k in range(d)]
        iterates = [v]
        for _ in range(d):
            iterates.append(_apply_derivation(A, iterates[-1]))
        W = [[iterates[j][i] for j in range(d)] for i in range(d)]
        det = _reference_det(W)
        if det.is_exactly_zero:
            continue
        rhs = iterates[d]
        coeffs = []
        for j in range(d):
            Wj = [[W[i][k] if k != j else rhs[i] for k in range(d)] for i in range(d)]
            coeffs.append(reference_quotient(_reference_det(Wj), det))
        return DiffOperator(GAUGE_PARTIAL, [-coeffs[d - 1 - i] for i in range(d)])
    raise OperatorError(f"each of the {d} deterministic candidates has det W exactly 0")


def _random_matrix(rng, d, exact):
    def entry():
        if rng.random() < 0.35:
            return S.zero()
        v = rng.randint(-3, 1)
        terms = {v + k: F(rng.randint(-3, 3), rng.randint(1, 2))
                 for k in range(rng.randint(1, 3))}
        return S("t", terms, None if exact else max(terms) + rng.randint(1, 8))
    return [[entry() for _ in range(d)] for _ in range(d)]


def test_maximal_minors_agree_with_reference_det():
    rng = random.Random(8)
    for _ in range(40):
        d = rng.randint(1, 4)
        M = [row + [_random_matrix(rng, 1, exact=True)[0][0]]
             for row in _random_matrix(rng, d, exact=True)]
        minors = _maximal_minors(M)
        for m in range(d + 1):
            sub = [[x for j, x in enumerate(row) if j != m] for row in M]
            assert minors[m] == _reference_det(sub)


def _cyclic_or_error(A, solve):
    try:
        return solve(A)
    except OperatorError as exc:
        return exc


def test_cyclic_vector_agrees_with_reference_exact():
    rng = random.Random(12)
    for _ in range(40):
        A = _random_matrix(rng, rng.randint(1, 3), exact=True)
        got = _cyclic_or_error(A, cyclic_vector)
        want = _cyclic_or_error(A, _reference_cyclic_vector)
        if isinstance(want, OperatorError):
            assert isinstance(got, OperatorError)
        else:
            assert got.coeffs == want.coeffs
    for op in [op_partial({-1: 1}, {-3: 2}, {-2: -1, 0: 1}, {-5: 1}),
               op_partial({}, {-2: 3}, {}, {-4: -2, -3: 1})]:
        A = _unitriangular_conjugate(companion_matrix(op), rng)
        assert cyclic_vector(A).coeffs == _reference_cyclic_vector(A).coeffs


def test_cyclic_vector_refuses_an_inexact_matrix():
    # the quotient is the only source of a precision bound: one matrix
    # entry known only to a bound is refused, wherever it sits
    rng = random.Random(13)
    refused = 0
    for _ in range(60):
        A = _random_matrix(rng, rng.randint(1, 3), exact=False)
        if all(c.prec is None for row in A for c in row):
            continue
        with pytest.raises(PrecisionError, match="exact operands"):
            cyclic_vector(A)
        refused += 1
    assert refused >= 40
    with pytest.raises(PrecisionError):
        cyclic_vector([[S("t", {-2: -1}, prec=5)]])


def test_theta_relation_examples():
    # phi = x^-2 y^-3
    phi = L(("x", "y"), {(-2, -3): 1})
    assert theta_relation_check(phi)
    # phi = x^-1: no other variables
    assert theta_relation_check(L(("x",), {(-1,): 1}))
    # phi = 5 x^-3 y
    assert theta_relation_check(L(("x", "y"), {(-3, 1): 5}))
    # sums of monomials with a clean leading part
    assert theta_relation_check(L(("x", "y"), {(-2, -1): 3}))
    with pytest.raises(OperatorError):
        theta_relation_check(L(("x", "y"), {(1, -1): 1}))


def test_local_zcar_rank1_examples():
    # phi = t^-3, rank 1: [X] + 3 * line with direction (-3)
    c = local_zcar_rank1(L(("t",), {(-3,): 1}), 1, ("t",))
    assert c.zero_section_multiplicity() == 1
    (line, mult), = c.lines()
    assert mult == 3
    assert line.direction.entries[0].constant_term() == -3
    # regular phi, rank 2 -> 2 [X]
    c = local_zcar_rank1(L(("t",), {(0,): 1, (1, ): 2}), 2, ("t",))
    assert c.zero_section_multiplicity() == 2 and not c.lines()
    # phi = t^-1 over k(y)((t)): theta = (-1, 0)
    c = local_zcar_rank1(L(("t", "y"), {(-1, 0): 1}), 1, ("t", "y"))
    (line, mult), = c.lines()
    assert mult == 1
    assert line.direction.entries[0].constant_term() == -1
    assert line.direction.entries[1].is_zero


def test_local_zcar_rank1_leading_theta_never_zero():
    # the log derivative in t scales the t^{-b} part by -b, which cannot
    # vanish in characteristic zero: every pole input yields a healthy line
    rng = random.Random(13)
    for _ in range(40):
        terms = {}
        for _ in range(rng.randint(1, 4)):
            terms[(rng.randint(-4, -1), rng.randint(-2, 2))] = rng.randint(1, 5)
        phi = L(("t", "y"), terms)
        c = local_zcar_rank1(phi, 1, ("t", "y"))
        (line, mult), = c.lines()
        j0 = 0
        assert not line.direction.entries[j0].is_zero
        assert mult == -min(e[0] for e in phi.terms)


def test_radius_oracle_brackets():
    lo, hi = radius_oracle([[S("t", {-2: -1})]], s_max=40)
    assert lo <= 1 <= hi
    lo, hi = radius_oracle([[S("t", {-1: F(1, 2)})]], s_max=40)
    assert lo <= 0 <= hi
    lo, hi = radius_oracle([[S("t", {-3: -2})]], s_max=40)
    assert lo <= 2 <= hi
    with pytest.raises(OperatorError):
        radius_oracle([[S.zero()]], s_max=5)


def test_radius_oracle_matches_polygon_rank2():
    ops = [op_partial({}, {-3: -1}), _compose(E_phi(-1), E_phi(-1, -1))]
    for op in ops:
        lo, hi = radius_oracle(companion_matrix(op), s_max=40)
        leading = max(newton_polygon(op).irregularity_multiset())
        assert lo <= leading <= hi
