import itertools
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from logchar import fme
from logchar.laurent import LaurentPolynomial
from logchar.tropical import (
    MAX_RAY_SUBSETS,
    RayBudgetError,
    is_linear_on_octant,
    sorted_profile_linear,
)

L = LaurentPolynomial


def E(vars, d):
    return L(vars, d)


def radius(n, forms):
    """The forms of the radius function max(0, <b, r> for b in forms) on n
    coordinates, the zero form included, each entry a Fraction."""
    return tuple(sorted({(Fraction(0),) * n} | {tuple(map(Fraction, f)) for f in forms}))


def g_of_phi(phi, kummer=None):
    """Radius function of the rank-1 twist attached to phi: max(0, -v_r(phi)).

    Each monomial x^a contributes the form -<a, r>; with Kummer data the
    support lives on a cover and form coordinates are divided by h_j.
    """
    if phi.is_zero:
        raise ValueError("phi must be nonzero")
    n = len(phi.vars)
    h = tuple(kummer) if kummer is not None else (1,) * n
    return radius(n, [tuple(Fraction(-a, hj) for a, hj in zip(e, h)) for e in phi.terms])


def integer_forms(entries):
    """(forms, multiplicity) pairs with rational forms, every form multiplied
    by the lcm of all their denominators: the functions scale by one positive
    number, which keeps every linearity verdict."""
    den = math.lcm(*(Fraction(x).denominator for fs, _ in entries for f in fs for x in f))
    return [([tuple(int(x * den) for x in f) for f in fs], mult) for fs, mult in entries]


def values(entries, r):
    """The sorted values at r of (forms, multiplicity) pairs, largest first."""
    out = []
    for forms, mult in entries:
        out.extend([max(sum(b * x for b, x in zip(f, r)) for f in forms)] * mult)
    return sorted(out, reverse=True)


def test_g_of_phi_counterexample_shape():
    phi = E(("x", "y"), {(1, -2): 1})  # x / y^2
    f = g_of_phi(phi)
    assert set(f) == {(0, 0), (-1, 2)}
    assert is_linear_on_octant(integer_forms([(f, 1)])[0][0]) is None
    assert [values([(f, 1)], r)[0] for r in ((1, 0), (0, 1), (3, 2))] == [0, 2, 1]


def test_g_of_phi_monomial_and_regular():
    [(f, _)] = integer_forms([(g_of_phi(E(("x", "y"), {(-2, -3): 1})), 1)])
    assert is_linear_on_octant(f) == (2, 3)
    [(f, _)] = integer_forms([(g_of_phi(E(("x", "y"), {(0, 0): 1, (1, 0): 1})), 1)])  # 1 + x
    assert is_linear_on_octant(f) == (0, 0)
    with pytest.raises(ValueError):
        g_of_phi(L.zero(("x",)))


def test_g_of_phi_sharp_projection():
    # x / y^2 in chart order (y, x), restricted to the divisor y = 0: the
    # support exponent (-2, 1) gives the form (2, -1), projected onto the
    # y coordinate to (2,).
    [(f, _)] = integer_forms([(g_of_phi(E(("y", "x"), {(-2, 1): 1})), 1)])
    sharp = {form[:1] for form in f}
    assert sharp == {(0,), (2,)}
    assert is_linear_on_octant(sharp) == (2,)
    assert sorted_profile_linear([(sharp, 1)], 1) == (True, (True,))


def test_g_of_phi_kummer_scaling():
    phi = E(("x",), {(-3,): 1})
    f = g_of_phi(phi, kummer=(2,))
    assert set(f) == {(0,), (Fraction(3, 2),)}
    assert integer_forms([(f, 1)]) == [([(0,), (3,)], 1)]


def test_is_linear_direct_sum_of_axes():
    assert is_linear_on_octant([(0, 0), (1, 0), (0, 1)]) is None
    assert is_linear_on_octant([(0, 0), (1, 0), (1, 1)]) == (1, 1)


def test_sorted_profile_examples():
    p1 = [(g_of_phi(E(("x", "y"), {(-2, -3): 1})), 1)]
    assert sorted_profile_linear(integer_forms(p1), 2) == (True, (True,))

    p2 = [
        (g_of_phi(E(("x", "y"), {(-1, 0): 1})), 1),
        (g_of_phi(E(("x", "y"), {(0, -1): 1})), 1),
    ]
    ok, verdicts = sorted_profile_linear(integer_forms(p2), 2)
    assert not ok
    assert verdicts == (False, False)

    p3 = [
        (g_of_phi(E(("x",), {(-2,): 1})), 1),
        (g_of_phi(E(("x",), {(-1,): 1})), 1),
    ]
    assert sorted_profile_linear(integer_forms(p3), 1) == (True, (True, True))


def test_sorted_profile_order_statistic_fallback():
    # constituents linear but incomparable: r1 vs r2
    ok, verdicts = sorted_profile_linear([([(1, 0)], 1), ([(0, 1)], 1)], 2)
    assert not ok and verdicts == (False, False)
    # nonlinear constituent but another dominates everywhere:
    # g1 = 2r1+2r2 dominates max(r1, r2); sorted g1 linear, g2 = max nonlinear
    ok, verdicts = sorted_profile_linear([([(2, 2)], 1), ([(1, 0), (0, 1)], 1)], 2)
    assert not ok and verdicts == (True, False)


# -- reference: exact Fourier-Motzkin feasibility --------------------------------
# The general elimination the engine used before its vertex rays became integer
# kernels.  A constraint is (coeffs, strict) and reads <coeffs, r> >= 0 (> 0
# when strict), with r >= 0 implied.  Rows are homogeneous, so each is brought
# to a primitive integer vector and positive multiples merge; a feasible system
# returns a rational witness built by back-substitution.


def _primitive(coeffs):
    """The positive multiple of a rational row with coprime integer entries."""
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def _dedupe(constraints):
    seen = {}
    for c, s in constraints:
        if s or any(c):
            seen[c] = seen.get(c, False) or s
    return list(seen.items())


def _fme_point(constraints, nvars):
    """A rational point r >= 0 satisfying every constraint, or None."""
    current = _dedupe([(_primitive(c), bool(s)) for c, s in constraints] +
                      [(tuple(int(k == j) for k in range(nvars)), False) for j in range(nvars)])
    stages = []  # per eliminated variable: the constraints mentioning it
    for var in range(nvars - 1, -1, -1):
        mentioning = [c for c in current if c[0][var]]
        rest = [c for c in current if not c[0][var]]
        stages.append((var, mentioning))
        for pc, ps in (c for c in mentioning if c[0][var] > 0):
            for nc, ns in (c for c in mentioning if c[0][var] < 0):
                combo = [-nc[var] * x + pc[var] * y for x, y in zip(pc, nc)]
                g = math.gcd(*combo) or 1
                rest.append((tuple(x // g for x in combo), ps or ns))
        current = _dedupe(rest)
    if any(strict for _, strict in current):
        return None  # only all-zero rows are left, and 0 > 0 fails
    values = []
    for var, mentioning in reversed(stages):
        lo, hi = (None, False), (None, False)
        for coeffs, strict in mentioning:
            a = coeffs[var]
            bound = Fraction(-sum(c * v for c, v in zip(coeffs, values)), a)
            side = lo if a > 0 else hi
            tighter = side[0] is None or (bound > side[0] if a > 0 else bound < side[0])
            new = (bound, strict) if tighter else \
                (side[0], side[1] or strict) if bound == side[0] else side
            lo, hi = (new, hi) if a > 0 else (lo, new)
        v = _pick(*lo, *hi)
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def _pick(lo, lo_strict, hi, hi_strict):
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo > hi or (lo == hi and (lo_strict or hi_strict)):
        return None
    return (lo + hi) / 2


# -- reference oracle: the order-statistic enumeration --------------------------
# An independent decision of sorted linearity, exponential in the rank: the
# i-th sorted value is the form c everywhere iff nowhere do i constituents lie
# strictly above c and nowhere do rank - i + 1 lie strictly below it.  Each
# choice of constituents and forms is one exact Fourier-Motzkin system.
# A sharp case keeps all n variables and pins r_j = 0 past the first nlog;
# the engine sees only its projection onto those nlog coordinates.


def _reference_verdicts(entries, n, nlog):
    """Per sorted index, whether it is linear; ``entries`` are (forms,
    multiplicity) pairs of rational forms on n coordinates, the zero form
    included (``radius``)."""
    fns = [forms for forms, mult in entries for _ in range(mult)]
    pins = [(tuple(Fraction(-int(k == j)) for k in range(n)), False) for j in range(nlog, n)]
    candidates = sorted({f for forms in fns for f in forms})
    return tuple(any(not _some_above(fns, i, c, pins) and
                     not _some_below(fns, len(fns) - i + 1, c, pins)
                     for c in candidates)
                 for i in range(1, len(fns) + 1))


def _some_above(fns, k, cand, pins):
    for subset in itertools.combinations(fns, k):
        # a max of forms exceeds cand iff some form does
        for choice in itertools.product(*subset):
            rows = [(tuple(a - b for a, b in zip(form, cand)), True) for form in choice]
            if _fme_point(rows + pins, len(cand)) is not None:
                return True
    return False


def _some_below(fns, k, cand, pins):
    for subset in itertools.combinations(fns, k):
        rows = [(tuple(b - a for a, b in zip(form, cand)), True)
                for forms in subset for form in forms]
        if _fme_point(rows + pins, len(cand)) is not None:
            return True
    return False


def _engine_verdicts(entries, nlog):
    """The engine's decision on the projection onto the first nlog
    coordinates, its forms scaled to integers."""
    return sorted_profile_linear([([f[:nlog] for f in fs], mult)
                                  for fs, mult in integer_forms(entries)], nlog)


def _random_profile(rng):
    """An n-variable profile, n and the number of coordinates left free."""
    n = rng.randint(1, 3)
    sharp = rng.choice((False, True))
    nlog = rng.randint(1, n) if sharp else n
    entries = []
    for _ in range(rng.randint(1, 3)):
        forms = [tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                       for _ in range(n)) for _ in range(rng.randint(1, 2))]
        entries.append((radius(n, forms), rng.choice((1, 1, 2))))
    return entries, n, nlog


def test_sorted_profile_agrees_with_reference():
    rng = random.Random(41)
    off_fast_path = 0
    for _ in range(80):
        entries, n, nlog = _random_profile(rng)
        ok, verdicts = _engine_verdicts(entries, nlog)
        assert verdicts == _reference_verdicts(entries, n, nlog), (entries, nlog)
        assert ok == all(verdicts)
        off_fast_path += not ok
    assert off_fast_path >= 20


@st.composite
def _profiles(draw):
    n = draw(st.integers(1, 3))
    nlog = draw(st.integers(1, n)) if draw(st.booleans()) else n
    coeff = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
    form = st.tuples(*[coeff] * n)
    entries = draw(st.lists(st.tuples(st.lists(form, min_size=1, max_size=2),
                                      st.integers(1, 2)), min_size=1, max_size=3))
    return [(radius(n, forms), mult) for forms, mult in entries], n, nlog


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_profiles())
def test_sorted_profile_agrees_with_reference_property(case):
    entries, n, nlog = case
    ok, verdicts = _engine_verdicts(entries, nlog)
    assert verdicts == _reference_verdicts(entries, n, nlog)
    assert ok == all(verdicts)


@st.composite
def _wide_profiles(draw):
    """3-coordinate profiles with at least 8 distinct nonzero forms.  A form
    with entries 4-6 dominates every other one, and a constituent of forms
    with entries <= 0 is the zero function, so some sorted functions are
    linear and the others are decided at the vertex rays."""
    coeff = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2)))
    form = st.tuples(coeff, coeff, coeff)
    entries = draw(st.lists(st.lists(form, min_size=2, max_size=3), min_size=3, max_size=3))
    if draw(st.booleans()):
        entries.append([draw(st.tuples(*[st.integers(4, 6)] * 3))])
    if draw(st.booleans()):
        entries.append([draw(st.tuples(*[st.integers(-3, 0)] * 3))])
    fns = [radius(3, forms) for forms in entries]
    assume(len({f for forms in fns for f in forms if any(f)}) >= 8)
    return [(forms, 1) for forms in fns]


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_wide_profiles())
def test_wide_profiles_agree_with_reference(entries):
    ok, verdicts = _engine_verdicts(entries, 3)
    assert verdicts == _reference_verdicts(entries, 3, 3)
    assert ok == all(verdicts)


def test_sorted_profile_refuses_past_the_ray_budget():
    # 1/x_1 + ... + 1/x_8: the unit forms are pairwise incomparable, so the
    # 8 coordinate walls and 28 walls e_i - e_j give C(36, 7) choices
    units = [tuple(int(k == j) for k in range(8)) for j in range(8)]
    start = time.perf_counter()
    with pytest.raises(RayBudgetError, match=str(math.comb(36, 7))):
        sorted_profile_linear([(units, 1)], 8)
    assert time.perf_counter() - start < 0.5
    # the same kind of profile on 4 coordinates has C(10, 3) = 120 choices
    units = [tuple(int(k == j) for k in range(4)) for j in range(4)]
    assert math.comb(10, 3) <= MAX_RAY_SUBSETS
    assert sorted_profile_linear([(units, 1)], 4) == (False, (False,))


def test_sorted_profile_rank10_middle_block():
    # A = max(0, 3x - y) x3, B = max(0, 3y - x) x3, C = x + y x4: at most one of
    # A, B lies above C and at most one below, so g_4 .. g_7 are C everywhere
    prof = [([(3, -1)], 3), ([(-1, 3)], 3), ([(1, 1)], 4)]
    start = time.perf_counter()
    ok, verdicts = sorted_profile_linear(prof, 2)
    assert time.perf_counter() - start < 5.0
    assert not ok
    assert verdicts == (False,) * 3 + (True,) * 4 + (False,) * 3


def test_profile_dimension_mismatch():
    with pytest.raises(ValueError, match="forms of 2 entries"):
        sorted_profile_linear([([(1, 0)], 1), ([(1,)], 1)], 2)
    with pytest.raises(ValueError, match="positive multiplicity"):
        sorted_profile_linear([([(1, 0)], 1), ([(0, 1)], 0)], 2)


def test_linearity_agrees_with_grid_oracle():
    rng = random.Random(23)
    grid = sorted({Fraction(a, b) for b in (1, 2, 3, 5, 8) for a in range(0, 9)})
    pts = [(x, y) for x in grid for y in grid]
    for _ in range(40):
        forms = radius(2, [tuple(rng.randint(-3, 4) for _ in range(2))
                           for _ in range(rng.randint(1, 4))])
        top = is_linear_on_octant(forms)
        matches = [form for form in forms
                   if all(values([(forms, 1)], p)[0] == form[0] * p[0] + form[1] * p[1]
                          for p in pts)]
        # grid oracle: the dominating form matches the function on the whole
        # grid, and with none no single form does
        assert matches == ([] if top is None else [top])


def test_full_mode_monotone_in_nonlog_coordinates():
    # Support in a pole-free non-log variable is nonnegative, so every form
    # is non-increasing in the non-log coordinates: raising such a coordinate
    # never increases the partial sums G_i.
    rng = random.Random(31)
    vars = ("x", "y", "z")  # log x, ordinary y, z
    for _ in range(30):
        phis = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 3)):
                e = (rng.randint(-3, 0), rng.randint(0, 2), rng.randint(0, 2))
                terms[e] = 1
            p = E(vars, terms)
            if not p.is_zero:
                phis.append(p)
        if not phis:
            continue
        prof = [(g_of_phi(p), 1) for p in phis]
        r = tuple(Fraction(rng.randint(0, 5)) for _ in range(3))
        r2 = (r[0], r[1] + rng.randint(0, 4), r[2] + rng.randint(0, 4))
        v1, v2 = values(prof, r), values(prof, r2)
        for i in range(1, len(v1) + 1):
            assert sum(v1[:i]) >= sum(v2[:i])


# -- the reference Fourier-Motzkin feasibility ------------------------------------


def _satisfies(rows, pt):
    for coeffs, strict in rows:
        value = sum(Fraction(c) * x for c, x in zip(coeffs, pt))
        if value < 0 or (strict and value == 0):
            return False
    return all(x >= 0 for x in pt)


def test_feasible_point_integer_rows_and_positive_multiples():
    rng = random.Random(61)
    feasible = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        rows = [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.random() < 0.4)
                for _ in range(rng.randint(1, 5))]
        pt = _fme_point(rows, n)
        # the same system with Fraction rows, each scaled by a positive number
        scales = [Fraction(rng.randint(1, 6), rng.randint(1, 6)) for _ in rows]
        scaled = [(tuple(Fraction(c) * k for c in coeffs), s)
                  for (coeffs, s), k in zip(rows, scales)]
        assert _fme_point(scaled, n) == pt
        # and with every row repeated as a positive multiple
        repeated = rows + [(tuple(k * c for c in coeffs), s)
                           for (coeffs, s), k in zip(rows, scales)]
        rng.shuffle(repeated)
        assert _fme_point(repeated, n) == pt
        if pt is not None:
            feasible += 1
            assert all(type(x) is Fraction for x in pt)
            assert _satisfies(rows, pt)
    assert feasible >= 100


def test_feasible_point_infeasible_strict_systems():
    rng = random.Random(67)
    for _ in range(100):
        n = rng.randint(1, 4)
        w = tuple(rng.randint(-3, 3) for _ in range(n))
        if not any(w):
            continue
        # <w, r> > 0 and <-w, r> >= 0 contradict each other
        rows = [(w, True), (tuple(Fraction(-c, 2) for c in w), False)]
        rows += [(tuple(rng.randint(-3, 3) for _ in range(n)), rng.random() < 0.5)
                 for _ in range(rng.randint(0, 3))]
        assert _fme_point(rows, n) is None
    # the free coordinates sum to more than 0 while both are pinned to 0
    assert _fme_point([((1, 1), True), ((-1, 0), False), ((0, -1), False)], 2) is None
    assert _fme_point([((0, 0), True)], 2) is None


# -- the vertex-ray kernel ---------------------------------------------------------


def _laplace_det(m):
    """Determinant by cofactor expansion along the first row."""
    if not m:
        return 1
    return sum((-1) ** j * m[0][j] * _laplace_det([r[:j] + r[j + 1:] for r in m[1:]])
               for j in range(len(m)) if m[0][j])


def _signed_minors(walls, n):
    return [(-1) ** j * _laplace_det([w[:j] + w[j + 1:] for w in walls]) for j in range(n)]


def test_ray_of_no_walls_is_the_line():
    assert fme.feasible_point([], 1) == (1,)


def test_ray_of_dependent_walls_is_none():
    assert fme.feasible_point([(1, 2, 3), (-2, -4, -6)], 3) is None
    assert fme.feasible_point([(0, 0, 0), (1, -1, 0)], 3) is None
    assert fme.feasible_point([(0, 0)], 2) is None


def test_ray_of_mixed_sign_kernel_is_none():
    # the kernel of x3 = 0 and x1 + x2 = 0 is spanned by (1, -1, 0)
    assert fme.feasible_point([(1, 1, 0), (0, 0, 1)], 3) is None
    assert fme.feasible_point([(1, 1)], 2) is None


def test_ray_is_the_primitive_nonnegative_kernel():
    assert fme.feasible_point([(2, -4)], 2) == (2, 1)
    assert fme.feasible_point([(1, 0, 0), (0, 3, -6)], 3) == (0, 2, 1)
    rng = random.Random(71)
    found = 0
    for _ in range(600):
        n = rng.randint(2, 5)
        walls = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(n - 1)]
        ray = fme.feasible_point(walls, n)
        minors = _signed_minors(walls, n)
        if ray is None:
            assert not any(minors) or (min(minors) < 0 < max(minors))
            continue
        found += 1
        assert all(type(x) is int and x >= 0 for x in ray) and math.gcd(*ray) == 1
        assert all(sum(a * b for a, b in zip(w, ray)) == 0 for w in walls)
        # a positive or negative multiple of the signed maximal minors
        g = math.gcd(*minors)
        assert tuple(abs(m) // g for m in minors) == ray
        assert len({m > 0 for m in minors if m}) == 1
    assert found >= 100
