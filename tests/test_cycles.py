import itertools
import random
from fractions import Fraction

import pytest

from logchar import cycles
from logchar.cycles import (
    ChartStamp,
    CycleError,
    Direction,
    DivisorLine,
    LogCycle,
    LowerDim,
    MonomialLogModule,
    ZeroSection,
    hilbert_dim,
    monomial_char_cycle,
)
from logchar.field import QQ, NumberField
from logchar.laurent import LaurentPolynomial

L = LaurentPolynomial
Q2 = NumberField([-2, 0, 1])

A1 = ChartStamp(("x",), ("x",))
A2 = ChartStamp(("x", "y"), ("x", "y"))


def line(chart, div, theta, mult, row=None):
    entries = [L.constant(chart.vars, t) for t in theta]
    return (DivisorLine(div, Direction(entries), row), mult)


# -- reference operations on cycles ------------------------------------------


def scale_exponents(p, factors):
    """p with x_l -> x_l^{factors[l]} substituted (Kummer rescale of the support)."""
    return L(p.vars, {tuple(a * h for a, h in zip(e, factors)): c for e, c in p.terms.items()},
             p.field)


def restrict_to_zero(p, j):
    """p at x_j = 0: its terms free of x_j, when p has no pole along x_j."""
    if any(e[j] < 0 for e in p.terms):
        raise ValueError("restriction of a pole to its own divisor")
    return L(p.vars, {e: c for e, c in p.terms.items() if e[j] == 0}, p.field)


def cycle_equal(a, b):
    """Exact cycle equality: directions projectively, rows ignored."""
    if a.chart != b.chart:
        raise CycleError("cycles live on different charts")
    return _aggregate(a) == _aggregate(b) and _lines_match(a, b)


def _aggregate(c):
    zero = c.zero_section_multiplicity()
    lower = sorted((comp.support, comp.dim, m) for comp, m in c.parts
                   if isinstance(comp, LowerDim))
    per_divisor = {}
    for comp, m in c.lines():
        per_divisor[comp.divisor] = per_divisor.get(comp.divisor, 0) + m
    return zero, tuple(lower), tuple(sorted(per_divisor.items()))


def _lines_match(a, b):
    """Row-blind matching of divisor lines: group by projective direction."""
    def grouped(c):
        groups = []
        for comp, m in c.lines():
            for g in groups:
                rep = g[0]
                if rep.divisor == comp.divisor and rep.direction.proportional_to(comp.direction):
                    g[1] += m
                    break
            else:
                groups.append([comp, m])
        return groups
    ga, gb = grouped(a), grouped(b)
    if len(ga) != len(gb):
        return False
    used = [False] * len(gb)
    for comp, m in ga:
        for i, (comp2, m2) in enumerate(gb):
            if used[i]:
                continue
            if comp2.divisor == comp.divisor and m == m2 \
                    and comp.direction.proportional_to(comp2.direction):
                used[i] = True
                break
        else:
            return False
    return True


def kummer_pullback(c, h):
    """Pull a cycle back along x_j -> x_j^{h_j} on the log divisors.

    The zero section is unchanged.  A line over D_j gains multiplicity h_j;
    its direction entries, functions on the divisor, pull back through the
    substitution x_l -> x_l^{h_l}, and the log coordinate l picks up the
    factor h_l (the log basis rescales as dx_l/x_l -> h_l dx'_l/x'_l).
    Irregularity rows scale coordinatewise.
    """
    chart = c.chart
    for name, hj in h.items():
        if name not in chart.log_vars:
            raise CycleError(f"{name} is not a log variable")
        if hj < 1:
            raise CycleError("cover exponents must be positive integers")
    factors = {chart.vars.index(name): hj for name, hj in h.items()}
    exp_factors = [factors.get(j, 1) for j in range(chart.n)]
    parts = []
    for comp, m in c.parts:
        if isinstance(comp, ZeroSection):
            parts.append((comp, m))
        elif isinstance(comp, DivisorLine):
            hj = h.get(comp.divisor, 1)
            direction = Direction([scale_exponents(p, exp_factors) * factors.get(i, 1)
                                   for i, p in enumerate(comp.direction.entries)])
            row = comp.row
            if row is not None:
                row = tuple(r * h.get(name, 1)
                            for r, name in zip(row, chart.log_vars))
            parts.append((DivisorLine(comp.divisor, direction, row), m * hj))
        else:
            parts.append((comp, m))
    return LogCycle(chart, parts)


def gr_extract_structured(chart, b_vector, theta, rank, row=None):
    """Cycle of the graded module with relations (t xi_1, theta_1 xi_j - theta_j xi_1).

    Here t = prod x_j^{b_j} over the log divisors.  The support is the zero
    section plus, over each divisor with b_j > 0, the line in direction
    theta; the generic-point length over D_j is b_j, the length of
    k[x]_(x) / (x^{b_j}), and every multiplicity is scaled by the rank.
    """
    if rank < 1:
        raise CycleError("rank must be positive")
    bs = [int(b) for b in b_vector]
    if len(bs) != chart.m:
        raise CycleError("one pole order per log divisor required")
    if any(b < 0 for b in bs):
        raise CycleError("pole orders must be nonnegative")
    parts = [(ZeroSection(), rank)]
    if any(bs):
        entries = [e if isinstance(e, L) else L.constant(chart.vars, e) for e in theta]
        if len(entries) != chart.n:
            raise CycleError("one direction coordinate per chart variable required")
        row_t = tuple(Fraction(x) for x in (row if row is not None else bs))
        for name, b in zip(chart.log_vars, bs):
            if b == 0:
                continue
            j = chart.vars.index(name)
            red = restrict_to_zero(entries[j], j)
            if red.is_zero:
                raise CycleError(f"direction coordinate of {name} vanishes along its divisor")
            restricted = Direction([restrict_to_zero(p, j) for p in entries])
            parts.append((DivisorLine(name, restricted, row_t), rank * b))
    return LogCycle(chart, parts)


def test_cycle_equal_basics():
    a = LogCycle(A1, [(ZeroSection(), 1)])
    b = LogCycle(A1, [(ZeroSection(), 1)])
    assert cycle_equal(a, b)
    c = LogCycle(A2, [(ZeroSection(), 1), line(A2, "x", (-2, -3), 2)])
    d = LogCycle(A2, [(ZeroSection(), 1), line(A2, "x", (2, 3), 2)])
    assert cycle_equal(c, d)  # projective rescaling by -1
    e = LogCycle(A2, [(ZeroSection(), 1), line(A2, "x", (2, 3), 3)])
    assert not cycle_equal(c, e)


def test_cycle_equal_chart_mismatch():
    with pytest.raises(CycleError):
        cycle_equal(LogCycle(A1, [(ZeroSection(), 1)]),
                    LogCycle(A2, [(ZeroSection(), 1)]))


def test_merging_same_direction():
    c = LogCycle(A2, [line(A2, "x", (1, 0), 1), line(A2, "x", (2, 0), 2)])
    # directions proportional, same (absent) row: merged
    assert len(c.parts) == 1
    assert c.parts[0][1] == 3


def test_rows_kept_separate_but_equality_row_blind():
    c = LogCycle(A2, [line(A2, "x", (1, 0), 1, row=(Fraction(1), Fraction(0))),
                      line(A2, "x", (1, 0), 2, row=(Fraction(2), Fraction(0)))])
    assert len(c.parts) == 2
    d = LogCycle(A2, [line(A2, "x", (1, 0), 3)])
    assert cycle_equal(c, d)


# -- the order and merging of cycle parts, against the pairwise reference ------


def reference_direction_key(direction):
    """Direction.sort_key as it was: every entry multiplied by the inverse of
    a constant first entry as a polynomial, its terms sorted again."""
    def poly_key(p):
        return tuple((e, str(c)) for e, c in sorted(p.terms.items()))
    first = next(p for p in direction.entries if not p.is_zero)
    if len(first.terms) == 1 and not any(next(iter(first.terms))):
        c = first.constant_term()
        return tuple(poly_key(p * c.inverse()) for p in direction.entries)
    return tuple(poly_key(p) for p in direction.entries)


def reference_key(comp):
    if isinstance(comp, DivisorLine):
        return (1, comp.divisor, reference_direction_key(comp.direction))
    return comp.sort_key()


def reference_same_component(a, b):
    if type(a) is not type(b):
        return False
    if isinstance(a, ZeroSection):
        return True
    if isinstance(a, DivisorLine):
        return (a.divisor == b.divisor and a.row == b.row
                and a.direction.proportional_to(b.direction))
    return a == b


def reference_report_lines(parts):
    """LogCycle's report as it was: each new part compared with every kept
    one, then the parts sorted by the reference key."""
    merged = []
    for comp, mult in parts:
        if mult == 0:
            continue
        for i, (c, m) in enumerate(merged):
            if reference_same_component(c, comp):
                merged[i] = (c, m + mult)
                break
        else:
            merged.append((comp, mult))
    merged.sort(key=lambda cm: reference_key(cm[0]))
    return [c.describe(m) for c, m in merged]


def _random_entry(rng, chart, field):
    terms = {}
    for _ in range(rng.randint(1, 3)):
        e = tuple(rng.randint(-1, 2) for _ in chart.vars)
        c = field(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.choice((1, 2, 3))))
        if field is Q2:
            c = c + field.gen() * rng.randint(-1, 1)
        terms[e] = c
    return L(chart.vars, terms, field)


def _seeded_parts(seed):
    """Lines over Q or Q(sqrt 2) whose first nonzero entry is the constant 1,
    -1 or 3/2, another constant, or not a constant, several on one divisor,
    some proportional to an earlier line with its row (so they merge), with
    the zero section and a lower-dimensional part."""
    rng = random.Random(seed)
    field = (QQ, Q2)[seed % 2]
    chart = (A2, ChartStamp(("x", "y", "z"), ("x", "z")))[seed % 3 == 2]
    n = len(chart.vars)
    leads = [1, -1, Fraction(3, 2), None, "poly", "zero-first"]
    parts = [(ZeroSection(), rng.randint(1, 3)), (LowerDim("V(x,y)", 1), 1)]
    for k in range(rng.randint(6, 12)):
        lead = leads[k] if k < len(leads) else rng.choice(leads)
        entries = [_random_entry(rng, chart, field) for _ in range(n)]
        if lead == "zero-first":
            entries[0] = L.zero(chart.vars, field)
        elif lead == "poly":
            entries[0] = _random_entry(rng, chart, field) + L.variable(chart.vars, "y", field)
        else:
            c = field(Fraction(rng.randint(-4, 4) or 7, rng.randint(1, 3))) if lead is None \
                else field(lead)
            entries[0] = L.constant(chart.vars, c, field)
        row = (Fraction(rng.randint(1, 3)),) * chart.m
        divisor = chart.log_vars[0] if k < len(leads) else rng.choice(chart.log_vars)
        parts.append((DivisorLine(divisor, Direction(entries), row), rng.randint(1, 4)))
        if rng.random() < 0.3:
            comp = parts[-1][0]
            scale = field(Fraction(rng.choice((-2, 3)), rng.choice((1, 5))))
            again = Direction([p * scale for p in comp.direction.entries])
            parts.append((DivisorLine(comp.divisor, again, comp.row), 1))
    return chart, parts


@pytest.mark.parametrize("seed", range(30))
def test_cycle_parts_follow_the_reference_order(seed):
    chart, parts = _seeded_parts(seed)
    assert LogCycle(chart, parts).report_lines() == reference_report_lines(parts), seed
    for comp, _ in parts:
        if isinstance(comp, DivisorLine):
            key = comp.direction.sort_key()
            assert tuple(map(tuple, key)) == reference_direction_key(comp.direction)


def test_seeded_parts_cover_every_kind_of_line():
    kinds = set()
    for seed in range(30):
        chart, parts = _seeded_parts(seed)
        lines = [c for c, _ in parts if isinstance(c, DivisorLine)]
        kinds.add(lines[0].direction.entries[0].field)
        assert len([c for c in lines if c.divisor == chart.log_vars[0]]) >= 6
        merged = len(LogCycle(chart, parts).lines())
        kinds.add("merged" if merged < len(lines) else "unmerged")
    assert kinds >= {QQ, Q2, "merged", "unmerged"}


def test_cycle_refuses_a_multiplicity_that_is_not_a_positive_int():
    for mult in (Fraction(1, 2), Fraction(2), -1):
        with pytest.raises(CycleError):
            LogCycle(A1, [line(A1, "x", (1,), mult)])


def test_kummer_pullback_rules():
    c = LogCycle(A1, [(ZeroSection(), 1), line(A1, "x", (-2,), 2, row=(Fraction(2),))])
    p = kummer_pullback(c, {"x": 3})
    assert p.zero_section_multiplicity() == 1
    (comp, mult), = p.lines()
    assert mult == 6
    assert comp.row == (Fraction(6),)
    # identity cover
    assert cycle_equal(kummer_pullback(c, {"x": 1}), c)
    # composition h then h' equals h*h'
    q = kummer_pullback(kummer_pullback(c, {"x": 2}), {"x": 3})
    assert cycle_equal(q, kummer_pullback(c, {"x": 6}))


def test_kummer_pullback_direction_scaling():
    c = LogCycle(A2, [line(A2, "x", (-2, -3), 2)])
    p = kummer_pullback(c, {"x": 2})
    (comp, mult), = p.lines()
    assert mult == 4
    want = Direction([L.constant(A2.vars, -4), L.constant(A2.vars, -3)])
    assert comp.direction.proportional_to(want)


def test_gr_extract_examples():
    # b = (3), theta = (-3), d = 1 -> [X] + 3 Z
    c = gr_extract_structured(A1, (3,), (-3,), 1)
    assert c.zero_section_multiplicity() == 1
    assert c.lines()[0][1] == 3
    # b = 0, d = 5 -> 5 [X]
    c = gr_extract_structured(A1, (0,), (1,), 5)
    assert c.zero_section_multiplicity() == 5 and not c.lines()
    # b = (2,3), theta = (-2,-3), d = 2 -> 2[X] + 4 L1 + 6 L2
    c = gr_extract_structured(A2, (2, 3), (-2, -3), 2)
    mults = {comp.divisor: m for comp, m in c.lines()}
    assert c.zero_section_multiplicity() == 2
    assert mults == {"x": 4, "y": 6}


def test_gr_extract_requires_nonvanishing_direction():
    vars = A2.vars
    theta = (L(vars, {(1, 0): 1}), L.constant(vars, 0))  # theta_x = x dies on D_x
    with pytest.raises(CycleError):
        gr_extract_structured(A2, (1, 0), theta, 1)


def _sampled_hilbert_dim(M):
    """Reference growth degree: samples dim fil_alpha for alpha < 14.

    Counts standard monomials of total degree <= alpha (shifted by generator
    degrees) with every variable in degree one, and reads the eventual
    polynomial degree off finite differences; refuses when the sampled
    window shows no polynomial growth.
    """
    n2 = 2 * M.chart.n
    counts = []
    for alpha in range(14):
        total = 0
        for gen, shift in enumerate(M.generator_degrees):
            ann = [x + xi for x, xi in M.annihilator(gen)]
            budget = alpha - shift
            if budget < 0:
                continue
            total += _count_standard_below(ann, n2, budget)
        counts.append(total)
    seq = counts
    for degree in range(0, n2 + 1):
        tail = seq[max(2, len(seq) - 6):]
        if all(x == tail[0] for x in tail):
            return degree
        seq = [b - a for a, b in zip(seq, seq[1:])]
    raise CycleError("filtration growth not polynomial in the sampled range")


def _count_standard_below(gens, nvars, budget):
    count = 0
    for exp in _exps_upto(nvars, budget):
        if not any(all(exp[i] >= g[i] for i in range(nvars)) for g in gens):
            count += 1
    return count


def _exps_upto(nvars, budget):
    if nvars == 0:
        yield ()
        return
    for head in range(budget + 1):
        for rest in _exps_upto(nvars - 1, budget - head):
            yield (head,) + rest


def _enumerated_count(gens, subset):
    """Reference length: walks every monomial in the subset variables below
    the largest exponents of the localized generators."""
    local = [tuple(e[i] if i in subset else 0 for i in range(len(e))) for e in gens]
    bounds = [max(g[i] for g in local) for i in range(len(local[0]))]
    count = 0
    for e in itertools.product(*[range(b) if i in subset else (0,)
                                 for i, b in enumerate(bounds)]):
        if not any(all(a >= b for a, b in zip(e, g)) for g in local):
            count += 1
    return count


def test_standard_monomial_count_matches_enumeration():
    rng = random.Random(41)
    checked = 0
    for _ in range(300):
        nvars = rng.choice((2, 4))
        gens = [tuple(rng.choice((0, 0, 1, 2, 3, 5)) for _ in range(nvars))
                for _ in range(rng.randint(1, 5))]
        supports = [{i for i, a in enumerate(g) if a} for g in gens]
        for cover in cycles._minimal_covers(supports, nvars):
            local = {tuple(g[i] for i in cover) for g in gens}
            got = cycles._standard_monomial_count(local, len(cover))
            assert got == _enumerated_count(gens, set(cover)), (gens, cover)
            checked += 1
    assert checked > 300
    # no pure power of the second variable: infinitely many standard monomials
    assert cycles._standard_monomial_count({(2, 0), (1, 1)}, 2) is None


def test_monomial_cycle_skyscraper():
    # x^{-1}k[x]/k[x]: one generator killed by the ideal (x, xi)
    M = MonomialLogModule(A1, (0,), ((0, (1,), (0,)), (0, (0,), (1,))))
    c = monomial_char_cycle(M)
    (comp, mult), = c.parts
    assert isinstance(comp, LowerDim) and comp.dim == 0 and mult == 1
    assert hilbert_dim(M) == 0  # strictly below n = 1


def test_monomial_cycle_rank1_lattice():
    # gr of the lattice of a rank-1 twist with pole order b: k[x,xi]/(x^b xi)
    for b in (1, 2, 3):
        M = MonomialLogModule(A1, (0,), ((0, (b,), (1,)),))
        c = monomial_char_cycle(M)
        d = {type(comp).__name__: m for comp, m in c.parts}
        assert d == {"ZeroSection": 1, "DivisorLine": b}
        assert hilbert_dim(M) == 1


def test_monomial_cycle_free_module():
    M = MonomialLogModule(A1, (0,), ())
    assert hilbert_dim(M) == 2
    c = monomial_char_cycle(M)
    (comp, mult), = c.parts
    assert comp.dim == 2


def test_monomial_quotient_multiplicity():
    # x^{-a}k[x]/k[x]: generator [x^-a] killed by (x^a, xi): point of length a
    for a in (1, 2, 3):
        M = MonomialLogModule(A1, (0,), ((0, (a,), (0,)), (0, (0,), (1,))))
        c = monomial_char_cycle(M)
        (comp, mult), = c.parts
        assert isinstance(comp, LowerDim) and comp.dim == 0
        assert mult == a
        assert hilbert_dim(M) == 0


def test_monomial_lattice_twist_invariance():
    # twisting the lattice by x^N leaves the relation ideal, hence the cycle
    def lattice_module(b, N):
        # annihilator of the degree-0 generator [x^N e]: x^b xi (valuation math)
        return MonomialLogModule(A1, (0,), ((0, (b,), (1,)),))
    base = monomial_char_cycle(lattice_module(2, 0))
    for N in (1, 2, 3):
        assert cycle_equal(base, monomial_char_cycle(lattice_module(2, N)))


def test_monomial_surface_module():
    # rank-1 twist with pole order 2 on D_x and axis direction:
    # gr = k[x,y,xi_x,xi_y]/(x^2 xi_x, xi_y) -> [X] + 2 * line over D_x
    M = MonomialLogModule(A2, (0,), ((0, (2, 0), (1, 0)), (0, (0, 0), (0, 1))))
    c = monomial_char_cycle(M)
    by_kind = {type(comp).__name__: m for comp, m in c.parts}
    assert by_kind == {"ZeroSection": 1, "DivisorLine": 2}
    (linecomp, _), = c.lines()
    assert linecomp.divisor == "x"
    assert hilbert_dim(M) == 2


def test_hilbert_dim_bounds():
    for M in [
        MonomialLogModule(A1, (0,), ((0, (1,), (1,)),)),
        MonomialLogModule(A1, (0,), ((0, (2,), (1,)),)),
        MonomialLogModule(A1, (0,), ()),
    ]:
        assert 0 <= hilbert_dim(M) <= 2 * M.chart.n


def test_hilbert_dim_beyond_the_sampled_window():
    # each of these is out of reach of degrees below 14: the sampled growth
    # answers 2, 0 and refuses, in that order
    assert hilbert_dim(MonomialLogModule(A1, (0,), ((0, (20,), (0,)),))) == 1
    assert hilbert_dim(MonomialLogModule(A1, (20,), ())) == 2
    M = MonomialLogModule(A2, (0,), ((0, (4, 0), (0, 0)), (0, (0, 4), (0, 0)),
                                      (0, (0, 0), (4, 0))))
    assert hilbert_dim(M) == 1


def test_hilbert_dim_agrees_with_the_sampled_growth():
    rng = random.Random(3)
    checked = 0
    for _ in range(60):
        chart = rng.choice((A1, A2))
        degrees = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
        relations = tuple(
            (rng.randrange(len(degrees)), tuple(rng.randint(0, 2) for _ in chart.vars),
             tuple(rng.randint(0, 2) for _ in chart.vars))
            for _ in range(rng.randint(0, 4)))
        M = MonomialLogModule(chart, degrees, relations)
        try:
            want = _sampled_hilbert_dim(M)
        except CycleError:
            continue  # the window is too small to read the degree
        checked += 1
        assert hilbert_dim(M) == want, M
    assert checked >= 50
