"""Acceptance criteria, one test per criterion; each prints a PASS line.

Every expected value here is exact: formulas are checked against independent
brute-force oracles, cycles against structured graded-module extraction, and
integrality is asserted, never rounded.
"""

import json
import random
import time
from fractions import Fraction

import pytest

from logchar.cdvf import DiffOperator, GAUGE_PARTIAL, newton_polygon, refined_residue
from logchar.cli import main as cli_main
from logchar.cycles import (ChartStamp, Direction, LogCycle,
                            MonomialLogModule, ZeroSection, hilbert_dim,
                            monomial_char_cycle)
from logchar.euler import (Curve, IntegralityError, Surface, chi_EP, derham_oracle_curve,
                           integrality_check, kashiwara_dubson, reconcile_geometry)
from logchar.field import descend
from logchar.goodmodel import (Chart, GoodModel, ModelSummand, clean_at_point,
                               irregularity_divisor,
                               validate_good_decomposition, zcar_prime)
from logchar.laurent import LaurentPolynomial, twist
from logchar.series import LaurentSeries

from test_cdvf import companion_matrix, local_zcar_rank1, radius_oracle, rank1_operator
from test_cycles import cycle_equal, gr_extract_structured, kummer_pullback, restrict_to_zero
from test_goodmodel import model_kummer_pullback

L = LaurentPolynomial
S = LaurentSeries
F = Fraction

XY = Chart(("x", "y"), ("x", "y"))
X1 = Chart(("x",), ("x",))


def _report(num, text):
    print(f"ACCEPTANCE {num}: PASS - {text}")


# -- 1: curve formula vs brute-force cohomology --------------------------------

def test_criterion_01_curve_formula_vs_oracle():
    t0 = time.monotonic()
    for b in range(1, 7):
        phi = L(("x",), {(-b,): 1})
        model = GoodModel(X1, (ModelSummand(phi),))
        rows, geom = reconcile_geometry(irregularity_divisor(model),
                                        Curve(0, (("x", ()), ("inf", (F(0),)))))
        formula = chi_EP(rows, geom)
        oracle = derham_oracle_curve(phi, window=2 * b + 5)
        assert formula == oracle.chi == -b
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(1, f"chi = -b for b = 1..6 by formula and oracle in {elapsed:.2f}s")


# -- 2: surface formula vs the cycle ----------------------------------------------

def test_criterion_02_kato_vs_chern_class_formula():
    # the Chern-class evaluation of the irregularity rows (Kato's surface
    # formula with topology Chern numbers) against the zero section's
    # intersection with the cycle, a separate code path
    rng = random.Random(2024)
    t0 = time.monotonic()
    trials = 0
    while trials < 200:
        k = rng.randint(1, 2)
        chart = Chart(("x", "y"), ("x", "y")[:k])
        summands = [ModelSummand(L(chart.vars, {(-rng.randint(0, 4), -rng.randint(0, 4)):
                                                rng.choice((1, -2, 3))}), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))]
        if k == 1 and any(min(e[1] for e in s.phi.terms) < 0 for s in summands):
            continue  # a pole on the non-log variable
        model = GoodModel(chart, tuple(summands))
        comps = tuple((f"D{j}", rng.randint(-3, 3)) for j in range(k))
        inter = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                inter[i][j] = inter[j][i] = rng.randint(-3, 3)
        geom = Surface(rng.randint(-4, 5), comps, tuple(tuple(r) for r in inter))
        rows, geom = reconcile_geometry(irregularity_divisor(model), geom)
        assert chi_EP(rows, geom) == kashiwara_dubson(zcar_prime(model), geom), model
        trials += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 10.0
    _report(2, f"200 random models: Chern-class formula == cycle in {elapsed:.2f}s")


# -- monomial good-model suite ---------------------------------------------------

def _monomial_models(count, seed=7):
    """E(u x^-b) (x) Reg models: b vectors include zero and mixed-zero."""
    rng = random.Random(seed)
    models = []
    fixed = [(0, 0), (1, 0), (0, 2), (2, 3), (1, 1), (4, 0)]
    while len(models) < count:
        if fixed:
            b = fixed.pop()
        else:
            b = (rng.randint(0, 5), rng.randint(0, 5))
        const = rng.choice([1, 2, -1, 5, F(1, 2)])
        terms = {(-b[0], -b[1]): const}
        if rng.random() < 0.5 and any(b):
            # unit 1 + x or 1 + y on top of the monomial
            j = rng.randrange(2)
            e = [-b[0], -b[1]]
            e[j] += 1
            terms[tuple(e)] = const
        rank = rng.randint(1, 3)
        models.append((GoodModel(XY, (ModelSummand(L(XY.vars, terms), rank),)), b))
    return models


def test_criterion_03_cycle_matches_structured_gr_extraction():
    t0 = time.monotonic()
    models = _monomial_models(50)
    for model, b in models:
        s = model.summands[0]
        cyc = zcar_prime(model)
        if any(b):
            theta = twist(model.log_gradients()[0], model.poles[0], XY.log_indices)
            grc = gr_extract_structured(XY.stamp(), b, theta, s.rank)
        else:
            grc = LogCycle(XY.stamp(), [(ZeroSection(), s.rank)])
        assert cycle_equal(cyc, grc), (s.phi, b)
    elapsed = time.monotonic() - t0
    assert elapsed < 5.0
    _report(3, f"50 monomial models match the graded extraction in {elapsed:.2f}s")


# -- 4: one-divisor completion agrees with the chart cycle -----------------------

def _cdvf_direction_to_chart(direction, vars, j0, log_indices):
    """Rebase dx_l -> dx_l/x_l coefficients on the chart's log coordinates."""
    entries = []
    for l, p in enumerate(direction.entries):
        if l != j0 and l in log_indices:
            entries.append(p * L.variable(vars, vars[l]))
        else:
            entries.append(p)
    return Direction(entries)


def test_criterion_04_cdvf_equality_per_divisor():
    models = _monomial_models(50)  # the criterion-3 suite
    for model, b in models:
        s = model.summands[0]
        if not any(b):
            continue
        chart_cycle = zcar_prime(model)
        for k, name in enumerate(XY.log_vars):
            if b[k] == 0:
                continue
            j0 = XY.vars.index(name)
            local = local_zcar_rank1(s.phi, s.rank, XY.vars, cdvf_var_name=name)
            (lline, lmult), = local.lines()
            target = [ln for ln, m in chart_cycle.lines() if ln.divisor == name]
            mults = [m for ln, m in chart_cycle.lines() if ln.divisor == name]
            assert len(target) == 1
            assert mults[0] == lmult == s.rank * b[k]
            rebased = _cdvf_direction_to_chart(lline.direction, XY.vars, j0,
                                               set(XY.log_indices))
            # compare at the generic point of the divisor: restrict x_j = 0
            rebased = Direction([restrict_to_zero(p, j0) for p in rebased.entries])
            assert target[0].direction.proportional_to(rebased), (s.phi, name)
    _report(4, "one-divisor completions agree with the chart cycle on the suite")


# -- 5: the clean-but-not-numerically-clean model --------------------------------

def test_criterion_05_cleanness_counterexample():
    chart = Chart(("x", "y"), ("y",))
    model = GoodModel(chart, (ModelSummand(L(chart.vars, {(1, -2): 1}), 1),))
    origin = {"x": 0, "y": 0}
    ok, cert = clean_at_point(model, origin)
    assert ok, cert.reason
    assert not cert.numerically_clean
    sampled = [{"x": c, "y": 0} for c in (1, -1, 2, F(1, 2), 7, F(-3, 5))]
    for pt in sampled:
        assert clean_at_point(model, pt)[1].numerically_clean, pt
        ok, _ = clean_at_point(model, pt)
        assert ok
    _report(5, "clean everywhere, numerically clean away from the origin only")


# -- 6: implication chain ---------------------------------------------------------

def _suite_models():
    models = [m for m, _ in _monomial_models(20, seed=23)]
    # multi-summand good models: dominance chains with unit-led differences
    rng = random.Random(31)
    for _ in range(10):
        bs = sorted({(rng.randint(0, 4), rng.randint(0, 4)) for _ in range(3)},
                    reverse=True)
        bs = [b for b in bs if all(x >= y for x, y in zip(b, bs[-1]))]
        summands = []
        consts = rng.sample(range(1, 9), len(bs))
        for c, b in zip(consts, bs):
            summands.append(ModelSummand(L(XY.vars, {(-b[0], -b[1]): c}),
                                         rng.randint(1, 2)))
        models.append(GoodModel(XY, tuple(summands)))
    # known non-good models stay in the suite to exercise the second arrow
    models.append(GoodModel(XY, (ModelSummand(L(XY.vars, {(-1, 0): 1})),
                                 ModelSummand(L(XY.vars, {(0, -1): 1})))))
    chart = Chart(("x", "y"), ("y",))
    models.append(GoodModel(chart, (ModelSummand(L(chart.vars, {(1, -2): 1})),)))
    return models


def test_criterion_06_implication_chain():
    pts_full = [{"x": 0, "y": 0}, {"x": 0, "y": 2}, {"x": 3, "y": 0}]
    for model in _suite_models():
        good = validate_good_decomposition(model).is_good
        pts = [p for p in pts_full
               if any(p[v] == 0 for v in model.chart.log_vars)]
        for pt in pts:
            num = clean_at_point(model, pt)[1].numerically_clean
            if good:
                assert num, (model.summands, pt)
            if num:
                ok, cert = clean_at_point(model, pt)
                assert ok, (model.summands, pt, cert.reason)
    _report(6, "good => numerically clean => clean on the whole suite")


# -- 7: Kummer functoriality -------------------------------------------------------

def test_criterion_07_kummer_functoriality():
    models = [m for m, b in _monomial_models(20, seed=41) if any(b)]
    count = 0
    for model in models:
        for h in (2, 3):
            cover = {name: h for name in model.chart.log_vars}
            lhs = kummer_pullback(zcar_prime(model), cover)
            rhs = zcar_prime(model_kummer_pullback(model, cover))
            assert cycle_equal(lhs, rhs), (model.summands, h)
            count += 1
    assert count >= 20
    _report(7, f"pullback functoriality exact on {count} model/cover pairs")


# -- 8: lattice independence --------------------------------------------------------

def _lattice_annihilator(b, N):
    """Annihilator exponent of [x^N e] in the graded module of the lattice
    x^N k[x] e of the twist by x^-b: computed from the filtration degrees."""
    # fil_alpha = x^{N - alpha b} k[x] e; x^i xi^alpha kills the generator
    # iff N + i - alpha*b >= N - (alpha-1)*b, i.e. i >= b (alpha >= 1)
    for i in range(0, 10 * (b + 1)):
        alpha = 1
        if N + i - alpha * b >= N - (alpha - 1) * b:
            return i
    raise AssertionError("no annihilator found")


def test_criterion_08_lattice_twist_independence():
    for b in (1, 2, 3):
        cycles = []
        for N in (0, 1, 2, 3):
            i = _lattice_annihilator(b, N)
            assert i == b
            M = MonomialLogModule(ChartStamp(("x",), ("x",)), (0,),
                                  ((0, (i,), (1,)),))
            cycles.append(monomial_char_cycle(M))
        for c in cycles[1:]:
            assert cycle_equal(cycles[0], c)
    _report(8, "graded cycles unchanged under lattice twists N = 1, 2, 3")


# -- 9: failure of the dimension lower bound -----------------------------------------

def test_criterion_09_bernstein_failure():
    M = MonomialLogModule(ChartStamp(("x",), ("x",)), (0,),
                          ((0, (1,), (0,)), (0, (0,), (1,))))
    dim = hilbert_dim(M)
    assert dim == 0
    assert dim < 1  # strictly below the chart dimension
    cycle = monomial_char_cycle(M)
    (comp, mult), = cycle.parts
    assert comp.dim == 0 and mult == 1
    _report(9, "torsion quotient has dimension 0 < 1 with a point cycle")


# -- 10: integrality battery -----------------------------------------------------------

def test_criterion_10_integrality_battery():
    rng = random.Random(10)
    for _ in range(100):
        d = rng.randint(1, 4)
        coeffs = []
        for _ in range(d):
            coeffs.append({e: rng.randint(-5, 5)
                           for e in range(-6, 3) if rng.random() < 0.5})
        poly = newton_polygon(DiffOperator(GAUGE_PARTIAL,
                                           [S("t", c) for c in coeffs]))
        assert poly.total_irregularity.denominator == 1

    # descent on pure-slope residue classes of the suite operators: q lies in
    # Q[X^h] on the cover t = s^h
    suite = [
        (rank1_operator(S("t", {-2: 1})), F(2)),
        (rank1_operator(S("t", {-1: 3})), F(1)),
        (DiffOperator(GAUGE_PARTIAL, [S.zero(), S("t", {-3: -1})]), F(1, 2)),
        (DiffOperator("t*d/dt", [S("t", {0: 0}), S("t", {-2: -2})]), F(1)),
    ]
    for op, slope in suite:
        ref = refined_residue(op, newton_polygon(op), slope)
        assert descend(ref.residue_poly[::-1], ref.kummer) is not None
        assert ref.residue_poly[-1] != 0  # q(0) != 0

    # chi integrality: the guard trips on inconsistent rational input
    with pytest.raises(IntegralityError):
        integrality_check(F(1, 2))
    with pytest.raises(IntegralityError):
        chi_EP([(1, (F(1, 2),))], Curve(0, (("0", (F(1, 2),)),)))
    assert integrality_check(F(8)) == 8
    _report(10, "100 polygons integral; descent holds; chi integrality enforced")


def test_criterion_10b_cli_exit_4_on_violation(tmp_path, capsys):
    doc = {
        "schema": 1,
        "chart": {"vars": ["x"], "log_vars": ["x"]},
        "model": [{"phi": [{"coeff": "1", "exp": ["-1/2"]}], "rank": 1}],
        "geometry": {"kind": "curve", "genus": 0,
                     "punctures": [{"name": "x", "irregularities": []}]},
    }
    p = tmp_path / "bad.json"
    p.write_text(json.dumps(doc))
    code = cli_main(["chi", str(p)])
    capsys.readouterr()
    assert code == 4
    _report("10b", "a non-integral chi exits with code 4")


# -- 11: polygon inside oracle intervals -------------------------------------------------

def test_criterion_11_polygon_vs_radius_oracle():
    ops = [
        rank1_operator(S("t", {-1: 1})),
        rank1_operator(S("t", {-2: 1})),
        rank1_operator(S("t", {-3: 2})),
        DiffOperator(GAUGE_PARTIAL, [S("t", {-1: F(1, 2)})]),
        DiffOperator(GAUGE_PARTIAL, [S.zero(), S("t", {-3: -1})]),
        DiffOperator(GAUGE_PARTIAL, [S("t", {-2: 1}), S("t", {-4: 1})]),
    ]
    for op in ops:
        poly = newton_polygon(op)
        leading = max(poly.irregularity_multiset())
        lo, hi = radius_oracle(companion_matrix(op), s_max=40)
        assert lo <= leading <= hi, (op, leading, lo, hi)
    _report(11, "polygon irregularities inside oracle intervals at s_max = 40")
