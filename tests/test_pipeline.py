"""End-to-end consistency: model -> cycle -> intersection number -> formulas.

For clean models the cycle evaluation must reproduce the curve and surface
formulas exactly; the rank-1 refined residues of the attached operators must
match the cycle directions.
"""

import json
import random
from fractions import Fraction
from pathlib import Path

from logchar.cdvf import newton_polygon, refined_residue
from logchar.euler import ChernData, Curve, Surface, chi_EP, derham_oracle_curve, \
    kashiwara_dubson, reconcile_geometry
from logchar.goodmodel import Chart, GoodModel, ModelSummand, irregularity_divisor, \
    nonclean_locus, zcar_prime
from logchar.laurent import LaurentPolynomial
from logchar.modeldoc import load_json, parse_model_document
from logchar.series import LaurentSeries

from test_cdvf import rank1_operator
from test_cycles import cycle_equal

L = LaurentPolynomial
F = Fraction
XY = Chart(("x", "y"), ("x", "y"))
X1 = Chart(("x",), ("x",))
GOLDEN = Path(__file__).resolve().parent / "golden"


def _random_clean_surface_model(rng):
    """Direct sums of monomial twists with constant-led units are clean."""
    summands = []
    seen = set()
    for _ in range(rng.randint(1, 3)):
        b = (rng.randint(0, 4), rng.randint(0, 4))
        if b in seen:
            continue
        seen.add(b)
        c = rng.choice([1, 2, -1, 3])
        summands.append(ModelSummand(L(XY.vars, {(-b[0], -b[1]): c}),
                                     rng.randint(1, 3)))
    bs = sorted((tuple(-min(e[i] for e in s.phi.terms) for i in range(2))
                 for s in summands), reverse=True)
    # keep only dominance chains so the direct sum stays clean at the origin
    ok = all(all(x >= y for x, y in zip(bs[i], bs[i + 1]))
             for i in range(len(bs) - 1))
    if not ok:
        return None
    return GoodModel(XY, tuple(summands))


def test_surface_pipeline_kd_equals_formulas():
    rng = random.Random(101)
    checked = 0
    while checked < 60:
        model = _random_clean_surface_model(rng)
        if model is None:
            continue
        locus = nonclean_locus(model)
        if not locus.is_empty:
            continue
        geom = Surface(rng.randint(-3, 4),
                       (("x", rng.randint(-3, 3)), ("y", rng.randint(-3, 3))),
                       _random_symmetric(rng, 2))
        rows, geom = reconcile_geometry(irregularity_divisor(model), geom)
        cycle = zcar_prime(model)
        kd = kashiwara_dubson(cycle, geom)
        kato = chi_EP(rows, geom)
        ep = chi_EP(rows, geom, ChernData.from_topology(geom))
        assert kd == kato == ep, (model.summands, kd, kato, ep)
        checked += 1


def _random_symmetric(rng, k):
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    return tuple(tuple(r) for r in m)


INF_MULTISETS = ((), (F(0),), (F(1),), (F(3),), (F(2), F(1)), (F(1, 2), F(1, 2)),
                 (F(3, 2), F(1, 2), F(0)))


def test_curve_pipeline_kd_equals_formula_and_oracle():
    # the puncture at infinity lies off the chart: the cycle does not see it,
    # and kashiwara_dubson adds its declared irregularities itself
    rng = random.Random(7)
    for _ in range(40):
        b = rng.randint(0, 5)
        c = rng.choice([1, 2, -3, F(1, 2)])
        rank = rng.randint(1, 3)
        inf = rng.choice([m for m in INF_MULTISETS if len(m) <= rank])
        genus = rng.randint(0, 1)
        model = GoodModel(X1, (ModelSummand(L(("x",), {(-b,): c}), rank),))
        rows, geom = reconcile_geometry(irregularity_divisor(model),
                                        Curve(genus, (("x", ()), ("inf", inf))))
        assert geom.punctures[0] == ("x", tuple([F(b)] * rank))
        cycle = zcar_prime(model)
        kd = kashiwara_dubson(cycle, geom)
        formula = chi_EP(rows, geom)
        assert kd == formula == rank * (-2 * genus) - rank * b - sum(inf), (b, rank, inf)
        if rank == 1 and b > 0 and not any(inf) and genus == 0:
            oracle = derham_oracle_curve(model.summands[0].phi, window=2 * b + 5)
            assert oracle.chi == formula


def test_golden_curve_kd_includes_the_off_chart_puncture():
    # curve.json declares irregularities 1, 0 at inf, off the chart: the
    # library's cycle evaluation gives what chi --formula kd prints
    doc = parse_model_document(load_json(str(GOLDEN / "curve.json")))
    rows, geom = reconcile_geometry(irregularity_divisor(doc.model), doc.geometry)
    assert geom.punctures[1] == ("inf", (F(1), F(0)))
    assert kashiwara_dubson(zcar_prime(doc.model), geom) == chi_EP(rows, geom) == -12
    expected = json.loads((GOLDEN / "expected.json").read_text())
    assert json.loads(expected["chi curve --formula kd --json"]["stdout"])["chi"] == -12


def test_half_slope_pushforward_chi_loop():
    # a rank-2 piece with pure irregularity 1/2: the descended twist of a
    # first-order pole on a double cover; the line multiplicity is one and
    # every chi route gives 2 chi(U) - 1
    model = GoodModel(X1, (ModelSummand(L(("x",), {(-1,): 2}), 2),), (2,))
    cycle = zcar_prime(model)
    (line, mult), = cycle.lines()
    assert mult == 1
    rows, geom = reconcile_geometry(irregularity_divisor(model),
                                    Curve(0, (("x", ()), ("inf", (F(0), F(0))))))
    assert geom.punctures[0] == ("x", (F(1, 2), F(1, 2)))
    assert chi_EP(rows, geom) == kashiwara_dubson(cycle, geom) == 2 * 0 - 1


def test_mixed_log_surface_chart_all_formulas():
    # the e^{x/y^2} model on a chart with a single log divisor: clean
    # everywhere, so the cycle evaluation must match both formulas
    chart = Chart(("x", "y"), ("y",))
    model = GoodModel(chart, (ModelSummand(L(chart.vars, {(1, -2): 1}), 1),))
    assert nonclean_locus(model).is_empty
    geom = Surface(2, (("y", 1),), ((-1,),))
    rows = [(rank, row) for rank, row in irregularity_divisor(model).rows]
    kato = chi_EP(rows, geom)
    ep = chi_EP(rows, geom, ChernData.from_topology(geom))
    kd = kashiwara_dubson(zcar_prime(model), geom)
    # chi(U) - 2 chi(D^o) + 4 (D.D) = 2 - 2 - 4
    assert kato == ep == kd == -4


def test_residue_roots_match_cycle_directions_rank1():
    rng = random.Random(55)
    for _ in range(25):
        b = rng.randint(1, 5)
        c = F(rng.choice([1, 2, -1, 3, -5]))
        phi_poly = L(("t",), {(-b,): c})
        cycle_dir = zcar_prime(
            GoodModel(Chart(("t",), ("t",)),
                      (ModelSummand(phi_poly, 1),))).lines()[0][0].direction
        theta1 = cycle_dir.entries[0].constant_term().rational_value()
        assert theta1 == -b * c  # reduction of t^b (t d/dt) phi
        op = rank1_operator(LaurentSeries("t", {-b: c}))
        ref = refined_residue(op, newton_polygon(op), F(b))
        assert ref.theta_values() == [theta1]
