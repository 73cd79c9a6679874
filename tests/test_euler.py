import random
import tracemalloc
from fractions import Fraction

import pytest

from logchar import euler
from logchar.cycles import ChartStamp, Direction, DivisorLine, LogCycle, LowerDim, ZeroSection
from logchar.euler import (
    ChernData,
    Curve,
    GeometryError,
    IntegralityError,
    MAX_ORACLE_CELLS,
    OracleBudgetError,
    Surface,
    WindowError,
    chi_EP,
    derham_oracle_curve,
    integrality_check,
    kashiwara_dubson,
    reconcile_geometry,
)
from logchar.goodmodel import IrregularityDivisor
from logchar.laurent import LaurentPolynomial

L = LaurentPolynomial
F = Fraction

P1_MINUS_TWO = Curve(0, (("0", (F(3),)), ("inf", (F(0),))))


def _divisor(name, rows):
    """The irregularity divisor of a model on a one-divisor chart."""
    return IrregularityDivisor(1, (name,), tuple(rows), (tuple(sorted(
        (b for rank, (b,) in rows for _ in range(rank)), reverse=True)),))


def test_chi_curve_examples():
    assert chi_EP([(1, (F(3), F(0)))], P1_MINUS_TWO) == -3
    assert chi_EP([(1, ())], Curve(1, ())) == 0
    assert chi_EP([(1, (F(1, 2),))] * 2, Curve(0, (("0", (F(1, 2), F(1, 2))),))) == 1
    # the curve formula rank * chi(U) - total irregularity on reconciled rows
    rows, geom = reconcile_geometry(_divisor("0", [(1, (F(3),))]),
                                    Curve(0, (("0", ()), ("inf", (F(0),)))))
    assert geom == P1_MINUS_TWO
    assert chi_EP(rows, geom) == -3
    rows, geom = reconcile_geometry(_divisor("0", [(2, (F(1, 2),))]),
                                    Curve(0, (("0", ()),)))
    assert rows == ((1, (F(1, 2),)), (1, (F(1, 2),)))
    assert chi_EP(rows, geom) == 1


def test_chi_curve_integrality_guard():
    with pytest.raises(IntegralityError):
        chi_EP([(1, (F(1, 2),))], Curve(0, (("0", (F(1, 2),)),)))
    with pytest.raises(IntegralityError, match="line multiplicity 1/2 over D"):
        reconcile_geometry(_divisor("0", [(1, (F(1, 2),))]), Curve(0, (("0", ()),)))
    with pytest.raises(IntegralityError, match="total irregularity at inf: 1/2"):
        reconcile_geometry(_divisor("0", [(1, (F(1),))]),
                           Curve(0, (("0", ()), ("inf", (F(1, 2),)))))


def test_chi_surface_kato_example():
    geom = Surface(1, (("D1", 1), ("D2", 1)), ((0, 1), (1, 0)))
    rows = [(1, (F(2), F(3)))]
    assert chi_EP(rows, geom) == 1 - 5 + 12 == 8


def test_chi_surface_regular_and_selfintersection():
    geom = Surface(3, (("D", 2),), ((-1,),))
    assert chi_EP([(1, (F(1),))], geom) == 3 - 2 - 1 == 0
    geom2 = Surface(4, (("D", 1),), ((0,),))
    assert chi_EP([(5, (F(0),))], geom2) == 20


def test_chi_EP_matches_curve():
    rng = random.Random(19)
    for _ in range(200):
        rank = rng.randint(1, 3)
        g = rng.randint(0, 3)
        npunct = rng.randint(1, 3)
        rows = []
        for _ in range(rank):
            rows.append((1, tuple(F(rng.randint(0, 5)) for _ in range(npunct))))
        punctures = []
        for j in range(npunct):
            punctures.append((f"p{j}", tuple(row[j] for _, row in rows)))
        geom = Curve(g, tuple(punctures))
        assert chi_EP(rows, geom) == rank * geom.chi_U - sum(sum(r) for _, r in rows)
        # the reconciled rows redistribute each puncture's values in sorted
        # order, which keeps the Euler characteristic
        chart = _divisor("p0", [(1, row[:1]) for _, row in rows])
        declared = Curve(g, (("p0", ()),) + tuple(punctures[1:]))
        assert chi_EP(*reconcile_geometry(chart, declared)) == chi_EP(rows, geom)


def test_chi_EP_matches_kato_on_random_surfaces():
    rng = random.Random(29)
    for _ in range(200):
        k = rng.randint(1, 3)
        comps = tuple((f"D{j}", rng.randint(-3, 3)) for j in range(k))
        inter = [[0] * k for _ in range(k)]
        for i in range(k):
            for j in range(i, k):
                inter[i][j] = inter[j][i] = rng.randint(-3, 3)
        geom = Surface(rng.randint(-3, 4), comps, tuple(tuple(r) for r in inter))
        rows = [(1, tuple(F(rng.randint(0, 5)) for _ in range(k)))
                for _ in range(rng.randint(1, 3))]
        # Kato's surface formula, chi(U) - sum_j b_j chi(D_j^o)
        # + sum_{j,j'} b_j b_j' (D_j . D_j') per row
        kato = sum(geom.chi_U - sum(b * chi for b, (_, chi) in zip(row, comps))
                   + sum(row[j] * row[jp] * inter[j][jp]
                         for j in range(k) for jp in range(k))
                   for _, row in rows)
        assert chi_EP(rows, geom) == kato


def test_chi_EP_chern_override():
    geom = Surface(1, (("D1", 1), ("D2", 1)), ((0, 1), (1, 0)))
    rows = [(1, (F(2), F(3)))]
    top = ChernData.from_topology(geom)
    assert top.c2 == 1 and top.c1_dot_D == (-1, -1)
    assert chi_EP(rows, geom, top) == 8
    twisted = ChernData(F(2), (F(-1), F(-1)))
    assert chi_EP(rows, geom, twisted) == 9


def test_kashiwara_dubson_curve():
    chart = ChartStamp(("x",), ("x",))
    one = L.constant(("x",), 1)
    cyc = LogCycle(chart, [(ZeroSection(), 1),
                           (DivisorLine("x", Direction([one * -3]), (F(3),)), 3)])
    geom = Curve(0, (("x", (F(3),)), ("inf", (F(0),))))
    assert kashiwara_dubson(cyc, geom) == -3
    # a line over a divisor the geometry does not name is refused
    with pytest.raises(GeometryError, match="unknown divisor component x"):
        kashiwara_dubson(cyc, P1_MINUS_TWO)
    # d [X] alone on genus g with punctures
    for d, g, k in [(1, 0, 2), (3, 1, 1), (2, 2, 3)]:
        c = LogCycle(chart, [(ZeroSection(), d)])
        geom = Curve(g, tuple((f"p{j}", (F(0),)) for j in range(k)))
        assert kashiwara_dubson(c, geom) == d * (2 - 2 * g - k)


def test_kashiwara_dubson_lowerdim_contributes_zero():
    chart = ChartStamp(("x",), ("x",))
    c = LogCycle(chart, [(ZeroSection(), 1), (LowerDim("pt", 0), 1)])
    geom = Curve(0, (("0", (F(0),)),))
    assert kashiwara_dubson(c, geom) == 1 * (2 - 0 - 1)


def test_kashiwara_dubson_surface_matches_kato():
    chart = ChartStamp(("x", "y"), ("x", "y"))
    one = L.constant(("x", "y"), 1)
    row = (F(2), F(3))
    cyc = LogCycle(chart, [
        (ZeroSection(), 1),
        (DivisorLine("x", Direction([one * -2, one * -3]), row), 2),
        (DivisorLine("y", Direction([one * -2, one * -3]), row), 3),
    ])
    geom = Surface(1, (("x", 1), ("y", 1)), ((0, 1), (1, 0)))
    assert kashiwara_dubson(cyc, geom) == 8
    with pytest.raises(GeometryError):
        bad = LogCycle(chart, [(DivisorLine("x", Direction([one]), None), 1)])
        kashiwara_dubson(bad, geom)


def test_integrality_check():
    assert integrality_check(8) == 8
    assert integrality_check(F(16, 2)) == 8
    with pytest.raises(IntegralityError):
        integrality_check(F(1, 2))


def test_derham_oracle_monomials():
    x = ("x",)
    cert = derham_oracle_curve(L(x, {(-3,): 1}), window=15)
    assert (cert.chi, cert.kernel_dim, cert.cokernel_dim) == (-3, 0, 3)
    cert = derham_oracle_curve(L.zero(x), window=9)
    assert (cert.chi, cert.kernel_dim, cert.cokernel_dim) == (0, 1, 1)
    cert = derham_oracle_curve(L(x, {(1,): 1}), window=9)
    assert (cert.chi, cert.kernel_dim, cert.cokernel_dim) == (-1, 0, 1)


def test_derham_oracle_matches_curve_formula():
    # rank-1 twists with monomial and binomial phi, poles at 0 and infinity
    x = ("x",)
    cases = [
        ({(-b,): 1}, b, 0) for b in range(1, 7)
    ] + [
        ({(2,): 3}, 0, 2),
        ({(-2,): 1, (1,): 1}, 2, 1),
        ({(-1,): 4, (3,): -2}, 1, 3),
    ]
    for terms, irr0, irrinf in cases:
        phi = L(x, terms)
        geom = Curve(0, (("0", (F(irr0),)), ("inf", (F(irrinf),))))
        want = chi_EP([(1, (F(irr0), F(irrinf)))], geom)
        assert want == -irr0 - irrinf
        got = derham_oracle_curve(phi, window=2 * max(irr0, irrinf, 1) + 7)
        assert got.chi == want, (terms, got)


def test_derham_oracle_window_guard():
    with pytest.raises(WindowError):
        derham_oracle_curve(L(("x",), {(-4,): 1}), window=6)


def test_derham_oracle_work_bound(monkeypatch):
    # a huge window is refused before any matrix is built
    phi = L(("x",), {(-3,): 1})
    tracemalloc.start()
    try:
        with pytest.raises(OracleBudgetError, match=f"more than {MAX_ORACLE_CELLS}"):
            derham_oracle_curve(phi, window=10**12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 20_000
    # window 150 stays inside the bound (a full-rank stand-in for the
    # elimination keeps the check fast); window 160 does not
    monkeypatch.setattr(euler, "_rank", lambda mat: len(mat[0]))
    assert derham_oracle_curve(phi, window=150).recheck_window == 153
    with pytest.raises(OracleBudgetError):
        derham_oracle_curve(phi, window=160)
