import contextlib
import io
import json
import os
import random
import tracemalloc
from fractions import Fraction
from time import perf_counter

import pytest
from hypothesis import given, settings, strategies as st

from logchar import field, goodmodel
from logchar.cli import main
from logchar.modeldoc import parse_model_document, parse_point, SchemaError


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def monomial_model(vars, log_vars, terms, rank=1, **extra):
    doc = {
        "schema": 1,
        "field": {"base": "Q"},
        "chart": {"vars": list(vars), "log_vars": list(log_vars)},
        "model": [{"phi": [{"coeff": str(c), "exp": list(e)} for e, c in terms.items()],
                   "rank": rank}],
    }
    doc.update(extra)
    return doc


E_X3_CURVE = dict(
    monomial_model(("x",), ("x",), {(-3,): 1}),
    geometry={"kind": "curve", "genus": 0,
              "punctures": [{"name": "x", "irregularities": []},
                            {"name": "inf", "irregularities": ["0"]}]},
)

XY2_MODEL = monomial_model(("x", "y"), ("y",), {(1, -2): 1})

KATO_SURFACE = dict(
    monomial_model(("x", "y"), ("x", "y"), {(-2, -3): 1}),
    geometry={"kind": "surface", "chi_U": 1,
              "components": [{"name": "D1", "chi_open": 1},
                             {"name": "D2", "chi_open": 1}],
              "intersections": [[0, 1], [1, 0]]},
)

CAUTION_MODULE = {
    "schema": 1,
    "field": {"base": "Q"},
    "chart": {"vars": ["x"], "log_vars": ["x"]},
    "monomial_module": {
        "generators": [{"degree": 0}],
        "relations": [{"gen": 0, "x_exp": [1], "xi_exp": [0]},
                      {"gen": 0, "x_exp": [0], "xi_exp": [1]}],
    },
}


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate_good_and_negative(tmp_path, capsys):
    f = write(tmp_path, "good.json", monomial_model(("x",), ("x",), {(-1,): 1}))
    code, out, _ = run(capsys, "validate", f)
    assert code == 0 and "GOOD DECOMPOSITION: yes" in out

    f = write(tmp_path, "xy2.json", XY2_MODEL)
    code, out, _ = run(capsys, "validate", f)
    assert code == 0
    assert "GOOD DECOMPOSITION: no" in out
    assert "condition (1) fails for summand 1" in out


def test_validate_malformed_arity_exit2(tmp_path, capsys):
    doc = monomial_model(("x", "y"), ("x",), {(-1,): 1})  # arity 1 on 2 vars
    f = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, "validate", f)
    assert code == 2
    assert "exponent arity" in err


def test_clean_counterexample_cli(tmp_path, capsys):
    f = write(tmp_path, "xy2.json", XY2_MODEL)
    code, out, _ = run(capsys, "clean", f, "--point", "x=0,y=0")
    assert code == 0
    assert "clean: yes, numerically clean: no" in out
    code, out, _ = run(capsys, "clean", f, "--point", "x=1,y=0")
    assert "clean: yes, numerically clean: yes" in out


def test_clean_direct_sum_cli(tmp_path, capsys):
    doc = {
        "schema": 1,
        "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
        "model": [{"phi": [{"coeff": "1", "exp": [-1, 0]}], "rank": 1},
                  {"phi": [{"coeff": "1", "exp": [0, -1]}], "rank": 1}],
    }
    f = write(tmp_path, "sum.json", doc)
    code, out, _ = run(capsys, "clean", f, "--point", "x=0,y=0")
    assert code == 0 and "clean: no" in out


def test_clean_builds_each_radius_function_once(tmp_path, capsys, monkeypatch):
    # one certificate per point: every summand's support is recentred once,
    # and the numerical profile needs a decision of its own only when the
    # point has a coordinate off the divisors through it
    import logchar.goodmodel as goodmodel
    counts = {}
    for name in ("sorted_profile_linear", "local_support"):
        def counted(*args, _name=name, _fn=getattr(goodmodel, name)):
            counts[_name] = counts.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(goodmodel, name, counted)
    doc = {
        "schema": 1,
        "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
        "model": [{"phi": [{"coeff": "1", "exp": [-1, -2]}], "rank": 1},
                  {"phi": [{"coeff": "1", "exp": [-2, -1]}], "rank": 2},
                  {"phi": [{"coeff": "1", "exp": [-1, 0]},
                           {"coeff": "3", "exp": [0, 1]}], "rank": 1}],
    }
    f = write(tmp_path, "three.json", doc)
    for point, decisions in (("x=0,y=0", 1), ("x=0,y=1", 2)):
        counts.clear()
        code, _, _ = run(capsys, "clean", f, "--point", point)
        assert code == 0
        assert counts == {"sorted_profile_linear": decisions, "local_support": 3}, point


def test_zcar_reports_and_require_clean(tmp_path, capsys):
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    code, out, _ = run(capsys, "zcar", f)
    assert code == 0
    assert "ZeroSection mult=1" in out
    assert "Line D(x)" in out and "mult=2" in out
    assert "Line D(y)" in out and "mult=3" in out
    assert "conjectural" not in out

    f2 = write(tmp_path, "xy2.json", XY2_MODEL)
    code, out, _ = run(capsys, "zcar", f2)
    assert code == 0 and "conjectural" not in out  # clean everywhere on D

    sum_doc = {
        "schema": 1,
        "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
        "model": [{"phi": [{"coeff": "1", "exp": [-1, 0]}]},
                  {"phi": [{"coeff": "1", "exp": [0, -1]}]}],
    }
    f3 = write(tmp_path, "sum.json", sum_doc)
    code, out, _ = run(capsys, "zcar", f3)
    assert code == 0 and "conjectural" in out
    code, _, err = run(capsys, "zcar", f3, "--require-clean")
    assert code == 3


def test_zcar_monomial_module_caution(tmp_path, capsys):
    f = write(tmp_path, "caution.json", CAUTION_MODULE)
    code, out, _ = run(capsys, "zcar", f)
    assert code == 0
    assert "LowerDim dim=0 mult=1" in out
    assert "hilbert dimension: 0" in out


def test_zcar_monomial_module_counts_without_walking_the_box(tmp_path, capsys):
    # x^3000 and xi^3000 bound a box of 9 * 10^6 standard monomials
    doc = dict(CAUTION_MODULE, monomial_module={
        "generators": [{"degree": 0}],
        "relations": [{"gen": 0, "x_exp": [3000], "xi_exp": [0]},
                      {"gen": 0, "x_exp": [0], "xi_exp": [3000]}]})
    f = write(tmp_path, "box.json", doc)
    start = perf_counter()
    code, out, _ = run(capsys, "zcar", f)
    assert perf_counter() - start < 1.0
    assert code == 0 and "LowerDim dim=0 mult=9000000" in out


def test_chi_curve_all_formulas(tmp_path, capsys):
    f = write(tmp_path, "ex3.json", E_X3_CURVE)
    for formula in ("kato", "ep", "kd"):
        code, out, _ = run(capsys, "chi", f, "--formula", formula)
        assert code == 0, (formula, out)
        assert "chi = -3" in out


def _curve_geometry(at_x, *off_chart):
    """A genus-0 curve with the chart puncture x and off-chart punctures
    inf, p1, p2, ..."""
    return {"kind": "curve", "genus": 0,
            "punctures": [{"name": "x", "irregularities": at_x}] + [
                {"name": f"p{k}" if k else "inf", "irregularities": irrs}
                for k, irrs in enumerate(off_chart)]}


# x^-1/2 and 2 x^-1/2: a good decomposition whose rank-1 summands leave the
# line multiplicity 1/2 over D(x), although the total irregularity is 1
HALF_PAIR = [{"phi": [{"coeff": c, "exp": ["-1/2"] + [-1] * k}], "rank": 1}
             for k in (0, 1) for c in ("1", "2")]


def _same_refusal_from_all_formulas(capsys, f, code, message):
    for formula in ("kato", "ep", "kd"):
        for extra in ((), ("--json",)):
            got, out, err = run(capsys, "chi", f, "--formula", formula, *extra)
            assert (got, out) == (code, ""), (formula, extra, out)
            assert err == message + "\n", (formula, extra, err)


def test_chi_formulas_accept_the_same_curves(tmp_path, capsys):
    # every formula reads one reconciled curve, so each document is refused
    # by all three alike, with one message
    x2 = monomial_model(("x",), ("x",), {(-2,): 1})
    half_pair = dict(x2, model=HALF_PAIR[:2])
    cases = [
        (x2, _curve_geometry([], ["1", "1"]), 2,
         "invalid input: more irregularities than the rank at inf"),
        (x2, _curve_geometry(["3"], ["1"]), 2,
         "invalid input: declared irregularities at x disagree with the model"),
        (x2, _curve_geometry([], ["-1"]), 2, "invalid input: negative irregularity at inf"),
        (x2, dict(_curve_geometry([]), punctures=[{"name": "p"}]), 2,
         "invalid input: geometry lists no puncture named 'x'"),
        # a second x would enter as an off-chart puncture
        (x2, dict(_curve_geometry([]), punctures=[
            {"name": "x", "irregularities": []}, {"name": "x", "irregularities": ["3"]},
            {"name": "inf", "irregularities": []}]), 2,
         "invalid input: puncture names must be distinct"),
        (x2, _curve_geometry([], ["1/2"], ["1/2"]), 4,
         "internal assertion failure: non-integral total irregularity at inf: 1/2"),
        (half_pair, _curve_geometry([]), 4,
         "internal assertion failure: non-integral line multiplicity 1/2 over D(x): "
         "rank does not clear the orbit normalization")]
    for model, geometry, code, message in cases:
        f = write(tmp_path, "curve.json", dict(model, geometry=geometry))
        _same_refusal_from_all_formulas(capsys, f, code, message)


GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")


def test_chi_refuses_a_curve_geometry_on_a_surface_chart(tmp_path, capsys):
    # the golden curve moved onto the chart (x, y): every formula read rows
    # that a curve cannot hold, and printed chi = -11 with exit 0
    with open(os.path.join(GOLDEN, "curve.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["chart"]["vars"] = ["x", "y"]
    for summand in doc["model"]:
        for term in summand["phi"]:
            term["exp"].append(0)
    f = write(tmp_path, "curve_xy.json", doc)
    _same_refusal_from_all_formulas(
        capsys, f, 2, "invalid input: a curve geometry on a chart of 2 coordinates")


def test_chi_refuses_a_surface_geometry_on_a_curve_chart(tmp_path, capsys):
    doc = dict(monomial_model(("x",), ("x",), {(-2,): 1}),
               geometry={"kind": "surface", "chi_U": 1,
                         "components": [{"name": "D1", "chi_open": 1}],
                         "intersections": [[0]]})
    f = write(tmp_path, "surface_x.json", doc)
    _same_refusal_from_all_formulas(
        capsys, f, 2, "invalid input: a surface geometry on a chart of 1 coordinate")


def test_reducible_modulus_found_by_descent_exits_2(tmp_path, capsys):
    # (a^3 - 2)(a^3 - 3) = Q(a^3) with Q = (Y - 2)(Y - 3)
    doc = dict(monomial_model(("x",), ("x",), {(-2,): 1}),
               field={"base": "number_field", "gen": "a",
                      "modulus": ["6", "0", "0", "-5", "0", "0", "1"]})
    f = write(tmp_path, "sextic.json", doc)
    code, out, err = run(capsys, "irr", f)
    assert (code, out) == (2, "")
    assert "reducible" in err


def test_chart_refuses_repeated_log_variables(tmp_path, capsys):
    # D(x) listed twice would count the x^-2 summand's line twice
    doc = dict(monomial_model(("x",), ("x", "x"), {(-2,): 1}),
               geometry=_curve_geometry([], []))
    f = write(tmp_path, "xx.json", doc)
    for argv in (("validate",), ("irr",), ("zcar",), ("chi", "--formula", "kato"),
                 ("chi", "--formula", "kd")):
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, argv[0], f, *argv[1:], *extra)
            assert (code, out) == (2, ""), (argv, extra)
            assert err == "invalid input: bad chart: log variables must be distinct\n"


def test_chi_surface_all_formulas(tmp_path, capsys):
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    for formula in ("kato", "ep", "kd"):
        code, out, _ = run(capsys, "chi", f, "--formula", formula)
        assert code == 0
        assert "chi = 8" in out
    # x^-1/2 y^-1 and 2 x^-1/2 y^-1: every formula refuses the multiplicity 1/2
    f = write(tmp_path, "half.json", dict(KATO_SURFACE, model=HALF_PAIR[2:]))
    _same_refusal_from_all_formulas(
        capsys, f, 4, "internal assertion failure: non-integral line multiplicity 1/2 "
        "over D(x): rank does not clear the orbit normalization")
    one = dict(KATO_SURFACE["geometry"], components=[{"name": "D", "chi_open": 1}],
               intersections=[[0]])
    f = write(tmp_path, "one.json", dict(KATO_SURFACE, geometry=one))
    _same_refusal_from_all_formulas(
        capsys, f, 2, "invalid input: surface needs one component per chart log divisor "
        "(1 vs 2)")


def test_chi_integrality_exit4(tmp_path, capsys):
    # a rank-1 twist with irregularity 1/2 is inconsistent: chi is forced
    # non-integral and the run must fail loudly
    doc = dict(
        monomial_model(("x",), ("x",), {("-1/2",): 1}),
        geometry={"kind": "curve", "genus": 0,
                  "punctures": [{"name": "x", "irregularities": []}]},
    )
    f = write(tmp_path, "frac.json", doc)
    code, _, err = run(capsys, "chi", f)
    assert code == 4
    assert "assertion" in err


def test_oracle_chi_curve(tmp_path, capsys):
    f = write(tmp_path, "ex3.json", E_X3_CURVE)
    code, out, _ = run(capsys, "oracle", "chi-curve", f, "--window", "15")
    assert code == 0
    assert "oracle = -3" in out
    assert "stable against 18" in out


def test_oracle_window_below_bound_exit2(tmp_path, capsys):
    f = write(tmp_path, "ex3.json", E_X3_CURVE)
    code, out, err = run(capsys, "oracle", "chi-curve", f, "--window", "3")
    assert code == 2
    assert out == ""
    assert "invalid input: window 3 below the stable bound" in err


def test_oracle_refuses_a_window_past_the_work_bound(tmp_path, capsys):
    f = write(tmp_path, "ex3.json", E_X3_CURVE)
    for extra in ((), ("--json",)):
        start = perf_counter()
        code, out, err = run(capsys, "oracle", "chi-curve", f, "--window", "10000000000",
                             *extra)
        assert perf_counter() - start < 0.5
        assert code == 2 and out == ""
        assert err.startswith("refused: the recheck matrix at window 10000000003 has ")
        assert err.count("\n") == 1


def test_oracle_refuses_kummer_cover(tmp_path, capsys):
    # x^(-3/2) lives on the cover s^2 = x; the oracle must not run on s^-3
    frac = dict(E_X3_CURVE, **monomial_model(("x",), ("x",), {("-3/2",): 1}))
    cover = dict(E_X3_CURVE, kummer=[3])
    for name, doc, degree in (("frac.json", frac, 2), ("cover.json", cover, 3)):
        f = write(tmp_path, name, doc)
        code, out, err = run(capsys, "oracle", "chi-curve", f, "--window", "15")
        assert code == 2
        assert out == ""
        assert f"cover degree {degree}" in err


def test_chi_rejects_non_integer_intersections(tmp_path, capsys):
    doc = dict(KATO_SURFACE)
    doc["geometry"] = dict(KATO_SURFACE["geometry"], intersections=[[0, "a"], ["a", 0]])
    f = write(tmp_path, "bad.json", doc)
    code, _, err = run(capsys, "chi", f)
    assert code == 2
    assert "intersection matrix of integers" in err
    with pytest.raises(SchemaError):
        parse_model_document(doc)


def test_newton_huge_coefficient(tmp_path, capsys):
    op = {"schema": 1, "gauge": "d/dt", "order": 2,
          "coeffs": [[[-2, str(10**200)]], [[-4, "1"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["total"] == "2"


def test_newton_json_payload_on_integrality_violation(tmp_path, capsys):
    # d^2 - 20 t^-3: the residue X^2 - 80 is Q(X^2) with Q = Y - 80, so its
    # two roots form one class of dim 2, and dim * slope = 2 * 1/2 is an integer
    op = {"schema": 1, "gauge": "d/dt", "order": 2,
          "coeffs": [[], [[-3, "-20"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, err = run(capsys, "newton", f, "--json")
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert {"vertices", "irregularities", "total", "refined"} <= set(payload)
    assert payload["total"] == "1"
    (entry,) = payload["refined"]
    assert (entry["slope"], entry["kummer"], entry["q"]) == ("1/2", 2, ["1", "0", "-80"])
    assert entry["orbits"] == ["orbit r=2 dim=2 factors=['X^2 - 80']"]
    assert entry["violations"] == []


def test_newton_json_classes_a_degree_5_cover_by_descent(tmp_path, capsys):
    # d^5 - t^-6: slope 1/5 on a degree-5 cover; q = X^5 - 3125 is Q(X^5)
    # with Q = Y - 3125 irreducible, so its five roots form one class
    op = {"schema": 1, "gauge": "d/dt", "order": 5,
          "coeffs": [[], [], [], [], [[-6, "-1"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f, "--json")
    assert code == 0
    (entry,) = json.loads(out)["refined"]
    assert (entry["slope"], entry["kummer"], entry["violations"]) == ("1/5", 5, [])
    assert entry["orbits"] == [
        "orbit r=1 dim=5 factors=['X - 5', 'X^4 + 5*X^3 + 25*X^2 + 125*X + 625']"]


def test_newton_json_lists_the_factors_of_each_class_lift(tmp_path, capsys):
    # D^6 + t^-3: slope 1/2, q = X^6 + 64 = Q(X^2) with
    # Q = (Y + 4)(Y^2 - 4Y + 16).  q has no rational root and degree 6, so
    # it splits only class by class: each P(X^2) has degree <= 4
    op = {"schema": 1, "gauge": "t*d/dt", "order": 6,
          "coeffs": [[], [], [], [], [], [[-3, "1"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f, "--json")
    assert code == 0
    (entry,) = json.loads(out)["refined"]
    assert (entry["slope"], entry["kummer"], entry["q"]) == ("1/2", 2, ["1"] + ["0"] * 5 + ["64"])
    assert entry["orbits"] == ["orbit r=4 dim=4 factors=['X^4 - 4*X^2 + 16']",
                               "orbit r=2 dim=2 factors=['X^2 + 4']"]


def test_newton_refuses_to_factor_a_25_digit_residue(tmp_path, capsys):
    # d^2 - (10^24+7) t^-4: the residue X^2 - (10^24+7) needs the divisors of
    # a 25-digit integer, beyond the trial-division bound
    op = {"schema": 1, "gauge": "d/dt", "order": 2,
          "coeffs": [[], [[-4, str(-(10**24 + 7))]]]}
    f = write(tmp_path, "op.json", op)
    start = perf_counter()
    code, out, err = run(capsys, "newton", f)
    assert perf_counter() - start < 1
    assert code == 0 and err == ""
    assert "slope 1: residue factorization unavailable (the divisors of a 25-digit" in out
    code, out, err = run(capsys, "newton", f, "--json")
    assert code == 0 and err == ""
    (entry,) = json.loads(out)["refined"]
    assert entry["slope"] == "1" and "trial divisions" in entry["error"]


def test_newton_refuses_a_rational_root_search_past_the_pair_budget(tmp_path, capsys):
    # t d/dt: the residue of slope 1 has end integers 963761198400 and 1 once
    # its denominators are cleared, each with 6,720 divisors: 45,158,400
    # candidate pairs, refused before any is tested
    op = {"schema": 1, "gauge": "t*d/dt", "order": 2,
          "coeffs": [[[-1, "1/963761198400"]], [[-2, "1"]]]}
    f = write(tmp_path, "op.json", op)
    start = perf_counter()
    code, out, err = run(capsys, "newton", f, "--json")
    assert perf_counter() - start < 1
    assert code == 0 and err == ""
    (entry,) = json.loads(out)["refined"]
    assert entry == {"slope": "1", "error": "the rational-root search needs 45158400 "
                     f"candidate pairs, more than {field.MAX_ROOT_CANDIDATES}"}


def test_newton_charges_the_rational_root_search_by_degree(tmp_path, capsys):
    # D^200 + c t^-200, c = 349272000/19187821783: the residue X^200 + c has
    # 840 * 144 = 120,960 candidate pairs, under the bound at degree <= 12
    # but past it at degree 200, where each Horner test is 200 steps long
    op = {"schema": 1, "gauge": "t*d/dt", "order": 200,
          "coeffs": [[] for _ in range(199)] + [[[-200, "349272000/19187821783"]]]}
    f = write(tmp_path, "op.json", op)
    start = perf_counter()
    code, out, err = run(capsys, "newton", f, "--json")
    assert perf_counter() - start < 1
    assert code == 0 and err == ""
    bound = field.MAX_ROOT_CANDIDATES * 12 // 200
    (entry,) = json.loads(out)["refined"]
    assert entry == {"slope": "1", "error": "the rational-root search needs 120960 "
                     f"candidate pairs, more than {bound}"}


def test_newton_answers_a_dense_order_600_operator(tmp_path, capsys):
    # a d/dt operator of order 600 with 20 terms in each coefficient, c_i from
    # t^-i: every point (i, v(c_i) + i) is at height 0, so the polygon is the
    # horizontal ray and no coefficient is read past its leading term
    n = 600
    op = {"schema": 1, "gauge": "d/dt", "order": n,
          "coeffs": [[[e, "1"] for e in range(-i, 20 - i)] for i in range(1, n + 1)]}
    f = write(tmp_path, "op.json", op)
    start = perf_counter()
    code, out, err = run(capsys, "newton", f, "--json")
    assert perf_counter() - start < 1
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["irregularities"] == [["0", n]]
    assert payload["vertices"] == [[0, "0"], [n, "0"]]


def test_newton_order_601_same_in_either_gauge(tmp_path, capsys):
    # d^n + t^-1 with n = 601, and the same operator in the log gauge:
    # t^n d^n = D(D-1)..(D-n+1), so t^n (d^n + t^-1) has the signed Stirling
    # numbers s(n, n-i) as the constant coefficients c_i and c_n = t^(n-1)
    n = 601
    falling = [1]  # ascending coefficients of D(D-1)...(D-k+1)
    for k in range(n):
        falling = [a - k * b for a, b in zip([0] + falling, falling + [0])]
    partial = {"schema": 1, "gauge": "d/dt", "order": n,
               "coeffs": [[] for _ in range(n - 1)] + [[[-1, "1"]]]}
    log = {"schema": 1, "gauge": "t*d/dt", "order": n,
           "coeffs": [[[0, str(falling[n - i])]] for i in range(1, n)] + [[[n - 1, "1"]]]}
    outs = []
    for doc in (partial, log):
        start = perf_counter()
        code, out, err = run(capsys, "newton", write(tmp_path, "op.json", doc), "--json")
        assert perf_counter() - start < 1
        assert code == 0 and err == ""
        outs.append(out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["irregularities"] == [["0", n]]


def test_clean_refuses_past_the_ray_budget(tmp_path, capsys):
    # 1/x1 + ... + 1/x8 at the origin: 36 walls in 8 coordinates give C(36, 7)
    # choices of vertex-ray walls, past the budget, so clean refuses at once
    names = [f"x{i}" for i in range(1, 9)]
    terms = {tuple(-int(k == j) for k in range(8)): 1 for j in range(8)}
    f = write(tmp_path, "wide.json", monomial_model(names, names, terms))
    point = ",".join(f"{v}=0" for v in names)
    for extra in ((), ("--json",)):
        start = perf_counter()
        code, out, err = run(capsys, "clean", f, "--point", point, *extra)
        assert perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("refused: the vertex-ray check needs 8347680 choices")


def test_clean_keeps_the_verdict_when_only_numerical_cleanness_is_refused(tmp_path,
                                                                           capsys):
    # x_k / x1 for k = 2..8 with x1 the only log variable: the cleanness
    # profile at the origin has one coordinate, the numerical one eight
    names = [f"x{i}" for i in range(1, 9)]
    doc = dict(monomial_model(names, ["x1"], {}), model=[
        {"phi": [{"coeff": "1", "exp": [-1] + [int(j == k) for j in range(1, 8)]}],
         "rank": 1} for k in range(1, 8)])
    f = write(tmp_path, "x8.json", doc)
    point = ",".join(f"{v}=0" for v in names)
    refusal = "the vertex-ray check needs 8347680 choices of 7 among 36 walls"
    code, out, err = run(capsys, "clean", f, "--point", point)
    assert code == 0 and err == ""
    first, second = out.splitlines()
    assert first.endswith("clean: yes, numerically clean: refused")
    assert second.startswith(f"  numerical cleanness refused: {refusal}")
    code, out, err = run(capsys, "clean", f, "--point", point, "--json")
    assert code == 0 and err == ""
    (result,) = json.loads(out)["results"]
    assert result["clean"] is True and result["numerically_clean"] is None
    assert result["numerical_refusal"].startswith(refusal)
    # a numerical verdict within the budget carries no refusal key
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    code, out, _ = run(capsys, "clean", f, "--point", "x=0,y=0", "--json")
    assert code == 0 and "numerical_refusal" not in json.loads(out)["results"][0]


def test_irrational_common_zeros_are_not_clean(tmp_path, capsys):
    # phi = (y^2 - 2)^2 / x: theta = (-(y^2 - 2)^2, 4y(y^2 - 2)) on D(x)
    # vanishes at y = +-sqrt(2), which have no rational coordinate
    doc = monomial_model(("x", "y"), ("x",), {(-1, 4): 1, (-1, 2): -4, (-1, 0): 4},
                         geometry={"kind": "surface", "chi_U": 1,
                                   "components": [{"name": "D", "chi_open": 1}],
                                   "intersections": [[0]]})
    f = write(tmp_path, "sqrt2.json", doc)
    for command in ("zcar", "chi"):
        code, out, err = run(capsys, command, f, "--json")
        assert code == 0 and err == "" and json.loads(out)["clean"] is False
        code, out, err = run(capsys, command, f, "--require-clean")
        assert code == 3 and out == "" and "not clean" in err


def test_require_clean_on_three_coordinates_says_not_certified(tmp_path, capsys):
    # nothing decides cleanness on a chart with 3 coordinates: the refusal
    # says so instead of calling the model not clean; exit 3 and the JSON
    # verdict are unchanged
    chart3 = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "chart3.json")
    with open(chart3, encoding="utf-8") as fh:
        doc = json.load(fh)
    doc["geometry"] = KATO_SURFACE["geometry"]
    f = write(tmp_path, "chart3.json", doc)
    for command in ("zcar", "chi"):
        code, out, err = run(capsys, command, f, "--json")
        assert code == 0 and err == "" and json.loads(out)["clean"] is False
        code, out, err = run(capsys, command, f, "--require-clean")
        assert code == 3 and out == ""
        assert err == ("cleanness is not certified on charts with more than 2 "
                       "coordinates; refusing under --require-clean\n")
    code, _, err = run(capsys, "zcar", chart3, "--require-clean")
    assert code == 3 and "not certified" in err and "not clean" not in err


def test_zcar_decides_a_locus_with_a_large_constant(tmp_path, capsys, monkeypatch):
    # the locus is a gcd of the theta entries, so no constant is factored:
    # y/x - N/x has theta_y = 1 on D(x), and (y - N)^2/x vanishes at y = N
    def no_trial_division(n):
        raise AssertionError("trial division")
    monkeypatch.setattr(field, "_divisors", no_trial_division)
    big = 10**24 + 7
    for terms, clean in (({(-1, 1): 1, (-1, 0): -big}, True),
                         ({(-1, 2): 1, (-1, 1): -2 * big, (-1, 0): big**2}, False)):
        f = write(tmp_path, "big.json", monomial_model(("x", "y"), ("x",), terms))
        code, out, err = run(capsys, "zcar", f, "--json")
        assert code == 0 and err == ""
        assert json.loads(out)["clean"] is clean


ONE_DIVISOR_SURFACE = {"kind": "surface", "chi_U": 1,
                       "components": [{"name": "D", "chi_open": 1}], "intersections": [[0]]}


def test_zcar_and_chi_answer_a_dense_degree_80_theta(tmp_path, capsys, monkeypatch):
    # sum c_k y^k / x, k <= 80: the locus on D(x) is gcd(f, f') of a dense
    # f of degree 80.  Euclid on monic divisors keeps each divisor's
    # coefficients near 2,000 bits; without it they pass 80,000 bits
    rng = random.Random(80)
    terms = {(-1, k): rng.randint(-9, 9) for k in range(81)}
    f = write(tmp_path, "dense.json", monomial_model(("x", "y"), ("x",), terms,
                                                     geometry=ONE_DIVISOR_SURFACE))
    heights = []

    def divmod_spy(a, b):
        heights.append(max(Fraction(c).numerator.bit_length() +
                           Fraction(c).denominator.bit_length() for c in b))
        return poly_divmod(a, b)
    poly_divmod = goodmodel._poly_divmod
    monkeypatch.setattr(goodmodel, "_poly_divmod", divmod_spy)
    for command in ("zcar", "chi"):
        heights.clear()
        code, out, err = run(capsys, command, f, "--json")
        assert code == 0 and err == "" and json.loads(out)["clean"] is True
        assert len(heights) == 80 and max(heights) < 5_000, max(heights)


def _traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_locus_and_recentring_past_their_bounds_are_refused(tmp_path, capsys):
    # the locus would list 10^9 + 1 coefficients of y^(10^9) + 1 and the
    # point y = 2 would expand (y + 2)^100000: each is refused before
    # anything of that size is built
    huge = write(tmp_path, "huge.json", monomial_model(
        ("x", "y"), ("x",), {(-1, 10**9): 1, (-1, 0): 1}, geometry=ONE_DIVISOR_SURFACE))
    high = write(tmp_path, "high.json", monomial_model(
        ("x", "y"), ("x",), {(-1, 10**5): 1, (-1, 0): 1}))
    for argv, message in (
            (("zcar", huge), "refused: a theta entry on the divisor has degree span "
                             f"1000000000 in y, more than {goodmodel.MAX_LOCUS_DEGREE}\n"),
            (("chi", huge), "refused: a theta entry on the divisor has degree span "
                            f"1000000000 in y, more than {goodmodel.MAX_LOCUS_DEGREE}\n"),
            (("clean", high, "--point", "x=0,y=2"),
             "refused: recentring at y=2 would write 100002 terms, more than "
             f"{goodmodel.MAX_RECENTRED_TERMS}\n")):
        code, peak = _traced_peak(lambda: main(list(argv)))
        out = capsys.readouterr()
        assert code == 2 and out.out == "" and out.err == message, out.err
        assert peak < 500_000, (argv[0], peak)


def test_newton_command(tmp_path, capsys):
    op = {"schema": 1, "gauge": "d/dt", "order": 2,
          "coeffs": [[], [[-3, "-1"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f)
    assert code == 0
    assert "total irregularity: 1" in out
    assert "1/2 (x2)" in out
    assert "X^2 + -4" in out or "X^2 - 4" in out or "X^2 + (-4)" in out


def test_newton_rank1_residue(tmp_path, capsys):
    op = {"schema": 1, "gauge": "d/dt", "order": 1, "coeffs": [[[-3, "2"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f)
    assert code == 0
    assert "q(X) = X + 2" in out


def test_json_output_deterministic(tmp_path, capsys):
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    code, out1, _ = run(capsys, "chi", f, "--json")
    code, out2, _ = run(capsys, "chi", f, "--json")
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["chi"] == 8


def test_schema_rejects_bad_version():
    with pytest.raises(SchemaError):
        parse_model_document({"schema": 2, "chart": {"vars": ["x"], "log_vars": ["x"]}})


def test_point_from_file_block(tmp_path, capsys):
    # a points block names a point by an object or by the text of --point
    for point in ({"x": "0", "y": "0"}, "x=0,y=0"):
        f = write(tmp_path, "pts.json", dict(XY2_MODEL, points=[point]))
        code, out, _ = run(capsys, "clean", f)
        assert code == 0 and "clean: yes, numerically clean: no" in out


def test_points_block_must_be_a_list(tmp_path, capsys):
    # an integer ended in a TypeError traceback, and a string would be read
    # character by character as points
    for points in (5, "x=0,y=0", {"x=0,y=0": 1}):
        f = write(tmp_path, "pts.json", dict(XY2_MODEL, points=points))
        code, out, err = run(capsys, "clean", f)
        assert (code, out, err) == (2, "", "invalid input: points must be a list\n"), points


def test_point_names_each_coordinate_once(tmp_path, capsys):
    # a points block and --point go through one parser: an unknown or a
    # repeated coordinate is refused on both
    block = write(tmp_path, "xyz.json", dict(XY2_MODEL, points=[{"x": 0, "y": 0, "z": 7}]))
    plain = write(tmp_path, "xy.json", XY2_MODEL)
    cases = [((block,), "invalid input: unknown coordinate 'z'"),
             ((plain, "--point", "x=0,y=0,z=7"), "invalid input: unknown coordinate 'z'"),
             ((plain, "--point", "x=0,y=0,x=1"), "invalid input: repeated coordinate 'x'"),
             ((plain, "--point", "x=0"), "invalid input: point misses coordinate y"),
             ((plain, "--point", "x=0,y"), "invalid input: bad point coordinate 'y'"),
             ((plain, "--point", "x=0,y=1/0"),
              "invalid input: zero denominator in rational '1/0'")]
    for args, message in cases:
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, "clean", *args, *extra)
            assert (code, out, err) == (2, "", message + "\n"), (args, extra)


def test_point_text_names_the_same_point_as_its_object():
    # modeldoc.parse_point reads "x=0,y=1" as it reads {"x": "0", "y": "1"}
    chart = parse_model_document(XY2_MODEL).chart
    for text, obj in (("x=0,y=1", {"x": "0", "y": "1"}),
                      (" y = -1/2 , x=0", {"x": 0, "y": "-1/2"})):
        assert parse_point(text, chart) == parse_point(obj, chart)
    for bad, message in (("x=0,,y=1", "bad point coordinate ''"),
                         ("x=0,y=1,z=2", "unknown coordinate 'z'"),
                         (["x=0", "y=1"], "each point must be an object")):
        with pytest.raises(SchemaError) as refused:
            parse_point(bad, chart)
        assert str(refused.value) == message, bad


def test_repeated_json_keys_are_refused(tmp_path, capsys):
    # json keeps the last of repeated keys: x = 1 would be checked, and a
    # second "model" or "order" would replace the first without a word
    point = json.dumps(XY2_MODEL)[:-1] + ', "points": [{"x": "0", "y": "0", "x": "1"}]}'
    model = json.dumps(XY2_MODEL)[:-1] + ', "model": []}'
    operator = '{"schema": 1, "gauge": "d/dt", "order": 1, "coeffs": [[]], "order": 2}'
    cases = [("point.json", point, ("clean",), "x"), ("model.json", model, ("validate",), "model"),
             ("op.json", operator, ("newton",), "order")]
    for name, text, (command, *rest), key in cases:
        p = tmp_path / name
        p.write_text(text)
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, command, str(p), *rest, *extra)
            assert (code, out, err) == (2, "", f"invalid input: repeated key {key!r}\n"), name


def test_deeply_nested_json_is_refused(tmp_path, capsys):
    # the decoder recurses once per level; 200,000 levels would end in a
    # RecursionError traceback
    deep = "[" * 200_000 + "]" * 200_000
    model = '{"schema": 1, "chart": {"vars": ["x"], "log_vars": ["x"]}, "model": %s}' % deep
    operator = '{"schema": 1, "gauge": "d/dt", "order": 1, "coeffs": %s}' % deep
    for name, text, command in (("model.json", model, "zcar"), ("op.json", operator, "newton")):
        p = tmp_path / name
        p.write_text(text)
        for extra in ((), ("--json",)):
            code, out, err = run(capsys, command, str(p), *extra)
            assert (code, out, err) == (2, "", "invalid input: invalid JSON: nested too deeply\n")


def test_chi_on_single_log_divisor_surface(tmp_path, capsys):
    doc = dict(
        XY2_MODEL,
        geometry={"kind": "surface", "chi_U": 2,
                  "components": [{"name": "D", "chi_open": 1}],
                  "intersections": [[-1]]},
    )
    f = write(tmp_path, "xy2s.json", doc)
    for formula in ("kato", "ep", "kd"):
        code, out, _ = run(capsys, "chi", f, "--formula", formula,
                           "--require-clean")
        assert code == 0
        assert "chi = -4" in out


def test_chi_require_clean_exit3(tmp_path, capsys):
    doc = {
        "schema": 1,
        "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
        "model": [{"phi": [{"coeff": "1", "exp": [-1, 0]}]},
                  {"phi": [{"coeff": "1", "exp": [0, -1]}]}],
        "geometry": {"kind": "surface", "chi_U": 1,
                     "components": [{"name": "D1", "chi_open": 1},
                                    {"name": "D2", "chi_open": 1}],
                     "intersections": [[0, 1], [1, 0]]},
    }
    f = write(tmp_path, "sum.json", doc)
    code, _, err = run(capsys, "chi", f, "--require-clean")
    assert code == 3
    code, out, _ = run(capsys, "chi", f)  # without the gate it evaluates
    assert code == 0


def test_zcar_json_payload(tmp_path, capsys):
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    code, out, _ = run(capsys, "zcar", f, "--json")
    payload = json.loads(out)
    assert payload["clean"] is True
    assert any("ZeroSection" in line for line in payload["components"])


def test_newton_json_payload(tmp_path, capsys):
    op = {"schema": 1, "gauge": "d/dt", "order": 2,
          "coeffs": [[], [[-3, "-1"]]]}
    f = write(tmp_path, "op.json", op)
    code, out, _ = run(capsys, "newton", f, "--json")
    payload = json.loads(out)
    assert payload["total"] == "1"
    assert payload["irregularities"] == [["1/2", 2]]


def test_irr_command(tmp_path, capsys):
    f = write(tmp_path, "kato.json", KATO_SURFACE)
    code, out, _ = run(capsys, "irr", f)
    assert code == 0
    assert "rank=1 b=(2, 3)" in out
    assert "D(x): sorted irregularities 2" in out
    assert "D(y): sorted irregularities 3" in out
    assert "theta=(-2, -3)" in out
    code, out, _ = run(capsys, "irr", f, "--json")
    payload = json.loads(out)
    assert payload["rows"] == [{"rank": 1, "b": ["2", "3"]}]


def _zero_denominator_cases():
    bad_coeff = monomial_model(("x", "y"), ("y",), {(1, -2): "1/0"})
    bad_exp = dict(XY2_MODEL, model=[{"phi": [{"coeff": "1", "exp": ["1/0", -2]}]}])
    bad_irr = dict(E_X3_CURVE, geometry=dict(
        E_X3_CURVE["geometry"], punctures=[{"name": "x", "irregularities": ["1/0"]},
                                           {"name": "inf", "irregularities": ["0"]}]))
    bad_op = {"schema": 1, "gauge": "d/dt", "order": 2, "coeffs": [[], [[-3, "1/0"]]]}
    return [("coeff", bad_coeff, ("irr",)), ("exponent", bad_exp, ("validate",)),
            ("irregularity", bad_irr, ("chi",)), ("operator", bad_op, ("newton",)),
            ("point", XY2_MODEL, ("clean", "--point", "x=1/0,y=0"))]


@pytest.mark.parametrize("case", _zero_denominator_cases(), ids=lambda c: c[0])
def test_zero_denominator_is_invalid_input(tmp_path, capsys, case):
    _, doc, (command, *rest) = case
    f = write(tmp_path, "doc.json", doc)
    code, out, err = run(capsys, command, f, *rest)
    assert code == 2
    assert out == ""
    assert "zero denominator" in err


def _set(doc, path, value):
    """A deep copy of the JSON document ``doc`` with ``value`` at ``path``, a
    sequence of object keys and list indices."""
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


OPERATOR = {"schema": 1, "gauge": "t*d/dt", "order": 1, "coeffs": [[[-1, "1"]]]}
CHERN_SURFACE = dict(KATO_SURFACE, chern={"c2": "0", "c1_dot_D": ["0", "0"]})
NUMBER_FIELD_MODEL = dict(E_X3_CURVE, field={"base": "number_field", "modulus": ["-2", 0, 1]})

# (field, document, path, JSON value, command): a JSON boolean where the
# parent of each path otherwise holds an integer (a rational for coeff, c2,
# c1_dot_D and modulus), then a number or a string where it holds a list
BOOLEAN_CASES = [
    ("schema", E_X3_CURVE, ("schema",), True, "irr"),
    ("rank", E_X3_CURVE, ("model", 0, "rank"), True, "irr"),
    ("kummer", dict(E_X3_CURVE, kummer=[1]), ("kummer", 0), True, "irr"),
    ("coeff", E_X3_CURVE, ("model", 0, "phi", 0, "coeff"), True, "irr"),
    ("modulus", NUMBER_FIELD_MODEL, ("field", "modulus", 2), True, "irr"),
    ("genus", E_X3_CURVE, ("geometry", "genus"), False, "chi"),
    ("chi_U", KATO_SURFACE, ("geometry", "chi_U"), True, "chi"),
    ("chi_open", KATO_SURFACE, ("geometry", "components", 0, "chi_open"), True, "chi"),
    ("intersections", KATO_SURFACE, ("geometry", "intersections", 0, 1), True, "chi"),
    ("c2", CHERN_SURFACE, ("chern", "c2"), False, "chi"),
    ("c1_dot_D", CHERN_SURFACE, ("chern", "c1_dot_D", 0), False, "chi"),
    ("degree", CAUTION_MODULE, ("monomial_module", "generators", 0, "degree"), False,
     "zcar"),
    ("gen", CAUTION_MODULE, ("monomial_module", "relations", 0, "gen"), False, "zcar"),
    ("x_exp", CAUTION_MODULE, ("monomial_module", "relations", 0, "x_exp", 0), True,
     "zcar"),
    ("xi_exp", CAUTION_MODULE, ("monomial_module", "relations", 1, "xi_exp", 0), True,
     "zcar"),
    ("operator schema", OPERATOR, ("schema",), True, "newton"),
    ("order", OPERATOR, ("order",), True, "newton"),
    ("operator exponent", OPERATOR, ("coeffs", 0, 0, 0), True, "newton"),
    ("punctures", E_X3_CURVE, ("geometry", "punctures"), 2, "chi"),
    ("irregularities", E_X3_CURVE, ("geometry", "punctures", 1, "irregularities"), 3,
     "chi"),
    # a string would be read character by character, "12" as [1, 2]
    ("irregularities string", E_X3_CURVE, ("geometry", "punctures", 1, "irregularities"),
     "3", "chi"),
    ("components", KATO_SURFACE, ("geometry", "components"), 2, "chi"),
    ("relations", CAUTION_MODULE, ("monomial_module", "relations"), 1, "zcar"),
]


@pytest.mark.parametrize("case", BOOLEAN_CASES, ids=lambda c: c[0])
def test_json_booleans_are_not_numbers(tmp_path, capsys, case):
    _, doc, path, value, command = case
    code, _, err = run(capsys, command, write(tmp_path, "ok.json", doc))
    assert (code, err) == (0, "")
    code, out, err = run(capsys, command, write(tmp_path, "bool.json", _set(doc, path, value)))
    assert (code, out) == (2, "")
    assert err.startswith("invalid input: "), err


@st.composite
def _operator_documents(draw):
    """Operator documents of order 1-4 in either gauge, each coefficient a
    sparse sum of rational multiples of powers of t."""
    order = draw(st.integers(1, 4))
    # a rare zero denominator takes the invalid-input path
    value = st.builds(lambda p, q: f"{p}/{q}", st.integers(-9, 9),
                      st.sampled_from((1, 2, 3, 4, 5, 6, 0)))
    term = st.tuples(st.integers(-8, 3), value).map(list)
    return {"schema": 1, "gauge": draw(st.sampled_from(("d/dt", "t*d/dt"))),
            "order": order,
            "coeffs": [draw(st.lists(term, max_size=3)) for _ in range(order)]}


@settings(derandomize=True, deadline=None, max_examples=150)
@given(_operator_documents())
def test_newton_fuzz_exit_codes_and_json(tmp_path_factory, doc):
    # main returns rather than raises: an exception here is a traceback
    path = tmp_path_factory.getbasetemp() / "newton_fuzz.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--json",)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["newton", str(path), *extra])
        assert code in (0, 2), (doc, err.getvalue())
        if code == 2:
            assert out.getvalue() == "" and err.getvalue().count("\n") == 1, doc
        elif extra:
            lines = out.getvalue().splitlines()
            assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), doc


_VALUES = ("0", "1", "-1", "2", "1/2", "-3/2")
_MODULI = ([-2, 0, 1], [1, 0, 1], [-2, 0, 0, 1])


@st.composite
def _model_documents(draw):
    """Model documents on charts of 1-3 coordinates: fractional exponents,
    optional number fields and Kummer data, curve or surface geometry and
    points; some drawn values are invalid on purpose."""
    vars = ["x", "y", "z"][:draw(st.integers(1, 3))]
    log_vars = draw(st.permutations(sorted(draw(st.sets(st.sampled_from(vars), min_size=1)))))
    log_exp = st.one_of(st.integers(-4, 2), st.sampled_from(("-1/2", "-5/3", "1/2")))
    # one document in six may carry a pole or a fraction on a non-log variable
    other_exp = st.integers(0, 2) if draw(st.integers(0, 5)) else \
        st.sampled_from((0, 1, -1, "1/2"))
    coeff = st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.sampled_from((1, 2, 3)))
    term = st.fixed_dictionaries({
        "coeff": coeff,
        "exp": st.tuples(*[log_exp if v in log_vars else other_exp for v in vars]).map(list)})
    doc = {"schema": 1, "chart": {"vars": vars, "log_vars": list(log_vars)},
           "model": draw(st.lists(st.fixed_dictionaries(
               {"phi": st.lists(term, min_size=1, max_size=3), "rank": st.integers(1, 3)}),
               min_size=1, max_size=3))}
    if draw(st.booleans()):
        doc["field"] = {"base": "number_field", "modulus": draw(st.sampled_from(_MODULI))}
    if draw(st.integers(0, 3)) == 0:
        doc["kummer"] = draw(st.lists(st.integers(1, 3), min_size=len(log_vars),
                                      max_size=len(log_vars)))
    kind = draw(st.sampled_from(("curve", "surface", None)))
    if kind == "curve":
        names = [log_vars[0] if draw(st.integers(0, 3)) else "p", "inf"]
        doc["geometry"] = {"kind": "curve", "genus": draw(st.integers(0, 1)), "punctures": [
            {"name": name, "irregularities": draw(st.lists(st.sampled_from(_VALUES[:5]),
                                                           max_size=2))}
            for name in names]}
    elif kind == "surface":
        k = draw(st.sampled_from((len(log_vars), 2)))
        upper = {(i, j): draw(st.integers(-2, 1)) for i in range(k) for j in range(i, k)}
        doc["geometry"] = {
            "kind": "surface", "chi_U": draw(st.integers(-1, 2)),
            "components": [{"name": f"D{i}", "chi_open": draw(st.integers(-1, 2))}
                           for i in range(k)],
            "intersections": [[upper[min(i, j), max(i, j)] for j in range(k)]
                              for i in range(k)]}
        if draw(st.booleans()):
            doc["chern"] = {"c2": draw(st.sampled_from(_VALUES)),
                            "c1_dot_D": [draw(st.sampled_from(_VALUES)) for _ in range(k)]}
    doc["points"] = draw(st.lists(st.fixed_dictionaries(
        {v: st.sampled_from(("0", "1", "-1/2")) for v in vars}), min_size=1, max_size=2))
    return doc


_MODEL_COMMANDS = [("validate",), ("irr",), ("clean",), ("zcar",), ("zcar", "--require-clean")] \
    + [("chi", "--formula", f, *r) for f in ("kato", "ep", "kd") for r in ((), ("--require-clean",))]


def _run_checked(*argv):
    """Run the CLI: the exit code is 0, 2, 3 or 4, a refusal prints one stderr
    line and nothing on stdout, and --json on success prints one JSON object."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    assert code in (0, 2, 3, 4), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "" and err.getvalue().count("\n") == 1, argv
    elif "--json" in argv:
        lines = out.getvalue().splitlines()
        assert len(lines) == 1 and isinstance(json.loads(lines[0]), dict), argv


@settings(derandomize=True, deadline=None, max_examples=40)
@given(_model_documents())
def test_model_document_fuzz_exit_codes_and_json(tmp_path_factory, doc):
    # main returns rather than raises: an exception here is a traceback
    path = tmp_path_factory.getbasetemp() / "model_fuzz.json"
    path.write_text(json.dumps(doc))
    for command, *rest in _MODEL_COMMANDS:
        for extra in ((), ("--json",)):
            _run_checked(command, str(path), *rest, *extra)


@st.composite
def _monomial_documents(draw):
    """Monomial-module documents on charts of 1-3 coordinates; some carry a
    relation with a negative or missing exponent, a missing generator or a
    non-integer degree on purpose."""
    vars = ["x", "y", "z"][:draw(st.sampled_from((2, 1, 3)))]
    n = len(vars)
    log_vars = sorted(draw(st.sets(st.sampled_from(vars), min_size=1)))
    ngen = draw(st.integers(1, 3))
    bad = draw(st.integers(0, 5)) == 0
    exp = st.lists(st.integers(-1 if bad else 0, 3), min_size=n - bad, max_size=n)
    degree = st.sampled_from((0, 1, -2, "1/2")) if bad else st.integers(-2, 2)
    relation = st.fixed_dictionaries({"gen": st.integers(0, ngen - (not bad)),
                                      "x_exp": exp, "xi_exp": exp})
    return {"schema": 1, "chart": {"vars": vars, "log_vars": log_vars},
            "monomial_module": {
                "generators": [{"degree": draw(degree)} for _ in range(ngen)],
                "relations": draw(st.lists(relation, max_size=4))}}


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_monomial_documents())
def test_monomial_module_fuzz_exit_codes_and_json(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "monomial_fuzz.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--json",)):
        _run_checked("zcar", str(path), *extra)


@st.composite
def _curve_oracle_documents(draw):
    """Curve models for the de Rham oracle: mostly one rank-1 summand on a
    one-coordinate chart, sometimes a second summand, a higher rank, a second
    coordinate, fractional exponents or Kummer data.  A window <= 6 is stable
    only for a constant twist, so one document in three has no pole."""
    vars = ["x", "y"][:1 + (draw(st.integers(0, 5)) == 0)]
    exp = st.just(0) if draw(st.integers(0, 2)) == 0 else \
        st.one_of(st.integers(-3, 3), st.sampled_from(("-1/2", "-3/2")))
    coeff = st.builds(lambda p, q: f"{p}/{q}", st.integers(-3, 3), st.sampled_from((1, 2)))
    term = st.fixed_dictionaries({
        "coeff": coeff, "exp": st.tuples(exp, *[st.integers(0, 1)] * (len(vars) - 1)).map(list)})
    summand = st.fixed_dictionaries({"phi": st.lists(term, min_size=1, max_size=3),
                                     "rank": st.sampled_from((1, 1, 1, 1, 2))})
    doc = {"schema": 1, "chart": {"vars": vars, "log_vars": ["x"]},
           "model": draw(st.lists(summand, min_size=1,
                                  max_size=1 + (draw(st.integers(0, 4)) == 0))),
           "geometry": {"kind": "curve", "genus": 0,
                        "punctures": [{"name": "x", "irregularities": []},
                                      {"name": "inf", "irregularities": ["0"]}]}}
    if draw(st.integers(0, 4)) == 0:
        doc["kummer"] = [draw(st.integers(1, 3))]
    return doc, draw(st.sampled_from((6, 5, 2, -1)))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_curve_oracle_documents())
def test_curve_oracle_fuzz_exit_codes_and_json(tmp_path_factory, case):
    doc, window = case
    path = tmp_path_factory.getbasetemp() / "oracle_fuzz.json"
    path.write_text(json.dumps(doc))
    for extra in ((), ("--json",)):
        _run_checked("oracle", "chi-curve", str(path), "--window", str(window), *extra)
