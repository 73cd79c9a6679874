"""JSON model documents: parsing and validation.

Schema version 1.  Coefficients are exact rational strings "p/q"; exponents
are integers or rational strings, whose denominators are absorbed into the
Kummer cover denominators of the log variables.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import lcm
from typing import Optional, Tuple

from .cycles import MonomialLogModule
from .cdvf import DiffOperator, GAUGE_LOG, GAUGE_PARTIAL
from .euler import ChernData, Curve, Surface
from .field import QQ, NumberField, Scalar, parse_rational
from .goodmodel import Chart, GoodModel, ModelSummand
from .laurent import LaurentPolynomial
from .record import Record
from .series import LaurentSeries

SCHEMA_VERSION = 1


class SchemaError(ValueError):
    pass


class ModelDocument(Record):
    chart: Chart
    model: Optional[GoodModel]
    monomial_module: Optional[MonomialLogModule]
    geometry: object
    chern: Optional[ChernData]
    points: Tuple[dict, ...]


def _expect(cond, msg):
    if not cond:
        raise SchemaError(msg)


def _list(obj, key, name):
    """obj[key], [] when absent; anything but a JSON list is refused."""
    value = obj.get(key, [])
    _expect(isinstance(value, list), f"{name} must be a list")
    return value


def _is_int(x, low=None) -> bool:
    """Whether x is a JSON integer, at least ``low`` when given.  JSON true
    and false are Python bools, an int subclass, and are refused."""
    return type(x) is int and (low is None or x >= low)


def parse_model_document(doc: dict) -> ModelDocument:
    _expect(isinstance(doc, dict), "document must be a JSON object")
    schema = doc.get("schema")
    _expect(_is_int(schema) and schema == SCHEMA_VERSION, f"schema must be {SCHEMA_VERSION}")
    field = _parse_field(doc.get("field", {"base": "Q"}))
    chart = _parse_chart(doc.get("chart"))
    model = None
    monomial = None
    if "model" in doc:
        model = _parse_model(doc["model"], doc.get("kummer"), chart, field)
    if "monomial_module" in doc:
        monomial = _parse_monomial_module(doc["monomial_module"], chart)
    _expect(model is not None or monomial is not None,
            "document needs a 'model' or a 'monomial_module' block")
    geometry = _parse_geometry(doc.get("geometry"))
    chern = _parse_chern(doc.get("chern"), geometry)
    return ModelDocument(chart, model, monomial, geometry, chern,
                         tuple(parse_point(p, chart) for p in _list(doc, "points", "points")))


def _parse_field(spec) -> NumberField:
    _expect(isinstance(spec, dict), "field must be an object")
    base = spec.get("base", "Q")
    if base == "Q":
        return QQ
    if base == "number_field":
        modulus = spec.get("modulus")
        _expect(isinstance(modulus, list) and len(modulus) >= 2,
                "number_field needs an ascending modulus list")
        return NumberField([parse_rational(c) for c in modulus],
                           spec.get("gen", "a"))
    raise SchemaError(f"unknown base field {base!r}")


def _parse_chart(spec) -> Chart:
    _expect(isinstance(spec, dict), "chart must be an object")
    vars = spec.get("vars")
    log_vars = spec.get("log_vars")
    _expect(isinstance(vars, list) and vars and all(isinstance(v, str) for v in vars),
            "chart.vars must be a nonempty list of names")
    _expect(isinstance(log_vars, list) and log_vars, "chart.log_vars must be nonempty")
    try:
        return Chart(tuple(vars), tuple(log_vars))
    except Exception as exc:
        raise SchemaError(f"bad chart: {exc}")


def _parse_model(spec, kummer_spec, chart: Chart, field) -> GoodModel:
    """The model in one typed pass: a JSON integer exponent stays an int, any
    other exponent is read as a rational string and kept as a Fraction only
    when it is not integral; exponents are scaled by the cover only when some
    cover degree is not 1, and each coefficient sum becomes a rational
    scalar of the document's field."""
    _expect(isinstance(spec, list) and spec, "model must be a nonempty list of summands")
    n = chart.n
    log = chart.log_indices
    raw_terms = []
    denominators = [1] * n
    for k, summand in enumerate(spec):
        _expect(isinstance(summand, dict), f"summand {k} must be an object")
        phi = summand.get("phi", [])
        _expect(isinstance(phi, list), f"summand {k}: phi must be a list of terms")
        terms = []
        for t in phi:
            # the checks of every term, with no message built when they pass
            if not (isinstance(t, dict) and "exp" in t and "coeff" in t):
                raise SchemaError(f"summand {k}: each term needs 'coeff' and 'exp'")
            exp = t["exp"]
            if not (isinstance(exp, list) and len(exp) == n):
                raise SchemaError(f"summand {k}: exponent arity must be {n}")
            exp = [e if type(e) is int else parse_rational(str(e)) for e in exp]
            for j, e in enumerate(exp):
                if type(e) is int:
                    continue
                if e.denominator == 1:
                    exp[j] = e.numerator
                else:
                    _expect(j in log, f"summand {k}: fractional exponent on non-log variable")
                    denominators[j] = lcm(denominators[j], e.denominator)
            terms.append((exp, parse_rational(t["coeff"])))
        rank = summand.get("rank", 1)
        _expect(_is_int(rank, 1), f"summand {k}: rank must be >= 1")
        raw_terms.append((terms, rank))
    hs = [1] * chart.m
    if kummer_spec is not None:
        _expect(isinstance(kummer_spec, list) and len(kummer_spec) == chart.m
                and all(_is_int(h, 1) for h in kummer_spec),
                "kummer must list one positive integer per log divisor")
        hs = list(kummer_spec)
    for i, j in enumerate(log):
        hs[i] = lcm(hs[i], denominators[j])
    cover = [1] * n
    for i, j in enumerate(log):
        cover[j] = hs[i]
    scaled = any(h != 1 for h in hs)
    summands = []
    for terms, rank in raw_terms:
        tdict = {}
        for exp, coeff in terms:
            # each denominator divides its cover degree, so x * h is an integer
            key = tuple(x.numerator * (h // x.denominator) for x, h in zip(exp, cover)) \
                if scaled else tuple(exp)
            tdict[key] = tdict[key] + coeff if key in tdict else coeff
        tdict = {e: Scalar._rational(field, c) for e, c in tdict.items()}
        summands.append(ModelSummand(LaurentPolynomial(chart.vars, tdict, field), rank))
    try:
        return GoodModel(chart, summands, hs, field)
    except Exception as exc:
        raise SchemaError(f"bad model: {exc}")


def _parse_monomial_module(spec, chart: Chart) -> MonomialLogModule:
    _expect(isinstance(spec, dict), "monomial_module must be an object")
    gens = spec.get("generators")
    _expect(isinstance(gens, list) and gens, "monomial_module needs generators")
    degrees = []
    for g in gens:
        _expect(isinstance(g, dict) and _is_int(g.get("degree", 0)),
                "each generator carries an integer degree")
        degrees.append(g.get("degree", 0))
    rels = []
    for r in _list(spec, "relations", "monomial_module.relations"):
        _expect(isinstance(r, dict), "relations must be objects")
        gen = r.get("gen", 0)
        x_exp = r.get("x_exp")
        xi_exp = r.get("xi_exp")
        _expect(_is_int(gen, 0) and gen < len(degrees), "relation gen index")
        n = chart.n
        _expect(isinstance(x_exp, list) and len(x_exp) == n
                and all(_is_int(a, 0) for a in x_exp),
                f"relation x_exp must be {n} nonnegative integers")
        _expect(isinstance(xi_exp, list) and len(xi_exp) == n
                and all(_is_int(a, 0) for a in xi_exp),
                f"relation xi_exp must be {n} nonnegative integers")
        rels.append((gen, tuple(x_exp), tuple(xi_exp)))
    try:
        return MonomialLogModule(chart.stamp(), tuple(degrees), tuple(rels))
    except Exception as exc:
        raise SchemaError(f"bad monomial module: {exc}")


def _parse_geometry(spec):
    if spec is None:
        return None
    _expect(isinstance(spec, dict), "geometry must be an object")
    kind = spec.get("kind")
    if kind == "curve":
        genus = spec.get("genus", 0)
        _expect(_is_int(genus, 0), "genus must be a natural number")
        punctures = []
        for p in _list(spec, "punctures", "geometry.punctures"):
            _expect(isinstance(p, dict) and "name" in p, "puncture needs a name")
            irrs = tuple(parse_rational(str(v)) for v in
                         _list(p, "irregularities", f"irregularities at {p['name']}"))
            punctures.append((str(p["name"]), irrs))
        return Curve(genus, tuple(punctures))
    if kind == "surface":
        chi_U = spec.get("chi_U")
        _expect(_is_int(chi_U), "surface needs integral chi_U")
        comps = []
        for c in _list(spec, "components", "geometry.components"):
            _expect(isinstance(c, dict) and "name" in c and _is_int(
                c.get("chi_open")), "component needs name and integral chi_open")
            comps.append((str(c["name"]), c["chi_open"]))
        inter = spec.get("intersections")
        _expect(isinstance(inter, list) and all(
            isinstance(r, list) and all(_is_int(x) for x in r) for r in inter),
            "surface needs an intersection matrix of integers")
        try:
            return Surface(chi_U, tuple(comps), tuple(tuple(r) for r in inter))
        except Exception as exc:
            raise SchemaError(f"bad surface geometry: {exc}")
    raise SchemaError(f"unknown geometry kind {kind!r}")


def _parse_chern(spec, geometry):
    if spec is None:
        return None
    _expect(isinstance(spec, dict), "chern must be an object")
    _expect(geometry is not None and geometry.n == 2,
            "chern data applies to surface geometry")
    c2 = parse_rational(spec.get("c2"))
    c1 = spec.get("c1_dot_D")
    _expect(isinstance(c1, list) and len(c1) == len(geometry.components),
            "c1_dot_D must list one value per divisor component")
    return ChernData(c2, tuple(parse_rational(v) for v in c1))


def parse_point(spec, chart: Chart) -> dict:
    """The point named by a coordinate -> value map, or by its text form
    "x=0,y=1": each chart coordinate exactly once, and no other name."""
    if isinstance(spec, str):
        text, spec = spec, {}
        for item in text.split(","):
            name, eq, value = item.partition("=")
            _expect(eq, f"bad point coordinate {item!r}")
            name = name.strip()
            _expect(name not in spec, f"repeated coordinate {name!r}")
            spec[name] = value
    _expect(isinstance(spec, dict), "each point must be an object")
    for name in spec:
        _expect(name in chart.vars, f"unknown coordinate {name!r}")
    pt = {}
    for name in chart.vars:
        _expect(name in spec, f"point misses coordinate {name}")
        pt[name] = parse_rational(str(spec[name]))
    return pt


# -- operator documents --------------------------------------------------------


def parse_operator_document(doc: dict) -> DiffOperator:
    _expect(isinstance(doc, dict), "operator document must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    _expect(_is_int(schema) and schema == SCHEMA_VERSION, f"schema must be {SCHEMA_VERSION}")
    gauge = doc.get("gauge", GAUGE_PARTIAL)
    _expect(gauge in (GAUGE_PARTIAL, GAUGE_LOG), f"unknown gauge {gauge!r}")
    order = doc.get("order")
    coeffs_spec = doc.get("coeffs")
    _expect(_is_int(order, 1), "order must be a positive integer")
    _expect(isinstance(coeffs_spec, list) and len(coeffs_spec) == order,
            "coeffs must list one term-list per coefficient c_1..c_d")
    coeffs = []
    for k, spec in enumerate(coeffs_spec, start=1):
        _expect(isinstance(spec, list), f"coefficient {k} must be a list of [exp, value]")
        terms = {}
        for t in spec:
            _expect(isinstance(t, list) and len(t) == 2 and _is_int(t[0]),
                    f"coefficient {k}: each term is [int exponent, rational string]")
            terms[t[0]] = terms.get(t[0], Fraction(0)) + parse_rational(str(t[1]))
        coeffs.append(LaurentSeries("t", terms))
    return DiffOperator(gauge, coeffs)


def load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_object)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"invalid JSON: {exc}")
        except RecursionError:
            raise SchemaError("invalid JSON: nested too deeply") from None


def _object(pairs) -> dict:
    """A JSON object; a key given twice is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen = set()
        for key, _ in pairs:
            if key in seen:
                raise SchemaError(f"repeated key {key!r}")
            seen.add(key)
    return obj
