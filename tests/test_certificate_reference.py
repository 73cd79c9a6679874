"""The chart certificates against their per-call reference.

``GoodModel`` keeps each summand's pole vector and log gradient, and the
non-clean locus, the cleanness check at a point and the cycle read their
theta vectors off them as exponent shifts; at the origin a reduced theta is
a constant term.  The references below compute every theta from phi on each
call and on their own: the pole monomial times ``log_partial`` or
``partial`` as a polynomial product, then restricted to a divisor by its
terms free of that variable, or evaluated, with the support recentred term
by term.  Models: every surface-ladder rung and the generated doc-mix
documents of the benchmark corpus, the golden model documents, and random
models over Q and Q(sqrt 2) with Kummer covers.
"""

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from logchar import goodmodel as gm
from logchar.cycles import CycleError, DivisorLine, LogCycle, ZeroSection, Direction, \
    line_multiplicity
from logchar.field import QQ, NumberField
from logchar.goodmodel import (Chart, GoodModel, ModelSummand, clean_at_point, nonclean_locus,
                               zcar_prime)
from logchar.laurent import LaurentPolynomial
from logchar.modeldoc import parse_model_document
from logchar.tropical import RayBudgetError, sorted_profile_linear

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "bench") not in sys.path:
    sys.path.append(str(ROOT / "bench"))
import corpus  # bench/corpus.py: the benchmark documents

Q2 = NumberField([-2, 0, 1])


# -- references: theta from phi on every call ------------------------------------


def _reference_pole(phi, along):
    """The pole order max(0, -min exponent) of phi along each variable in
    ``along``, 0 on the others."""
    return [max([0] + [-e[j] for e in phi.terms]) if j in along else 0
            for j in range(len(phi.vars))]


def _reference_theta(phi, log_indices, along):
    """theta_l = t * D_l(phi) as a polynomial product, with t the pole
    monomial of phi along ``along``; D_l is x_l d/dx_l for l in
    ``log_indices`` and d/dx_l otherwise."""
    t = LaurentPolynomial.monomial(phi.vars, _reference_pole(phi, along), 1, phi.field)
    return tuple(t * (phi.log_partial(l) if l in log_indices else phi.partial(l))
                 for l in range(len(phi.vars)))


def _restrict(p, j):
    """p at x_j = 0: its terms free of x_j, when p has no pole along x_j."""
    assert all(e[j] >= 0 for e in p.terms), (p, j)
    return LaurentPolynomial(p.vars, {e: c for e, c in p.terms.items() if e[j] == 0}, p.field)


def _reference_local_support(phi, model, pt, frame):
    """Support of phi recentred at the point, through the shift of every
    group of terms, also when no coordinate is shifted."""
    J, R, K = frame
    chart = model.chart
    groups = {}
    for e, c in phi.terms.items():
        g = groups.setdefault(tuple(e[j] for j in J + K), {})
        rpart = tuple(e[j] for j in R)
        g[rpart] = g.get(rpart, model.field.zero()) + c
    out = set()
    for key, rterms in groups.items():
        for s in gm._recenter_support(rterms, [chart.vars[j] for j in R],
                                      [pt[chart.vars[j]] for j in R], model.field):
            e = [0] * chart.n
            for pos, j in enumerate(J + K):
                e[j] = key[pos]
            for pos, j in enumerate(R):
                e[j] = s[pos]
            out.add(tuple(e))
    return tuple(sorted(out))


def _reference_clean_at_point(model, z):
    """(clean, sharp verdicts, numerical verdict, theta reductions)."""
    pt = gm._normalize_point(model, z)
    frame = gm._local_frame(model, pt)
    J, R, K = frame
    coords = J + R + K
    forms = [[tuple(-e[j] for j in coords)
              for e in _reference_local_support(s.phi, model, pt, frame)]
             for s in model.summands]

    def profile(n):
        return [([f[:n] for f in fs], s.rank) for fs, s in zip(forms, model.summands)]

    ok, verdicts = sorted_profile_linear(profile(len(J)), len(J))
    try:
        numerically = ok if not R and not K else \
            sorted_profile_linear(profile(len(coords)), len(coords))[0]
    except RayBudgetError:
        numerically = None
    thetas, theta_ok = [], True
    for idx, s in enumerate(model.summands):
        if not any(_reference_pole(s.phi, J)):
            continue
        vals = [t.evaluate(pt) for t in _reference_theta(s.phi, J, J)]
        thetas.append((idx, tuple(str(v) for v in vals)))
        theta_ok = theta_ok and any(not v.is_zero for v in vals)
    return ok and theta_ok, verdicts, numerically, tuple(thetas)


def _reference_nonclean_locus(model):
    """(theta entries, points) per divisor and the bad strata; the origin of
    a curve chart is not checked (see the tests below), and a chart of more
    than 2 coordinates is not decided."""
    chart = model.chart
    if chart.n > 2:
        raise gm.UndecidedError("cleanness is not certified on charts with more than 2 "
                                "coordinates")
    per = []
    for name in chart.log_vars:
        j = chart.vars.index(name)
        gens, points = [], set()
        for s in model.summands:
            if _reference_pole(s.phi, (j,))[j] == 0:
                continue
            entries = _reference_divisor_theta(s.phi, chart, j)
            gens.append(entries)
            if chart.n == 2:
                points.update(gm._common_zeros_on_divisor(entries, 1 - j, chart))
        per.append((tuple(gens), tuple(sorted(points))))
    bad = []
    if chart.n == chart.m == 2 and not _reference_clean_at_point(
            model, {v: 0 for v in chart.vars})[0]:
        bad.append("origin")
    return tuple(per), tuple(bad)


def _reference_divisor_theta(phi, chart, j):
    """theta of phi twisted by its pole along D_j alone, restricted to D_j."""
    return tuple(_restrict(t, j) for t in _reference_theta(phi, chart.log_indices, (j,)))


def _reference_zcar_prime(model):
    chart = model.chart
    parts = [(ZeroSection(), model.rank)]
    log = chart.log_indices
    for s in model.summands:
        pole = _reference_pole(s.phi, log)
        row = tuple(Fraction(pole[j], h) for j, h in zip(log, model.kummer))
        if not any(row):
            continue
        theta = _reference_theta(s.phi, log, log)
        for k, name in enumerate(chart.log_vars):
            if row[k] == 0:
                continue
            j = chart.vars.index(name)
            entries = [_restrict(t, j) for t in theta]
            if entries[j].is_zero:
                raise CycleError(f"leading refined coefficient of D({name}) vanishes")
            parts.append((DivisorLine(name, Direction(entries), row),
                          line_multiplicity(s.rank, row[k], name)))
    return LogCycle(chart.stamp(), parts)


def _outcome(fn, *args):
    """The value of fn, or the type and message of what it raised."""
    try:
        return fn(*args)
    except (ValueError, AssertionError, gm.UndecidedError) as exc:
        return type(exc), str(exc)


# -- models ---------------------------------------------------------------------


def _corpus_models():
    """Every surface-ladder rung and generated doc-mix document of seeds 0-1,
    with the fixed doc-mix documents (Q(sqrt 2), a Kummer curve)."""
    docs = {}
    for seed in (0, 1):
        for op in corpus.build("surface-ladder", seed) + corpus.build("doc-mix", seed):
            if op.doc is not None and "model" in op.doc:
                docs.setdefault((seed, op.id.rsplit("/", 1)[0]), op.doc)
    return {f"{name}@{seed}": parse_model_document(doc)
            for (seed, name), doc in docs.items()}


def _golden_models():
    out = {}
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")):
        doc = json.loads(path.read_text())
        if "model" in doc:
            out[f"golden/{path.stem}"] = parse_model_document(doc)
    return out


def _random_models(seed, count):
    """Random models with poles along the log variables: several terms per
    summand, so theta entries are polynomials with zeros, and covers."""
    rng = random.Random(seed)
    charts = (Chart(("x", "y"), ("x", "y")), Chart(("x", "y"), ("x",)),
              Chart(("x", "y"), ("y",)), Chart(("x",), ("x",)),
              Chart(("x", "y", "z"), ("x", "y")))
    out = {}
    for i in range(count):
        chart = rng.choice(charts)
        field = rng.choice((QQ, Q2))
        summands = []
        for _ in range(rng.randint(1, 3)):
            terms = {}
            for _ in range(rng.randint(1, 4)):
                e = tuple(-rng.randint(0, 3) if j in chart.log_indices else rng.randint(0, 2)
                          for j in range(chart.n))
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.choice((1, 2)))
                terms[e] = field(c) + (field.gen() * rng.randint(-1, 1) if field is Q2
                                       else field(0))
            phi = LaurentPolynomial(chart.vars, terms, field)
            if not phi.is_zero:
                summands.append(ModelSummand(phi, rng.randint(1, 3)))
        if not summands:
            continue
        kummer = [rng.choice((1, 1, 2)) for _ in range(chart.m)]
        out[f"random/{seed}/{i}"] = (GoodModel(chart, summands, kummer, field), ())
    return out


def _points(chart, rng, doc_points):
    """The origin, the document's points, and points on each log divisor
    with the other coordinates drawn from {0, 1, -2, 1/2}."""
    pts = [{v: 0 for v in chart.vars}] + [dict(p) for p in doc_points]
    for name in chart.log_vars:
        for _ in range(2):
            pts.append({v: 0 if v == name else rng.choice((0, 1, -2, Fraction(1, 2)))
                        for v in chart.vars})
    return pts


def _all_models():
    models = {name: (doc.model, doc.points) for name, doc in
              {**_corpus_models(), **_golden_models()}.items()}
    models.update(_random_models(5, 60))
    return models


MODELS = _all_models()


def test_the_reference_models_cover_every_kind():
    names = " ".join(MODELS)
    for kind in ("ladder/r3", "ladder/r10", "ladder/z3-r5", "mix/chain", "mix/mixed",
                 "mix/kummer", "mix/tri", "mix/sqrt2", "golden/number_field",
                 "golden/kummer", "golden/chart3", "random/"):
        assert kind in names, kind
    assert {m.field for m, _ in MODELS.values()} >= {QQ, Q2}
    assert any(h > 1 for m, _ in MODELS.values() for h in m.kummer)


def _fresh(model):
    """The model rebuilt, with nothing derived yet."""
    return GoodModel(model.chart, model.summands, model.kummer, model.field)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_certificates_match_the_per_call_reference(name):
    model, doc_points = MODELS[name]
    # a zcar or chi call reads the locus and then the cycle off one model
    call = _fresh(model)
    want = _outcome(_reference_nonclean_locus, model)
    got = _outcome(nonclean_locus, call)
    if isinstance(got, gm.NonCleanLocus):
        per, bad = want
        assert got.is_empty == (all(not points for _, points in per) and not bad), name
        got = (tuple((d.generators, d.points) for d in got.per_divisor), got.bad_strata)
    assert got == want, name

    want = _outcome(_reference_zcar_prime, model)
    for got in (_outcome(zcar_prime, call), _outcome(zcar_prime, _fresh(model))):
        if isinstance(want, LogCycle):
            assert got.report_lines() == want.report_lines(), name
        else:
            assert got == want, name

    # a clean call reads every point off one model
    rng = random.Random(name)
    call = _fresh(model)
    for z in _points(model.chart, rng, doc_points):
        want = _outcome(_reference_clean_at_point, model, z)
        got = _outcome(clean_at_point, call, z)
        if isinstance(got, tuple) and len(got) == 2 and isinstance(got[1], gm.CleanCertificate):
            ok, cert = got
            got = (ok, cert.sharp_linear, cert.numerically_clean, cert.theta_reductions)
        assert got == want, (name, z)


@pytest.mark.parametrize("name", sorted(MODELS))
def test_theta_never_vanishes_along_a_divisor(name):
    """Why the locus raises nothing: wherever pole[j] > 0, the x_j entry of
    theta on D_j is -pole[j] times the face of phi along D_j, so it is
    nonzero; and on a curve chart the origin is always clean."""
    model, _ = MODELS[name]
    chart = model.chart
    for s in model.summands:
        pole = _reference_pole(s.phi, chart.log_indices)
        for j in chart.log_indices:
            if pole[j] > 0:
                entries = _reference_divisor_theta(s.phi, chart, j)
                assert not entries[j].is_zero, (name, j)
    if chart.n == 1:
        assert _reference_clean_at_point(model, {v: 0 for v in chart.vars})[0], name
