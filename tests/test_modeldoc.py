"""The model parser against its string-first reference.

``modeldoc._parse_model`` reads a model in one typed pass: JSON integer
exponents stay ints, and the cover scales exponents only when some cover
degree is not 1.  The reference below is the parser as it was, reading every
exponent as a rational string and scaling every term through ``Fraction``.
On seeded documents with every exponent form the schema meets (integers,
integer and fractional strings on log and non-log variables, floats,
booleans), cancelling terms, models over Q and Q(sqrt 2) and malformed
parts, both give the same terms, Kummer degrees, pole vectors and field, or
the same error and message.
"""

import random
from fractions import Fraction
from math import lcm

import pytest

from logchar.field import QQ, NumberField, parse_rational
from logchar.goodmodel import Chart, GoodModel, ModelSummand
from logchar.laurent import LaurentPolynomial
from logchar.modeldoc import SchemaError, _expect, _parse_model

Q2 = NumberField([-2, 0, 1])
CHARTS = (Chart(("x", "y"), ("x", "y")), Chart(("x", "y"), ("y",)),
          Chart(("x",), ("x",)), Chart(("x", "y", "z"), ("x", "z")))


def reference_parse_model(spec, kummer_spec, chart, field):
    _expect(isinstance(spec, list) and spec, "model must be a nonempty list of summands")
    n = chart.n
    raw_terms = []
    denominators = [1] * n
    for k, summand in enumerate(spec):
        _expect(isinstance(summand, dict), f"summand {k} must be an object")
        phi = summand.get("phi", [])
        _expect(isinstance(phi, list), f"summand {k}: phi must be a list of terms")
        terms = []
        for t in phi:
            _expect(isinstance(t, dict) and "exp" in t and "coeff" in t,
                    f"summand {k}: each term needs 'coeff' and 'exp'")
            exp = t["exp"]
            _expect(isinstance(exp, list) and len(exp) == n,
                    f"summand {k}: exponent arity must be {n}")
            fexp = [parse_rational(str(e)) for e in exp]
            for j, e in enumerate(fexp):
                if e.denominator > 1:
                    _expect(j in chart.log_indices,
                            f"summand {k}: fractional exponent on non-log variable")
                    denominators[j] = lcm(denominators[j], e.denominator)
            terms.append((fexp, parse_rational(t["coeff"])))
        rank = summand.get("rank", 1)
        _expect(isinstance(rank, int) and rank >= 1, f"summand {k}: rank must be >= 1")
        raw_terms.append((terms, rank))
    hs = [1] * chart.m
    if kummer_spec is not None:
        _expect(isinstance(kummer_spec, list) and len(kummer_spec) == chart.m
                and all(isinstance(h, int) and h >= 1 for h in kummer_spec),
                "kummer must list one positive integer per log divisor")
        hs = list(kummer_spec)
    for i, j in enumerate(chart.log_indices):
        hs[i] = lcm(hs[i], denominators[j])
    cover = [1] * n
    for i, j in enumerate(chart.log_indices):
        cover[j] = hs[i]
    summands = []
    for terms, rank in raw_terms:
        tdict = {}
        for fexp, coeff in terms:
            e = []
            for j, x in enumerate(fexp):
                scaled = x * cover[j]
                _expect(scaled.denominator == 1, "internal: cover does not clear exponent")
                e.append(int(scaled))
            key = tuple(e)
            tdict[key] = tdict.get(key, Fraction(0)) + coeff
        summands.append(ModelSummand(LaurentPolynomial(chart.vars, tdict, field), rank))
    try:
        return GoodModel(chart, summands, hs, field)
    except Exception as exc:
        raise SchemaError(f"bad model: {exc}")


def _outcome(parse, spec, kummer, chart, field):
    """What a parser makes of a model block: its summands' terms (exponent
    tuples with their types, coefficient texts), ranks, Kummer degrees, pole
    vectors and field, or the type and message of what it raised."""
    try:
        model = parse(spec, kummer, chart, field)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)
    summands = tuple((tuple((e, tuple(map(type, e)), str(c), c.field)
                            for e, c in s.phi.terms.items()), s.rank, s.phi.field)
                     for s in model.summands)
    return summands, model.kummer, model.poles, model.field


def _exponent(rng, log, wild):
    """One exponent in one of the forms a document may hold; a wild
    document also holds fractions and poles on non-log variables, booleans
    and strings that are no rationals."""
    a = rng.randint(-3, 3) if log or (wild and rng.random() < 0.2) else rng.randint(0, 3)
    form = rng.random()
    if form < 0.4:
        return a
    if form < 0.6:
        return str(a)
    if form < 0.75 and (log or wild):
        q = rng.choice((2, 3))
        return f"{a * q + rng.choice((1, -1))}/{q}"
    if form < 0.85:
        return float(a)
    if form < 0.95 or not wild:
        return f"{a * 2}/2"                             # integral, written as a fraction
    return rng.choice((True, False, " 1 ", "-0.0", "1e0", "x", "1/0", None, [1]))


def _coefficient(rng, wild):
    form = rng.random()
    if form < 0.65:
        return f"{rng.choice((-3, -1, 1, 2, 7))}/{rng.choice((1, 2, 3))}"
    if form < 0.85 or not wild:
        return rng.choice((-2, 1, 3, "0"))
    return rng.choice((1.5, True, "1/0", "a", None))


def _model_block(rng, chart, wild):
    """A model block: summands of seeded terms, some repeated with the
    opposite coefficient so that they cancel; a wild block now and then
    holds a malformed summand, term or rank."""
    log = chart.log_indices
    spec = []
    for _ in range(rng.randint(1, 3)):
        phi = []
        for _ in range(rng.randint(1, 4)):
            exp = [_exponent(rng, j in log, wild) for j in range(chart.n)]
            coeff = _coefficient(rng, wild)
            phi.append({"coeff": coeff, "exp": exp})
            if rng.random() < 0.2 and isinstance(coeff, str) and coeff[0].isdigit():
                phi.append({"coeff": "-" + coeff, "exp": list(exp)})
        if wild and rng.random() < 0.1:
            phi.append(rng.choice(({"exp": [0] * chart.n}, {"coeff": "1", "exp": [0]},
                                   {"coeff": "1", "exp": 0}, "term")))
        summand = {"phi": phi}
        if rng.random() < 0.8:
            summand["rank"] = rng.choice((1, 1, 2, 3, 0, "2") if wild else (1, 2, 3))
        spec.append(summand)
    if wild and rng.random() < 0.1:
        spec = rng.choice(([], {"phi": []}, [["phi"]]))
    return spec


def _kummer(rng, chart, wild):
    form = rng.random()
    if form < 0.5:
        return None
    if form < 0.9 or not wild:
        return [rng.choice((1, 2, 3)) for _ in range(chart.m)]
    return rng.choice(([0] * chart.m, [2] * (chart.m + 1), [1.0] * chart.m, "2"))


def _case(seed):
    """The chart, field, model block and Kummer block of one seed; a third of
    the blocks are wild."""
    rng = random.Random(seed)
    chart = rng.choice(CHARTS)
    field = rng.choice((QQ, Q2))
    wild = rng.random() < 0.35
    return chart, field, _model_block(rng, chart, wild), _kummer(rng, chart, wild)


CASES = 600


@pytest.mark.parametrize("block", range(6))
def test_parse_model_matches_the_reference(block):
    for seed in range(block * CASES // 6, (block + 1) * CASES // 6):
        chart, field, spec, kummer = _case(seed)
        want = _outcome(reference_parse_model, spec, kummer, chart, field)
        got = _outcome(_parse_model, spec, kummer, chart, field)
        assert got == want, (seed, spec, kummer)


def test_seeded_blocks_cover_every_outcome():
    """The seeds reach parsed models with and without covers, over both
    fields, with terms summed or cancelled, and every kind of refusal."""
    seen = set()
    for seed in range(CASES):
        chart, field, spec, kummer = _case(seed)
        got = _outcome(reference_parse_model, spec, kummer, chart, field)
        if isinstance(got[0], type):
            seen.add(got[0].__name__ + ": " + got[1].split(":")[0][:24])
        else:
            seen.add(("cover" if any(h > 1 for h in got[1]) else "no cover", got[3]))
            # fewer terms than the block: terms with one exponent were summed
            # (the cancelling pairs are) or a coefficient was 0
            if sum(len(t) for t, _, _ in got[0]) < sum(len(s["phi"]) for s in spec):
                seen.add("merged")
    for kind in (("cover", QQ), ("cover", Q2), ("no cover", QQ), ("no cover", Q2),
                 "merged"):
        assert kind in seen, kind
    refusals = {k.split(":")[0] for k in seen if isinstance(k, str) and ":" in k}
    assert refusals >= {"SchemaError", "FieldError", "ValueError"}, refusals
    messages = " ".join(k for k in seen if isinstance(k, str))
    for text in ("summand", "bad model", "kummer", "Invalid literal", "zero denominator",
                 "cannot parse"):
        assert text in messages, (text, messages)
