"""Seeded corpus for the three benchmark workloads.

Every workload is a list of ``Op`` records.  An op is either a CLI call
(``argv`` run through ``logchar.cli.main``, the document written to disk
first) or a library call of ``logchar.cdvf.cyclic_vector`` on a matrix.
Each op carries the expectation the checker compares its answer with.

The seed decides coefficient values, and in doc-mix also exponents and
geometry.  Summand counts and ranks, the ladder's exponent supports,
operator valuations and oracle windows are fixed per op id, so the work
done by the engine (FME systems, polygon shapes, matrix sizes) hardly moves
from seed to seed.  Expectations are stored with the fixed documents and
computed by ``reference`` from the generated exponents otherwise; no checked
field depends on a coefficient value.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional

import reference

WORKLOADS = ("surface-ladder", "doc-mix", "operators-oracle")

P2_GEOMETRY = {"kind": "surface", "chi_U": 1,
               "components": [{"name": "D1", "chi_open": 1},
                              {"name": "D2", "chi_open": 1}],
               "intersections": [[0, 1], [1, 0]]}


@dataclass
class Op:
    id: str
    command: str                 # validate irr clean zcar chi newton oracle cyclic
    argv: tuple = ()             # CLI argv; the ".json" entry is the document path
    doc: Optional[dict] = None   # document written to that path
    matrix: Optional[dict] = None  # cyclic ops: {"rows": [[{exp: coeff}]]}
    expect: dict = field(default_factory=dict)


# -- documents ----------------------------------------------------------------


def _model_doc(vars, log_vars, summands, geometry=None, points=None):
    doc = {"schema": 1, "chart": {"vars": list(vars), "log_vars": list(log_vars)},
           "model": [{"phi": [{"coeff": str(c), "exp": [str(x) if isinstance(x, Fraction)
                                                         else x for x in e]}
                              for e, c in phi], "rank": rank}
                     for phi, rank in summands]}
    doc["field"] = {"base": "Q"}
    if geometry is not None:
        doc["geometry"] = geometry
    if points is not None:
        doc["points"] = points
    return doc


def _coeff(rng):
    """A random nonzero rational coefficient."""
    num = rng.choice([-1, 1]) * rng.randint(1, 9)
    return Fraction(num, rng.randint(1, 4))


def _model_ops(prefix, doc, cmds, expect, point_flag=None):
    """One op per command on one document; ``expect`` maps command -> dict."""
    path = f"{prefix}.json"
    ops = []
    for cmd in cmds:
        if cmd.startswith("chi-"):
            argv = ("chi", path, "--formula", cmd[4:], "--json")
        elif cmd == "clean" and point_flag:
            argv = ("clean", path, "--point", point_flag, "--json")
        else:
            argv = (cmd, path, "--json")
        ops.append(Op(f"{prefix}/{cmd}", argv[0], argv, doc, expect=dict(expect[cmd])))
    return ops


def _surface_expect(vars, log_vars, summands, geometry, certified):
    """Expectations of a monomial-led surface model from its support alone."""
    rows = [(rank, reference.pole_row(vars, log_vars, phi)) for phi, rank in summands]
    sharp, full = reference.clean_at_origin(vars, log_vars, summands)
    chi = reference.chi_surface(rows, geometry)
    rank = sum(r for _, r in summands)
    lines = reference.line_totals(log_vars, rows)
    clean_flag = sharp if certified else False
    return {
        "validate": {"exit": 0, "good": True},
        "irr": {"exit": 0, "rows": rows},
        "clean": {"exit": 0, "clean": sharp, "numerically_clean": full},
        "zcar": {"exit": 0, "clean": clean_flag, "zero": rank, "lines": lines},
        "chi-kato": {"exit": 0, "chi": chi, "clean": clean_flag},
        "chi-ep": {"exit": 0, "chi": chi, "clean": clean_flag},
        "chi-kd": {"exit": 0, "chi": chi, "clean": clean_flag},
    }


# -- surface-ladder -----------------------------------------------------------

# (rung name, coordinates, expanded rank, summand count, shape seed).  Each
# rung's shape seed was picked so that at the seed commit its ops either end
# well inside the 1.25 s per-op budget of run.py (<= 0.6 s) or run far past
# it (>= 2 s).  The set of timeouts then repeats from run to run, and so do
# the traced counts, which cover completed ops only.  At the seed every rung
# of rank 6 and more times out (no rank-6 shape of 2 to 4 summands tried
# ended within 2.9 s): 9 of 36 ops, so op_p50_ms and op_p90_ms (ten ops
# above it) fall on ops that finish.
LADDER_RUNGS = (("r3", 2, 3, 2, 10), ("r4", 2, 4, 3, 2), ("r4b", 2, 4, 2, 10),
                ("r5", 2, 5, 2, 15), ("r5b", 2, 5, 2, 17), ("r5c", 2, 5, 2, 20),
                ("r5d", 2, 5, 2, 8), ("r5e", 2, 5, 2, 29), ("r6", 2, 6, 4, 1),
                ("r8", 2, 8, 4, 1), ("r10", 2, 10, 5, 1), ("z3-r5", 3, 5, 2, 9))


def ladder_shapes():
    """Exponent supports and ranks of every rung, independent of the seed.

    Each summand has 2-3 pole terms with a unique most-negative exponent per
    log variable, so the reduced twisted differentials on the divisors are
    monomials and every checked answer depends on the support only.
    """
    shapes = []
    for name, ncoord, total, k, shape_seed in LADDER_RUNGS:
        rng = random.Random(f"{shape_seed}/{name}")
        while True:
            ranks = [1] * k
            for _ in range(total - k):
                ranks[rng.randrange(k)] += 1
            summands = [(_ladder_support(rng, ncoord), r) for r in ranks]
            if not reference.fast_path(summands):
                break
        shapes.append((name, ncoord, summands))
    return shapes


def _ladder_support(rng, ncoord):
    while True:
        nterms = rng.choice((2, 3))
        exps = set()
        while len(exps) < nterms:
            e = (-rng.randint(1, 4), -rng.randint(1, 4))
            exps.add(e + (0,) * (ncoord - 2))
        exps = sorted(exps)
        if all(sum(1 for e in exps if e[j] == min(x[j] for x in exps)) == 1
               for j in range(2)):
            return exps


def surface_ladder(seed):
    rng = random.Random(seed)
    ops = []
    for name, ncoord, support in ladder_shapes():
        vars = ("x", "y", "z")[:ncoord]
        log_vars = ("x", "y")
        summands = [([(e, _coeff(rng)) for e in exps], rank) for exps, rank in support]
        origin = {v: "0" for v in vars}
        doc = _model_doc(vars, log_vars, summands, P2_GEOMETRY, [origin])
        expect = _surface_expect(vars, log_vars, support, P2_GEOMETRY,
                                 certified=ncoord == 2)
        ops += _model_ops(f"ladder/{name}", doc, ("clean", "zcar", "chi-kd"), expect)
    return ops


# -- doc-mix ------------------------------------------------------------------

README_SURFACE = {
    "schema": 1, "field": {"base": "Q"},
    "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
    "model": [{"phi": [{"coeff": "1", "exp": [-2, -3]}], "rank": 1}],
    "geometry": {"kind": "surface", "chi_U": 1,
                 "components": [{"name": "D1", "chi_open": 1},
                                {"name": "D2", "chi_open": 1}],
                 "intersections": [[0, 1], [1, 0]]},
}

README_MODULE = {
    "schema": 1,
    "chart": {"vars": ["x"], "log_vars": ["x"]},
    "monomial_module": {
        "generators": [{"degree": 0}],
        "relations": [{"gen": 0, "x_exp": [1], "xi_exp": [0]},
                      {"gen": 0, "x_exp": [0], "xi_exp": [1]}],
    },
}

SQRT2_MODEL = {
    "schema": 1, "field": {"base": "number_field", "modulus": ["-2", "0", "1"]},
    "chart": {"vars": ["x", "y"], "log_vars": ["x", "y"]},
    "model": [{"phi": [{"coeff": "3", "exp": [-2, -1]}, {"coeff": "1/2", "exp": [-1, -1]}],
               "rank": 2},
              {"phi": [{"coeff": "-5", "exp": [-1, 0]}], "rank": 1}],
    "geometry": {"kind": "surface", "chi_U": 0,
                 "components": [{"name": "D1", "chi_open": 0},
                                {"name": "D2", "chi_open": 0}],
                 "intersections": [[0, 1], [1, 0]]},
    "points": [{"x": "0", "y": "0"}],
}

FRACTIONAL_CURVE = {
    "schema": 1, "field": {"base": "Q"},
    "chart": {"vars": ["x"], "log_vars": ["x"]},
    "model": [{"phi": [{"coeff": "1", "exp": ["-3/2"]}], "rank": 1}],
    "geometry": {"kind": "curve", "genus": 0,
                 "punctures": [{"name": "x", "irregularities": []},
                               {"name": "inf", "irregularities": []}]},
}


def _fixed_doc_mix():
    ops = []
    ops += _model_ops("mix/readme-surface", README_SURFACE,
                      ("validate", "irr", "clean", "zcar", "chi-kato", "chi-ep", "chi-kd"),
                      _surface_expect(("x", "y"), ("x", "y"), [([(-2, -3)], 1)],
                                      README_SURFACE["geometry"], True),
                      point_flag="x=0,y=0")
    sq = [([(-2, -1), (-1, -1)], 2), ([(-1, 0)], 1)]
    ops += _model_ops("mix/sqrt2", SQRT2_MODEL,
                      ("validate", "irr", "clean", "zcar", "chi-kato", "chi-ep", "chi-kd"),
                      _surface_expect(("x", "y"), ("x", "y"), sq,
                                      SQRT2_MODEL["geometry"], True))
    ops.append(Op("mix/dimdrop/zcar", "zcar", ("zcar", "mix/dimdrop.json", "--json"),
                  README_MODULE, expect={"exit": 0, "kind": "monomial", "hilbert_dim": 0,
                                  "components": ["LowerDim dim=0 mult=1"]}))
    frac = {"irr": {"exit": 0, "rows": [(1, (Fraction(3, 2),))]},
            "zcar": {"exit": 4}, "chi-kato": {"exit": 4}, "chi-ep": {"exit": 4},
            "chi-kd": {"exit": 4}}
    ops += _model_ops("mix/frac-curve", FRACTIONAL_CURVE,
                      ("irr", "zcar", "chi-kato", "chi-ep", "chi-kd"), frac)
    return ops


def _random_surface_geometry(rng, m):
    names = [f"D{j + 1}" for j in range(m)]
    inter = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i, m):
            inter[i][j] = inter[j][i] = rng.randint(-2, 2)
    return {"kind": "surface", "chi_U": rng.randint(-2, 3),
            "components": [{"name": n, "chi_open": rng.randint(-1, 2)} for n in names],
            "intersections": inter}


def _chain(rng, k, ncoord):
    """k pole vectors strictly increasing coordinatewise: a dominance chain."""
    a, b = rng.randint(0, 1), rng.randint(0, 1)
    out = []
    for _ in range(k):
        a += rng.randint(1, 2)
        b += rng.randint(0, 2) if out else rng.randint(1, 2)
        out.append((-a, -b) + (0,) * (ncoord - 2))
    return out


def _chain_doc(rng, shape, prefix, ncoord):
    vars = ("x", "y", "z")[:ncoord]
    k = shape.randint(2, 4)
    support = [([e], shape.randint(1, 2)) for e in _chain(rng, k, ncoord)]
    summands = [([(exps[0], _coeff(rng))], rank) for exps, rank in support]
    geom = _random_surface_geometry(rng, 2)
    doc = _model_doc(vars, ("x", "y"), summands, geom, [{v: "0" for v in vars}])
    cmds = ("validate", "irr", "clean", "zcar", "chi-kato", "chi-ep", "chi-kd")
    return _model_ops(prefix, doc, cmds,
                      _surface_expect(vars, ("x", "y"), support, geom, ncoord == 2))


def _mixed_log_doc(rng, shape, prefix):
    """Chart (x, y) with log divisor y only; phi = c y^-b (1 + d x)."""
    k = shape.randint(1, 3)
    poles = sorted(rng.sample(range(1, 6), k), reverse=True)
    summands = []
    support = []
    for b in poles:
        c, d = _coeff(rng), _coeff(rng)
        summands.append(([((0, -b), c), ((1, -b), c * d)], shape.randint(1, 2)))
        support.append(([(0, -b), (1, -b)], summands[-1][1]))
    geom = _random_surface_geometry(rng, 1)
    doc = _model_doc(("x", "y"), ("y",), summands, geom, [{"x": "0", "y": "0"}])
    rows = [(rank, (Fraction(-exps[0][1]),)) for exps, rank in support]
    rank = sum(r for _, r in support)
    chi = reference.chi_surface(rows, geom)
    expect = {
        "validate": {"exit": 0, "good": True},
        "irr": {"exit": 0, "rows": rows},
        "clean": {"exit": 0, "clean": True, "numerically_clean": True},
        "zcar": {"exit": 0, "clean": True, "zero": rank,
                 "lines": reference.line_totals(("y",), rows)},
    }
    for f in ("kato", "ep", "kd"):
        expect[f"chi-{f}"] = {"exit": 0, "chi": chi, "clean": True}
    cmds = ("validate", "irr", "clean", "zcar", "chi-kato", "chi-ep", "chi-kd")
    return _model_ops(prefix, doc, cmds, expect)


def _kummer_curve_doc(rng, shape, prefix):
    """Rank-q twist by c x^(-p/q) on a punctured curve: a Kummer exponent."""
    q = shape.choice((2, 3, 4))
    p = rng.choice([p for p in range(1, 3 * q) if p % q])
    b = Fraction(p, q)
    phi = [((-b,), _coeff(rng))]
    if shape.random() < 0.5:
        phi.append(((Fraction(1, q) - b,), _coeff(rng)))
    genus = rng.randint(0, 1)
    extra = [str(rng.randint(0, 2)) for _ in range(rng.randint(0, min(q, 2)))]
    geom = {"kind": "curve", "genus": genus,
            "punctures": [{"name": "x", "irregularities": []},
                          {"name": "inf", "irregularities": extra}]}
    doc = _model_doc(("x",), ("x",), [(phi, q)], geom, [{"x": "0"}])
    chi_U = 2 - 2 * genus - 2
    chi = q * chi_U - q * b - sum(int(v) for v in extra)
    rows = [(q, (b,))]
    expect = {
        "validate": {"exit": 0, "good": True},
        "irr": {"exit": 0, "rows": rows},
        "clean": {"exit": 0, "clean": True, "numerically_clean": True},
        "zcar": {"exit": 0, "clean": True, "zero": q,
                 "lines": reference.line_totals(("x",), rows)},
    }
    for f in ("kato", "ep", "kd"):
        expect[f"chi-{f}"] = {"exit": 0, "chi": int(chi), "clean": True}
    cmds = ("validate", "irr", "clean", "zcar", "chi-kato", "chi-ep", "chi-kd")
    return _model_ops(prefix, doc, cmds, expect)


DOC_MIX_COUNTS = (("chain", 14), ("mixed", 8), ("kummer", 10), ("tri", 6))


def doc_mix(seed):
    """Fixed documents plus generated ones.  Summand counts, ranks and
    cover degrees come from a shape generator keyed by the document id, so
    the amount of work per pass does not swing with the seed; exponents,
    coefficients and geometry come from the seed."""
    rng = random.Random(seed)
    ops = _fixed_doc_mix()
    for kind, count in DOC_MIX_COUNTS:
        for i in range(count):
            prefix = f"mix/{kind}{i:02d}"
            shape = random.Random(prefix)
            if kind == "chain":
                ops += _chain_doc(rng, shape, prefix, 2)
            elif kind == "tri":
                ops += _chain_doc(rng, shape, prefix, 3)
            elif kind == "mixed":
                ops += _mixed_log_doc(rng, shape, prefix)
            else:
                ops += _kummer_curve_doc(rng, shape, prefix)
    return ops


# -- operators-oracle ---------------------------------------------------------

# Fixed operators: (name, gauge, coefficient term lists c_1..c_d).
FIXED_OPERATORS = (
    ("readme", "d/dt", [[], [[-3, "-1"]]]),
    ("d5-t6", "d/dt", [[], [], [], [], [[-6, "-1"]]]),
    ("d2-20t3", "d/dt", [[], [[-3, "-20"]]]),
)

# Random operators: (order, valuation of c_1..c_d or None for zero), fixed so
# the polygon shape does not depend on the seed; the seed picks coefficients.
# Each shape is drawn RANDOM_OPERATOR_DRAWS times; every draw picks its own
# coefficients and higher terms.
RANDOM_OPERATOR_DRAWS = 3
RANDOM_OPERATOR_SHAPES = (
    (2, (-2, -4)), (2, (-1, -3)), (3, (-1, None, -4)), (3, (-2, -3, -5)),
    (3, (0, -2, -3)), (4, (-1, -2, None, -5)), (4, (-2, None, -3, -7)),
    (5, (-1, -3, None, -2, -6)), (5, (0, None, -4, None, -7)),
    (6, (-1, -2, -4, None, -6, -9)), (6, (None, -3, None, -5, None, -8)),
    (6, (-2, -2, -3, -5, -6, -7)),
)

# Cyclic-vector ops: (rank, shape seed).  The shape seeds keep each call at
# 0.25 s or less at the seed, far inside the per-op budget of run.py.
CYCLIC_SHAPES = ((2, 0), (2, 1), (2, 12), (3, 2), (3, 3), (3, 9), (3, 11),
                 (4, 2), (4, 8), (4, 9), (4, 13))

# Oracle twists: (pole order at 0, pole order at infinity, window); every
# window is at or above the stable bound 2 * max(poles) + 5.  With the cyclic
# ops they are over a third of the workload, so op_p90_ms (ten ops above it)
# falls among them and op_p50_ms among the newton ops.
ORACLE_SHAPES = ((1, 0, 7), (1, 1, 10), (2, 1, 15), (2, 0, 20), (3, 0, 21),
                 (2, 2, 25), (3, 1, 28), (4, 1, 30), (4, 0, 33), (3, 3, 35),
                 (5, 1, 38), (5, 2, 40), (3, 2, 42), (6, 0, 45))


def _small_int(rng):
    """A nonzero integer of size <= 3: keeps the cost of exact arithmetic
    (series in cyclic vectors, elimination in the oracle) from swinging with
    coefficient height from seed to seed."""
    return rng.choice((-3, -2, -1, 1, 2, 3))


def _operator_doc(gauge, coeffs):
    return {"schema": 1, "gauge": gauge, "order": len(coeffs), "coeffs": coeffs}


def _random_operator(rng, shape_rng, vals, coeff=_coeff):
    """Coefficient term lists with valuations ``vals``; ``shape_rng`` picks
    which coefficients get a second, higher term, ``rng`` the values."""
    coeffs = []
    for v in vals:
        if v is None:
            coeffs.append([])
            continue
        terms = [[v, str(coeff(rng))]]
        if shape_rng.random() < 0.5:
            terms.append([v + shape_rng.randint(1, 3), str(coeff(rng))])
        coeffs.append(terms)
    return coeffs


def operators_oracle(seed):
    rng = random.Random(seed)
    ops = []
    for name, gauge, coeffs in FIXED_OPERATORS:
        ops.append(_newton_op(f"ops/newton-{name}", _operator_doc(gauge, coeffs)))
    for i in range(RANDOM_OPERATOR_DRAWS * len(RANDOM_OPERATOR_SHAPES)):
        order, vals = RANDOM_OPERATOR_SHAPES[i % len(RANDOM_OPERATOR_SHAPES)]
        doc = _operator_doc("d/dt", _random_operator(rng, random.Random(f"newton{i}"), vals))
        ops.append(_newton_op(f"ops/newton-rand{i:02d}-d{order}", doc))
    for i, (rank, shape_seed) in enumerate(CYCLIC_SHAPES):
        ops.append(_cyclic_op(rng, random.Random(f"cyclic{shape_seed}"),
                              f"ops/cyclic{i:02d}-r{rank}", rank))
    for i, (p0, pinf, window) in enumerate(ORACLE_SHAPES):
        ops.append(_oracle_op(rng, f"ops/oracle{i:02d}-w{window}", p0, pinf, window))
    return ops


def _newton_op(op_id, doc):
    path = f"{op_id}.json"
    poly = reference.newton_polygon(doc)
    return Op(op_id, "newton", ("newton", path, "--json"), doc,
              expect={"exit": 0, "vertices": poly["vertices"],
               "irregularities": poly["irregularities"], "total": poly["total"]})


def _cyclic_op(rng, shape_rng, op_id, rank):
    """Companion matrix of a random operator, conjugated by a constant gauge.

    ``shape_rng`` fixes the valuations and the gauge, ``rng`` (the seed)
    the coefficients.  Entries are {exponent: coefficient} maps; the
    expectation is the irregularity multiset of the source operator.
    """
    vals = [shape_rng.choice((None, -1, -2, -3)) for _ in range(rank - 1)]
    vals.append(-shape_rng.randint(2, 4))
    coeffs = _random_operator(rng, shape_rng, vals, _small_int)
    doc = _operator_doc("d/dt", coeffs)
    poly = reference.newton_polygon(doc)
    comp = reference.companion(coeffs)
    gauge = reference.unimodular(shape_rng, rank)
    mat = reference.conjugate(comp, gauge)
    rows = [[{str(e): str(c) for e, c in sorted(entry.items())} for entry in row]
            for row in mat]
    return Op(op_id, "cyclic", matrix={"rows": rows},
              expect={"irregularities": poly["irregularities"]})


def _oracle_op(rng, op_id, p0, pinf, window):
    terms = [((-p0,), _small_int(rng))]
    if p0 > 1:
        terms.append(((-rng.randint(1, p0 - 1),), _small_int(rng)))
    if pinf:
        terms.append(((pinf,), _small_int(rng)))
    geom = {"kind": "curve", "genus": 0,
            "punctures": [{"name": "x", "irregularities": []},
                          {"name": "inf", "irregularities": [str(pinf)]}]}
    doc = _model_doc(("x",), ("x",), [(terms, 1)], geom)
    path = f"{op_id}.json"
    return Op(op_id, "oracle", ("oracle", "chi-curve", path, "--window", str(window),
                                "--json"), doc,
              expect={"exit": 0, "chi": -(p0 + pinf), "window": window})


GENERATORS = {"surface-ladder": surface_ladder, "doc-mix": doc_mix,
            "operators-oracle": operators_oracle}


def build(workload, seed):
    return GENERATORS[workload](seed)


def corpus_bytes(ops):
    """Canonical bytes of the generated inputs, for the determinism self-test."""
    return json.dumps([[op.id, list(op.argv), op.doc, op.matrix] for op in ops],
                      sort_keys=True, separators=(",", ":")).encode()
