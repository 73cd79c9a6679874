"""Command-line interface: validate, irr, clean, zcar, chi, newton, oracle.

Exit codes: 0 ok, 2 invalid input or work past a budget (refused),
3 cleanness prerequisite unmet, 4 internal assertion failure (non-integral
data); ERRORS maps each error class to its code and message prefix.
Output is deterministic; --json switches to machine-readable JSON with
sorted keys.
"""

from __future__ import annotations

import argparse
import json
import sys

from .cdvf import FactorizationError, newton_polygon, refined_residue
from .cycles import IntegralityError, hilbert_dim, monomial_char_cycle
from .euler import GeometryError, OracleBudgetError, WindowError, chi_EP, \
    derham_oracle_curve, kashiwara_dubson, reconcile_geometry
from .goodmodel import (ExpansionBudgetError, certified_clean, clean_at_point,
                        irregularity_divisor, validate_good_decomposition, zcar_prime)
from .laurent import twist
from .modeldoc import SchemaError, load_json, parse_model_document, \
    parse_operator_document, parse_point
from .series import PrecisionError
from .tropical import RayBudgetError

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_NOT_CLEAN = 3
EXIT_ASSERTION = 4

# (error classes, exit code, message prefix); any other exception propagates
ERRORS = (
    ((IntegralityError,), EXIT_ASSERTION, "internal assertion failure"),
    ((FactorizationError, RayBudgetError, OracleBudgetError, ExpansionBudgetError),
     EXIT_INVALID, "refused"),
    ((SchemaError, GeometryError, PrecisionError, WindowError, ValueError),
     EXIT_INVALID, "invalid input"),
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except tuple(cls for classes, _, _ in ERRORS for cls in classes) as exc:
        code, prefix = next((code, prefix) for classes, code, prefix in ERRORS
                            if isinstance(exc, classes))
        _fail(f"{prefix}: {exc}")
        return code


def _fail(msg):
    print(msg, file=sys.stderr)


def _build_parser():
    p = argparse.ArgumentParser(prog="logchar",
                                description="exact log-characteristic cycle engine")
    sub = p.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check the good-decomposition conditions")
    v.add_argument("file")
    v.add_argument("--json", action="store_true")
    v.set_defaults(func=cmd_validate)

    ir = sub.add_parser("irr", help="irregularity divisors and refined forms")
    ir.add_argument("file")
    ir.add_argument("--json", action="store_true")
    ir.set_defaults(func=cmd_irr)

    cl = sub.add_parser("clean", help="cleanness verdicts at points")
    cl.add_argument("file")
    cl.add_argument("--point", action="append", default=[],
                    help="comma-separated coordinates, e.g. x=0,y=0")
    cl.add_argument("--json", action="store_true")
    cl.set_defaults(func=cmd_clean)

    z = sub.add_parser("zcar", help="log-characteristic cycle")
    z.add_argument("file")
    z.add_argument("--require-clean", action="store_true")
    z.add_argument("--json", action="store_true")
    z.set_defaults(func=cmd_zcar)

    ch = sub.add_parser("chi", help="de Rham Euler characteristic")
    ch.add_argument("file")
    ch.add_argument("--formula", choices=("kato", "ep", "kd"), default="kato")
    ch.add_argument("--require-clean", action="store_true")
    ch.add_argument("--json", action="store_true")
    ch.set_defaults(func=cmd_chi)

    nw = sub.add_parser("newton", help="Newton polygon of an operator")
    nw.add_argument("file")
    nw.add_argument("--json", action="store_true")
    nw.set_defaults(func=cmd_newton)

    orc = sub.add_parser("oracle", help="brute-force oracles")
    osub = orc.add_subparsers(dest="oracle_kind", required=True)
    oc = osub.add_parser("chi-curve", help="curve cohomology by linear algebra")
    oc.add_argument("file")
    oc.add_argument("--window", type=int, required=True)
    oc.add_argument("--json", action="store_true")
    oc.set_defaults(func=cmd_oracle_chi_curve)
    return p


def _load_model_doc(path):
    return parse_model_document(load_json(path))


def _emit(args, payload, lines):
    if args.json:
        print(json.dumps(payload, sort_keys=True, separators=(",", ":")))
    else:
        for line in lines:
            print(line)


def cmd_validate(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.model is None:
        raise SchemaError("validate needs a 'model' block")
    rep = validate_good_decomposition(doc.model)
    failures = rep.failures()
    lines = [f"GOOD DECOMPOSITION: {'yes' if rep.is_good else 'no'}"] + failures
    payload = {
        "command": "validate",
        "good": rep.is_good,
        "summand_ok": list(rep.summand_ok),
        "pair_ok": [[i + 1, j + 1, ok] for i, j, ok in rep.pair_ok],
        "failures": failures,
    }
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_irr(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.model is None:
        raise SchemaError("irr needs a 'model' block")
    div = irregularity_divisor(doc.model)
    lines = []
    payload_rows = []
    for k, (rank, row) in enumerate(div.rows, start=1):
        lines.append(f"summand {k}: rank={rank} b=({', '.join(str(b) for b in row)})")
        payload_rows.append({"rank": rank, "b": [str(b) for b in row]})
    per = {}
    for name, vals in zip(div.log_vars, div.per_divisor):
        lines.append(f"D({name}): sorted irregularities {', '.join(str(v) for v in vals)}")
        per[name] = [str(v) for v in vals]
    thetas = []
    model = doc.model
    for k, (s, pole, gradient) in enumerate(
            zip(model.summands, model.poles, model.log_gradients()), start=1):
        if s.phi.is_zero:
            continue
        theta = [str(t) for t in twist(gradient, pole, model.chart.log_indices)]
        lines.append(f"summand {k}: theta=({', '.join(theta)})")
        thetas.append({"summand": k, "theta": theta})
    payload = {"command": "irr", "rows": payload_rows, "per_divisor": per,
               "theta": thetas}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_clean(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.model is None:
        raise SchemaError("clean needs a 'model' block")
    points = [parse_point(t, doc.chart) for t in args.point]
    points.extend(doc.points)
    if not points:
        raise SchemaError("no points given: use --point or a 'points' block")
    lines = []
    results = []
    for pt in points:
        label = ",".join(f"{k}={pt[k]}" for k in doc.chart.vars)
        ok, cert = clean_at_point(doc.model, pt)
        num = cert.numerically_clean
        verdict = "refused" if num is None else "yes" if num else "no"
        lines.append(f"at ({label}): clean: {'yes' if ok else 'no'}, "
                     f"numerically clean: {verdict}")
        if not ok:
            lines.append(f"  reason: {cert.reason}")
        result = {"point": {k: str(pt[k]) for k in doc.chart.vars},
                  "clean": ok, "numerically_clean": num, "reason": cert.reason}
        if num is None:
            lines.append(f"  numerical cleanness refused: {cert.numerical_refusal}")
            result["numerical_refusal"] = cert.numerical_refusal
        results.append(result)
    _emit(args, {"command": "clean", "results": results}, lines)
    return EXIT_OK


def cmd_zcar(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.monomial_module is not None:
        cycle = monomial_char_cycle(doc.monomial_module)
        dim = hilbert_dim(doc.monomial_module)
        components = cycle.report_lines()
        _emit(args, {"command": "zcar", "kind": "monomial", "hilbert_dim": dim,
                     "components": components}, [f"hilbert dimension: {dim}", *components])
        return EXIT_OK
    clean, why = certified_clean(doc.model)
    if args.require_clean and not clean:
        _fail(f"{why}; refusing under --require-clean")
        return EXIT_NOT_CLEAN
    components = zcar_prime(doc.model).report_lines()
    status = "log-characteristic cycle" if clean else \
        "conjectural log-characteristic cycle (cleanness not certified)"
    _emit(args, {"command": "zcar", "kind": "model", "clean": clean,
                 "components": components}, [status, *components])
    return EXIT_OK


def cmd_chi(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.geometry is None:
        raise SchemaError("chi needs a 'geometry' block")
    if doc.model is None:
        raise SchemaError("chi needs a 'model' block")
    clean, why = certified_clean(doc.model)
    if args.require_clean and not clean:
        _fail(f"{why}; refusing under --require-clean")
        return EXIT_NOT_CLEAN
    rows, geom = reconcile_geometry(irregularity_divisor(doc.model), doc.geometry)
    if args.formula == "kato":
        value = chi_EP(rows, geom)
        provenance = "curve formula: rank*chi(U) - total irregularity" if geom.n == 1 \
            else "surface formula with per-row irregularity divisors"
    elif args.formula == "ep":
        value = chi_EP(rows, geom, doc.chern)
        provenance = "Chern-class evaluation, degree-n truncation with (-1)^n"
    else:
        value = kashiwara_dubson(zcar_prime(doc.model), geom, doc.chern)
        provenance = "intersection of the zero section with the cycle, times (-1)^n"
        if not clean:
            provenance += " [cycle is conjectural: cleanness not certified]"
    lines = [f"chi = {value}", f"provenance: {provenance}"]
    payload = {"command": "chi", "chi": value, "formula": args.formula,
               "provenance": provenance, "clean": clean}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_newton(args) -> int:
    op = parse_operator_document(load_json(args.file))
    poly = newton_polygon(op)
    lines = [f"order: {poly.order}",
             "vertices: " + " ".join(f"({i},{v})" for i, v in poly.vertices),
             "slopes: " + ("; ".join(f"{s} (width {w})" for s, w in poly.slopes)
                           or "none"),
             "irregularities: " + ", ".join(
                 f"{v} (x{m})" for v, m in poly.irregularities),
             f"total irregularity: {poly.total_irregularity}"]
    refined_payload = []
    for v, m in poly.irregularities:
        if v <= 0:
            continue
        try:
            ref = refined_residue(op, poly, v)
        except FactorizationError as exc:
            lines.append(f"slope {v}: residue factorization unavailable ({exc})")
            refined_payload.append({"slope": str(v), "error": str(exc)})
            continue
        lines.append(f"slope {v}: {ref.describe()}")
        for orb in ref.orbits:
            lines.append(f"  {orb.describe()}")
        refined_payload.append({"slope": str(v), "q": [str(c) for c in ref.residue_poly],
                                "kummer": ref.kummer,
                                "orbits": [orb.describe() for orb in ref.orbits],
                                "violations": []})
    payload = {"command": "newton",
               "vertices": [[i, str(v)] for i, v in poly.vertices],
               "irregularities": [[str(v), m] for v, m in poly.irregularities],
               "total": str(poly.total_irregularity),
               "refined": refined_payload}
    _emit(args, payload, lines)
    return EXIT_OK


def cmd_oracle_chi_curve(args) -> int:
    doc = _load_model_doc(args.file)
    if doc.model is None:
        raise SchemaError("the oracle needs a 'model' block")
    if doc.chart.n != 1 or len(doc.model.summands) != 1 \
            or doc.model.summands[0].rank != 1:
        raise SchemaError("the oracle handles one-variable rank-1 twists")
    if any(h != 1 for h in doc.model.kummer):
        raise SchemaError(f"the oracle works on the line itself, not on a Kummer cover "
                          f"(cover degree {doc.model.kummer[0]})")
    phi = doc.model.summands[0].phi
    cert = derham_oracle_curve(phi, args.window)
    lines = [f"oracle = {cert.chi}",
             f"kernel: {cert.kernel_dim}, cokernel: {cert.cokernel_dim}",
             f"window: {cert.window} (stable against {cert.recheck_window})"]
    payload = {"command": "oracle", "oracle": "chi-curve", "chi": cert.chi,
               "kernel": cert.kernel_dim, "cokernel": cert.cokernel_dim,
               "window": cert.window, "recheck_window": cert.recheck_window}
    _emit(args, payload, lines)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
