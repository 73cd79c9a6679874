"""Answer checker: compares each op's outcome with its expectation.

``check_op`` returns None when the answer is right and a failure label
with a reason otherwise.  The expectations come from ``corpus``: stored
values for the fixed documents, ``reference`` values for generated ones.
``cross_check`` adds the checks that relate several ops of one pass:
``chi --formula kato == ep == kd`` on every certified-clean model.

Documented seed failures live in ``known_failures.json``; ``classify``
tells a documented failure from a new one.
"""

from __future__ import annotations

import json
import os
import re
from fractions import Fraction

import reference

KNOWN_FAILURES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                   "known_failures.json")

_LINE = re.compile(r"^Line D\((?P<div>[^)]*)\) .* mult=(?P<mult>\S+)$")
_ZERO = re.compile(r"^ZeroSection mult=(?P<mult>\S+)$")


def load_known_failures():
    """{(op id, outcome label)} of the documented seed failures."""
    with open(KNOWN_FAILURES_PATH, encoding="utf-8") as fh:
        data = json.load(fh)
    return {(entry["op"], entry["outcome"]) for entry in data["failures"]}


def check_op(op, outcome):
    """None if the answer matches the expectation, else (label, detail).

    The label is 'timeout', 'raised', 'exit N' or 'wrong'.
    """
    status = outcome["status"]
    if status in ("timeout", "raised"):
        return status, outcome.get("error", status)
    if op.command == "cyclic":
        reason = _check_cyclic(op, outcome["result"])
        return None if reason is None else ("wrong", reason)
    want = op.expect
    if status != want["exit"]:
        return f"exit {status}", f"exit {status}, expected {want['exit']}"
    if want["exit"] != 0:
        return None
    try:
        payload = json.loads(outcome["stdout"])
    except ValueError:
        return "wrong", "stdout is not one JSON object"
    reason = CHECKS[op.command](want, payload)
    return None if reason is None else ("wrong", reason)


def _mismatch(field, got, want):
    return f"{field}: got {got!r}, expected {want!r}"


def _check_validate(want, payload):
    if payload.get("good") != want["good"]:
        return _mismatch("good", payload.get("good"), want["good"])
    return None


def _check_irr(want, payload):
    rows = [{"rank": rank, "b": [str(b) for b in row]} for rank, row in want["rows"]]
    if payload.get("rows") != rows:
        return _mismatch("rows", payload.get("rows"), rows)
    return None


def _check_clean(want, payload):
    results = payload.get("results") or [{}]
    got = (results[0].get("clean"), results[0].get("numerically_clean"))
    exp = (want["clean"], want["numerically_clean"])
    if got != exp:
        return _mismatch("(clean, numerically_clean)", got, exp)
    return None


def _check_zcar(want, payload):
    if want.get("kind") == "monomial":
        got = (payload.get("hilbert_dim"), payload.get("components"))
        exp = (want["hilbert_dim"], want["components"])
        return None if got == exp else _mismatch("monomial cycle", got, exp)
    if payload.get("clean") != want["clean"]:
        return _mismatch("clean", payload.get("clean"), want["clean"])
    zero, lines = None, {}
    for comp in payload.get("components", []):
        m = _ZERO.match(comp)
        if m:
            zero = Fraction(m["mult"])
            continue
        m = _LINE.match(comp)
        if m is None:
            return f"unexpected cycle component {comp!r}"
        lines[m["div"]] = lines.get(m["div"], 0) + Fraction(m["mult"])
    if zero != want["zero"]:
        return _mismatch("zero-section multiplicity", zero, want["zero"])
    if lines != want["lines"]:
        return _mismatch("line multiplicity per divisor", lines, want["lines"])
    return None


def _check_chi(want, payload):
    got = (payload.get("chi"), payload.get("clean"))
    exp = (want["chi"], want["clean"])
    return None if got == exp else _mismatch("(chi, clean)", got, exp)


def _check_newton(want, payload):
    for key in ("vertices", "irregularities", "total"):
        if payload.get(key) != want[key]:
            return _mismatch(key, payload.get(key), want[key])
    return None


def _check_oracle(want, payload):
    got = (payload.get("chi"), payload.get("window"))
    exp = (want["chi"], want["window"])
    return None if got == exp else _mismatch("(oracle chi, window)", got, exp)


def _check_cyclic(op, result):
    """Round trip: the annihilator keeps the source irregularity multiset."""
    coeffs, precs = [], []
    for c in result.coeffs:
        coeffs.append({e: Fraction(str(v)) for e, v in c.terms.items()})
        precs.append(c.prec)
    try:
        vals = reference.log_gauge_valuations(coeffs, precs)
    except ValueError as exc:
        return f"annihilator not certified: {exc}"
    got = reference.polygon_from_valuations(vals)["irregularities"]
    want = op.expect["irregularities"]
    return None if got == want else _mismatch("irregularities", got, want)


CHECKS = {"validate": _check_validate, "irr": _check_irr, "clean": _check_clean,
          "zcar": _check_zcar, "chi": _check_chi, "newton": _check_newton,
          "oracle": _check_oracle}


def cross_check(ops, outcomes):
    """kato == ep == kd on certified-clean models; returns {op id: reason}."""
    by_doc = {}
    for op, outcome in zip(ops, outcomes):
        if op.command != "chi" or outcome["status"] != 0:
            continue
        try:
            payload = json.loads(outcome["stdout"])
        except ValueError:
            continue
        by_doc.setdefault(op.id.rsplit("/", 1)[0], []).append((op.id, payload))
    bad = {}
    for doc, entries in by_doc.items():
        clean = [(i, p["chi"]) for i, p in entries if p.get("clean")]
        if len({chi for _, chi in clean}) > 1:
            for op_id, _ in clean:
                bad[op_id] = f"kato/ep/kd disagree on {doc}: {clean}"
    return bad


def classify(op_id, label, known):
    """'known' for a documented seed failure, else 'new'."""
    return "known" if (op_id, label) in known else "new"
