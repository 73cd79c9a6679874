"""Byte-identity gate: CLI stdout and exit codes on fixed documents.

Each case runs ``logchar.cli.main`` on a document in ``tests/golden/`` and
compares the exit code and the exact stdout with ``tests/golden/expected.json``.
A change that is meant to alter an output regenerates the file with

    PYTHONPATH=src python3 tests/test_golden_cli.py

and the diff of ``expected.json`` is then part of that change.
"""

import contextlib
import io
import json
import os
import sys

import pytest

from logchar.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
EXPECTED = os.path.join(GOLDEN, "expected.json")

MODEL_COMMANDS = (("validate",), ("irr",), ("zcar",), ("chi", "--formula", "kato"),
                  ("chi", "--formula", "ep"), ("chi", "--formula", "kd"))


def _cases():
    cases = []
    for doc in ("curve", "surface", "surface_nonlinear", "mixed_log",
                "number_field", "kummer"):
        cases += [(cmd[0], doc) + cmd[1:] for cmd in MODEL_COMMANDS]
    for doc in ("surface", "surface_nonlinear", "mixed_log", "chart3"):
        cases.append(("clean", doc))
    cases.append(("clean", "kummer", "--point", "x=0"))
    cases += [("validate", "chart3"), ("irr", "chart3"), ("zcar", "chart3")]
    cases.append(("zcar", "monomial_module"))
    for doc in ("op_quartic", "op_quartic_irreducible", "op_cubic", "op_mixed",
                "op_log", "op_d5"):
        cases.append(("newton", doc))
    cases += [("oracle", "chi-curve", "oracle_curve", "--window", "11"),
              ("oracle", "chi-curve", "oracle_curve", "--window", "15")]
    out = []
    for case in cases:
        out.append(case + ("--json",))
    # text mode of the commands whose reports format polynomials
    out += [("irr", "mixed_log"), ("newton", "op_quartic"), ("newton", "op_d5")]
    return out


CASES = _cases()


def _argv(case):
    """Document names become paths; every case names exactly one document."""
    return [os.path.join(GOLDEN, a + ".json") if os.path.exists(
        os.path.join(GOLDEN, a + ".json")) else a for a in case]


def _run(case):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(_argv(case))
    return {"exit": code, "stdout": out.getvalue()}


def _load_expected():
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("case", CASES, ids=[" ".join(c) for c in CASES])
def test_golden_cli(case):
    assert _run(case) == _load_expected()[" ".join(case)]


def test_golden_cases_all_recorded():
    assert sorted(_load_expected()) == sorted(" ".join(c) for c in CASES)


if __name__ == "__main__":
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump({" ".join(c): _run(c) for c in CASES}, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} cases to {EXPECTED}", file=sys.stderr)
