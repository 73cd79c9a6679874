"""Cross-module invariants that do not belong to a single unit suite."""

import ast
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

from logchar.euler import Curve, Surface, chi_EP
from logchar.goodmodel import Chart, GoodModel, ModelSummand, clean_at_point
from logchar.laurent import LaurentPolynomial

L = LaurentPolynomial
F = Fraction
XY = Chart(("x", "y"), ("x", "y"))


def test_clean_verdicts_invariant_under_cover_rewriting():
    # presenting the same module on a finer Kummer cover (exponents scaled,
    # denominators scaled) must not change any cleanness verdict
    cases = [
        ({(-2, -3): 1}, True),
        ({(-1, 0): 1, (-2, -1): 5}, True),
    ]
    for terms, _ in cases:
        base = GoodModel(XY, (ModelSummand(L(XY.vars, terms)),))
        for h in ((2, 2), (3, 3), (2, 3), (1, 4)):
            scaled = {tuple(a * k for a, k in zip(e, h)): c for e, c in terms.items()}
            cover = GoodModel(XY, (ModelSummand(L(XY.vars, scaled)),), h)
            for pt in ({"x": 0, "y": 0},):
                assert clean_at_point(base, pt)[0] == clean_at_point(cover, pt)[0]
                assert clean_at_point(base, pt)[1].numerically_clean == \
                    clean_at_point(cover, pt)[1].numerically_clean


def test_chi_additive_over_direct_sums():
    geom = Surface(2, (("D1", 1), ("D2", -1)), ((1, 2), (2, 0)))
    rows_a = [(1, (F(2), F(1)))]
    rows_b = [(2, (F(3), F(0)))]
    assert chi_EP(rows_a + rows_b, geom) == chi_EP(rows_a, geom) + chi_EP(rows_b, geom)
    curve = Curve(1, (("0", ()),))
    assert chi_EP([(1, (F(0),))] * 3, curve) == 3 * chi_EP([(1, (F(0),))], curve)


def test_console_script_smoke(tmp_path):
    doc = {
        "schema": 1,
        "chart": {"vars": ["x"], "log_vars": ["x"]},
        "model": [{"phi": [{"coeff": "1", "exp": [-3]}], "rank": 1}],
        "geometry": {"kind": "curve", "genus": 0,
                     "punctures": [{"name": "x", "irregularities": []},
                                   {"name": "inf", "irregularities": ["0"]}]},
    }
    f = tmp_path / "m.json"
    f.write_text(json.dumps(doc))
    out = subprocess.run([sys.executable, "-m", "logchar.cli", "chi", str(f)],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": "src"})
    assert out.returncode == 0, out.stderr
    assert "chi = -3" in out.stdout


def _names_used(tree):
    """Names and attributes read in a module, except a top-level function's
    references to itself."""
    used = set()
    for stmt in tree.body:
        own = stmt.name if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) else None
        for node in ast.walk(stmt):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name is not None and name != own:
                used.add(name)
    return used


def test_every_public_function_has_a_caller_outside_tests():
    # A module-level function that only tests call belongs in the tests.
    root = Path(__file__).resolve().parent.parent
    sources = sorted((root / "src" / "logchar").glob("*.py"))
    trees = {p.name: ast.parse(p.read_text()) for p in sources}
    used = set()
    for name, tree in trees.items():
        if name != "__init__.py":
            used |= _names_used(tree)
    bench = " ".join(p.read_text() for p in sorted((root / "bench").glob("*.py")))
    unused = sorted(f"{name}:{stmt.name}" for name, tree in trees.items()
                    for stmt in tree.body
                    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not stmt.name.startswith("_") and stmt.name not in used
                    and not re.search(rf"\b{stmt.name}\b", bench))
    assert not unused, unused


# Library API that no engine code names, one reason each.
LIBRARY_API = {
    "cyclic_vector": "a benchmark op: bench/run.py calls it on the cyclic corpus",
    "gen": "NumberField constructor of the generator a, the element the modulus defines",
    "irregularity_multiset": "NewtonPolygon slopes repeated by width",
    "theta_values": "RefinedClass: the rational roots of its residue polynomial",
    "variable": "LaurentPolynomial constructor of a coordinate function",
}


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _references(node, enclosing, names, attrs):
    """Add the bare names read under ``node`` to ``names`` and the attribute
    names to ``attrs``, except a function's or class's references to
    itself."""
    if isinstance(node, _DEFS):
        enclosing = enclosing | {node.name}
    if isinstance(node, ast.Name) and node.id not in enclosing:
        names.add(node.id)
    elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
        attrs.add(node.attr)
    for child in ast.iter_child_nodes(node):
        _references(child, enclosing, names, attrs)


def test_every_engine_definition_is_referenced_in_the_engine():
    # A function, method or class of src/logchar that no other code there
    # names is a helper of the tests, or dead; exports in __init__.py do
    # not count.  A method is named only by an attribute read (.name): a
    # local variable of the same name does not call it.  Dunder methods are
    # called by the language.
    root = Path(__file__).resolve().parent.parent
    names, attrs, defined = set(), set(), set()
    for path in sorted((root / "src" / "logchar").glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "__init__.py":
            _references(tree, frozenset(), names, attrs)
        methods = {id(n) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for n in cls.body if isinstance(n, _DEFS)}
        defined |= {(path.stem, node.name, id(node) in methods) for node in ast.walk(tree)
                    if isinstance(node, _DEFS)
                    and not (node.name.startswith("__") and node.name.endswith("__"))}
    unreferenced = {(stem, name) for stem, name, method in defined
                    if name not in (attrs if method else names | attrs)}
    unused = sorted(f"{stem}.{name}" for stem, name in unreferenced if name not in LIBRARY_API)
    assert not unused, unused
    # the pins stay exact: each is defined and still unreferenced
    pinned = {name for _, name in unreferenced}
    assert set(LIBRARY_API) <= pinned, sorted(set(LIBRARY_API) - pinned)


def test_cli_defines_only_its_handlers():
    # each rule lives in the engine module that owns it: the CLI parses
    # arguments, calls the library and prints, so any other function, class
    # or lambda of cli.py, nested ones too, is a rule drifting back into it
    root = Path(__file__).resolve().parent.parent
    tree = ast.parse((root / "src" / "logchar" / "cli.py").read_text())
    allowed = {"main", "_build_parser", "_fail", "_emit", "_load_model_doc"}
    extra = sorted(getattr(node, "name", "<lambda>") for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef,
                                        ast.Lambda))
                   and getattr(node, "name", None) not in allowed
                   and not getattr(node, "name", "").startswith("cmd_"))
    assert not extra, extra


def test_trusted_laurent_constructor_stays_in_laurent():
    # LaurentPolynomial._trusted skips every check of the normal form; only
    # laurent.py, whose results already hold it, may build through it.
    root = Path(__file__).resolve().parent.parent
    files = [p for d in ("src/logchar", "bench", "tools", "tests")
             for p in sorted((root / d).glob("*.py"))]
    users = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            name = node.id if isinstance(node, ast.Name) else \
                node.attr if isinstance(node, ast.Attribute) else None
            if name == "_trusted":
                users.add(path.relative_to(root).as_posix())
    assert users == {"src/logchar/laurent.py"}, users
