"""Records against frozen dataclasses, and the cold-start import guard.

Every ``Record`` subclass in logchar gets a twin made by
``dataclasses.make_dataclass(..., frozen=True)`` from the same annotations
and defaults.  On seeded instances the record and its twin must agree on
``repr``, ``==`` and ``hash``; the dataclass is the oracle, imported here
only.
"""

import dataclasses
import importlib
import os
import pkgutil
import random
import subprocess
import sys
from fractions import Fraction

import pytest

import logchar
from logchar.cycles import ChartStamp, CycleError, MonomialLogModule
from logchar.euler import Curve, GeometryError, Surface
from logchar.goodmodel import Chart, ModelError, ModelSummand
from logchar.record import Record

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

for _info in pkgutil.iter_modules(logchar.__path__):
    importlib.import_module(f"logchar.{_info.name}")


def _subclasses(cls):
    out = []
    for sub in cls.__subclasses__():
        out += [sub] + _subclasses(sub)
    return out


RECORDS = sorted({c for c in _subclasses(Record) if c.__module__.startswith("logchar.")},
                 key=lambda c: (c.__module__, c.__name__))


def _twin(cls):
    spec = []
    for name in cls.__annotations__:
        if name in cls.__dict__:
            spec.append((name, object, dataclasses.field(default=cls.__dict__[name])))
        else:
            spec.append((name, object))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


# -- seeded field values ----------------------------------------------------------


def _value(rng, depth=0):
    kind = rng.randrange(7 if depth < 2 else 5)
    if kind == 0:
        return rng.randint(-3, 3)
    if kind == 1:
        return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
    if kind == 2:
        return rng.choice(["x", "y", "t", "origin", "x=1"])
    if kind == 3:
        return None
    if kind == 4:
        return rng.choice([True, False])
    return tuple(_value(rng, depth + 1) for _ in range(rng.randint(0, 3)))


def _chart_vars(rng, need_log):
    vars = tuple(rng.sample(["x", "y", "z"], rng.randint(1, 2)))
    low = 1 if need_log else 0
    return vars, tuple(v for v in vars if rng.random() < 0.5) or vars[:low]


def _surface_fields(rng):
    k = rng.randint(0, 3)
    m = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i, k):
            m[i][j] = m[j][i] = rng.randint(-2, 2)
    return (rng.randint(-2, 2), tuple((f"D{i}", rng.randint(-1, 2)) for i in range(k)),
            tuple(tuple(r) for r in m))


def _curve_fields(rng):
    names = rng.sample(["x", "y", "inf", "p"], rng.randint(0, 3))
    return (rng.randint(0, 2), tuple((name, tuple(Fraction(rng.randint(0, 4), rng.randint(1, 2))
                                                  for _ in range(rng.randint(0, 2))))
                                     for name in names))


def _module_fields(rng):
    chart = ChartStamp(*_chart_vars(rng, False))
    gens = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2)))
    n = chart.n
    rels = tuple((rng.randrange(len(gens)),
                  tuple(rng.randint(0, 2) for _ in range(n)),
                  tuple(rng.randint(0, 2) for _ in range(n)))
                 for _ in range(rng.randint(0, 2)))
    return chart, gens, rels


VALIDATED = {
    Chart: lambda rng: _chart_vars(rng, True),
    ChartStamp: lambda rng: _chart_vars(rng, False),
    Curve: _curve_fields,
    ModelSummand: lambda rng: (_value(rng), rng.randint(1, 3)),
    MonomialLogModule: _module_fields,
    Surface: _surface_fields,
}


def _fields(cls, rng):
    if cls in VALIDATED:
        return tuple(VALIDATED[cls](rng))
    return tuple(_value(rng) for _ in cls._fields)


def test_every_result_type_is_a_record():
    assert len(RECORDS) == 20
    assert set(VALIDATED) <= set(RECORDS)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_subclass_generates_no_code(cls):
    assert not set(vars(cls)) & {"__init__", "__eq__", "__hash__", "__repr__",
                                 "__setattr__", "__delattr__"}
    assert cls._fields == tuple(cls.__annotations__)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_record_agrees_with_frozen_dataclass(cls):
    twin = _twin(cls)
    rng = random.Random(f"record-{cls.__name__}")
    pool = [_fields(cls, rng) for _ in range(12)]
    pool += pool[:4]   # equal values, built again
    built = [(cls(*vals), twin(*vals)) for vals in pool]
    for (a, ta), (b, tb) in zip(built, built[1:] + built[:1]):
        assert repr(a) == repr(ta)
        assert hash(a) == hash(ta)
        assert (a == b) == (ta == tb)
        assert (a != b) == (ta != tb)
        assert (a == a) and not (a != a)
        assert a != ta and ta != a   # never equal across classes
    for vals in pool:
        rec, tw = cls(*vals), twin(*vals)
        kw = dict(zip(cls._fields, vals))
        assert cls(**kw) == rec
        assert hash(cls(**kw)) == hash(tw)
        # trailing defaults may be omitted, positionally or by keyword
        for k in range(len(cls._fields) - len(cls._defaults), len(cls._fields)):
            head = vals[:k]
            assert repr(cls(*head)) == repr(twin(*head))
            assert cls(**dict(zip(cls._fields, head))) == cls(*head)
    # set order follows the hashes, so it matches the dataclass
    assert [repr(r) for r in set(r for r, _ in built)] \
        == [repr(t) for t in set(t for _, t in built)]


def test_same_fields_different_classes_are_unequal():
    assert Chart(("x",), ("x",)) != ChartStamp(("x",), ("x",))
    assert not Chart(("x",), ("x",)) == ChartStamp(("x",), ("x",))
    assert Chart(("x",), ("x",)) == Chart(("x",), ("x",))
    assert Chart(("x",), ("x",)) != (("x",), ("x",))


def test_repr_matches_dataclass_format():
    assert repr(Chart(("x", "y"), ("y",))) == "Chart(vars=('x', 'y'), log_vars=('y',))"
    from logchar.cycles import ZeroSection
    assert repr(ZeroSection()) == "ZeroSection()"
    assert ZeroSection() == ZeroSection() and hash(ZeroSection()) == hash(())


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_records_are_frozen(cls):
    rec = cls(*_fields(cls, random.Random(1)))
    for name in cls._fields + ("other",):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
        with pytest.raises(AttributeError):
            delattr(rec, name)
    assert cls(*_fields(cls, random.Random(1))) == rec


def test_constructor_argument_errors():
    with pytest.raises(TypeError):
        Chart(("x",))                        # missing field
    with pytest.raises(TypeError):
        Chart(("x",), ("x",), ("x",))        # too many positional arguments
    with pytest.raises(TypeError):
        Chart(("x",), log_vars=("x",), extra=1)   # unknown keyword
    with pytest.raises(TypeError):
        Chart(("x",), vars=("x",))           # the same field twice
    with pytest.raises(TypeError):
        ModelSummand(None, phi=None)
    with pytest.raises(TypeError):
        ModelSummand()                       # a required field before a default
    with pytest.raises(TypeError):
        ModelSummand(None, 1, 2)


def test_post_init_raises_typed_errors():
    with pytest.raises(ModelError):
        Chart(("x", "x"), ("x",))
    with pytest.raises(ModelError):
        Chart(("x",), ())
    with pytest.raises(ModelError):
        Chart(("x",), ("x", "x"))
    with pytest.raises(ModelError):
        ModelSummand(None, 0)
    with pytest.raises(ModelError):
        ModelSummand(None, rank=0)
    with pytest.raises(CycleError):
        ChartStamp(("x", "x"), ())
    with pytest.raises(CycleError):
        ChartStamp(("x",), ("y",))
    with pytest.raises(CycleError):
        MonomialLogModule(ChartStamp(("x", "y", "z"), ()), (0,), ())
    with pytest.raises(CycleError):
        MonomialLogModule(ChartStamp(("x",), ("x",)), (0,), ((1, (0,), (0,)),))
    with pytest.raises(GeometryError):
        Surface(0, (("D", 0), ("E", 0)), ((1, 2), (3, 1)))
    with pytest.raises(GeometryError):
        Curve(0, (("x", ()), ("inf", ()), ("x", (Fraction(3),))))


def test_field_order_and_defaults_checked_at_class_creation():
    class Point(Record):
        x: int
        y: int = 0

    assert Point(1) == Point(1, 0) == Point(x=1) and Point(1, 2) != Point(1)
    assert repr(Point(1, y=2)) == f"{Point.__qualname__}(x=1, y=2)"
    with pytest.raises(TypeError):
        class Bad(Record):
            x: int = 0
            y: int


# -- cold start ----------------------------------------------------------------------


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import logchar.cli, sys; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                         text=True, env={**os.environ, "PYTHONPATH": SRC}, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_engine_source_does_not_import_dataclasses():
    pkg = os.path.join(SRC, "logchar")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), encoding="utf-8") as fh:
                text = fh.read()
            assert "import dataclasses" not in text, name
            assert "from dataclasses" not in text, name
            assert "@dataclass" not in text, name
