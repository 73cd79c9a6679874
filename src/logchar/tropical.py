"""Max-plus radius functions on the octant and exact linearity tests.

A TropicalFn is max of finitely many linear forms <b, r> with b in Q^n, the
zero form always present (radii are capped at 1, so the functions are
nonnegative), and every coordinate ranges over [0, oo).  Integer entries
stay ints; any other entry is made a Fraction.  A restriction to some of the
coordinates is a TropicalFn on those coordinates alone.

Linearity on the octant is decided exactly: a max of linear forms is linear
iff one form dominates the others coordinatewise, and a failure is witnessed
by two unit points.  Sorted profiles are checked at the vertex rays of the
arrangement of their forms, in integer arithmetic: each ray is the integer
kernel of n - 1 walls (``fme.feasible_point``), evaluated once however many
choices of walls cut it out.  The number of such choices is bounded by
``MAX_RAY_SUBSETS``; past it the check refuses with ``RayBudgetError``.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import ge
from typing import Optional, Sequence, Tuple, Union

from .fme import feasible_point
from .record import Record

Form = Tuple[Union[int, Fraction], ...]

# choices of n - 1 walls the vertex-ray check may enumerate.  One choice costs
# 16-21 us on 3 or 4 coordinates with up to 20 constituents (CPython 3.11 on
# one core of a shared 2-core Xeon), so the bound is about 1 s there; it is
# about 1.5 s with 30 constituents and 2-3 s on 7 coordinates (43-61 us each)
MAX_RAY_SUBSETS = 50_000


class RayBudgetError(ValueError):
    """The vertex-ray check would enumerate more than MAX_RAY_SUBSETS choices
    of walls."""


class TropicalFn:
    __slots__ = ("nvars", "forms")

    def __init__(self, nvars: int, forms):
        cleaned = set()
        for f in forms:
            f = tuple(x if type(x) is int else Fraction(x) for x in f)
            if len(f) != nvars:
                raise ValueError("form arity mismatch")
            cleaned.add(f)
        cleaned.add((0,) * nvars)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "forms", tuple(sorted(cleaned)))

    def __setattr__(self, *a):
        raise AttributeError("TropicalFn is immutable")

    def __call__(self, r: Sequence) -> Fraction:
        rr = tuple(Fraction(x) for x in r)
        if len(rr) != self.nvars:
            raise ValueError("point arity mismatch")
        return max(sum(b * x for b, x in zip(f, rr)) for f in self.forms)

    def __eq__(self, other):
        return (isinstance(other, TropicalFn) and self.forms == other.forms
                and self.nvars == other.nvars)

    def __hash__(self):
        return hash((self.nvars, self.forms))

    def __repr__(self):
        return f"TropicalFn(max of {[tuple(map(str, f)) for f in self.forms]})"


class LinearityWitness(Record):
    linear: bool
    dominating_form: Optional[Form] = None
    crossing_forms: Optional[Tuple[Form, Form]] = None
    crossing_points: Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]] = None


def _dominates(f: Form, g: Form) -> bool:
    return all(map(ge, f, g))


def is_linear_on_octant(f: TropicalFn):
    """Exact linearity decision with a witness.

    Returns (True, witness-with-dominating-form) or (False, witness with a
    crossing pair of forms and two rational points where their order flips).
    A form that dominates every other is also the lexicographically largest,
    the last of the sorted forms, so that is the one candidate.
    """
    top = f.forms[-1]
    if all(_dominates(top, other) for other in f.forms):
        return True, LinearityWitness(True, top)
    # two maximal forms are incomparable, so each exceeds the other on an axis
    maximal = [g for g in f.forms
               if not any(h != g and _dominates(h, g) for h in f.forms)]
    a, b = maximal[:2]
    return False, LinearityWitness(False, crossing_forms=(a, b),
                                   crossing_points=(_axis_point(a, b), _axis_point(b, a)))


def _axis_point(a: Form, b: Form):
    """Unit point of the first coordinate where <a,r> > <b,r>."""
    j = next(j for j, (x, y) in enumerate(zip(a, b)) if x > y)
    return tuple(int(k == j) for k in range(len(a)))


class RadiusProfile:
    """Multiset of radius functions with multiplicities; total = rank."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = []
        for fn, mult in entries:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if es and fn.nvars != es[0][0].nvars:
                raise ValueError("profile entries must share their dimension")
            es.append((fn, int(mult)))
        if not es:
            raise ValueError("empty profile")
        object.__setattr__(self, "entries", tuple(es))

    def __setattr__(self, *a):
        raise AttributeError("RadiusProfile is immutable")

    @property
    def rank(self):
        return sum(m for _, m in self.entries)

    def value_multiset(self, r):
        out = []
        for fn, mult in self.entries:
            out.extend([fn(r)] * mult)
        return sorted(out, reverse=True)


def sorted_profile_linear(profile: RadiusProfile):
    """Decide linearity of each sorted subsidiary function g_1 >= ... >= g_d.

    Fast path: every constituent linear and their dominating forms totally
    ordered coordinatewise.  Otherwise g_i is checked at the vertex rays of
    the arrangement cut out of the octant by the coordinate hyperplanes and
    the walls f = g of incomparable forms.  On each cell of that arrangement
    the order of all forms is fixed, so g_i is one form there; each cell is
    the cone over its vertex rays, hence g_i is linear iff it agrees at every
    vertex ray with c_i(r) = sum_j g_i(e_j) r_j.  Every vertex ray is cut
    out by n - 1 independent walls, so the rays are the integer kernels of
    the (n - 1)-subsets of walls that meet the octant, each a primitive
    integer vector; a ray cut out by several subsets is evaluated once.
    The check runs on integers: every form is multiplied by the lcm L of the
    denominators in the profile, and g_i and c_i both scale by L.
    Returns (all_linear, per_index_verdicts); raises RayBudgetError when the
    walls have more than MAX_RAY_SUBSETS subsets of size n - 1.
    """
    fns = profile.entries
    rank = profile.rank

    linear_forms = []
    all_linear = True
    for fn, mult in fns:
        ok, wit = is_linear_on_octant(fn)
        if not ok:
            all_linear = False
            break
        linear_forms.append((wit.dominating_form, mult))

    if all_linear:
        chains_ok = all(
            _dominates(a, b) or _dominates(b, a)
            for (a, _), (b, _) in itertools.combinations(linear_forms, 2))
        if chains_ok:
            return True, tuple([True] * rank)

    nvars = fns[0][0].nvars
    den = math.lcm(*(x.denominator for fn, _ in fns for f in fn.forms for x in f))
    entries = [([tuple(x.numerator * (den // x.denominator) for x in f) for f in fn.forms], mult)
               for fn, mult in fns]
    eye = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    walls = _walls(entries, eye)
    subsets = math.comb(len(walls), nvars - 1)
    if subsets > MAX_RAY_SUBSETS:
        raise RayBudgetError(
            f"the vertex-ray check needs {subsets} choices of {nvars - 1} among "
            f"{len(walls)} walls in {nvars} coordinates, more than {MAX_RAY_SUBSETS}")
    units = [_int_values(entries, e) for e in eye]
    verdicts = [True] * rank
    seen = set()
    for subset in itertools.combinations(walls, nvars - 1):
        ray = feasible_point(subset, nvars)
        if ray is None or ray in seen:
            continue
        seen.add(ray)
        values = _int_values(entries, ray)
        for i in range(rank):
            if verdicts[i] and values[i] != sum(u[i] * x for u, x in zip(units, ray)):
                verdicts[i] = False
        if not any(verdicts):
            break
    return all(verdicts), tuple(verdicts)


def _int_values(entries, r):
    """value_multiset at r of a profile with integer forms and an integer point."""
    out = []
    for forms, mult in entries:
        out.extend([max(sum(b * x for b, x in zip(f, r)) for f in forms)] * mult)
    return sorted(out, reverse=True)


def _walls(entries, eye):
    """Coordinate hyperplanes (the unit rows ``eye``) and primitive walls f - g
    of incomparable integer forms."""
    walls = list(eye)
    forms = sorted({f for fs, _ in entries for f in fs})
    for f, g in itertools.combinations(forms, 2):
        if not (_dominates(f, g) or _dominates(g, f)):
            diff = [a - b for a, b in zip(f, g)]
            scale = math.gcd(*diff) * (1 if next(x for x in diff if x) > 0 else -1)
            walls.append(tuple(x // scale for x in diff))
    return list(dict.fromkeys(walls))
