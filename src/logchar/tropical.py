"""Sorted radius functions on the octant and their exact linearity.

A radius function is the max of finitely many integer linear forms <b, r>
on the octant r >= 0, the zero form always among them (radii are capped at
1, so the functions are nonnegative).  On a good model's Kummer cover the
forms are the negated cover exponents of a summand's support, so they are
integers; a restriction to some of the coordinates keeps only those entries.

A max of linear forms is linear on the octant iff one form dominates the
others coordinatewise.  Sorted profiles are checked at the vertex rays of
the arrangement of their forms, in integer arithmetic: each ray is the
integer kernel of n - 1 walls (``fme.feasible_point``), evaluated once
however many choices of walls cut it out.  The number of such choices is
bounded by ``MAX_RAY_SUBSETS``; past it the check refuses with
``RayBudgetError``.
"""

from __future__ import annotations

import itertools
import math
from operator import ge
from typing import Iterable, Optional, Sequence, Tuple

from .fme import feasible_point

Form = Tuple[int, ...]

# choices of n - 1 walls the vertex-ray check may enumerate.  One choice costs
# 16-21 us on 3 or 4 coordinates with up to 20 constituents (CPython 3.11 on
# one core of a shared 2-core Xeon), so the bound is about 1 s there; it is
# about 1.5 s with 30 constituents and 2-3 s on 7 coordinates (43-61 us each)
MAX_RAY_SUBSETS = 50_000


class RayBudgetError(ValueError):
    """The vertex-ray check would enumerate more than MAX_RAY_SUBSETS choices
    of walls."""


def _dominates(f: Form, g: Form) -> bool:
    return all(map(ge, f, g))


def is_linear_on_octant(forms: Sequence[Form]) -> Optional[Form]:
    """The form of ``forms`` that dominates every other coordinatewise, so
    that their max is that form on the whole octant, or None when the max is
    not linear there.  A dominating form is also the lexicographically
    largest, so that is the one candidate."""
    top = max(forms)
    return top if all(_dominates(top, g) for g in forms) else None


def sorted_profile_linear(constituents: Iterable[Tuple[Sequence[Form], int]], nvars: int):
    """Decide linearity of each sorted subsidiary function g_1 >= ... >= g_d.

    ``constituents`` are (forms, multiplicity) pairs: each radius function is
    the max of its integer forms on ``nvars`` coordinates and the zero form,
    repeated by its positive multiplicity; d is the sum of multiplicities.
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
    Returns (all_linear, per_index_verdicts); raises RayBudgetError when the
    walls have more than MAX_RAY_SUBSETS subsets of size n - 1.
    """
    zero = (0,) * nvars
    entries = []
    for forms, mult in constituents:
        forms = {zero, *forms}
        if mult <= 0 or any(len(f) != nvars for f in forms):
            raise ValueError(f"a constituent needs forms of {nvars} entries and a "
                             "positive multiplicity")
        entries.append((forms, mult))
    rank = sum(mult for _, mult in entries)

    tops = []
    for forms, _ in entries:
        top = is_linear_on_octant(forms)
        if top is None:
            break
        tops.append(top)
    else:
        if all(_dominates(a, b) or _dominates(b, a)
               for a, b in itertools.combinations(tops, 2)):
            return True, (True,) * rank

    eye = [tuple(int(k == j) for k in range(nvars)) for j in range(nvars)]
    walls = _walls(entries, eye)
    subsets = math.comb(len(walls), nvars - 1)
    if subsets > MAX_RAY_SUBSETS:
        raise RayBudgetError(
            f"the vertex-ray check needs {subsets} choices of {nvars - 1} among "
            f"{len(walls)} walls in {nvars} coordinates, more than {MAX_RAY_SUBSETS}")
    units = [_values(entries, e) for e in eye]
    verdicts = [True] * rank
    seen = set()
    for subset in itertools.combinations(walls, nvars - 1):
        ray = feasible_point(subset, nvars)
        if ray is None or ray in seen:
            continue
        seen.add(ray)
        values = _values(entries, ray)
        for i in range(rank):
            if verdicts[i] and values[i] != sum(u[i] * x for u, x in zip(units, ray)):
                verdicts[i] = False
        if not any(verdicts):
            break
    return all(verdicts), tuple(verdicts)


def _values(entries, r):
    """The sorted values at the integer point r, each repeated by its
    multiplicity, largest first."""
    out = []
    for forms, mult in entries:
        out.extend([max(sum(b * x for b, x in zip(f, r)) for f in forms)] * mult)
    return sorted(out, reverse=True)


def _walls(entries, eye):
    """Coordinate hyperplanes (the unit rows ``eye``) and primitive walls f - g
    of incomparable forms."""
    walls = list(eye)
    forms = sorted({f for fs, _ in entries for f in fs})
    for f, g in itertools.combinations(forms, 2):
        if not (_dominates(f, g) or _dominates(g, f)):
            diff = [a - b for a, b in zip(f, g)]
            scale = math.gcd(*diff) * (1 if next(x for x in diff if x) > 0 else -1)
            walls.append(tuple(x // scale for x in diff))
    return list(dict.fromkeys(walls))
