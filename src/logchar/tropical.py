"""Max-plus radius functions on the octant and exact linearity tests.

A TropicalFn is max of finitely many linear forms <b, r> with b in Q^n, the
zero form always present (radii are capped at 1, so the functions are
nonnegative).  "full" mode lets every coordinate range over [0, oo); "sharp"
mode pins coordinates past the log block to 0.

Linearity on the octant is decided exactly: a max of linear forms is linear
iff one form dominates the others coordinatewise on the free coordinates,
and a failure is witnessed by two unit points.  Sorted profiles are checked
at the vertex rays of the arrangement of their forms; each ray point is an
exact Fourier-Motzkin feasibility witness, never a float.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .fme import _primitive, feasible_point
from .laurent import LaurentPolynomial
from .record import Record

Form = Tuple[Fraction, ...]


class ModeMismatch(ValueError):
    pass


class TropicalFn:
    __slots__ = ("nvars", "nlog", "mode", "forms")

    def __init__(self, nvars: int, forms, mode: str = "full", nlog: Optional[int] = None):
        if mode not in ("full", "sharp"):
            raise ValueError("mode must be 'full' or 'sharp'")
        if mode == "sharp" and nlog is None:
            raise ValueError("sharp mode needs the log-coordinate count")
        m = nvars if mode == "full" else nlog
        cleaned = set()
        for f in forms:
            f = tuple(Fraction(x) for x in f)
            if len(f) != nvars:
                raise ValueError("form arity mismatch")
            if mode == "sharp":
                f = f[:m] + (Fraction(0),) * (nvars - m)
            cleaned.add(f)
        cleaned.add((Fraction(0),) * nvars)
        object.__setattr__(self, "nvars", nvars)
        object.__setattr__(self, "nlog", m)
        object.__setattr__(self, "mode", mode)
        object.__setattr__(self, "forms", tuple(sorted(cleaned)))

    def __setattr__(self, *a):
        raise AttributeError("TropicalFn is immutable")

    @property
    def free_coords(self):
        return range(self.nvars if self.mode == "full" else self.nlog)

    def __call__(self, r: Sequence) -> Fraction:
        rr = tuple(Fraction(x) for x in r)
        if len(rr) != self.nvars:
            raise ValueError("point arity mismatch")
        return max(sum(b * x for b, x in zip(f, rr)) for f in self.forms)

    def __eq__(self, other):
        return (isinstance(other, TropicalFn) and self.forms == other.forms
                and self.mode == other.mode and self.nvars == other.nvars)

    def __hash__(self):
        return hash((self.nvars, self.mode, self.forms))

    def __repr__(self):
        return f"TropicalFn(max of {[tuple(map(str, f)) for f in self.forms]}, {self.mode})"


class LinearityWitness(Record):
    linear: bool
    dominating_form: Optional[Form] = None
    crossing_forms: Optional[Tuple[Form, Form]] = None
    crossing_points: Optional[Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]] = None


def _dominates(f: Form, g: Form, coords) -> bool:
    return all(f[j] >= g[j] for j in coords)


def g_of_phi(phi: LaurentPolynomial, mode: str = "full", nlog: Optional[int] = None,
             kummer: Optional[Sequence[int]] = None) -> TropicalFn:
    """Radius function of the rank-1 twist attached to phi: max(0, -v_r(phi)).

    Each monomial x^a contributes the form -<a, r>; with Kummer data the
    support lives on a cover and form coordinates are divided by h_j.
    """
    if phi.is_zero:
        raise ValueError("phi must be nonzero")
    n = len(phi.vars)
    h = tuple(kummer) if kummer is not None else (1,) * n
    forms = []
    for e in phi.terms:
        forms.append(tuple(Fraction(-a, hj) for a, hj in zip(e, h)))
    return TropicalFn(n, forms, mode=mode, nlog=nlog)


def is_linear_on_octant(f: TropicalFn):
    """Exact linearity decision with a witness.

    Returns (True, witness-with-dominating-form) or (False, witness with a
    crossing pair of forms and two rational points where their order flips).
    """
    coords = list(f.free_coords)
    for cand in f.forms:
        if all(_dominates(cand, other, coords) for other in f.forms):
            return True, LinearityWitness(True, dominating_form=cand)
    # two maximal forms are incomparable, so each exceeds the other on an axis
    maximal = [g for g in f.forms
               if not any(h != g and _dominates(h, g, coords) for h in f.forms)]
    a, b = maximal[:2]
    return False, LinearityWitness(False, crossing_forms=(a, b),
                                   crossing_points=(_axis_point(a, b, f), _axis_point(b, a, f)))


def _axis_point(a: Form, b: Form, f: TropicalFn):
    """Unit point of the first free coordinate where <a,r> > <b,r>."""
    return _unit(f.nvars, next(j for j in f.free_coords if a[j] > b[j]))


class RadiusProfile:
    """Multiset of radius functions with multiplicities; total = rank."""

    __slots__ = ("entries",)

    def __init__(self, entries):
        es = []
        mode = None
        nvars = None
        for fn, mult in entries:
            if mult <= 0:
                raise ValueError("multiplicities must be positive")
            if mode is None:
                mode, nvars = fn.mode, fn.nvars
            elif fn.mode != mode or fn.nvars != nvars:
                raise ModeMismatch("profile entries must share mode and dimension")
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
    vertex ray with c_i(r) = sum_j g_i(e_j) r_j.
    That check runs on integers.  Every form is multiplied by the lcm L of
    the denominators in the profile and each ray point by a positive number
    that makes it a primitive integer vector.  g_i and c_i are positively
    homogeneous in the point and both scale by L with the forms, so
    g_i(p) = c_i(p) holds after the scaling exactly when it held before.
    Returns (all_linear, per_index_verdicts).
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
        coords = list(fns[0][0].free_coords)
        chains_ok = all(
            _dominates(a, b, coords) or _dominates(b, a, coords)
            for (a, _), (b, _) in itertools.combinations(linear_forms, 2))
        if chains_ok:
            return True, tuple([True] * rank)

    f0 = fns[0][0]
    nvars = f0.nvars
    coords = list(f0.free_coords)
    den = math.lcm(*(x.denominator for fn, _ in fns for f in fn.forms for x in f))
    entries = [([tuple(x.numerator * (den // x.denominator) for x in f) for f in fn.forms], mult)
               for fn, mult in fns]
    eye = [tuple(int(k == j) for k in range(nvars)) for j in coords]
    units = [_int_values(entries, e) for e in eye]
    verdicts = [True] * rank
    # the free coordinates sum to more than 0: one point per ray, never the apex
    base = _mode_pins(f0) + [(tuple(int(j in coords) for j in range(nvars)), True)]
    for subset in itertools.combinations(_walls(entries, coords, eye), len(coords) - 1):
        rows = base + [(w, False) for w in subset] + [(tuple(-x for x in w), False) for w in subset]
        pt = feasible_point(rows, nvars)
        if pt is None:
            continue
        pt = _primitive(pt)
        values = _int_values(entries, pt)
        for i in range(rank):
            if verdicts[i] and values[i] != sum(u[i] * pt[j] for u, j in zip(units, coords)):
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


def _walls(entries, coords, eye):
    """Coordinate hyperplanes (the unit rows ``eye``) and primitive walls f - g
    of incomparable integer forms."""
    walls = list(eye)
    forms = sorted({f for fs, _ in entries for f in fs})
    for f, g in itertools.combinations(forms, 2):
        if not (_dominates(f, g, coords) or _dominates(g, f, coords)):
            diff = [a - b for a, b in zip(f, g)]
            scale = math.gcd(*diff) * (1 if next(x for x in diff if x) > 0 else -1)
            walls.append(tuple(x // scale for x in diff))
    return list(dict.fromkeys(walls))


def _unit(nvars: int, j: int) -> Tuple[Fraction, ...]:
    return tuple(Fraction(int(k == j)) for k in range(nvars))


def _mode_pins(fn: TropicalFn):
    """Equality pins r_j = 0 for non-free coordinates, as two inequalities."""
    pins = []
    free = set(fn.free_coords)
    for j in range(fn.nvars):
        if j not in free:
            # -r_j >= 0, with r_j >= 0 implicit
            pins.append((tuple(-int(k == j) for k in range(fn.nvars)), False))
    return pins
