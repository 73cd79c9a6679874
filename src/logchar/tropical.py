"""Max-plus radius functions on the octant and exact linearity tests.

A TropicalFn is max of finitely many linear forms <b, r> with b in Q^n, the
zero form always present (radii are capped at 1, so the functions are
nonnegative).  "full" mode lets every coordinate range over [0, oo); "sharp"
mode pins coordinates past the log block to 0.

Linearity on the octant is decided exactly: a max of linear forms is linear
iff one form dominates the others coordinatewise on the free coordinates.
Witnesses for failures, and the order-statistic analysis behind sorted
profiles, are produced by exact Fourier-Motzkin feasibility, never floats.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .fme import feasible_point
from .laurent import LaurentPolynomial

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


@dataclass(frozen=True)
class LinearityWitness:
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
    # pick two maximal incomparable forms and exhibit the strict crossing
    maximal = [g for g in f.forms
               if not any(h != g and _dominates(h, g, coords) for h in f.forms)]
    for a, b in itertools.combinations(maximal, 2):
        pt_a = _strictly_larger_point(a, b, f)
        pt_b = _strictly_larger_point(b, a, f)
        if pt_a is not None and pt_b is not None:
            return False, LinearityWitness(False, crossing_forms=(a, b),
                                           crossing_points=(pt_a, pt_b))
    raise AssertionError("no dominating form but no crossing found")


def _strictly_larger_point(a: Form, b: Form, f: TropicalFn):
    """Rational octant point where <a,r> > <b,r>, via Fourier-Motzkin."""
    coords = list(f.free_coords)
    diff = [a[j] - b[j] if j in coords else Fraction(0) for j in range(f.nvars)]
    # prefer a coordinate axis witness when one exists
    for j in coords:
        if diff[j] > 0:
            unit = [Fraction(0)] * f.nvars
            unit[j] = Fraction(1)
            return tuple(unit)
    pt = feasible_point([(tuple(diff), True)], f.nvars)
    if pt is None:
        return None
    if f.mode == "sharp":
        pt = tuple(x if j in coords else Fraction(0) for j, x in enumerate(pt))
    return pt


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
    ordered coordinatewise.  Otherwise each order statistic is decided
    exactly through Fourier-Motzkin feasibility of strict-crossing systems.
    Returns (all_linear, per_index_verdicts).
    """
    fns = profile.entries
    rank = profile.rank
    verdicts = [False] * rank

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

    for i in range(1, rank + 1):
        verdicts[i - 1] = _order_statistic_linear(profile, i)
    return all(verdicts), tuple(verdicts)


def _order_statistic_linear(profile: RadiusProfile, i: int) -> bool:
    """Is the i-th largest value of the profile a single linear form?"""
    candidates = set()
    for fn, _ in profile.entries:
        candidates.update(fn.forms)
    for cand in sorted(candidates):
        if _is_ith_everywhere(profile, i, cand):
            return True
    return False


def _is_ith_everywhere(profile: RadiusProfile, i: int, cand: Form) -> bool:
    f0 = profile.entries[0][0]
    nvars = f0.nvars
    rank = profile.rank

    # (a) nowhere do i constituents strictly exceed cand
    if _exists_point_with_k_strictly_above(profile, i, cand, nvars):
        return False
    # (b) nowhere do rank - i + 1 constituents fall strictly below cand
    if _exists_point_with_k_strictly_below(profile, rank - i + 1, cand, nvars):
        return False
    # (a)+(b) force: at least i values >= cand and at least rank-i+1 values
    # <= cand everywhere, so the i-th sorted value equals cand everywhere.
    return True


def _expand(profile):
    out = []
    for fn, mult in profile.entries:
        out.extend([fn] * mult)
    return out


def _exists_point_with_k_strictly_above(profile, k, cand, nvars):
    fns = _expand(profile)
    for subset in itertools.combinations(range(len(fns)), k):
        # g_alpha(r) > cand(r): max of forms > cand <=> some form > cand
        for choice in itertools.product(*[fns[a].forms for a in subset]):
            constraints = []
            for form in choice:
                diff = tuple(form[j] - cand[j] for j in range(nvars))
                constraints.append((diff, True))
            constraints.extend(_mode_pins(fns[0]))
            if feasible_point(constraints, nvars) is not None:
                return True
    return False


def _exists_point_with_k_strictly_below(profile, k, cand, nvars):
    fns = _expand(profile)
    for subset in itertools.combinations(range(len(fns)), k):
        constraints = []
        for a in subset:
            # g_alpha(r) < cand(r): every form of alpha stays strictly below
            for form in fns[a].forms:
                diff = tuple(cand[j] - form[j] for j in range(nvars))
                constraints.append((diff, True))
        constraints.extend(_mode_pins(fns[0]))
        if feasible_point(constraints, nvars) is not None:
            return True
    return False


def _mode_pins(fn: TropicalFn):
    """Equality pins r_j = 0 for non-free coordinates, as two inequalities."""
    pins = []
    free = set(fn.free_coords)
    for j in range(fn.nvars):
        if j not in free:
            row = [Fraction(0)] * fn.nvars
            row[j] = Fraction(-1)
            pins.append((tuple(row), False))  # -r_j >= 0, with r_j >= 0 implicit
    return pins