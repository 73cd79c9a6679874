"""Exact Fourier-Motzkin elimination for small homogeneous systems.

A constraint is (coeffs, strict) and reads  <coeffs, r> >= 0  (or > 0 when
strict).  All systems here are homogeneous, so a row may be scaled by any
positive number: each input row (int or Fraction entries) is brought to a
primitive integer vector, and each combination formed during elimination is
divided by the gcd of its entries.  Rows that are positive multiples of each
other therefore coincide and are merged before the next stage.  The only
caller, ``tropical.sorted_profile_linear``, passes one system per vertex ray:
n - 1 walls as pairs of opposite rows and one strict row (the coordinates
sum to more than 0), in the n variables of the radius functions: the
divisors through the point for cleanness, all chart coordinates for
numerical cleanness.  Nothing bounds n; elimination can grow doubly
exponentially in it.  Feasibility returns a witness point built by
back-substitution, the only step that uses ``Fraction`` (each bound is
rhs / a).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple, Union

Constraint = Tuple[Tuple[Union[int, Fraction], ...], bool]
Row = Tuple[int, ...]


def _primitive(coeffs) -> Row:
    """The positive multiple of a rational row with coprime integer entries."""
    den = lcm(*(c.denominator for c in coeffs))
    ints = [c.numerator * (den // c.denominator) for c in coeffs]
    g = gcd(*ints)
    return tuple(x // g for x in ints) if g > 1 else tuple(ints)


def feasible_point(constraints: Sequence[Constraint],
                   nvars: int) -> Optional[Tuple[Fraction, ...]]:
    """A rational point with r >= 0 satisfying all constraints, or None if
    infeasible.

    Rows may hold ints or Fractions; the constraints r_j >= 0 are added
    implicitly.
    """
    system: List[Tuple[Row, bool]] = [(_primitive(c), bool(s)) for c, s in constraints]
    for c, _ in system:
        if len(c) != nvars:
            raise ValueError("constraint arity mismatch")
    for j in range(nvars):
        system.append((tuple(int(k == j) for k in range(nvars)), False))

    stages = []  # per eliminated variable: constraints mentioning it
    current = _dedupe(system)
    for var in range(nvars - 1, -1, -1):
        mentioning = [c for c in current if c[0][var] != 0]
        rest = [c for c in current if c[0][var] == 0]
        stages.append((var, mentioning))
        pos = [c for c in mentioning if c[0][var] > 0]
        neg = [c for c in mentioning if c[0][var] < 0]
        for pc, ps in pos:
            for nc, ns in neg:
                # eliminate: pc scaled by -nc[var], nc scaled by pc[var]
                a = -nc[var]
                b = pc[var]
                combo = [a * x + b * y for x, y in zip(pc, nc)]
                g = gcd(*combo)
                rest.append((tuple(x // g for x in combo) if g > 1 else tuple(combo),
                             ps or ns))
        current = _dedupe(rest)

    for c, strict in current:
        # all-zero rows remain; <0,r> is 0
        if strict:
            return None

    # back-substitute from the innermost stage outwards; a row of stage var
    # mentions only the variables 0..var
    values: List[Fraction] = []
    for var, mentioning in reversed(stages):
        lo, lo_strict = None, False
        hi, hi_strict = None, False
        for coeffs, strict in mentioning:
            rhs = -sum(c * v for c, v in zip(coeffs, values) if c)
            a = coeffs[var]
            bound = Fraction(rhs, a)
            if a > 0:  # var >= bound
                if lo is None or bound > lo:
                    lo, lo_strict = bound, strict
                elif bound == lo:
                    lo_strict = lo_strict or strict
            else:  # var <= bound
                if hi is None or bound < hi:
                    hi, hi_strict = bound, strict
                elif bound == hi:
                    hi_strict = hi_strict or strict
        v = _pick(lo, lo_strict, hi, hi_strict)
        if v is None:
            return None
        values.append(v)
    return tuple(values)


def _pick(lo, lo_strict, hi, hi_strict):
    if lo is None and hi is None:
        return Fraction(0)
    if lo is None:
        return hi - 1 if hi_strict else hi
    if hi is None:
        return lo + 1 if lo_strict else lo
    if lo > hi:
        return None
    if lo == hi:
        if lo_strict or hi_strict:
            return None
        return lo
    return (lo + hi) / 2


def _dedupe(constraints):
    seen = {}
    for c, s in constraints:
        if not s and not any(c):
            continue
        seen[c] = seen.get(c, False) or s
    return [(c, s) for c, s in seen.items()]
