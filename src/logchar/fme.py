"""Exact Fourier-Motzkin elimination over Q for small systems.

A constraint is (coeffs, strict) and reads  <coeffs, r> >= 0  (or > 0 when
strict).  All systems here are homogeneous.  The only caller,
``tropical.sorted_profile_linear``, passes one system per vertex ray: n - 1
walls as pairs of opposite rows, one strict row (the free coordinates sum to
more than 0) and the sharp-mode pins r_j = 0, in as many variables as the
chart has coordinates.  Nothing bounds that count; elimination can grow
doubly exponentially in it.  Feasibility returns a rational witness point
constructed by back-substitution.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

Constraint = Tuple[Tuple[Fraction, ...], bool]


def _normalize(coeffs) -> Tuple[Fraction, ...]:
    return tuple(Fraction(c) for c in coeffs)


def feasible_point(constraints: Sequence[Constraint], nvars: int,
                   nonnegative: bool = True) -> Optional[Tuple[Fraction, ...]]:
    """A rational point satisfying all constraints, or None if infeasible.

    With ``nonnegative`` the constraints r_j >= 0 are added implicitly.
    """
    system: List[Constraint] = [(_normalize(c), bool(s)) for c, s in constraints]
    for c, _ in system:
        if len(c) != nvars:
            raise ValueError("constraint arity mismatch")
    if nonnegative:
        for j in range(nvars):
            unit = [Fraction(0)] * nvars
            unit[j] = Fraction(1)
            system.append((tuple(unit), False))

    stages = []  # per eliminated variable: constraints mentioning it
    current = system
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
                combo = tuple(a * x + b * y for x, y in zip(pc, nc))
                rest.append((combo, ps or ns))
        current = _dedupe(rest)

    for c, strict in current:
        # all-zero rows remain; <0,r> is 0
        if strict:
            return None

    # back-substitute from the innermost stage outwards
    values = [Fraction(0)] * nvars
    for var, mentioning in reversed(stages):
        lo, lo_strict = None, False
        hi, hi_strict = None, False
        for coeffs, strict in mentioning:
            rhs = -sum(coeffs[j] * values[j] for j in range(nvars) if j != var)
            a = coeffs[var]
            bound = rhs / a
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
        values[var] = v
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
        if all(x == 0 for x in c) and not s:
            continue
        seen[c] = seen.get(c, False) or s
    return [(c, s) for c, s in seen.items()]
