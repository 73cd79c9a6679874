"""The engine's one exact elimination, and the vertex ray of n - 1 walls.

``maximal_minors`` is fraction-free Gauss-Jordan elimination (Bareiss, Math.
Comp. 22, 1968) of a d x (d+1) matrix M over a ring with exact division:
the integers here, exact Laurent polynomials in ``cdvf.cyclic_vector``.
After each step every entry is a minor of M, so each division by the
previous pivot is exact.  Only the columns without a pivot are updated: a
pivot column is zero off its pivot row.  At the end each pivot row holds the
last pivot p = det M_f at its pivot column, where f is the column left free,
and at f the minor with that pivot column replaced by column f (Cramer's
rule); with -p at f, these are the signed maximal minors (-1)^m det M_m,
M_m without column m, up to one common sign.  They span the kernel of M:
<w_i, v> is the determinant of M with its row w_i repeated, so 0.

``tropical.sorted_profile_linear`` asks, for n - 1 integer walls, for the
ray of the octant on which every wall vanishes: the kernel line, when it
meets the octant away from the apex, that is when the nonzero minors share
a sign.  Dependent walls (every minor zero) cut out no single ray.  The
module keeps the name of the Fourier-Motzkin elimination it replaced.
"""

from __future__ import annotations

from math import gcd
from typing import Optional, Sequence, Tuple

Row = Tuple[int, ...]


def maximal_minors(rows: Sequence[Sequence]) -> list:
    """(v_0, .., v_d) = s ((-1)^m det M_m)_m for one sign s, where M is the
    d x (d+1) matrix with these rows over a ring with exact ``//`` and M_m
    drops its column m; all zero when M has rank below d."""
    rows = [list(r) for r in rows]
    free = list(range(len(rows) + 1))
    pivots = []
    prev = 1
    for top in rows:
        c = next((j for j in free if top[j]), None)
        if c is None:  # the row is zero: rank deficient
            return [top[free[0]]] * len(top)
        free.remove(c)
        pivots.append(c)
        p = top[c]
        for r in rows:
            if r is not top:
                rc = r[c]
                for j in free:
                    r[j] = (p * r[j] - rc * top[j]) // prev
        prev = p
    f = free[0]
    ray = [-prev] * (len(rows) + 1)
    for r, c in zip(rows, pivots):
        ray[c] = r[f]
    return ray


def feasible_point(walls: Sequence[Row], n: int) -> Optional[Row]:
    """The primitive nonnegative integer vector spanning the ray of the octant
    on which the n - 1 ``walls`` (integer rows of n entries) vanish, or None
    if they cut out no ray."""
    ray = maximal_minors(walls)
    if not any(ray) or (any(x < 0 for x in ray) and any(x > 0 for x in ray)):
        return None
    g = gcd(*ray)
    return tuple(abs(x) // g for x in ray)
