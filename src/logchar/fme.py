"""The vertex ray cut out of the octant by n - 1 integer walls.

``tropical.sorted_profile_linear`` asks, for each choice of n - 1 walls
(the rows of an integer matrix W with n columns), for the ray of the octant
on which every wall vanishes.  When W has rank n - 1 its kernel is the line
spanned by the signed maximal minors v_j = (-1)^j det W_j, where W_j drops
column j: <w_i, v> is the determinant of W with the row w_i repeated, so 0.
The minors come from one fraction-free Gauss-Jordan elimination (Bareiss,
Math. Comp. 22, 1968): after each step every entry is a minor of W, so each
division by the previous pivot is exact and no rational number appears.  At
the end every pivot row holds d = det W_c at its pivot column, where c is
the one column left without a pivot, and at column c the minor with that
pivot column replaced by column c (Cramer's rule); up to one common sign
these are the signed maximal minors.  The line meets the octant away from
the apex iff the nonzero minors share a sign; otherwise, or when W is rank
deficient (every minor is zero, so no single ray is cut out), there is none.
"""

from __future__ import annotations

from math import gcd
from typing import List, Optional, Sequence, Tuple

Row = Tuple[int, ...]


def feasible_point(walls: Sequence[Row], n: int) -> Optional[Row]:
    """The primitive nonnegative integer vector spanning the ray of the octant
    on which the n - 1 ``walls`` (integer rows of n entries) vanish, or None
    if they cut out no ray."""
    rows: List[Sequence[int]] = list(walls)
    free = list(range(n))
    pivots = []
    prev = 1
    for k in range(n - 1):
        top = rows[k]
        c = next((j for j in free if top[j]), None)
        if c is None:
            return None  # rank deficient
        free.remove(c)
        pivots.append(c)
        p = top[c]
        rows = [r if i == k else [(p * x - r[c] * y) // prev for x, y in zip(r, top)]
                for i, r in enumerate(rows)]
        prev = p
    ray = [0] * n
    ray[free[0]] = -prev
    for r, c in zip(rows, pivots):
        ray[c] = r[free[0]]
    if any(x < 0 for x in ray):
        if any(x > 0 for x in ray):
            return None
        ray = [-x for x in ray]
    g = gcd(*ray)
    return tuple(x // g for x in ray)
