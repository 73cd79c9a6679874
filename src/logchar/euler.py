"""Euler characteristics: the geometry reconciled with the model once,
Chern-class evaluation, intersection with the cycle, and the brute-force
curve cohomology oracle.

Sign convention: the degree-n evaluation carries the factor (-1)^n, which is
pinned by the curve formula rank * chi(U) - sum of irregularities and by the
surface formula; topology-derived Chern numbers use
deg c_n = (-1)^n chi(U) and deg(c_1 . D_j) = -chi(D_j^o).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .cycles import IntegralityError, LogCycle, line_multiplicity
from .laurent import LaurentPolynomial, pole_orders
from .record import Record


class GeometryError(ValueError):
    pass


MAX_ORACLE_CELLS = 100_000  # cells of the recheck matrix; about window 150


class WindowError(ArithmeticError):
    pass


class OracleBudgetError(ValueError):
    """The oracle's recheck matrix would pass MAX_ORACLE_CELLS cells."""


def integrality_check(value) -> int:
    """Assert the exact rational value is an integer and return it."""
    q = Fraction(value)
    if q.denominator != 1:
        raise IntegralityError(f"expected an integer, got {q}")
    return q.numerator


class Curve(Record):
    genus: int
    punctures: Tuple[Tuple[str, Tuple[Fraction, ...]], ...]  # (name, irregularities)

    def __post_init__(self):
        names = [name for name, _ in self.punctures]
        if len(set(names)) != len(names):
            raise GeometryError("puncture names must be distinct")

    @property
    def chi_U(self):
        return 2 - 2 * self.genus - len(self.punctures)

    @property
    def n(self):
        return 1


class Surface(Record):
    chi_U: int
    components: Tuple[Tuple[str, int], ...]         # (name, chi of the open part)
    intersections: Tuple[Tuple[int, ...], ...]      # symmetric, with self-intersections

    def __post_init__(self):
        k = len(self.components)
        if len(self.intersections) != k or any(len(r) != k for r in self.intersections):
            raise GeometryError("intersection matrix size must match the divisor count")
        for i in range(k):
            for j in range(k):
                if self.intersections[i][j] != self.intersections[j][i]:
                    raise GeometryError("intersection matrix must be symmetric")

    @property
    def n(self):
        return 2


class ChernData(Record):
    """Surface Chern numbers of the log cotangent bundle."""
    c2: Fraction
    c1_dot_D: Tuple[Fraction, ...]

    @classmethod
    def from_topology(cls, geom: Surface) -> "ChernData":
        return cls(Fraction(geom.chi_U), tuple(Fraction(-chi) for _, chi in geom.components))


def reconcile_geometry(div, geom):
    """The rank-expanded irregularity rows over every component of ``geom``,
    and ``geom`` reconciled with the irregularity divisor ``div`` of the model.

    Every Euler-characteristic formula reads these, so all of them accept and
    refuse the same documents.  On a curve the puncture named after the
    chart's first log divisor gets the computed irregularities, and a nonempty
    multiset declared there must agree with them; every other puncture keeps
    its declared multiset, of at most rank nonnegative values with an integral
    total.  The multisets are distributed over rank rows of rank 1 in sorted
    order (any distribution yields the same Euler characteristic).  A
    surface's components are matched to the chart log divisors positionally
    and renamed after them; its rows are the (rank, b-vector) rows of ``div``.
    On both, rank * b_j must be integral for every summand.  A curve needs a
    chart of one coordinate, and a surface one of more.
    """
    if (geom.n == 1) != (div.n == 1):
        raise GeometryError(f"a {'curve' if geom.n == 1 else 'surface'} geometry on a "
                            f"chart of {div.n} coordinate{'s' if div.n > 1 else ''}")
    rank = sum(r for r, _ in div.rows)
    if geom.n == 1:
        names = [name for name, _ in geom.punctures]
        if div.log_vars[0] not in names:
            raise GeometryError(f"geometry lists no puncture named {div.log_vars[0]!r}")
        chart = names.index(div.log_vars[0])
        punctures = []
        for j, (name, irrs) in enumerate(geom.punctures):
            irrs = tuple(sorted(irrs, reverse=True))
            if j == chart:
                if irrs and irrs != div.per_divisor[0]:
                    raise GeometryError(
                        f"declared irregularities at {name} disagree with the model")
                irrs = div.per_divisor[0]
            elif len(irrs) > rank:
                raise GeometryError(f"more irregularities than the rank at {name}")
            elif irrs and irrs[-1] < 0:
                raise GeometryError(f"negative irregularity at {name}")
            elif sum(irrs).denominator != 1:
                raise IntegralityError(
                    f"non-integral total irregularity at {name}: {sum(irrs)}")
            punctures.append((name, irrs))
        cols = [irrs + (Fraction(0),) * (rank - len(irrs)) for _, irrs in punctures]
        rows = tuple((1, row) for row in zip(*cols))
        geom = Curve(geom.genus, tuple(punctures))
    else:
        if len(geom.components) != len(div.log_vars):
            raise GeometryError(
                "surface needs one component per chart log divisor "
                f"({len(geom.components)} vs {len(div.log_vars)})")
        rows = div.rows
        geom = Surface(geom.chi_U, tuple(
            (name, chi) for name, (_, chi) in zip(div.log_vars, geom.components)),
            geom.intersections)
    for r, row in div.rows:
        for name, b in zip(div.log_vars, row):
            line_multiplicity(r, b, name)
    return rows, geom


def _chern_table(geom, chern=None):
    """The component names of ``geom`` and the degrees
    deg(c_(n-k)(Omega^1(log D)) . D_J) for every ordered tuple J of k <= n
    component indices: on a curve deg c_1 = -chi(U) and 1 per puncture; on
    a surface the Chern numbers of ``chern`` (by default from the topology),
    then D_j . D_k."""
    if geom.n == 1:
        names = [name for name, _ in geom.punctures]
        return names, {(): -geom.chi_U, **{(j,): 1 for j in range(len(names))}}
    chern = chern or ChernData.from_topology(geom)
    table = {(): chern.c2, **{(j,): c for j, c in enumerate(chern.c1_dot_D)}}
    table.update({(j, k): d for j, row in enumerate(geom.intersections)
                  for k, d in enumerate(row)})
    return [name for name, _ in geom.components], \
        {J: _integral(d) for J, d in table.items()}


def _integral(x):
    """x as an int when it is integral: the degrees and rows are mostly
    integers, and int arithmetic is far cheaper than Fraction's."""
    return x.numerator if x.denominator == 1 else x


def _degree(table, n, row, J=()):
    """deg(c(Omega^1(log D)) (1 - R)^{-1} . D_J) truncated at degree n, with
    R = sum_k b_k D_k for the row b (its entries passed through ``_integral``)."""
    out = table[J]
    if len(J) < n:
        for k, b in enumerate(row):
            out += b * _degree(table, n, row, J + (k,))
    return out


def chi_EP(rows: Sequence[Tuple[int, Sequence[Fraction]]], geom,
           chern: Optional[ChernData] = None) -> int:
    """Chern-class evaluation (-1)^n sum_i deg(c(Omega^1(log D)) (1 - R_i)^{-1}).

    rows are (rank, b-vector) pairs, one b per geometry component; the rank
    expands a summand into that many identical rows.  The expansion
    truncates at degree n: each row contributes deg c_1 + deg R_i on a curve
    and deg c_2 + deg(c_1 . R_i) + deg(R_i^2) on a surface.  Without
    ``chern`` a surface takes the topology-derived Chern numbers, which
    makes this the surface formula
    chi(U) - sum_j b_j chi(D_j^o) + sum_{j,j'} b_j b_j' (D_j . D_j') per row.
    """
    names, table = _chern_table(geom, chern)
    if any(len(row) != len(names) for _, row in rows):
        raise GeometryError("row length must match the divisor count")
    return integrality_check((-1) ** geom.n * sum(
        rank * _degree(table, geom.n, tuple(map(_integral, row))) for rank, row in rows))


def kashiwara_dubson(cycle: LogCycle, geom, chern: Optional[ChernData] = None) -> int:
    """(-1)^n deg([X], cycle) in the log cotangent bundle.

    The zero-section self-intersection contributes deg c_n per unit of
    multiplicity; a line over D_j contributes, per unit,
    deg(c(Omega^1(log D)) (1 - R)^{-1} . D_j) truncated at degree n:
    1 on a curve, deg(c_1 . D_j) + (R . D_j) on a surface, which needs the
    line's irregularity-row annotation.  Lower-dimensional components
    contribute zero.  On a curve, a puncture that is not a log variable of
    the cycle's chart lies off the chart, and enters through the total of
    its declared irregularities (as ``reconcile_geometry`` checked them).
    """
    names, table = _chern_table(geom, chern)
    total = cycle.zero_section_multiplicity() * table[()]
    if geom.n == 1:
        total += sum(sum(irrs) for name, irrs in geom.punctures
                     if name not in cycle.chart.log_vars)
    for line, mult in cycle.lines():
        if line.divisor not in names:
            raise GeometryError(f"unknown divisor component {line.divisor}")
        if geom.n > 1 and line.row is None:
            raise GeometryError(
                "surface evaluation needs the irregularity row on each line")
        row = () if geom.n == 1 else tuple(map(_integral, line.row))
        total += mult * _degree(table, geom.n, row, (names.index(line.divisor),))
    return integrality_check((-1) ** geom.n * total)


# -- brute-force de Rham oracle on the punctured line --------------------------


class OracleCertificate(Record):
    chi: int
    kernel_dim: int
    cokernel_dim: int
    window: int
    recheck_window: int


def derham_oracle_curve(phi: LaurentPolynomial, window: int,
                        _recheck: bool = True):
    """Euler characteristic of the twist by phi on the punctured affine line.

    Computes kernel and cokernel of f -> f' + phi' f on the span of x^i,
    |i| <= window, against the full reachable target span, by exact Gaussian
    elimination; outside the window the map is triangular with invertible
    leading terms, so the dimensions stabilize.  Stability is asserted by
    recomputing at window + 3.  A recheck matrix of more than
    MAX_ORACLE_CELLS cells is refused with OracleBudgetError before any
    matrix is built.
    """
    if len(phi.vars) != 1:
        raise GeometryError("the oracle works on one-variable twists")
    pole0 = pole_orders(phi, (0,))[0]
    pole_inf = max(0, (phi.max_exponent(0) or 0))
    need = 2 * max(pole0, pole_inf) + 5
    if window < need:
        raise WindowError(f"window {window} below the stable bound {need}")
    dphi = phi.partial(0)
    shifts = sorted({e[0] for e in dphi.terms} | {-1})
    s_lo, s_hi = min(shifts), max(shifts)
    top = window + 3 if _recheck else window
    cells = (2 * top + 1) * (2 * top + 1 + s_hi - s_lo)
    if cells > MAX_ORACLE_CELLS:
        raise OracleBudgetError(f"the recheck matrix at window {top} has {cells} cells, "
                                f"more than {MAX_ORACLE_CELLS}")
    cols = list(range(-window, window + 1))
    rows = list(range(-window + s_lo, window + s_hi + 1))
    row_index = {e: i for i, e in enumerate(rows)}
    mat = [[Fraction(0)] * len(cols) for _ in rows]
    for cidx, i in enumerate(cols):
        if i != 0:
            mat[row_index[i - 1]][cidx] += i
        for e, c in dphi.terms.items():
            mat[row_index[i + e[0]]][cidx] += c.rational_value()
    rank = _rank(mat)
    ker = len(cols) - rank
    coker = len(rows) - rank
    chi = ker - coker
    if _recheck:
        again = derham_oracle_curve(phi, window + 3, _recheck=False)
        if (again.kernel_dim, again.cokernel_dim) != (ker, coker):
            raise WindowError(
                f"window instability: ({ker}, {coker}) at {window} vs "
                f"({again.kernel_dim}, {again.cokernel_dim}) at {window + 3}")
        return OracleCertificate(chi, ker, coker, window, window + 3)
    return OracleCertificate(chi, ker, coker, window, window)


def _rank(mat):
    m = [row[:] for row in mat]
    nrows, ncols = len(m), len(m[0]) if m else 0
    rank = 0
    rowpos = 0
    for col in range(ncols):
        pivot = None
        for r in range(rowpos, nrows):
            if m[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        m[rowpos], m[pivot] = m[pivot], m[rowpos]
        inv = Fraction(1) / m[rowpos][col]
        m[rowpos] = [x * inv for x in m[rowpos]]
        for r in range(nrows):
            if r != rowpos and m[r][col] != 0:
                factor = m[r][col]
                m[r] = [a - factor * b for a, b in zip(m[r], m[rowpos])]
        rank += 1
        rowpos += 1
        if rowpos == nrows:
            break
    return rank
