"""One-variable engine over Q((t)): operators, Newton polygons, refined data.

Conventions.  Operators and connection matrices have their coefficients in
Q((t)), as LaurentSeries in t; a constant given in their place becomes the
constant series.  A DiffOperator is monic of order d with coefficients
c_1..c_d, either in the derivation d/dt ("d/dt" gauge) or in the logarithmic
derivation t d/dt ("t*d/dt" gauge), and is read in the gauge it is given.
Connection matrices are exact; the only coefficients known to a precision
bound are those of the annihilator ``cyclic_vector`` returns, each a quotient
of minors known to 32 terms past its valuation, and the Newton polygon
certifies what it reads against that bound.

The Newton polygon is Malgrange's: the lower convex hull from (0, 0) of the
points (i, v(c_i)) of the log gauge, or (i, v(c_i) + i) of the d/dt gauge, up
to its last face of negative slope, then the horizontal ray to (d, last
height).  It is the same in both gauges: with D = t d/dt,
t^k (d/dt)^k = D(D-1)..(D-k+1), so a d/dt coefficient c_i gives the log-gauge
point (i, v(c_i) + i) plus points to its right at the same height, which lie
above every face of negative slope (Malgrange, Enseign. Math. 20, 1974).  A
face of slope sigma and width w contributes the irregularity -sigma with
multiplicity w, the ray zeros.  This normalization is pinned by the rank-1
twist attached to t^{-b} (irregularity b) and by Euler operators
(irregularity 0).

Refined residues along a face of positive slope b are face polynomials of the
monic annihilator: their roots are the leading twisted eigenvalues theta, the
reductions of t^{b+1} phi' for a rank-1 twist by phi.  For b = B/h the face
lives on the cover t = s^h, whose polygon is the base polygon stretched
vertically by h; it is read on the base operator, and no operator is pulled
back.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .field import FactorizationError, factor_over_Q
from .fme import maximal_minors
from .record import Record
from .series import LaurentSeries, PrecisionError

GAUGE_PARTIAL = "d/dt"
GAUGE_LOG = "t*d/dt"


class OperatorError(ValueError):
    pass


class DiffOperator:
    """Monic operator of order d; coeffs[i] is the coefficient of the
    (d-1-i)-th power of the derivation, i.e. c_1 first."""

    __slots__ = ("gauge", "order", "coeffs")

    def __init__(self, gauge: str, coeffs: Sequence[LaurentSeries]):
        if gauge not in (GAUGE_PARTIAL, GAUGE_LOG):
            raise OperatorError(f"unknown gauge {gauge!r}")
        cs = tuple(c if isinstance(c, LaurentSeries) else LaurentSeries.constant(c)
                   for c in coeffs)
        object.__setattr__(self, "gauge", gauge)
        object.__setattr__(self, "order", len(cs))
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, *a):
        raise AttributeError("DiffOperator is immutable")

    def __repr__(self):
        sym = "d" if self.gauge == GAUGE_PARTIAL else "D"
        parts = [f"{sym}^{self.order}"]
        for i, c in enumerate(self.coeffs, start=1):
            parts.append(f"({c})*{sym}^{self.order - i}")
        return " + ".join(parts)

    def coefficient_of_power(self, k: int) -> LaurentSeries:
        """Coefficient of the k-th power of the derivation, with c_0 = 1."""
        if k == self.order:
            return LaurentSeries.constant(1)
        return self.coeffs[self.order - 1 - k]


# -- Newton polygon ----------------------------------------------------------


class NewtonPolygon(Record):
    vertices: Tuple[Tuple[int, int], ...]
    slopes: Tuple[Tuple[Fraction, int], ...]          # (slope, width), ray last
    irregularities: Tuple[Tuple[Fraction, int], ...]  # (value, multiplicity), sorted desc
    order: int

    @property
    def total_irregularity(self) -> Fraction:
        return sum(v * m for v, m in self.irregularities)

    def irregularity_multiset(self):
        out = []
        for v, m in self.irregularities:
            out.extend([v] * m)
        return tuple(sorted(out, reverse=True))


def newton_polygon(op: DiffOperator) -> NewtonPolygon:
    """Polygon, slopes and subsidiary irregularities of a monic operator.

    Every coefficient must either be exactly zero or carry a certified
    valuation; an all-zero coefficient at finite precision is accepted only
    when its precision bound, shifted as its point is, already lies on or
    above the polygon.
    """
    d = op.order
    shift = op.gauge == GAUGE_PARTIAL
    points = [(0, 0)]
    uncertain = []
    for i, c in enumerate(op.coeffs, start=1):
        try:
            v = c.valuation()
        except PrecisionError:
            uncertain.append((i, c.prec))
            continue
        if v is not None:  # an exact zero gives no point
            points.append((i, v + shift * i))
    hull = _lower_hull(points)
    # up to the last face of negative slope, then the horizontal ray
    last = next((k for k in range(1, len(hull)) if hull[k][1] >= hull[k - 1][1]), len(hull))
    del hull[last:]
    if hull[-1][0] < d:
        hull.append((d, hull[-1][1]))
    for i, prec in uncertain:
        if _hull_height(hull, i) > prec + shift * i:
            raise PrecisionError(
                f"coefficient {i} is zero to O(t^{prec}) but the polygon needs it")
    slopes = []
    irregularities = {}
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        width = i1 - i0
        sigma = Fraction(v1 - v0, width)
        slopes.append((sigma, width))
        irregularities[-sigma] = irregularities.get(-sigma, 0) + width
    irr_sorted = tuple(sorted(irregularities.items(), reverse=True))
    return NewtonPolygon(tuple(hull), tuple(slopes), irr_sorted, d)


def _lower_hull(points):
    """Vertices of the lower convex hull of integer points in increasing
    abscissa order."""
    hull = []
    for x, y in points:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            # drop hull[-1] if it lies on or above the segment hull[-2] -> (x, y)
            if (y2 - y1) * (x - x1) >= (y - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append((x, y))
    return hull


def _hull_height(hull, i):
    """Height of the polygon at abscissa i, 0 < i <= its order."""
    (x1, y1), (x2, y2) = next(seg for seg in zip(hull, hull[1:]) if seg[1][0] >= i)
    return y1 + (y2 - y1) * Fraction(i - x1, x2 - x1)


# -- refined residues --------------------------------------------------------


class OrbitClass(Record):
    factors: Tuple[Tuple[Fraction, ...], ...]  # X-factors of P(X^h) found, descending
    multiplicity: int                          # multiplicity of P in Q
    residue_degree: Optional[int]              # degree of factors[0]; None if one is missing
    dimension: int                             # h * deg P * multiplicity: roots, counted
    descent: Tuple[Fraction, ...]              # P, monic irreducible, descending coeffs

    def describe(self):
        if self.residue_degree is None:
            return f"orbit dim={self.dimension} P(Y)={_poly_str(self.descent, 'Y')}"
        return (f"orbit r={self.residue_degree} dim={self.dimension} "
                f"factors={[_poly_str(f) for f in self.factors]}")


class RefinedClass(Record):
    slope: Fraction
    kummer: int
    residue_poly: Tuple[Fraction, ...]  # monic, descending coefficients
    orbits: Tuple[OrbitClass, ...]

    def describe(self):
        return (f"residue q(X) = {_poly_str(self.residue_poly)} "
                f"over cover t^(1/{self.kummer})")

    def theta_values(self):
        """Rational roots of the residue polynomial, with multiplicity."""
        out = []
        for orb in self.orbits:
            for f in orb.factors:
                if len(f) == 2:
                    out.extend([-f[1]] * orb.multiplicity)
        return sorted(out)


def _poly_str(coeffs, var="X"):
    deg = len(coeffs) - 1
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        p = deg - i
        mono = var if p == 1 else (f"{var}^{p}" if p else "")
        if not mono:
            body = str(abs(c))
        elif abs(c) == 1:
            body = mono
        else:
            body = f"{abs(c)}*{mono}"
        parts.append(("-" if c < 0 else "+", body))
    if not parts:
        return "0"
    sign0, body0 = parts[0]
    out = ("-" if sign0 == "-" else "") + body0
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def refined_residue(op: DiffOperator, poly: NewtonPolygon, b: Fraction) -> RefinedClass:
    """Residue polynomial along the irregularity-b face, with orbit data.

    ``poly`` is ``newton_polygon(op)``; ``op`` may be in either gauge.  The
    face polynomial q of the monic annihilator, read on the cover t = s^h with
    h the denominator of b, has the leading twisted eigenvalues as roots.

    By descent q(X) = Q(X^h), and Q is every h-th coefficient of q: a face
    of slope -B/h joins integer vertices, so h divides its width, and
    ``_face_polynomial`` writes nothing where h does not divide l.  The roots
    of q over one root of Q form a mu_h-orbit, and Galois permutes the roots
    of an irreducible factor P of Q transitively, so the orbit classes are
    the factors P of Q, each of dimension h * deg P * mult.  A class holds
    the X-factors that factor_over_Q finds in its own P(X^h), and is
    complete when they multiply to it.  The classes are ordered by their
    first X-factor, those with none found last.
    """
    b = Fraction(b)
    h = b.denominator
    q = _face_polynomial(op, poly, b)
    bases, rest = factor_over_Q(q[::-h])
    if len(rest) > 1:
        raise FactorizationError(
            f"Q(Y) has a factor of degree {len(rest) - 1} with no rational root; "
            "factor_over_Q splits such factors only up to degree 4")
    Ps = sorted(tuple(P[::-1]) for P in bases)
    orbits = []
    for P in dict.fromkeys(Ps):
        lift = [Fraction(0)] * (h * (len(P) - 1) + 1)
        lift[::h] = P[::-1]
        found, rest = factor_over_Q(lift)
        fs = sorted({tuple(f[::-1]) for f in found})
        mult = Ps.count(P)
        orbits.append(OrbitClass(tuple(fs), mult, len(fs[0]) - 1 if rest == [1] else None,
                                 h * (len(P) - 1) * mult, P))
    orbits.sort(key=lambda orb: (not orb.factors, orb.factors[:1]))
    return RefinedClass(b, h, q, tuple(orbits))


def _face_polynomial(op, poly, b):
    """Monic face polynomial of slope -B on the cover t = s^h, b = B/h.

    The cover's log-gauge coefficients are h^i c_i(s^h), so its polygon is
    ``poly`` stretched vertically by h, and the face is read on the base
    operator: the s^(h v0 - B l) coefficient is h^i times the t^(v0 - B l/h)
    coefficient of the log-gauge c_i, i = i0 + l, when h | l, and 0
    otherwise.  In the d/dt gauge that is the t^(v0 - B l/h - i) coefficient
    of c_i, since the other terms of the change of gauge lie above the face.
    It is known below s^(h prec), h (prec + i) in the d/dt gauge, as on the
    pulled-back series.
    """
    if b <= 0:
        raise OperatorError("refined residues require a positive slope")
    face = next((k for k, (sigma, _) in enumerate(poly.slopes) if sigma == -b), None)
    if face is None:
        raise OperatorError(f"{b} is not an irregularity slope of the operator")
    shift = op.gauge == GAUGE_PARTIAL
    h, B = b.denominator, b.numerator
    (i0, v0), (i1, _) = poly.vertices[face:face + 2]
    qs = []
    for i in range(i0, i1 + 1):
        c = op.coefficient_of_power(op.order - i)
        e = h * (v0 - shift * i) - B * (i - i0)
        if c.prec is not None and e >= h * c.prec:
            raise PrecisionError(f"face coefficient at t^{e} beyond known precision")
        qs.append(h ** i * c.terms.get(e // h, 0) if e % h == 0 else 0)
    return tuple(x / qs[0] for x in qs)


# -- cyclic vectors ----------------------------------------------------------


def _apply_derivation(A, v):
    """d/dt on coordinates: v' + A v."""
    return [vi.derivative() + sum((a * x for a, x in zip(row, v)), LaurentSeries.zero())
            for vi, row in zip(v, A)]


def cyclic_vector(A) -> DiffOperator:
    """Monic annihilator of a cyclic vector of the connection matrix A.

    A is the matrix of the derivation d/dt on a chosen basis, square of any
    rank d >= 1, with exact entries: an entry with a precision bound raises
    PrecisionError.  The deterministic candidates are e_1, e_1 + t e_2,
    e_1 + t e_2 + t^2 e_3, ..., accepted when the derivative matrix
    W = [v, v', .., v^(d-1)] has a nonzero determinant.  The signed maximal
    minors m_0, .., m_d of [W | v^(d)] (``fme.maximal_minors``) span its
    kernel, so they are m_d (-u_0, .., -u_(d-1), 1) with W u = v^(d) and
    m_d = +-det W: the annihilator d^d - sum_j u_j d^j has the coefficient
    m_j / m_d at d^j, one quotient known to 32 terms past its valuation.
    """
    d = len(A)
    if not d:
        raise OperatorError("the connection matrix is empty")
    for i, row in enumerate(A):
        if len(row) != d:
            raise OperatorError(f"row {i} of the connection matrix has length {len(row)}, "
                                f"not {d}")
    A = [[c if isinstance(c, LaurentSeries) else LaurentSeries.constant(c) for c in row]
         for row in A]
    zero = LaurentSeries.zero()
    for ncand in range(1, d + 1):
        v = [LaurentSeries.monomial(k) if k < ncand else zero for k in range(d)]
        iterates = [v]
        for _ in range(d):
            iterates.append(_apply_derivation(A, iterates[-1]))
        m = maximal_minors([[w[i] for w in iterates] for i in range(d)])
        if m[d]:
            return DiffOperator(GAUGE_PARTIAL, [m[j] / m[d] for j in reversed(range(d))])
    raise OperatorError(f"each of the {d} deterministic candidates has det W exactly 0")
