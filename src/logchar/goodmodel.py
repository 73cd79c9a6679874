"""Good-decomposition models on a normal-crossings chart.

A model is a direct sum of rank-1 twists attached to Laurent polynomials
phi_alpha tensored with regular pieces that enter only through their rank.
Exponents are integral on a Kummer cover x_j -> x_j^{1/h_j} of the log
variables; all reported pole orders are base-normalized rationals.

Cleanness at a point z is decided through condition-style data: linearity of
the sorted radius functions on the coordinates of the divisors through z,
together with nonvanishing of the reduced twisted differential (the theta
vector) at z.  Numerical cleanness asks for full-octant linearity of the same
sorted radius functions in all local coordinates; one certificate carries
both verdicts.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import prod
from typing import Dict, Mapping, Optional, Sequence, Tuple

from .cycles import (ChartStamp, Direction, DivisorLine, LogCycle, ZeroSection,
                     line_multiplicity)
from .field import QQ, NumberField, Scalar, _poly_divmod
from .laurent import (LaurentPolynomial, log_gradient, monomial_times_unit, pole_orders, twist,
                      twist_at_origin)
from .record import Record
from .tropical import RayBudgetError, sorted_profile_linear


# Dense polynomial work of the certificates over Q, each under about 1 s at
# its bound (CPython 3.11 on one core of a shared 2-core Xeon): the Euclid of
# the non-clean locus, 0.7 s on a theta entry of degree span 160 with random
# coefficients in [-9, 9]; the binomial expansions of a point's recentring,
# 0.8 s for the 5,000 terms they write for y^4999 at y = 3/7.  On data in a
# number field of degree d, not in Q, each is divided by d^2 (``_field_bound``).
MAX_LOCUS_DEGREE = 160
MAX_RECENTRED_TERMS = 5000


class ModelError(ValueError):
    pass


class ExpansionBudgetError(ValueError):
    """A certificate would expand a polynomial past its bound:
    MAX_LOCUS_DEGREE for a theta entry on a divisor, MAX_RECENTRED_TERMS for
    the recentring at a point."""


class UndecidedError(Exception):
    """The non-clean locus asked for on a chart it does not decide."""


class PointError(ValueError):
    pass


class Chart(ChartStamp):
    vars: Tuple[str, ...]
    log_vars: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise ModelError("chart variables must be distinct")
        if len(set(self.log_vars)) != len(self.log_vars):
            raise ModelError("log variables must be distinct")
        if not self.log_vars:
            raise ModelError("a chart needs at least one log divisor")
        if not set(self.log_vars) <= set(self.vars):
            raise ModelError("log variables must be chart variables")
        # positions of the log variables, read by every certificate: set once
        object.__setattr__(self, "log_indices",
                           tuple(self.vars.index(v) for v in self.log_vars))

    def stamp(self) -> ChartStamp:
        return ChartStamp(self.vars, self.log_vars)


class ModelSummand(Record):
    phi: LaurentPolynomial
    rank: int = 1

    def __post_init__(self):
        if self.rank < 1:
            raise ModelError("summand rank must be positive")


class GoodModel:
    """A direct sum of twists on a chart.

    ``poles[i]`` is the exponent vector of summand i's pole monomial: the
    cover pole order of phi along each log variable, 0 on the others; it is
    read off while the exponents are checked.  ``base_poles[i]`` is its
    irregularity row: the pole orders along the log divisors in base coordinates.
    """
    __slots__ = ("chart", "summands", "kummer", "field", "poles", "base_poles",
                 "_gradients")

    def __init__(self, chart: Chart, summands: Sequence[ModelSummand],
                 kummer: Optional[Sequence[int]] = None, field: NumberField = QQ):
        if not summands:
            raise ModelError("model needs at least one summand")
        ks = tuple(int(h) for h in (kummer if kummer is not None else (1,) * chart.m))
        if len(ks) != chart.m or any(h < 1 for h in ks):
            raise ModelError("one positive Kummer denominator per log divisor required")
        log = set(chart.log_indices)
        poles = []
        for s in summands:
            if s.phi.vars != chart.vars:
                raise ModelError("summand variables must match the chart")
            pole = [0] * chart.n
            for e in s.phi.terms:
                for j, a in enumerate(e):
                    if a < 0:
                        if j not in log:
                            raise ModelError("negative exponent on a non-log variable")
                        pole[j] = max(pole[j], -a)
            poles.append(tuple(pole))
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "summands", tuple(summands))
        object.__setattr__(self, "kummer", ks)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "poles", tuple(poles))
        object.__setattr__(self, "base_poles", tuple(
            tuple(Fraction(pole[j], h) for j, h in zip(chart.log_indices, ks))
            for pole in poles))
        object.__setattr__(self, "_gradients", None)

    def __setattr__(self, *a):
        raise AttributeError("GoodModel is immutable")

    @property
    def rank(self):
        return sum(s.rank for s in self.summands)

    def kummer_for_var(self) -> Tuple[int, ...]:
        """Per chart variable: cover degree (1 for non-log variables)."""
        out = [1] * self.chart.n
        for name, h in zip(self.chart.log_vars, self.kummer):
            out[self.chart.vars.index(name)] = h
        return tuple(out)

    def log_gradients(self) -> Tuple[Tuple[LaurentPolynomial, ...], ...]:
        """Each summand's (x_l d/dx_l phi)_l over every chart variable.

        Built on first use and kept with the model, so the locus, the origin
        check and the cycle of one call differentiate each phi once; every
        theta they need is an exponent shift of it (``laurent.twist``).
        """
        if self._gradients is None:
            object.__setattr__(self, "_gradients",
                               tuple(log_gradient(s.phi) for s in self.summands))
        return self._gradients


# -- validation ---------------------------------------------------------------


class GoodDecompositionReport(Record):
    summand_ok: Tuple[bool, ...]
    pair_ok: Tuple[Tuple[int, int, bool], ...]
    is_good: bool

    def failures(self):
        out = []
        for i, ok in enumerate(self.summand_ok):
            if not ok:
                out.append(f"condition (1) fails for summand {i + 1}")
        for i, j, ok in self.pair_ok:
            if not ok:
                out.append(f"condition (2) fails for pair ({i + 1}, {j + 1})")
        return out


def _condition_monomial_unit(phi: LaurentPolynomial, log_indices) -> bool:
    if phi.is_zero:
        return True
    if all(a >= 0 for e in phi.terms for a in e):
        return True  # already a power series
    return monomial_times_unit(phi, log_indices) is not None


def validate_good_decomposition(model: GoodModel) -> GoodDecompositionReport:
    """Check the two good-decomposition conditions on summands and differences."""
    log = model.chart.log_indices
    summand_ok = tuple(_condition_monomial_unit(s.phi, log) for s in model.summands)
    pairs = []
    for i, j in itertools.combinations(range(len(model.summands)), 2):
        diff = model.summands[i].phi - model.summands[j].phi
        pairs.append((i, j, _condition_monomial_unit(diff, log)))
    good = all(summand_ok) and all(ok for _, _, ok in pairs)
    return GoodDecompositionReport(summand_ok, tuple(pairs), good)


# -- irregularity divisors ----------------------------------------------------


class IrregularityDivisor(Record):
    n: int                                              # coordinates of the chart
    log_vars: Tuple[str, ...]
    rows: Tuple[Tuple[int, Tuple[Fraction, ...]], ...]  # (rank, b-vector) per summand
    per_divisor: Tuple[Tuple[Fraction, ...], ...]       # sorted descending, per divisor


def irregularity_divisor(model: GoodModel) -> IrregularityDivisor:
    rows = tuple((s.rank, row) for s, row in zip(model.summands, model.base_poles))
    per = []
    for j in range(model.chart.m):
        vals = []
        for rank, row in rows:
            vals.extend([row[j]] * rank)
        per.append(tuple(sorted(vals, reverse=True)))
    return IrregularityDivisor(model.chart.n, model.chart.log_vars, rows, tuple(per))


# -- local analysis at a point --------------------------------------------------


def _normalize_point(model: GoodModel, z: Mapping[str, object]) -> Dict[str, Scalar]:
    pt = {}
    for name in model.chart.vars:
        if name not in z:
            raise PointError(f"missing coordinate {name}")
        v = z[name]
        pt[name] = v if isinstance(v, Scalar) else model.field(v)
    return pt


def _local_frame(model: GoodModel, z: Mapping[str, Scalar]):
    """Split coordinates at z: divisors through z, recentred, kept."""
    chart = model.chart
    log = set(chart.log_indices)
    J, R, K = [], [], []
    for j, name in enumerate(chart.vars):
        if z[name].is_zero:
            (J if j in log else K).append(j)
        else:
            R.append(j)
    if not J:
        raise PointError("point does not lie on the log divisor")
    kv = model.kummer_for_var() if R else ()
    for j in R:
        if kv[j] != 1:
            raise ModelError("recentring through a Kummer cover is not supported; "
                             "evaluate at points on the covered divisors")
    return J, R, K


def local_support(phi: LaurentPolynomial, model: GoodModel, z: Mapping[str, Scalar],
                  frame) -> Tuple[Tuple[int, ...], ...]:
    """Support of phi recentred at z, up to unit saturation.

    ``frame`` is the split (J, R, K) of the coordinates at z from
    ``_local_frame``.  Coordinates with nonzero value are shifted exactly;
    negative powers of shifted variables are units there and only saturate
    the support upward, which never changes the attached max-plus function.
    With no shifted coordinate (z is the origin) this is the support of phi.
    """
    J, R, K = frame
    if not R:
        return phi.support()
    chart = model.chart
    groups: Dict[Tuple[int, ...], Dict[Tuple[int, ...], Scalar]] = {}
    for e, c in phi.terms.items():
        key = tuple(e[j] for j in J + K)
        rpart = tuple(e[j] for j in R)
        g = groups.setdefault(key, {})
        g[rpart] = g.get(rpart, model.field.zero()) + c
    out = set()
    for key, rterms in groups.items():
        shifted = _recenter_support(rterms, [chart.vars[j] for j in R],
                                    [z[chart.vars[j]] for j in R], model.field)
        for s in shifted:
            e = [0] * chart.n
            for pos, j in enumerate(J + K):
                e[j] = key[pos]
            for pos, j in enumerate(R):
                e[j] = s[pos]
            out.add(tuple(e))
    return tuple(sorted(out))


def _recenter_support(rterms, names, values, field):
    """Support of (sum of R-monomials) shifted by the point values.

    Poles are pulled out as a single monomial whose shift is a unit; the
    polynomial part is shifted exactly.  Its binomial expansions write
    prod_j (e_j + 1) terms for each exponent e; past MAX_RECENTRED_TERMS
    (``_field_bound``) the recentring is refused with ExpansionBudgetError
    before any is written.
    """
    if not names:
        return {()} if any(not c.is_zero for c in rterms.values()) else set()
    poly = LaurentPolynomial(tuple(names), dict(rterms), field)
    if poly.is_zero:
        return set()
    pullout = pole_orders(poly, range(len(names)))
    shifted = poly * LaurentPolynomial.monomial(tuple(names), pullout, 1, field)
    written = sum(prod(a + 1 for a in e) for e in shifted.terms)
    bound = _field_bound(MAX_RECENTRED_TERMS, [*rterms.values(), *values])
    if written > bound:
        point = ",".join(f"{y}={v}" for y, v in zip(names, values))
        raise ExpansionBudgetError(f"recentring at {point} would write {written} terms, "
                                   f"more than {bound}")
    for j, v in enumerate(values):
        shifted = shifted.shift_variable(j, v)
    return set(shifted.terms.keys())


def _field_bound(bound, scalars):
    """A work bound calibrated over Q, for arithmetic on ``scalars``: divided
    by d^2 when one lies outside Q, in a field of degree d, since a product
    there costs d^2 rational products.  Over Q(sqrt 2) span 40 of the locus
    takes 0.3 s and 1,250 recentred terms 0.1 s (span 80 took 2.8 s, and
    5,000 terms at y = 3/7 + sqrt 2 2.1 s)."""
    return bound // max((c.field.degree for c in scalars if not c.is_rational_value()),
                        default=1) ** 2


class CleanCertificate(Record):
    clean: bool
    numerically_clean: Optional[bool]  # None when its check is refused
    sharp_linear: Tuple[bool, ...]
    theta_reductions: Tuple[Tuple[int, Tuple[str, ...]], ...]
    reason: str
    numerical_refusal: Optional[str] = None  # the RayBudgetError message


def clean_at_point(model: GoodModel, z: Mapping[str, object]):
    """Cleanness and numerical cleanness at z.

    Each summand's radius function is built once on the local coordinates
    J + R + K, divisors through z first.  Cleanness asks for linearity of the
    sorted functions restricted to J, plus nonvanishing reduced theta;
    numerical cleanness asks for their linearity on the whole local octant.
    When only the second check is past the ray budget, the cleanness verdict
    stands and numerical cleanness is None, with the refusal message.
    The forms are the integer cover exponents -e_j, not the radii -e_j / h_j
    of the Kummer degrees h_j: dividing coordinate j by h_j is a positive
    diagonal change of coordinates of the octant, which keeps every
    linearity verdict.  Returns (clean, CleanCertificate).
    """
    pt = _normalize_point(model, z)
    frame = _local_frame(model, pt)
    J, R, K = frame
    coords = J + R + K
    forms = [[tuple(-e[j] for j in coords)
              for e in local_support(s.phi, model, pt, frame)] for s in model.summands]

    def profile(n):
        """The radius functions on the first n local coordinates."""
        return [([f[:n] for f in fs], s.rank) for fs, s in zip(forms, model.summands)]

    ok, verdicts = sorted_profile_linear(profile(len(J)), len(J))
    refusal = None
    try:
        numerically = ok if not R and not K else \
            sorted_profile_linear(profile(len(coords)), len(coords))[0]
    except RayBudgetError as exc:
        numerically, refusal = None, str(exc)
    thetas = []
    theta_ok = True
    for idx, (pole, gradient) in enumerate(zip(model.poles, model.log_gradients())):
        if not any(pole[j] for j in J):
            continue  # no pole through z: nothing to reduce
        # the twisted differential along J; its entries are power series in
        # the coordinates J + K, so at the origin each value is a constant term
        along = [p if j in J else 0 for j, p in enumerate(pole)]
        vals = [t.evaluate(pt) for t in twist(gradient, along, J)] if R else \
            twist_at_origin(gradient, along, J)
        thetas.append((idx, tuple(str(v) for v in vals)))
        theta_ok = theta_ok and any(not v.is_zero for v in vals)
    clean = ok and theta_ok
    if clean:
        reason = "sharp radius functions linear; reduced twisted differentials nonzero"
    elif not ok:
        reason = "a sorted sharp radius function is not linear at the point"
    else:
        reason = "a reduced twisted differential vanishes at the point"
    return clean, CleanCertificate(clean, numerically, verdicts, tuple(thetas), reason,
                                   refusal)


# -- non-clean locus ------------------------------------------------------------


class DivisorLocus(Record):
    divisor: str
    generators: Tuple[Tuple[LaurentPolynomial, ...], ...]  # theta entries on the divisor
    points: Tuple[str, ...]


class NonCleanLocus(Record):
    per_divisor: Tuple[DivisorLocus, ...]
    bad_strata: Tuple[str, ...]

    @property
    def is_empty(self):
        return all(not d.points for d in self.per_divisor) and not self.bad_strata


def certified_clean(model: GoodModel) -> Tuple[bool, Optional[str]]:
    """Chart-level cleanness, certified by an empty non-clean locus, and the
    reason --require-clean prints when it is not certified (a False verdict)."""
    try:
        locus = nonclean_locus(model)
    except UndecidedError as exc:
        return False, str(exc)
    return (True, None) if locus.is_empty else (False, "model is not clean on the chart")


def nonclean_locus(model: GoodModel) -> NonCleanLocus:
    """Vanishing loci of reduced theta vectors plus failing crossing strata.

    Charts of more than 2 coordinates are refused with UndecidedError.  The
    locus on each divisor D_j is the common zero set of each summand's theta
    entries on it, twisted by x_j^pole[j] alone and restricted to D_j
    (``laurent.twist`` on j), named by their gcd.
    A theta vector never vanishes along a whole divisor, since its x_j entry
    is nonzero.
    The crossing point of two log divisors is checked as a stratum of its
    own.  The origin of a curve chart is always clean, so it is not checked:
    a one-variable profile is linear, and theta there is -pole times the
    leading coefficient.
    """
    chart = model.chart
    if chart.n > 2:
        raise UndecidedError("cleanness is not certified on charts with more than 2 "
                             "coordinates")
    log = chart.log_indices
    per = []
    for j, name in zip(log, chart.log_vars):
        gens = []
        for pole, gradient in zip(model.poles, model.log_gradients()):
            if pole[j]:
                along = [0] * chart.n
                along[j] = pole[j]
                gens.append(twist(gradient, along, log, on=j))
        points = set()
        if chart.n == 2:
            for entries in gens:
                points.update(_common_zeros_on_divisor(entries, 1 - j, chart))
        per.append(DivisorLocus(name, tuple(gens), tuple(sorted(points))))
    bad = ()
    if chart.n == chart.m == 2 and not clean_at_point(model, {v: 0 for v in chart.vars})[0]:
        bad = ("origin",)
    return NonCleanLocus(tuple(per), bad)


def _common_zeros_on_divisor(entries, other, chart):
    """The common zeros of a summand's theta entries on D_j, as labels.

    The entries are univariate Laurent polynomials in the other coordinate
    y; their poles are cleared, and when y is a log variable its whole power
    is divided out, since the crossing point is a stratum of its own.  Their
    gcd g, folded by Euclid, gives no label when constant, y=r when it is
    y - r up to a unit, and otherwise names the zeros itself (monic g = 0).
    An entry whose coefficient list would span more than MAX_LOCUS_DEGREE
    (``_field_bound``) is refused with ExpansionBudgetError before it is built.
    """
    log = other in chart.log_indices
    bound = _field_bound(MAX_LOCUS_DEGREE, (c for en in entries for c in en.terms.values()))
    g = []
    for en in entries:
        if en.is_zero:
            continue
        low = en.min_exponent(other) if log else 0
        span = en.max_exponent(other) - low
        if span > bound:
            raise ExpansionBudgetError(f"a theta entry on the divisor has degree span {span} "
                                       f"in {chart.vars[other]}, more than {bound}")
        coeffs = [0] * (span + 1)
        for e, c in en.terms.items():
            coeffs[e[other] - low] = c.rational_value() if c.is_rational_value() else c
        while g and coeffs:
            # Euclid on monic divisors, which keeps the remainders' scalar
            # factors from compounding (von zur Gathen-Gerhard, ch. 3)
            monic = [c / coeffs[-1] for c in coeffs]
            g, coeffs = monic, _poly_divmod(g, monic)[1]
        g = g or coeffs
        if len(g) == 1:
            return ()
    y = chart.vars[other]
    if len(g) == 2:
        return (f"{y}={-g[0] / g[1]}",)
    return (f"{LaurentPolynomial((y,), {(i,): c / g[-1] for i, c in enumerate(g)})}=0",)


# -- conjectural cycle ----------------------------------------------------------


def zcar_prime(model: GoodModel) -> LogCycle:
    """Zero section plus irregularity-weighted refined-direction lines.

    Fractional pole orders must clear against the summand rank; the
    orbit-normalized multiplicity rank * b_j is asserted integral.  The
    direction over D_j is theta, twisted by the whole pole vector, restricted
    to D_j (``laurent.twist`` on j).
    """
    chart = model.chart
    log = chart.log_indices
    parts = [(ZeroSection(), model.rank)]
    for s, pole, row, gradient in zip(model.summands, model.poles, model.base_poles,
                                      model.log_gradients()):
        if not any(pole):
            continue  # regular summand: zero-section contribution only
        for b, j, name in zip(row, log, chart.log_vars):
            if b == 0:
                continue
            entries = twist(gradient, pole, log, on=j)
            parts.append((DivisorLine(name, Direction(entries), row),
                          line_multiplicity(s.rank, b, name)))
    return LogCycle(chart.stamp(), parts)
