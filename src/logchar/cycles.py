"""Cycle algebra on the log-cotangent bundle of a chart.

Components are the zero section, lines over divisor components with a
projective direction class, and lower-dimensional pieces.  Multiplicities
are positive integers; ``line_multiplicity`` refuses a fractional rank * b_j.

Directions are compared projectively by cross-multiplication; entries may be
polynomials on a finite cover of the divisor.  Divisor lines may carry an
irregularity row (the rational divisor row they came from): it is metadata
for Euler-characteristic evaluation and is ignored by cycle equality.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from .laurent import LaurentPolynomial
from .record import Record


class CycleError(ValueError):
    pass


class IntegralityError(AssertionError):
    pass


def line_multiplicity(rank: int, b: Fraction, divisor: str) -> int:
    """rank * b, the multiplicity of a summand's line over D(divisor),
    asserted integral."""
    mult = Fraction(rank * b.numerator, b.denominator)
    if mult.denominator != 1:
        raise IntegralityError(
            f"non-integral line multiplicity {mult} over D({divisor}): "
            "rank does not clear the orbit normalization")
    return mult.numerator


class ChartStamp(Record):
    """Ambient chart marker: variable names and which ones carry the log pole."""
    vars: Tuple[str, ...]
    log_vars: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.vars)) != len(self.vars):
            raise CycleError("chart variables must be distinct")
        if not set(self.log_vars) <= set(self.vars):
            raise CycleError("log variables must be chart variables")

    @property
    def n(self):
        return len(self.vars)

    @property
    def m(self):
        return len(self.log_vars)


class Direction:
    """Projective class [theta_1 : ... : theta_n] with polynomial entries."""

    __slots__ = ("entries",)

    def __init__(self, entries: Sequence[LaurentPolynomial]):
        es = tuple(entries)
        if not es:
            raise CycleError("empty direction")
        if all(p.is_zero for p in es):
            raise CycleError("direction must not vanish identically")
        object.__setattr__(self, "entries", es)

    def __setattr__(self, *a):
        raise AttributeError("Direction is immutable")

    def __len__(self):
        return len(self.entries)

    def proportional_to(self, other: "Direction") -> bool:
        if len(self) != len(other):
            return False
        for i, j in itertools.combinations(range(len(self)), 2):
            if self.entries[i] * other.entries[j] != self.entries[j] * other.entries[i]:
                return False
        return True

    def sort_key(self):
        """Each entry's terms as (exponent, coefficient text) pairs, in the
        stored (sorted) order; when the first nonzero entry is a constant c
        other than 1, every coefficient is multiplied by 1/c first.  1/c is a
        unit, so no product vanishes and every term stays."""
        first = next(p for p in self.entries if p.terms)
        if len(first.terms) == 1:
            (origin, lead), = first.terms.items()
            if not any(origin) and lead != 1:
                inv = lead.inverse()
                return tuple([(origin, "1")] if p is first else
                             [(e, str(c * inv)) for e, c in p.terms.items()]
                             for p in self.entries)
        return tuple([(e, str(c)) for e, c in p.terms.items()] for p in self.entries)

    def __repr__(self):
        return "[" + " : ".join(str(p) for p in self.entries) + "]"


class ZeroSection(Record):
    def sort_key(self):
        return (0,)

    def describe(self, mult):
        return f"ZeroSection mult={mult}"


class DivisorLine(Record):
    divisor: str                      # log variable name
    direction: Direction
    row: Optional[Tuple[Fraction, ...]] = None  # irregularity row, chi metadata

    def sort_key(self):
        return (1, self.divisor, self.direction.sort_key())

    def describe(self, mult):
        dirs = " ".join(str(p) for p in self.direction.entries)
        return f"Line D({self.divisor}) dir=[{dirs}] mult={mult}"


class LowerDim(Record):
    support: str
    dim: int

    def sort_key(self):
        return (2, self.dim, self.support)

    def describe(self, mult):
        return f"LowerDim dim={self.dim} mult={mult}"


class LogCycle:
    """Finite sum of components with positive integer multiplicities."""

    __slots__ = ("chart", "parts")

    def __init__(self, chart: ChartStamp, parts):
        merged = []
        kept = {}  # _merge_class -> positions in merged
        for comp, mult in parts:
            if type(mult) is not int:
                raise CycleError(f"multiplicity {mult!r} is not an integer")
            if not mult:
                continue
            if mult < 0:
                raise CycleError("multiplicities must be positive")
            same = kept.setdefault(_merge_class(comp), [])
            for i in same:
                c, m = merged[i]
                if not isinstance(c, DivisorLine) or c.direction.proportional_to(comp.direction):
                    merged[i] = (c, m + mult)
                    break
            else:
                same.append(len(merged))
                merged.append((comp, mult))
        merged.sort(key=lambda cm: cm[0].sort_key())
        object.__setattr__(self, "chart", chart)
        object.__setattr__(self, "parts", tuple(merged))

    def __setattr__(self, *a):
        raise AttributeError("LogCycle is immutable")

    def zero_section_multiplicity(self) -> int:
        for c, m in self.parts:
            if isinstance(c, ZeroSection):
                return m
        return 0

    def lines(self):
        return tuple((c, m) for c, m in self.parts if isinstance(c, DivisorLine))

    def report_lines(self):
        return [c.describe(m) for c, m in self.parts]

    def __repr__(self):
        return "LogCycle(" + "; ".join(self.report_lines()) + ")"


def _merge_class(comp):
    """Components merge when their classes are equal and, for divisor lines,
    their directions are proportional."""
    if isinstance(comp, ZeroSection):
        return (ZeroSection,)
    if isinstance(comp, DivisorLine):
        return (DivisorLine, comp.divisor, comp.row)
    if isinstance(comp, LowerDim):
        return (LowerDim, comp)
    raise CycleError(f"unknown component {comp!r}")


# -- monomial log modules -----------------------------------------------------

class MonomialLogModule(Record):
    """Graded module over k[x, xi] presented by monomial relations.

    Generators carry integer filtration degrees; each relation kills a
    monomial multiple of one generator.  Exponents are (x-part, xi-part),
    each of length n (chart dimension <= 2).
    """
    chart: ChartStamp
    generator_degrees: Tuple[int, ...]
    relations: Tuple[Tuple[int, Tuple[int, ...], Tuple[int, ...]], ...]

    def __post_init__(self):
        n = self.chart.n
        if n > 2:
            raise CycleError("monomial modules implemented for chart dimension <= 2")
        if not self.generator_degrees:
            raise CycleError("module needs at least one generator")
        for gen, xexp, xiexp in self.relations:
            if not 0 <= gen < len(self.generator_degrees):
                raise CycleError("relation refers to a missing generator")
            if len(xexp) != n or len(xiexp) != n:
                raise CycleError("relation exponent arity mismatch")
            if any(a < 0 for a in xexp + xiexp):
                raise CycleError("relations must be monomial with nonnegative exponents")

    def annihilator(self, gen: int):
        return [(x, xi) for g, x, xi in self.relations if g == gen]


def _minimal_covers(supports, nvars):
    """Minimal variable sets meeting the support of every generator.

    These are exactly the minimal primes of the monomial ideal.
    """
    if any(not s for s in supports):
        return []  # a unit relation kills the generator entirely
    covers = []
    for size in range(1, nvars + 1):
        for cand in itertools.combinations(range(nvars), size):
            cset = set(cand)
            if any(set(c) <= cset for c in covers):
                continue
            if all(cset & s for s in supports):
                covers.append(cand)
    return covers


def _standard_monomial_count(gens, k):
    """The number of monomials in k variables outside the ideal of the
    exponent vectors ``gens`` (None when infinite), slicing the staircase at
    the last variable's exponents 0 = c_0 < ... < c_r: for c_i <= t < c_(i+1)
    the slice at t is the ideal of the generators with last exponent <= c_i."""
    if k == 0:
        return 0 if gens else 1
    cuts = sorted({g[-1] for g in gens} | {0})
    total = 0
    for lo, hi in zip(cuts, cuts[1:]):
        part = _standard_monomial_count({g[:-1] for g in gens if g[-1] <= lo}, k - 1)
        if part is None:
            return None
        total += (hi - lo) * part
    return total if _standard_monomial_count({g[:-1] for g in gens}, k - 1) == 0 else None


def monomial_char_cycle(M: MonomialLogModule) -> LogCycle:
    """Support components with generic-point multiplicities, per generator.

    Variables are ordered (x_1..x_n, xi_1..xi_n); components are classified
    as the zero section V(xi), divisor lines V(x_j, xi_l), or lower
    dimensional coordinate subspaces.
    """
    chart = M.chart
    n = chart.n
    parts = []
    for gen in range(len(M.generator_degrees)):
        ann = M.annihilator(gen)
        gens = [x + xi for x, xi in ann]
        total_vars = 2 * n
        if not gens:
            # free: support is the whole space; report as a LowerDim of full dim
            parts.append((LowerDim("T*X^log", 2 * n), 1))
            continue
        supports = [set(i for i, a in enumerate(g) if a) for g in gens]
        for cover in _minimal_covers(supports, total_vars):
            # localizing at the prime of the cover sets the other variables to 1
            length = _standard_monomial_count({tuple(g[i] for i in cover) for g in gens},
                                              len(cover))
            if not length:
                continue
            comp = _classify_subspace(chart, cover, n)
            parts.append((comp, length))
    return LogCycle(chart, parts)


def _classify_subspace(chart: ChartStamp, killed, n):
    """V(variables in `killed`) inside Spec k[x, xi]."""
    xs = {i for i in killed if i < n}
    xis = {i - n for i in killed if i >= n}
    dim = 2 * n - len(killed)
    if not xs and xis == set(range(n)):
        return ZeroSection()
    if len(xs) == 1 and dim == n:
        j = next(iter(xs))
        name = chart.vars[j]
        if name in chart.log_vars:
            free_xi = [i for i in range(n) if i not in xis]
            direction = [0] * n
            for i in free_xi:
                direction[i] = 1
            entries = [LaurentPolynomial.constant(chart.vars, d) for d in direction]
            return DivisorLine(name, Direction(entries))
    desc = "V(" + ",".join(
        [chart.vars[i] for i in sorted(xs)] + [f"xi_{chart.vars[i]}" for i in sorted(xis)]) + ")"
    return LowerDim(desc, dim)


def hilbert_dim(M: MonomialLogModule) -> int:
    """Growth degree of dim fil_alpha: the Krull dimension of the module.

    M is the direct sum over generators of k[x, xi] modulo the generator's
    monomial annihilator, of dimension 2n minus the smallest minimal cover of
    the relation supports; a free generator counts 2n and a unit relation
    kills its generator.
    """
    n2 = 2 * M.chart.n
    dim = 0
    for gen in range(len(M.generator_degrees)):
        supports = [{i for i, a in enumerate(x + xi) if a} for x, xi in M.annihilator(gen)]
        covers = _minimal_covers(supports, n2) if supports else [()]
        dim = max([dim] + [n2 - len(c) for c in covers])
    return dim
