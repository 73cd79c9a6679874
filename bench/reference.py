"""Reference answers computed by the benchmark itself, without logchar.

These are small, direct transcriptions of the definitions, written apart
from the engine so that the checker does not compare the engine with
itself:

* pole rows and line multiplicities from exponent supports;
* linearity of sorted radius profiles on a 2-coordinate octant, by
  evaluating every order statistic at every breakpoint of the segment
  r = (s, 1 - s) (a homogeneous function is linear iff it is affine there);
* the surface Euler characteristic from irregularity rows;
* Newton polygons of d/dt operators, through the log gauge written with
  falling factorials t^k d^k = D (D - 1) ... (D - k + 1), D = t d/dt;
* companion matrices and constant gauge conjugation for cyclic vectors.
"""

from __future__ import annotations

import itertools
from fractions import Fraction


def _frac(x):
    return Fraction(str(x)) if not isinstance(x, (int, Fraction)) else Fraction(x)


# -- models -------------------------------------------------------------------


def pole_row(vars, log_vars, exps):
    """Pole order of a summand along each log divisor."""
    row = []
    for name in log_vars:
        j = vars.index(name)
        row.append(max(Fraction(0), -min(_frac(e[j]) for e in exps)))
    return tuple(row)


def line_totals(log_vars, rows):
    """Total divisor-line multiplicity per log divisor: sum of rank * b_j."""
    out = {}
    for j, name in enumerate(log_vars):
        total = sum(rank * row[j] for rank, row in rows)
        if total:
            out[name] = int(total)
    return out


def _forms(exps):
    """Radius forms of one summand in (x, y): -e for every term, plus zero."""
    forms = {(Fraction(0), Fraction(0))}
    for e in exps:
        forms.add((-_frac(e[0]), -_frac(e[1])))
    return sorted(forms)


def _dominating(forms):
    for f in forms:
        if all(f[0] >= g[0] and f[1] >= g[1] for g in forms):
            return f
    return None


def fast_path(summands):
    """Every constituent linear and their dominating forms totally ordered."""
    doms = [_dominating(_forms(exps)) for exps, _ in summands]
    if any(d is None for d in doms):
        return False
    return all((a[0] >= b[0] and a[1] >= b[1]) or (b[0] >= a[0] and b[1] >= a[1])
               for a, b in itertools.combinations(doms, 2))


def profile_linear_2d(summands):
    """Are all order statistics of the sorted radius profile linear?"""
    constituents = [_forms(exps) for exps, _ in summands]
    ranks = [rank for _, rank in summands]
    every = sorted({f for forms in constituents for f in forms})
    points = {Fraction(0), Fraction(1)}
    for f, g in itertools.combinations(every, 2):
        # (f - g) . (s, 1 - s) = 0  <=>  s (dx - dy) = -dy
        dx, dy = f[0] - g[0], f[1] - g[1]
        if dx != dy:
            s = -dy / (dx - dy)
            if 0 < s < 1:
                points.add(s)

    def stats(s):
        vals = []
        for forms, rank in zip(constituents, ranks):
            v = max(f[0] * s + f[1] * (1 - s) for f in forms)
            vals += [v] * rank
        return sorted(vals, reverse=True)

    at0, at1 = stats(Fraction(0)), stats(Fraction(1))
    for s in points:
        for i, v in enumerate(stats(s)):
            if v != at0[i] + (at1[i] - at0[i]) * s:
                return False
    return True


def clean_at_origin(vars, log_vars, summands):
    """(clean, numerically clean) at the origin of a chart whose summands
    involve only the two log coordinates.

    Both verdicts need the linear profile; cleanness also needs each polar
    summand to have a term with both pole orders, since the reduced twisted
    differential at the origin is that term's coefficient times the poles.
    """
    assert tuple(log_vars) == ("x", "y") and tuple(vars[:2]) == ("x", "y")
    linear = profile_linear_2d(summands)
    theta_ok = True
    for exps, _ in summands:
        p = [-min(_frac(e[j]) for e in exps) for j in (0, 1)]
        if max(p) <= 0:
            continue
        if not any(_frac(e[0]) == -p[0] and _frac(e[1]) == -p[1] for e in exps):
            theta_ok = False
    return linear and theta_ok, linear


def chi_surface(rows, geometry):
    """sum over rows of rank * (chi(U) - sum b_j chi(D_j^o) + b.D.b)."""
    chis = [c["chi_open"] for c in geometry["components"]]
    inter = geometry["intersections"]
    total = Fraction(0)
    for rank, row in rows:
        val = Fraction(geometry["chi_U"])
        val -= sum(b * c for b, c in zip(row, chis))
        val += sum(row[i] * row[j] * inter[i][j]
                   for i in range(len(row)) for j in range(len(row)))
        total += rank * val
    if total.denominator != 1:
        raise ValueError(f"non-integral reference chi {total}")
    return int(total)


# -- operators ----------------------------------------------------------------


def _falling(k):
    """Coefficients of D (D - 1) ... (D - k + 1), ascending in D."""
    poly = [1]
    for m in range(k):
        nxt = [0] * (len(poly) + 1)
        for i, c in enumerate(poly):
            nxt[i + 1] += c
            nxt[i] -= m * c
        poly = nxt
    return poly


def log_gauge_valuations(coeffs, precs=None):
    """Valuation of each coefficient of t^d L in powers of D = t d/dt.

    ``coeffs`` are {exponent: Fraction} maps of c_1 .. c_d of the monic
    d/dt operator; ``precs`` gives their truncation bounds (None = exact).
    Returns a list indexed by i = 1 .. d (the coefficient of D^(d-i)) of
    the valuation, or None for an exact zero.
    """
    d = len(coeffs)
    precs = precs or [None] * d
    acc = [dict() for _ in range(d + 1)]
    bound = [None] * (d + 1)
    for i in range(d + 1):
        c = {0: Fraction(1)} if i == 0 else coeffs[i - 1]
        prec = None if i == 0 else precs[i - 1]
        k = d - i
        for j, s in enumerate(_falling(k)):
            if not s:
                continue
            if prec is not None:
                bound[j] = prec + i if bound[j] is None else min(bound[j], prec + i)
            for e, v in c.items():
                acc[j][e + i] = acc[j].get(e + i, Fraction(0)) + v * s
    out = []
    for i in range(1, d + 1):
        j = d - i
        nonzero = [e for e, v in acc[j].items() if v != 0
                   and (bound[j] is None or e < bound[j])]
        if nonzero:
            out.append(min(nonzero))
        elif bound[j] is None:
            out.append(None)
        else:
            raise ValueError(f"coefficient {i} is zero only up to O(t^{bound[j]})")
    return out


def polygon_from_valuations(vals):
    d = len(vals)
    pts = [(0, Fraction(0))] + [(i, Fraction(v)) for i, v in enumerate(vals, 1)
                                if v is not None]
    hull = []
    for p in sorted(pts):
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x1) >= (p[1] - y1) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    irr = {}
    for (i0, v0), (i1, v1) in zip(hull, hull[1:]):
        slope = (v1 - v0) / (i1 - i0)
        val = max(Fraction(0), -slope)
        irr[val] = irr.get(val, 0) + (i1 - i0)
    if d - hull[-1][0]:
        irr[Fraction(0)] = irr.get(Fraction(0), 0) + d - hull[-1][0]
    irregularities = sorted(irr.items(), reverse=True)
    total = sum(v * m for v, m in irregularities)
    return {"vertices": [[i, str(v)] for i, v in hull],
            "irregularities": [[str(v), m] for v, m in irregularities],
            "total": str(total)}


def operator_coeffs(doc):
    """{exponent: Fraction} maps of c_1 .. c_d of an operator document."""
    out = []
    for spec in doc["coeffs"]:
        terms = {}
        for e, c in spec:
            terms[e] = terms.get(e, Fraction(0)) + Fraction(c)
        out.append({e: c for e, c in terms.items() if c})
    return out


def newton_polygon(doc):
    if doc.get("gauge", "d/dt") != "d/dt":
        raise ValueError("the reference polygon handles the d/dt gauge only")
    return polygon_from_valuations(log_gauge_valuations(operator_coeffs(doc)))


def companion(coeffs):
    """Matrix of v -> v' + A v for which v is cyclic with annihilator L."""
    d = len(coeffs)
    A = [[{} for _ in range(d)] for _ in range(d)]
    for j in range(d - 1):
        A[j + 1][j] = {0: Fraction(1)}
    for i, c in enumerate(operator_coeffs({"coeffs": coeffs}), start=1):
        A[d - i][d - 1] = {e: -v for e, v in c.items()}
    return A


def unimodular(rng, d):
    """A constant integer matrix with integer inverse: (P, P^-1)."""
    P = [[int(i == j) for j in range(d)] for i in range(d)]
    Pinv = [row[:] for row in P]
    for _ in range(2 * d):
        i, j = rng.sample(range(d), 2)
        k = rng.choice((-2, -1, 1, 2))
        # P <- P E with E = I + k e_ij (column op); P^-1 <- E^-1 P^-1 (row op)
        for r in range(d):
            P[r][j] += k * P[r][i]
        for c in range(d):
            Pinv[i][c] -= k * Pinv[j][c]
    return P, Pinv


def conjugate(A, gauge):
    """P^-1 A P for constant P: the same connection on another basis."""
    P, Pinv = gauge
    d = len(A)

    def mul(X, Y, x_const, y_const):
        out = [[{} for _ in range(d)] for _ in range(d)]
        for i in range(d):
            for j in range(d):
                acc = {}
                for k in range(d):
                    if x_const:
                        a, b = X[i][k], Y[k][j]
                        if a:
                            for e, v in b.items():
                                acc[e] = acc.get(e, Fraction(0)) + a * v
                    else:
                        a, b = X[i][k], Y[k][j]
                        if b:
                            for e, v in a.items():
                                acc[e] = acc.get(e, Fraction(0)) + v * b
                out[i][j] = {e: v for e, v in acc.items() if v}
        return out

    return mul(Pinv, mul(A, P, False, True), True, False)
