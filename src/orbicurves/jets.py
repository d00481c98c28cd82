"""The jet kernel: blow-ups, for the germ invariants that the leading
terms do not fix.

germ decides delta and the local intersection number from the orders
and leading coefficients of U and V wherever those fix them, and imports
this module only for the germs that remain: a branch whose orders share
a factor, and pairs whose Newton edges agree.  Both invariants are sums
over infinitely near points by Noether's formulas (Casas-Alvero,
Singularities of Plane Curves, 2000, ch. 3): I = sum m1*m2 over the
points two branches share, and delta = sum m(m-1)/2 over the points of
one branch.  So each loop blows up the origin, adds the point's term and
passes to the strict transforms, until the leading-term rules of germ
decide what is left.  A tangent that the stored jets do not fix raises
PrecisionExhausted, and so, in the end, does a pair that the stored
jets do not separate: every blow-up spends truncation.
"""

from __future__ import annotations

import math

from .errors import PrecisionExhausted
from .germ import PowerSeries, _edge_coefficient, _leading_count, _leading_delta, _series, _times

_UNFIXED_PAIR = ("the stored jets do not fix the intersection number; "
                 "check that the branches are distinct")
_UNFIXED_DELTA = "the stored jets do not fix the delta invariant of the branch"


def _tangent(u: PowerSeries, v: PowerSeries) -> tuple | None:
    """The tangent of the branch (u, v) as a point (re, im, d) of P^1:
    the slope c = V_lead/U_lead = (re + im*i)/d for d > 0, reduced, so
    (0, 0, 1) is the z1 axis; (1, 0, 0) is the z2 axis.  None when the
    stored jets do not fix it.  An order is exact where a term is stored;
    a series zero to precision bounds it below by its truncation."""
    a, b = u._value_floor(), v._value_floor()
    if u.num and a < b:
        return 0, 0, 1
    if v.num and b < a:
        return 1, 0, 0
    if not (u.num and v.num):
        return None
    num, (dr, di) = _edge_coefficient(u, v, 1, 1)  # c = num / (dr + di*i)
    re, im = _times(num, (dr, -di))
    d = dr * dr + di * di
    g = math.gcd(re, im, d)
    return re // g, im // g, d // g


def _blow_up(u: PowerSeries, v: PowerSeries, tangent: tuple) -> tuple[PowerSeries, PowerSeries]:
    """The strict transform of (u, v) at the point of its tangent on the
    exceptional divisor: (u, v/u - c), or (u/v, v) for the z2 axis."""
    re, im, d = tangent
    if not d:
        return u.divide(v), v
    q = v.divide(u)
    return u, q - _series({0: (re, im)}, d, q.trunc)


def _multiplicity(u: PowerSeries, v: PowerSeries) -> int:
    """Multiplicity of the branch at a point whose tangent is fixed,
    where the smaller order is exact."""
    return min(u._value_floor(), v._value_floor())


def intersection_number(u1: PowerSeries, v1: PowerSeries,
                        u2: PowerSeries, v2: PowerSeries) -> int:
    """Local intersection number of the branches (u1, v1) and (u2, v2):
    m1*m2 at every point they share, until the leading terms fix the
    count at the point the blow-ups reach."""
    total = 0
    while (count := _leading_count(u1, v1, u2, v2)) is None:
        tangent = _tangent(u1, v1)
        if tangent is None or tangent != _tangent(u2, v2):
            raise PrecisionExhausted(_UNFIXED_PAIR)
        total += _multiplicity(u1, v1) * _multiplicity(u2, v2)
        u1, v1 = _blow_up(u1, v1, tangent)
        u2, v2 = _blow_up(u2, v2, tangent)
    return total + count


def delta(u: PowerSeries, v: PowerSeries) -> int:
    """delta of the branch (u, v): m(m-1)/2 at every point of it, until
    the leading terms fix the rest."""
    total = 0
    while (rest := _leading_delta(u, v)) is None:
        tangent = _tangent(u, v)
        if tangent is None:
            raise PrecisionExhausted(_UNFIXED_DELTA)
        m = _multiplicity(u, v)
        total += m * (m - 1) // 2
        u, v = _blow_up(u, v, tangent)
    return total + rest
