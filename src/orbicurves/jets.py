"""The jet kernel: branch normal forms and Laurent determinants, for the
germ invariants that the leading terms do not fix.

germ decides delta and the local intersection number from the orders
and leading coefficients of U and V wherever those fix them, and imports
this module only for the germs that remain: a branch whose orders share
a factor, and pairs whose Newton edges agree.  Both invariants here read
one normal form per branch, (s^n, W(s)) in linear coordinates: delta
from W's characteristic exponents, the local intersection number from
W's local equation (Halphen's formula).  W is built only as deep as each
needs, and every answer that the stored jets do not pin down raises
PrecisionExhausted.
"""

from __future__ import annotations

import math

from .errors import PrecisionExhausted
from .germ import _ONE_EXACT, DEFAULT_TRUNCATION, CurveGerm, PowerSeries, _series, _tmin

_SHORT_JET = "truncation too small to renormalize the first coordinate"


def _series_det(matrix: list[list[PowerSeries]]) -> PowerSeries:
    """Determinant of a matrix of truncated series by elimination over
    formal Laurent series, pivoting on minimal valuation.  Truncation
    bookkeeping rides along every division, so the result's truncation
    honestly bounds what the input data determines."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    pivots: list[PowerSeries] = []
    for k in range(n):
        best, best_ord = None, None
        for i in range(k, n):
            entry = m[i][k]
            if entry.is_zero_to_precision():
                continue
            o = entry.order()
            if best_ord is None or o < best_ord:
                best, best_ord = i, o
        if best is None:
            # column vanished to precision: det is zero below the weakest
            # remaining truncation, scaled through the pivots found so far
            t = _tmin(*(m[i][k].trunc for i in range(k, n)))
            acc = PowerSeries.zero(t if t is not None else DEFAULT_TRUNCATION)
            for p in pivots:
                acc = acc * p
            return acc
        if best != k:
            m[k], m[best] = m[best], m[k]
            sign = -sign
        pivot = m[k][k]
        pivots.append(pivot)
        # divide memoises the pivot's inverse: one inversion per column
        for i in range(k + 1, n):
            if m[i][k].is_zero_to_precision():
                continue
            factor = m[i][k].divide(pivot)
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
    det = pivots[0] if sign > 0 else -pivots[0]
    for p in pivots[1:]:
        det = det * p
    return det


def _swaps_coordinates(u: PowerSeries, v: PowerSeries) -> bool:
    """Whether the normal form puts z2 first: z1 is zero to precision or of higher order."""
    return u.is_zero_to_precision() or (not v.is_zero_to_precision() and v.order() < u.order())


def _inverse_lead(u: PowerSeries, n: int) -> tuple[int, int, int]:
    """1/lead as (re, im, d), meaning (re + im*i)/d, for lead the z^n coefficient of u."""
    lr, li = u.num[n]  # lead = (lr + li*i) / u.den, and 1/lead = u.den * conj / norm
    return u.den * lr, -u.den * li, lr * lr + li * li


def intersection_number(u1: PowerSeries, v1: PowerSeries,
                        u2: PowerSeries, v2: PowerSeries) -> int:
    """Local intersection number of the branches (u1, v1) and (u2, v2)
    by Halphen's formula (Casas-Alvero, Singularities of Plane Curves,
    2000; Wall, Singular Points of Plane Curves, 2004).  In its normal
    form (s^n, W(s)), after the coordinate swap of characteristic_exponents
    and z1 -> z1/lead, the second branch has the local equation
    F(X, Y) = det(Y*I - W(C)), C the companion matrix of s^n - X, and the
    count is the t-order of F(U1(t)/lead, V1(t)).  Every root of s^n = X
    tends to 0, so a second pass of a curve through the origin is not
    counted.  W is deepened until the determinant is nonzero to
    precision.

    A branch with one coordinate stored below order 1 has an empty jet
    there; whichever branch it is, the call raises the same
    PrecisionExhausted.
    """
    if _swaps_coordinates(u2, v2):
        u1, v1, u2, v2 = v1, u1, v2, u2
    if 1 in (u1.trunc, v1.trunc):
        raise PrecisionExhausted(_SHORT_JET)
    n = u2.order()
    x = u1._scaled(*_inverse_lead(u2, n))
    for w in _normal_forms(u2, v2, n):
        det = _series_det(_local_equation_matrix(x, v1, w, n))
        if not det.is_zero_to_precision():
            return det.order()
    raise PrecisionExhausted(
        "resultant vanishes to the available truncation; check that the "
        "branches are distinct"
    )


def _local_equation_matrix(x: PowerSeries, y: PowerSeries, w: PowerSeries, n: int) -> list:
    """y*I - W(C) at (x, y), C the companion matrix of s^n - x.

    The term w_k s^k of W sends s^j to w_k x^q s^i for k + j = q*n + i,
    so x^q is formed only for the q that W's terms reach.  A term at or
    past W's truncation T would enter entry (i, j) at a power
    q >= ceil((T + j - i)/n) of x: the entry is known only below that q
    times the order of x.
    """
    if w.trunc < n:
        raise PrecisionExhausted("normal form is known only below the multiplicity")
    powers = [_ONE_EXACT]
    rows = [[y if i == j else PowerSeries.zero(None) for j in range(n)] for i in range(n)]
    for k, (r, im) in w.num.items():
        for j in range(n):
            q, i = divmod(k + j, n)
            while len(powers) <= q:
                powers.append(powers[-1] * x)
            rows[i][j] = rows[i][j] - powers[q]._scaled(r, im, w.den)
    floor = x._value_floor()
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            cut = (w.trunc + j - i + n - 1) // n * floor
            row[j] = entry.with_truncation(_tmin(entry.trunc, cut))
    return rows


def _normalized_second_coordinate(u: PowerSeries, v: PowerSeries, n: int,
                                  depth: int) -> PowerSeries:
    """Rewrite the branch so the first coordinate is exactly t^n and
    return the second coordinate in the new parameter, known below
    min(depth, what the data determines).

    The rescaling z1 -> z1/lead is a linear change of coordinates on
    C^2, so it leaves the characteristic exponents and delta unchanged
    and no n-th root of lead is needed.
    Uses eta(t) = t * unit^(1/n) with eta^n = U/lead, then solves
    V = W(eta) for W by a triangular pass; no series reversion needed.
    When U is the single term lead*t^n, eta = t and W is V.  The unit is
    cut to the depth before its root is taken, so the work follows the
    depth asked for, not the stored truncation.

    W is known below _reach(u, v, n, depth): the unit U/(lead t^n) is
    known below r = u.trunc - n, so eta carries a relative error O(t^r)
    and W(eta) moves by O(t^(ord W + r)).
    """
    r = u.trunc - n
    bound = _reach(u, v, n, depth)
    if bound < 2:  # depth is at least 2: the data fall short
        raise PrecisionExhausted(_SHORT_JET)
    if len(u.num) == 1:
        return v.with_truncation(bound)
    unit = u.shift(-n)._scaled(*_inverse_lead(u, n)).with_truncation(min(r, depth))  # constant term 1
    eta = unit.nth_root_of_unit_series(n).shift(1)
    eta_pows: list[PowerSeries] = [_ONE_EXACT.with_truncation(bound)]
    for _ in range(bound - 1):
        eta_pows.append(eta_pows[-1] * eta)
    residual = v.with_truncation(bound)
    w = PowerSeries.zero(bound)
    for k in range(1, bound):
        c = residual.num.get(k)
        if c is None:
            continue
        # eta^k = t^k + O(t^(k+1)), so c / residual.den is W's k-th coefficient
        w = w + _series({k: c}, residual.den, None)
        residual = residual - eta_pows[k]._scaled(*c, residual.den)
    return w


def _reach(u: PowerSeries, v: PowerSeries, n: int, depth=None) -> int:
    """How deep the data determine W, cut to depth: min(v.trunc, depth,
    ord W + u.trunc - n), where ord W = ord V, since eta has order 1; a V
    zero to precision gives v.trunc."""
    return _tmin(v.trunc, depth, v._value_floor() + u.trunc - n)


def _normal_forms(u: PowerSeries, v: PowerSeries, n: int):
    """W at depths 2n, 4n, 8n, ... up to what the data determine, at most
    v.trunc; each consumer stops at the first W that settles its answer."""
    depth, reach = 2 * n, _reach(u, v, n)
    while depth < reach:
        yield _normalized_second_coordinate(u, v, n, depth)
        depth *= 2
    yield _normalized_second_coordinate(u, v, n, depth)


def characteristic_exponents(germ: CurveGerm) -> tuple[int, list[int]]:
    """Characteristic data (beta0; beta1..betag) of an irreducible
    branch, read from the support of the second coordinate after the
    first is normalized to a pure monomial, deepened until the gcd is 1."""
    u, v = (germ.V, germ.U) if _swaps_coordinates(germ.U, germ.V) else (germ.U, germ.V)
    n = u.order()
    if n == 1:
        return 1, []
    if v.is_zero_to_precision():  # germ series are never exact, so never a certain cover
        raise PrecisionExhausted(
            "second coordinate vanishes to precision; data cannot separate "
            "a high-contact branch from a multiple cover"
        )
    for w in _normal_forms(u, v, n):
        e, betas = n, []
        for k in w.support():
            if k % e:
                betas.append(k)
                e = math.gcd(e, k)
                if e == 1:
                    return n, betas
    raise PrecisionExhausted(
        "characteristic exponents do not resolve below the truncation"
    )


def _delta_from_characteristic(beta0: int, betas: list[int]) -> int:
    e_prev = beta0
    mu = 1 - beta0
    for beta in betas:
        e_next = math.gcd(e_prev, beta)
        mu += (e_prev - e_next) * beta
        e_prev = e_next
    if mu % 2 != 0:
        raise ArithmeticError("branch Milnor number must be even")
    return mu // 2
