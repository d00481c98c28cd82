"""First Chern numbers over orbifold surfaces and the elliptic index.

Two computations live here.  chern_split evaluates c_1 of an orbifold
complex bundle as a relative (de Rham) contribution plus one rational
correction per cone point, read off from the weights of the local group
action on the fiber.  kawasaki_index evaluates the index-theorem count
d = c_1 + 2 - 2g - sum_i (m_{i,1} + m_{i,2})/m_i
for a rank-2 pullback over a parametrized orbifold sphere/surface; the
real index of the associated operator is 2d.  Integrality of d is the
obstruction driving the lens-space congruence, and
index_integrality_scan reproduces that test purely through the index:
it evaluates the first cone point's term once through kawasaki_index,
then makes each q' row's report dict straight from integer numerators
over p(p+q).
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from fractions import Fraction

from .decode import int_
from .errors import InvalidParameters, WeightOutOfRange
from .lens import _check_lens_params, mod_inverse


def _reduce_weights(m: int, weights, rank: int) -> tuple[int, ...]:
    if int_(m, "point order") < 1:
        raise InvalidParameters(f"point order must be >= 1, got {m}")
    ws = tuple(int_(w, "weight") for w in weights)
    if len(ws) != rank:
        raise WeightOutOfRange(
            f"expected {rank} weights at a point of order {m}, got {len(ws)}"
        )
    return tuple(w % m for w in ws)


class EquivariantTrivialization:
    """Bundle data over an orbifold surface: a trivialization away from
    the cone points, its relative first Chern number, and the isotropy
    weights on the fiber at each cone point.

    Weights are canonically reduced into [0, m_i) at construction.
    """

    __slots__ = ("rank", "relative_c1", "points")

    def __init__(self, rank: int, relative_c1: int, points):
        if rank < 1:
            raise InvalidParameters(f"rank must be >= 1, got {rank}")
        self.rank = rank
        self.relative_c1 = int_(relative_c1, "relative_c1")
        self.points = tuple((m, _reduce_weights(m, ws, rank)) for m, ws in points)


def chern_split(triv: EquivariantTrivialization) -> Fraction:
    """c_1 of the bundle paired with the surface: the relative part plus
    sum_i sum_j m_{i,j}/m_i over cone points."""
    total = Fraction(triv.relative_c1)
    for m, ws in triv.points:
        for w in ws:
            total += Fraction(w, m)
    return total


def kawasaki_index(c1_pair, genus: int, points) -> dict:
    """Index count for a rank-2 pullback over a parametrized surface:
    the report {"d", "index", "integral"}, where d is the rational index
    count and index = 2d is the real-operator index, meaningful when d
    is an integer.

    c1_pair: pairing of ambient c_1 with the image class (rational).
    genus: genus of the underlying domain surface.
    points: iterable of (m_i, (w1, w2)) orbifold point data; weights are
    reduced into [0, m_i).
    """
    if int_(genus, "genus") < 0:
        raise InvalidParameters(f"genus must be >= 0, got {genus}")
    if not isinstance(c1_pair, (int, Fraction)):
        c1_pair = Fraction(c1_pair)
    # d = num/den, over the lcm of c1_pair's denominator and the orders so far
    num, den = c1_pair.numerator + (2 - 2 * genus) * c1_pair.denominator, c1_pair.denominator
    for m, ws in points:
        w1, w2 = _reduce_weights(m, ws, 2)
        step = math.lcm(den, m)
        num, den = num * (step // den) - (w1 + w2) * (step // m), step
    return {"d": Fraction(num, den), "index": Fraction(2 * num, den), "integral": num % den == 0}


def index_integrality_scan(p: int, q: int) -> Iterator[dict]:
    """Run kawasaki_index over every candidate q' for the covered-curve
    limit data between the two cone points of the model, one report row
    (a dict) per unit q' mod p in increasing order.

    The domain is a sphere with points of orders p+q and p.  At the
    first point the local representative forces weights (l, 1) with
    l = p^{-1} mod p+q; at the second the two candidate local forms give
    weights (l', 1) with l' = q'^{-1} mod p (case A) or (1, q') (case B).

    The q'-independent part c_1 + 2 - (l+1)/(p+q), the first point's
    term included, is evaluated once through kawasaki_index.  Every d
    has denominator dividing p(p+q), so for each q' the second point's
    term -(w1+w2)/p is one integer subtraction on numerators over
    p(p+q); the weights l', 1 and q' already lie in [1, p).  The row is
    made from those numerators: one gcd gives each d's "a/b" text.

    (p, q) is checked and the first term evaluated at the call; the rows
    are made lazily, so a scan holds one row at a time.
    """
    _check_lens_params(p, q)
    l = mod_inverse(p, p + q)
    den = p * (p + q)
    c1_pair = Fraction(2 * p + q + 1, den)
    first = kawasaki_index(c1_pair, 0, [(p + q, (l, 1))])["d"]
    return _scan_rows(p, q, first.numerator * (den // first.denominator), den)


def _scan_rows(p: int, q: int, base: int, den: int) -> Iterator[dict]:
    for qprime in range(1, p):
        if math.gcd(qprime, p) != 1:
            continue
        num_a = base - (pow(qprime, -1, p) + 1) * (p + q)
        num_b = base - (1 + qprime) * (p + q)
        a_integral = num_a % den == 0
        b_integral = num_b % den == 0
        yield {
            "qprime": qprime,
            "caseA_d": _rational_text(num_a, den),
            "caseB_d": _rational_text(num_b, den),
            "caseA_integral": a_integral,
            "caseB_integral": b_integral,
            "allowed": a_integral or b_integral,
        }


def _rational_text(num: int, den: int) -> str:
    """The "a/b" text of Fraction(num, den) for den > 0, by one gcd."""
    g = math.gcd(num, den)
    if g == den:
        return str(num // den)
    return f"{num // g}/{den // g}"
