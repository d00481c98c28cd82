"""Adjunction configs of rational curves in the weighted projective
plane P(1,1,c), built from the global map alone.

The curve is the image of [s:t] -> (st : t(s+t) : f2(s, t)), with f2 a
form of degree 2c and f2(1, 0) = 1.  Since x/y = s/(s+t) is injective,
the map is an embedding except at [1:0], which goes to the Z_c point
(0:0:1).  There the chart is C^2/Z_c of type (c, 1), with coordinates
(x, y) * z^(-1/c), so the branch is the germ (t*u, t(1+t)*u) with
u = f2(1, t)^(-1/c).  u is computed here as a binomial series in
Fractions; nothing of the package builds the data.

With H the class of {x = 0}: H.H = 1/c and c1.H = (2+c)/c, and the
curve is 2c*H (it meets H twice).  So its virtual genus is
(4c - 2(2+c))/2 + 1 = c - 1, over a genus-0 domain with no cone points.
Every branch of the germ's Z_c orbit is smooth and tangent to the
diagonal, and two of them meet twice, so the one point term is
(1/2c) * c(c-1) * 2 = c - 1 as well: the report holds with
lhs = rhs = c - 1.  Those translates need the c-th roots of unity, which
lie in Q(i) only for c = 1, 2 and 4.
"""

from __future__ import annotations

import random
from fractions import Fraction

TRUNC = 8
POINT = "apex"


def random_form(c: int, seed: int) -> list[Fraction]:
    """Coefficients a_0..a_2c of f2(1, t) = sum a_k t^k, so that
    f2(s, t) = sum a_k s^(2c-k) t^k, with a_0 = 1 and the others small
    rationals drawn with the seed."""
    rng = random.Random(seed)
    return [Fraction(1)] + [
        Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(2 * c)
    ]


def _mul(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    """The product of two coefficient lists, below t^TRUNC."""
    out = [Fraction(0)] * TRUNC
    for i, x in enumerate(a[:TRUNC]):
        for j, y in enumerate(b[: TRUNC - i]):
            out[i + j] += x * y
    return out


def root_series(form: list[Fraction], c: int) -> list[Fraction]:
    """u = f2(1, t)^(-1/c) below t^TRUNC, as sum_k binom(-1/c, k) h^k
    with h = f2(1, t) - 1."""
    h = [Fraction(0)] + form[1:TRUNC] + [Fraction(0)] * (TRUNC - len(form))
    alpha = Fraction(-1, c)
    out = [Fraction(1)] + [Fraction(0)] * (TRUNC - 1)
    power, binom = list(out), Fraction(1)
    for k in range(1, TRUNC):
        binom *= (alpha - k + 1) / k
        power = _mul(power, h)
        out = [x + binom * y for x, y in zip(out, power)]
    return out


def _terms(coeffs: list[Fraction]) -> list:
    """The JSON terms [e, {"re": "a/b"}] of the nonzero coefficients below t^TRUNC."""
    return [[e, {"re": str(x)}] for e, x in enumerate(coeffs[:TRUNC]) if x]


def p11c_config(c: int, seed: int) -> dict:
    """The adjunction config of the curve of random_form(c, seed) in
    P(1,1,c): one station at the Z_c point, holding the germ
    (t*u, t(1+t)*u) at truncation TRUNC."""
    u = root_series(random_form(c, seed), c)
    tu = [Fraction(0)] + u
    t1tu = [Fraction(0)] + [x + y for x, y in zip(u, [Fraction(0)] + u)]
    return {
        "schema": 1,
        "ambient": {
            "h2_rank": 1,
            "pairing": [[str(Fraction(1, c))]],
            "c1_vector": [str(Fraction(2 + c, c))],
            "singular_points": [[POINT, [c, 1]]],
        },
        "domain": {"m_sigma": 1, "genus": 0, "orders": []},
        "class": {"coords": [str(2 * c)], "multiplicity": 1},
        "stations": [
            {
                "ambient_point": POINT,
                "isotropy_order": c,
                "points": [
                    {
                        "label": "t=0",
                        "germ": {
                            "U": {"trunc": TRUNC, "terms": _terms(tu)},
                            "V": {"trunc": TRUNC, "terms": _terms(t1tu)},
                            "group": [c, 1],
                            "m": 1,
                        },
                    }
                ],
            }
        ],
    }
