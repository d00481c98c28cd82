"""Random weighted-complex generator shared by the chain tests.

Vertex orders are drawn from a small divisor-rich pool and every
simplex receives the gcd of its vertices' orders, which makes the
divisibility invariant (the order of a simplex divides the order of
each of its faces) hold by construction.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from orbicurves.chains import WeightedComplex

ORDER_POOL = (1, 1, 1, 2, 2, 3, 4, 6, 8, 12)


def random_weighted_complex(
    rng: random.Random, n_vertices: int = 10, n_tops: int = 8, max_dim: int = 3
) -> WeightedComplex:
    vertex_order = {v: rng.choice(ORDER_POOL) for v in range(n_vertices)}
    simplices: set[tuple[int, ...]] = {(v,) for v in vertex_order}
    for _ in range(n_tops):
        size = rng.randint(2, max_dim + 1)
        top = tuple(sorted(rng.sample(range(n_vertices), size)))
        for k in range(1, len(top) + 1):
            simplices.update(combinations(top, k))
    orders = {
        s: math.gcd(*(vertex_order[v] for v in s)) for s in simplices
    }
    return WeightedComplex(sorted(simplices), orders)


def cone_torus(n: int, cone_order: int) -> WeightedComplex:
    """The n x n triangulated torus (n >= 3) with a cone point of order
    ``cone_order`` at vertex 0."""
    triangles = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = (i + 1) % n * n + j
            c = (i + 1) % n * n + (j + 1) % n
            d = i * n + (j + 1) % n
            triangles += [(a, b, c), (a, d, c)]
    return WeightedComplex(triangles, {(0,): cone_order})
