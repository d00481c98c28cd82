"""Random weighted-complex generator shared by the chain tests, and the
canonical complex of groups on a weighted complex as explicit tables.

Vertex orders are drawn from a small divisor-rich pool and every
simplex receives the gcd of its vertices' orders, which makes the
divisibility invariant (the order of a simplex divides the order of
each of its faces) hold by construction.
"""

from __future__ import annotations

import math
import random
from itertools import combinations

from orbicurves.chains import FiniteGroup, GroupComplexFull, WeightedComplex

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


def cyclic_table(n: int) -> list[list[int]]:
    """The multiplication table of Z/n."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def simplex_key(simplex) -> str:
    return ",".join(map(str, simplex))


def canonical_group_complex(w: WeightedComplex) -> GroupComplexFull:
    """The structure chains validate assumes on a file with orders
    alone, written out: cyclic groups of the declared orders, psi(i) =
    i * (n_f / n_s) mod n_f from a simplex s into each proper face f,
    identity twists.  Simplices of equal order share one group table."""
    tables = {n: FiniteGroup(cyclic_table(n)) for n in set(map(w.order, w.simplices))}
    homs = {}
    for big in w.simplices:
        nb = w.order(big)
        for k in range(1, len(big)):
            for small in combinations(big, k):
                ns = w.order(small)
                homs[f"{simplex_key(big)}|{simplex_key(small)}"] = [
                    i * (ns // nb) % ns for i in range(nb)
                ]
    groups = {s: tables[w.order(s)] for s in w.simplices}
    return GroupComplexFull(complex=w, groups=groups, homs=homs)


def complex_data(w: WeightedComplex) -> dict:
    """The orders-only JSON form of w, as chains betti and validate read it."""
    return {
        "simplices": [list(s) for s in w.simplices],
        "orders": {simplex_key(s): n for s, n in w.orders.items()},
    }
