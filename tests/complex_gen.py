"""Random weighted-complex generator shared by the chain tests, the
canonical complex of groups on a weighted complex as explicit tables,
and one such complex as a chains validate file (explicit_tables).

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


def cyclic_table(n: int) -> list[list[int]]:
    """The multiplication table of Z/n."""
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def simplex_key(simplex) -> str:
    return ",".join(map(str, simplex))


def canonical_group_complex(w: WeightedComplex) -> dict:
    """The structure chains validate assumes on a file with orders
    alone, written out as validate_group_complex(w, **result) reads it:
    "groups" maps each simplex (a vertex tuple) to the table of the
    cyclic group of its order, "homs" each face relation to psi(i) =
    i * (n_f / n_s) mod n_f from a simplex s into its proper face f, and
    the twists are the identity.  Simplices of equal order share one
    table."""
    tables = {n: cyclic_table(n) for n in set(map(w.order, w.simplices))}
    homs = {}
    for big in w.simplices:
        nb = w.order(big)
        for k in range(1, len(big)):
            for small in combinations(big, k):
                ns = w.order(small)
                homs[f"{simplex_key(big)}|{simplex_key(small)}"] = [
                    i * (ns // nb) % ns for i in range(nb)
                ]
    return {"groups": {s: tables[w.order(s)] for s in w.simplices}, "homs": homs}


def complex_data(w: WeightedComplex) -> dict:
    """The orders-only JSON form of w, as chains betti and validate read it."""
    return {
        "simplices": [list(s) for s in w.simplices],
        "orders": {simplex_key(s): n for s, n in w.orders.items()},
    }


def explicit_tables(twists: dict) -> dict:
    """The solid tetrahedron with an order-4 vertex 0 as a chains validate
    file with explicit tables: the canonical cyclic structure plus the
    given twists.  Its four levels of faces make the twist identities
    non-vacuous."""
    w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
    g = canonical_group_complex(w)
    return {
        **complex_data(w),
        "groups": {simplex_key(s): t for s, t in g["groups"].items()},
        "homs": g["homs"],
        "twists": twists,
    }
