"""Weighted simplicial chains for orbifold complexes: complexes of
finite groups over a simplicial complex, the order-weighted boundary
operator and rational homology.

The boundary operator depends only on the group orders, so the working
type is WeightedComplex (simplices plus an order per simplex, subject
to divisibility along faces).  The weighted boundary has one form, the
sparse integer matrices of boundary_matrices, built from the signed
face weights of _face_weights; the Betti numbers and the
boundary-squared check both read them.  Full group data, explicit
multiplication tables with homomorphisms and twist cocycles, is only
validated, in one function (validate_group_complex); a file with
orders alone carries the canonical cyclic structure, which is valid by
construction (validate_file).

Orientation convention: a simplex is its sorted vertex tuple; the i-th
face omits vertex i and enters the boundary with sign (-1)^i.
"""

from __future__ import annotations

import math
import re
from functools import partial

from .decode import SIMPLEX_KEY, int_, is_int, key_path, keyed, list_, load, obj
from .errors import InvalidInput, MalformedTable

Simplex = tuple[int, ...]

MAX_GROUP_ORDER = 64
# A simplex of n vertices closes to 2^n - 1 faces, so this cap bounds the
# work that one listed simplex can force.
MAX_SIMPLEX_VERTICES = 8


def _as_simplex(vertices) -> Simplex:
    vs = tuple(vertices)
    if not vs:
        raise InvalidInput("a simplex needs at least one vertex")
    if len(vs) > MAX_SIMPLEX_VERTICES:
        raise InvalidInput(
            f"a simplex has at most {MAX_SIMPLEX_VERTICES} vertices, got {len(vs)}"
        )
    if any(not is_int(v) or v < 0 for v in vs):
        raise InvalidInput(f"vertices must be non-negative integers: {vs}")
    if len(set(vs)) != len(vs):
        raise InvalidInput(f"repeated vertex in simplex {vs}")
    return tuple(sorted(vs))


_int_list = partial(list_, item=int_)  # reads a JSON list of integers


def faces(simplex: Simplex) -> list[Simplex]:
    """Codimension-one faces, indexed by omitted vertex; a vertex has none."""
    if len(simplex) == 1:
        return []
    return [simplex[:i] + simplex[i + 1 :] for i in range(len(simplex))]


def _simplex_key(simplex: Simplex) -> str:
    return ",".join(str(v) for v in simplex)


def _key_simplex(key, keys: dict, where: str) -> Simplex:
    """The simplex that a key of the map at where names: a simplex key
    such as "0,1", of ASCII digits and commas only, or a vertex tuple.
    keys maps each simplex already named to its key; keys such as "0"
    and "00", or "0,1" and "1,0", name one simplex, and a second one is
    rejected rather than silently winning."""
    if not isinstance(key, str):
        key = _simplex_key(_as_simplex(key))
    if not re.fullmatch(SIMPLEX_KEY, key):
        raise InvalidInput(f"bad simplex key {key!r}")
    try:
        s = _as_simplex(int(part) for part in key.split(","))
    except ValueError as exc:  # a vertex past sys.get_int_max_str_digits()
        raise InvalidInput(f"bad simplex key {key!r}") from exc
    if s in keys:
        raise InvalidInput(
            f"{key_path(where, key)}: names the same simplex as {key_path(where, keys[s])}"
        )
    keys[s] = key
    return s


class WeightedComplex:
    """A finite simplicial complex with a positive group order per
    simplex.  The complex is closed under faces on construction; orders
    of unlisted faces default to 1.  For every face relation tau < sigma
    the order of sigma must divide the order of tau."""

    __slots__ = ("simplices", "orders")

    def __init__(self, simplices, orders=None):
        closed: set[Simplex] = set()
        for s in simplices:
            s = _as_simplex(s)
            closed.add(s)
            stack = [s]
            while stack:
                cur = stack.pop()
                for f in faces(cur):
                    if f not in closed:
                        closed.add(f)
                        stack.append(f)
        if not closed:
            raise InvalidInput("a complex needs at least one simplex")
        ordered = tuple(sorted(closed, key=lambda s: (len(s), s)))
        table = {}
        keys: dict[Simplex, str] = {}
        for key, value in (orders or {}).items():
            s = _key_simplex(key, keys, "orders")
            if s not in closed:
                raise InvalidInput(f"order given for missing simplex {s}")
            if not is_int(value) or value < 1:
                raise InvalidInput(f"order of {s} must be a positive integer, got {value!r}")
            if value != 1:
                table[s] = value
        self.simplices = ordered
        self.orders = table
        for s in ordered:
            for f in faces(s):
                if self.order(f) % self.order(s) != 0:
                    raise InvalidInput(
                        f"order {self.order(s)} of {s} must divide order "
                        f"{self.order(f)} of its face {f}"
                    )

    def order(self, simplex: Simplex) -> int:
        return self.orders.get(simplex, 1)

    def __contains__(self, simplex) -> bool:
        return _as_simplex(simplex) in set(self.simplices)

    def dimension(self) -> int:
        return max(len(s) for s in self.simplices) - 1

    def of_dimension(self, r: int) -> list[Simplex]:
        return [s for s in self.simplices if len(s) == r + 1]

    def underlying(self) -> "WeightedComplex":
        """The same complex with all orders 1."""
        return WeightedComplex(self.simplices)

    @staticmethod
    def from_json(data) -> "WeightedComplex":
        """A complex file; the constructor checks the orders' values.  Of
        a group complex file's groups, homs and twists only the keys are
        checked here: each is an object, and homs and twists need groups.
        validate_file checks their tables."""
        obj(data, "", "simplices", optional=("orders", "groups", "homs", "twists"))
        w = WeightedComplex(
            list_(data["simplices"], "simplices", item=_int_list),
            keyed(data.get("orders", {}), "orders"),
        )
        for key in ("groups", "homs", "twists"):
            if key in data:
                if "groups" not in data:
                    raise InvalidInput(f"{key}: given without groups")
                keyed(data[key], key)
        return w


def load_complex(path: str) -> WeightedComplex:
    return WeightedComplex.from_json(load(path))


def _face_weights(w: WeightedComplex, s: Simplex) -> list[tuple[Simplex, int]]:
    """The faces of s with their boundary weights: the i-th face f enters
    with (-1)^i |G_f| / |G_s|, a nonzero integer by the divisibility
    invariant."""
    g = w.order(s)
    return [(f, (-1) ** i * (w.order(f) // g)) for i, f in enumerate(faces(s))]


def boundary_squared_is_zero(matrices: list[list[dict[int, int]]]) -> bool:
    """Exact check of the identity on every basis simplex, composing the
    integer boundary matrices of boundary_matrices(w)."""
    for lower, upper in zip(matrices, matrices[1:]):
        for row in upper:
            twice: dict[int, int] = {}
            for j, a in row.items():
                for k, b in lower[j].items():
                    twice[k] = twice.get(k, 0) + a * b
            if any(twice.values()):
                return False
    return True


def _rank(rows: list[dict[int, int]]) -> int:
    """Rank over Q of a sparse integer matrix, one {column: entry} dict
    per row, by fraction-free column reduction: each row is reduced on
    its largest column against the pivot row owning that column
    (row <- a*row - b*pivot with a, b nonzero) and divided by the gcd of
    its entries.  Scaling a row by a nonzero integer keeps its span over
    Q, so the number of pivots is the exact rank.  A reduced row is a new
    dict: the input rows are left as they are."""
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        while row:
            col = max(row)
            pivot = pivots.get(col)
            if pivot is None:
                pivots[col] = row
                break
            g = math.gcd(pivot[col], row[col])
            a, b = pivot[col] // g, row[col] // g
            row = {k: a * v for k, v in row.items()}
            for k, v in pivot.items():
                x = row.get(k, 0) - b * v
                if x:
                    row[k] = x
                else:
                    del row[k]
            content = math.gcd(*row.values())
            if content > 1:
                row = {k: v // content for k, v in row.items()}
    return len(pivots)


def boundary_matrices(w: WeightedComplex) -> list[list[dict[int, int]]]:
    """The sparse matrices of the weighted boundary from r-simplices to
    (r-1)-simplices for r = 1..dim, one {face index: weight} row per
    r-simplex, with the weights of _face_weights.  No consumer mutates
    them, so one list serves both the check of the identity and the ranks."""
    matrices = []
    for r in range(1, w.dimension() + 1):
        target = {s: j for j, s in enumerate(w.of_dimension(r - 1))}
        matrices.append([
            {target[f]: weight for f, weight in _face_weights(w, s)}
            for s in w.of_dimension(r)
        ])
    return matrices


def homology_betti(w: WeightedComplex, matrices: list[list[dict[int, int]]]) -> list[int]:
    """Rational Betti numbers of the weighted chain complex, dimension
    by dimension, from the ranks of its boundary matrices
    (boundary_matrices(w)), taken exactly by sparse fraction-free column
    reduction."""
    ranks = [0, *(_rank(m) for m in matrices), 0]
    return [
        len(w.of_dimension(r)) - ranks[r] - ranks[r + 1] for r in range(w.dimension() + 1)
    ]


def teardrop_complex(p: int) -> WeightedComplex:
    """The boundary of the tetrahedron on vertices 0..3 with one cone
    point of order p at vertex 0: a triangulated p-teardrop sphere."""
    if p < 1:
        raise InvalidInput(f"cone order must be >= 1, got {p}")
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return WeightedComplex(triangles, {(0,): p})


class FiniteGroup:
    """A finite group as a multiplication table; element 0 is the
    identity.  table[i][j] is the index of the product i * j."""

    __slots__ = ("table",)

    def __init__(self, table):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        _check_group_order(n)
        for row in rows:
            if len(row) != n or any(not is_int(x) or not 0 <= x < n for x in row):
                raise MalformedTable("table must be square with entries in range")
        for i in range(n):
            if rows[0][i] != i or rows[i][0] != i:
                raise MalformedTable("element 0 must be the identity")
        for i in range(n):
            if len(set(rows[i])) != n or len({rows[j][i] for j in range(n)}) != n:
                raise MalformedTable("rows and columns must be permutations")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if rows[rows[i][j]][k] != rows[i][rows[j][k]]:
                        raise MalformedTable(
                            f"multiplication is not associative at ({i},{j},{k})"
                        )
        self.table = rows

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(0)


def _check_group_order(n: int) -> None:
    if not 1 <= n <= MAX_GROUP_ORDER:
        raise MalformedTable(f"group order must be in 1..{MAX_GROUP_ORDER}, got {n}")


def _proper_faces(simplex: Simplex) -> list[Simplex]:
    masks = range(1, 2 ** len(simplex) - 1)
    return [tuple(v for i, v in enumerate(simplex) if m >> i & 1) for m in masks]


def _named_only(name: str, table: dict, known: set[str], what: str) -> None:
    """Reject the first key of table that is not in known, the keys of
    the complex's face relations or composable pairs."""
    for k in table:
        if k not in known:
            raise MalformedTable(f"{key_path(name, k)}: names no {what} of the complex")


def validate_group_complex(w: WeightedComplex, groups: dict, homs: dict, twists=None) -> bool:
    """True iff the tables make a complex of groups over w: one group per
    simplex, of the simplex's order; one homomorphism psi_a per face
    relation, from the bigger simplex's group into the face's group; one
    twist element g_{a,b} per composable pair of face relations, in the
    smallest simplex's group.  Every psi_a must be an injective
    homomorphism, and both twist cocycle identities must hold on all
    composable pairs and triples.

    groups maps a simplex key such as "0,1" (or a vertex tuple) to its
    multiplication table; homs keys are "big|small" simplex key pairs
    and twists keys "big|mid|small" triples, and a missing twist is the
    identity.  Structurally broken tables raise MalformedTable, as does
    a key that names no simplex, face relation or composable pair;
    values that merely fail the identities return False.

    The face relations are indexed once as below[big] -> [small, ...],
    so the composable pairs big > mid > small are the relations (big,
    mid) followed by below[mid], and the triples extend them by
    below[small].
    """
    twists = {} if twists is None else twists
    simplices = set(w.simplices)
    group: dict[Simplex, FiniteGroup] = {}
    keys: dict[Simplex, str] = {}
    for k, table in groups.items():
        s = _key_simplex(k, keys, "groups")
        if s not in simplices:
            raise MalformedTable(
                f"{key_path('groups', keys[s])}: names no simplex of the complex"
            )
        group[s] = FiniteGroup(table)
    for s in w.simplices:
        if s not in group:
            raise MalformedTable(f"no group table for simplex {s}")
        if group[s].order != w.order(s):
            raise MalformedTable(
                f"group at {s} has order {group[s].order}, complex declares {w.order(s)}"
            )
    key = {s: _simplex_key(s) for s in w.simplices}
    # the complex is closed under faces, so every proper face is in it
    below = {s: _proper_faces(s) for s in w.simplices}
    relations = [(big, small) for big in w.simplices for small in below[big]]
    hom_keys = {f"{key[big]}|{key[small]}" for big, small in relations}
    _named_only("homs", homs, hom_keys, "face relation")
    twist_keys = {
        f"{key[big]}|{key[mid]}|{key[small]}" for big, mid in relations for small in below[mid]
    }
    _named_only("twists", twists, twist_keys, "composable pair")
    psi = {}
    for big, small in relations:
        name = f"{key[big]}|{key[small]}"
        if name not in homs:
            raise MalformedTable(f"missing homomorphism for face relation {name}")
        images = list(homs[name])
        gb, gs = group[big], group[small]
        if len(images) != gb.order or any(not is_int(x) or not 0 <= x < gs.order for x in images):
            raise MalformedTable(f"homomorphism {name} has the wrong shape")
        if len(set(images)) != len(images):
            return False
        if images[0] != 0:
            return False
        for i in range(gb.order):
            for j in range(gb.order):
                if images[gb.mul(i, j)] != gs.mul(images[i], images[j]):
                    return False
        psi[(big, small)] = images
    twist = {}
    for big, mid in relations:
        b = psi[(big, mid)]
        for small in below[mid]:
            gsm = group[small]
            name = f"{key[big]}|{key[mid]}|{key[small]}"
            t = twists.get(name, 0)
            if not is_int(t) or not 0 <= t < gsm.order:
                raise MalformedTable(f"twist {name} is out of range")
            twist[(big, mid, small)] = t
            t_inv = gsm.inverse(t)
            a = psi[(mid, small)]
            ab = psi[(big, small)]
            for x in range(group[big].order):
                lhs = gsm.mul(gsm.mul(t, ab[x]), t_inv)
                rhs = a[b[x]]
                if lhs != rhs:
                    return False
    # every twist of a triple below was range-checked in the pair loop
    for (big, mid, small), t in twist.items():
        for tiny in below[small]:
            gt = group[tiny]
            lhs = gt.mul(psi[(small, tiny)][t], twist[(big, small, tiny)])
            rhs = gt.mul(twist[(mid, small, tiny)], twist[(big, mid, tiny)])
            if lhs != rhs:
                return False
    return True


def validate_file(path: str) -> bool:
    """The verdict of chains validate on a complex file.  A file with
    groups has its tables checked by validate_group_complex.  A file
    with only orders carries the canonical structure: cyclic groups of
    the declared orders, psi(i) = i * (n_f / n_s) mod n_f from the group
    of a simplex s into that of its face f, and identity twists.  That
    is a complex of groups by construction (Bridson-Haefliger, III.C):
    psi is an injective homomorphism because n_s divides n_f, which
    WeightedComplex checks, and the psi compose, psi(mid -> small) o
    psi(big -> mid) = psi(big -> small), so both cocycle identities hold
    with identity twists.  Such a file is valid once it loads; only the
    cap on group orders is checked, at the first simplex over it."""
    data = load(path)
    w = WeightedComplex.from_json(data)
    if "groups" not in data:
        for s in w.simplices:
            _check_group_order(w.order(s))
        return True
    groups = data["groups"]
    homs = data.get("homs", {})
    twists = data.get("twists", {})
    return validate_group_complex(
        w,
        groups={k: list_(t, key_path("groups", k), item=_int_list) for k, t in groups.items()},
        homs={k: _int_list(h, key_path("homs", k)) for k, h in homs.items()},
        twists={k: int_(t, key_path("twists", k)) for k, t in twists.items()},
    )
