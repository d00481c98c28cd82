"""Weighted simplicial chains for orbifold complexes: complexes of
finite groups over a simplicial complex, the order-weighted boundary
operator, rational homology, and the comparison map to ordinary
simplicial chains.

The boundary operator depends only on the group orders, so the working
type is WeightedComplex (simplices plus an order per simplex, subject
to divisibility along faces).  The weighted boundary has one integer
form, the signed face weights of _face_weights: Chain boundaries, the
sparse matrices behind the Betti numbers and the boundary-squared check
all read it.  Full group data with homomorphisms and twist cocycles is
carried by GroupComplexFull and only validated.

Orientation convention: a simplex is its sorted vertex tuple; the i-th
face omits vertex i and enters the boundary with sign (-1)^i.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .decode import int_, is_int, key_path, keyed, list_, load, obj
from .errors import InvalidInput, MalformedTable, UnsupportedSimplex

Simplex = tuple[int, ...]

MAX_GROUP_ORDER = 64


def _as_simplex(vertices) -> Simplex:
    vs = tuple(vertices)
    if not vs:
        raise InvalidInput("a simplex needs at least one vertex")
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


def _parse_simplex_key(key: str) -> Simplex:
    try:
        return _as_simplex(int(part) for part in key.split(","))
    except ValueError as exc:
        raise InvalidInput(f"bad simplex key {key!r}") from exc


@dataclass(frozen=True)
class WeightedComplex:
    """A finite simplicial complex with a positive group order per
    simplex.  The complex is closed under faces on construction; orders
    of unlisted faces default to 1.  For every face relation tau < sigma
    the order of sigma must divide the order of tau."""

    simplices: tuple[Simplex, ...]
    orders: dict

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
        for key, value in (orders or {}).items():
            s = _as_simplex(key) if not isinstance(key, str) else _parse_simplex_key(key)
            if s not in closed:
                raise InvalidInput(f"order given for missing simplex {s}")
            if not is_int(value) or value < 1:
                raise InvalidInput(f"order of {s} must be a positive integer, got {value!r}")
            if value != 1:
                table[s] = value
        object.__setattr__(self, "simplices", ordered)
        object.__setattr__(self, "orders", table)
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
        """A complex file; the constructor checks the orders' values.  The
        groups, homs and twists of a group complex file are read by
        load_group_complex."""
        obj(data, "", "simplices", optional=("orders", "groups", "homs", "twists"))
        return WeightedComplex(
            list_(data["simplices"], "simplices", item=_int_list),
            keyed(data.get("orders", {}), "orders"),
        )


def load_complex(path: str) -> WeightedComplex:
    return WeightedComplex.from_json(load(path))


@dataclass(frozen=True)
class Chain:
    """A finite formal sum of simplices of one dimension with rational
    coefficients.  Zero chains of any degree are allowed."""

    coeffs: dict
    degree: int

    def __init__(self, coeffs, degree=None):
        clean = {}
        for s, c in dict(coeffs).items():
            s = _as_simplex(s)
            c = Fraction(c)
            if c:
                clean[s] = c
        dims = {len(s) - 1 for s in clean}
        if len(dims) > 1:
            raise InvalidInput(f"mixed dimensions in chain: {sorted(dims)}")
        if degree is None:
            if not dims:
                raise InvalidInput("degree required for an empty chain")
            degree = dims.pop()
        elif dims and dims != {degree}:
            raise InvalidInput(
                f"chain declared degree {degree} but has simplices of dimension {dims.pop()}"
            )
        object.__setattr__(self, "coeffs", clean)
        object.__setattr__(self, "degree", degree)

    def __add__(self, other: "Chain") -> "Chain":
        if self.degree != other.degree:
            raise InvalidInput("cannot add chains of different degrees")
        merged = dict(self.coeffs)
        for s, c in other.coeffs.items():
            merged[s] = merged.get(s, Fraction(0)) + c
        return Chain(merged, self.degree)

    def scale(self, factor) -> "Chain":
        factor = Fraction(factor)
        return Chain({s: c * factor for s, c in self.coeffs.items()}, self.degree)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Chain)
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def is_zero(self) -> bool:
        return not self.coeffs

    @staticmethod
    def of(simplex, coeff=1) -> "Chain":
        s = _as_simplex(simplex)
        return Chain({s: Fraction(coeff)}, len(s) - 1)


def _face_weights(w: WeightedComplex, s: Simplex) -> list[tuple[Simplex, int]]:
    """The faces of s with their boundary weights: the i-th face f enters
    with (-1)^i |G_f| / |G_s|, a nonzero integer by the divisibility
    invariant."""
    g = w.order(s)
    return [(f, (-1) ** i * (w.order(f) // g)) for i, f in enumerate(faces(s))]


def boundary(chain: Chain, w: WeightedComplex) -> Chain:
    """The weighted boundary: each simplex maps to the alternating sum
    of its faces with weights |G_face| / |G_simplex|."""
    have = set(w.simplices)
    out: dict[Simplex, Fraction] = {}
    for s, c in chain.coeffs.items():
        if s not in have:
            raise UnsupportedSimplex(f"simplex {s} is not in the complex")
        for f, weight in _face_weights(w, s):
            out[f] = out.get(f, 0) + c * weight
    return Chain(out, chain.degree - 1)


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


def to_singular(chain: Chain, w: WeightedComplex) -> Chain:
    """The comparison map to ordinary simplicial chains: each simplex is
    rescaled by 1/|G_simplex|.  This intertwines the weighted boundary
    with the standard one."""
    have = set(w.simplices)
    out = {}
    for s, c in chain.coeffs.items():
        if s not in have:
            raise UnsupportedSimplex(f"simplex {s} is not in the complex")
        out[s] = c / w.order(s)
    return Chain(out, chain.degree)


def teardrop_complex(p: int) -> WeightedComplex:
    """The boundary of the tetrahedron on vertices 0..3 with one cone
    point of order p at vertex 0: a triangulated p-teardrop sphere."""
    if p < 1:
        raise InvalidInput(f"cone order must be >= 1, got {p}")
    triangles = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    return WeightedComplex(triangles, {(0,): p})


@dataclass(frozen=True)
class FiniteGroup:
    """A finite group as a multiplication table; element 0 is the
    identity.  table[i][j] is the index of the product i * j."""

    table: tuple[tuple[int, ...], ...]

    def __init__(self, table):
        rows = tuple(tuple(row) for row in table)
        n = len(rows)
        _check_group_order(n)
        for row in rows:
            if len(row) != n or any(not isinstance(x, int) or not 0 <= x < n for x in row):
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
        object.__setattr__(self, "table", rows)

    @property
    def order(self) -> int:
        return len(self.table)

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self.table[i].index(0)

    @staticmethod
    def cyclic(n: int) -> "FiniteGroup":
        _check_group_order(n)  # before the n x n table is built
        return FiniteGroup([[(i + j) % n for j in range(n)] for i in range(n)])


def _check_group_order(n: int) -> None:
    if not 1 <= n <= MAX_GROUP_ORDER:
        raise MalformedTable(f"group order must be in 1..{MAX_GROUP_ORDER}, got {n}")


def _proper_faces(simplex: Simplex) -> list[Simplex]:
    masks = range(1, 2 ** len(simplex) - 1)
    return [tuple(v for i, v in enumerate(simplex) if m >> i & 1) for m in masks]


@dataclass(frozen=True)
class GroupComplexFull:
    """Full complex-of-groups data over a weighted complex: one group
    per simplex, one homomorphism psi_a per face relation (from the
    bigger simplex's group into the face's group), and one twist element
    g_{a,b} per composable pair of face relations.

    homs keys are "big|small" simplex key pairs; twists keys are
    "big|mid|small" triples and the element lives in the smallest
    simplex's group.  Missing twists default to the identity.
    """

    complex: WeightedComplex
    groups: dict
    homs: dict
    twists: dict = field(default_factory=dict)

    def __post_init__(self):
        groups = {}
        for key, table in self.groups.items():
            s = _parse_simplex_key(key) if isinstance(key, str) else _as_simplex(key)
            groups[s] = table if isinstance(table, FiniteGroup) else FiniteGroup(table)
        object.__setattr__(self, "groups", groups)
        for s in self.complex.simplices:
            if s not in groups:
                raise MalformedTable(f"no group table for simplex {s}")
            if groups[s].order != self.complex.order(s):
                raise MalformedTable(
                    f"group at {s} has order {groups[s].order}, complex "
                    f"declares {self.complex.order(s)}"
                )

    def group(self, simplex: Simplex) -> FiniteGroup:
        return self.groups[simplex]

    def _hom(self, key: str, big: Simplex, small: Simplex) -> list[int]:
        if key not in self.homs:
            raise MalformedTable(f"missing homomorphism for face relation {key}")
        images = list(self.homs[key])
        if len(images) != self.group(big).order or any(
            not isinstance(x, int) or not 0 <= x < self.group(small).order
            for x in images
        ):
            raise MalformedTable(f"homomorphism {key} has the wrong shape")
        return images

    def _twist(self, key: str, small: Simplex) -> int:
        value = self.twists.get(key, 0)
        if not isinstance(value, int) or not 0 <= value < self.group(small).order:
            raise MalformedTable(f"twist {key} is out of range")
        return value


def _face_relations(w: WeightedComplex) -> list[tuple[Simplex, Simplex]]:
    # the complex is closed under faces, so every proper face is in it
    return [(s, f) for s in w.simplices for f in _proper_faces(s)]


def validate_group_complex(g: GroupComplexFull) -> bool:
    """True iff every psi_a is an injective homomorphism and both twist
    cocycle identities hold on all composable pairs and triples.
    Structurally broken tables raise MalformedTable; values that merely
    fail the identities return False.

    The face relations are indexed once as below[big] -> [small, ...],
    so the composable pairs big > mid > small are the relations (big,
    mid) followed by below[mid], and the triples extend them by
    below[small].
    """
    w = g.complex
    relations = _face_relations(w)
    key = {s: _simplex_key(s) for s in w.simplices}
    below: dict[Simplex, list[Simplex]] = {s: [] for s in w.simplices}
    psi = {}
    for big, small in relations:
        images = g._hom(f"{key[big]}|{key[small]}", big, small)
        gb, gs = g.group(big), g.group(small)
        if len(set(images)) != len(images):
            return False
        if images[0] != 0:
            return False
        for i in range(gb.order):
            for j in range(gb.order):
                if images[gb.mul(i, j)] != gs.mul(images[i], images[j]):
                    return False
        psi[(big, small)] = images
        below[big].append(small)
    twist = {}
    for big, mid in relations:
        b = psi[(big, mid)]
        for small in below[mid]:
            gsm = g.group(small)
            t = g._twist(f"{key[big]}|{key[mid]}|{key[small]}", small)
            twist[(big, mid, small)] = t
            t_inv = gsm.inverse(t)
            a = psi[(mid, small)]
            ab = psi[(big, small)]
            for x in range(g.group(big).order):
                lhs = gsm.mul(gsm.mul(t, ab[x]), t_inv)
                rhs = a[b[x]]
                if lhs != rhs:
                    return False
    # every twist of a triple below was range-checked in the pair loop
    for (big, mid, small), t in twist.items():
        for tiny in below[small]:
            gt = g.group(tiny)
            lhs = gt.mul(psi[(small, tiny)][t], twist[(big, small, tiny)])
            rhs = gt.mul(twist[(mid, small, tiny)], twist[(big, mid, tiny)])
            if lhs != rhs:
                return False
    return True


def cyclic_group_complex(w: WeightedComplex) -> GroupComplexFull:
    """The canonical full structure on a weighted complex: cyclic groups
    of the declared orders, index-scaling inclusions, identity twists.
    Simplices of equal order share one group table."""
    # orders as first met, so a bad order fails at its first simplex
    tables = {n: FiniteGroup.cyclic(n) for n in dict.fromkeys(map(w.order, w.simplices))}
    groups = {s: tables[w.order(s)] for s in w.simplices}
    homs = {}
    for big, small in _face_relations(w):
        nb, ns = w.order(big), w.order(small)
        step = ns // nb
        homs[f"{_simplex_key(big)}|{_simplex_key(small)}"] = [(i * step) % ns for i in range(nb)]
    return GroupComplexFull(complex=w, groups=groups, homs=homs)


def load_group_complex(path: str) -> GroupComplexFull:
    data = load(path)
    w = WeightedComplex.from_json(data)
    if "groups" not in data:
        return cyclic_group_complex(w)
    groups = keyed(data["groups"], "groups")
    homs = keyed(data.get("homs", {}), "homs")
    twists = keyed(data.get("twists", {}), "twists")
    return GroupComplexFull(
        complex=w,
        groups={k: list_(t, key_path("groups", k), item=_int_list) for k, t in groups.items()},
        homs={k: _int_list(h, key_path("homs", k)) for k, h in homs.items()},
        twists={k: int_(t, key_path("twists", k)) for k, t in twists.items()},
    )
