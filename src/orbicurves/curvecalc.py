"""Curve configurations in a 4-dimensional cyclic-quotient orbifold and
their exact invariants: the adjunction identity, the intersection
identity, and the embeddedness criterion.

A configuration is the combinatorial shadow of a parametrized curve:
the ambient homology data (basis, intersection pairing, c1 values), the
domain orbifold surface, the curve's class and multiplicity, and one
station per image point that carries local branch data.  Homology is
always user-supplied; nothing here computes H_2 of an orbifold.

All reports are pure functions of immutable configurations, and each
returns the report's own dict, whose rational values are Fractions.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    AdjunctionViolated,
    AmbientMismatch,
    InvalidInput,
)
from .decode import SCHEMA_VERSION, check_schema, int_, list_, load, obj, rational, str_
from .germ import CurveGerm, intersection_multiplicity, self_intersection
from .lens import SingularityType
from .surface import OrbifoldSurface, orbifold_genus

REGULAR_PREFIX = "regular"


def _is_regular_marker(point_id: str) -> bool:
    return point_id == REGULAR_PREFIX or point_id.startswith(REGULAR_PREFIX + ":")


def _fraction(x) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class AmbientModel:
    """Ambient 4-orbifold data: an H_2 basis of given rank, the
    intersection pairing on it, the value of c1 of the tangent bundle on
    each basis class, and the cyclic singular points.

    Station ids resolve against singular_points; the id "regular" (or
    any id "regular:<tag>") marks a point with trivial isotropy and
    needs no listing.  Two models are equal when their data are: two
    curves meet only in equal models.
    """

    __slots__ = ("h2_rank", "pairing", "c1_vector", "singular_points")

    def __init__(self, h2_rank: int, pairing, c1_vector, singular_points=()):
        self.h2_rank = h2_rank
        self.pairing = tuple(tuple(map(_fraction, row)) for row in pairing)
        self.c1_vector = tuple(map(_fraction, c1_vector))
        self.singular_points = tuple(singular_points)
        n = h2_rank
        if n < 1:
            raise InvalidInput(f"h2_rank must be >= 1, got {n}")
        if len(self.pairing) != n or any(len(row) != n for row in self.pairing):
            raise InvalidInput(f"pairing must be a {n}x{n} matrix")
        for i in range(n):
            for j in range(i + 1, n):
                if self.pairing[i][j] != self.pairing[j][i]:
                    raise InvalidInput("pairing matrix must be symmetric")
        if len(self.c1_vector) != n:
            raise InvalidInput(f"c1_vector must have length {n}")
        seen = set()
        for pid, stype in self.singular_points:
            if pid in seen:
                raise InvalidInput(f"duplicate singular point id {pid!r}")
            seen.add(pid)
            if not isinstance(stype, SingularityType):
                raise InvalidInput(f"singular point {pid!r} needs a SingularityType")
            if _is_regular_marker(pid) and not stype.is_trivial():
                raise InvalidInput(
                    f"id {pid!r} is reserved for trivial isotropy markers"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AmbientModel):
            return NotImplemented
        return (
            self.h2_rank == other.h2_rank
            and self.pairing == other.pairing
            and self.c1_vector == other.c1_vector
            and self.singular_points == other.singular_points
        )

    def point_type(self, point_id: str) -> SingularityType:
        for pid, stype in self.singular_points:
            if pid == point_id:
                return stype
        if _is_regular_marker(point_id):
            return SingularityType(1, 0)
        raise InvalidInput(
            f"ambient point id {point_id!r} is not listed and is not a "
            f"'{REGULAR_PREFIX}' marker"
        )

    @staticmethod
    def from_json(data, where: str = "ambient") -> "AmbientModel":
        obj(data, where, "h2_rank", "pairing", "c1_vector", optional=("singular_points",))
        return AmbientModel(
            h2_rank=int_(data["h2_rank"], f"{where}.h2_rank"),
            pairing=list_(data["pairing"], f"{where}.pairing", item=_rational_row),
            c1_vector=_rational_row(data["c1_vector"], f"{where}.c1_vector"),
            singular_points=list_(
                data.get("singular_points", []), f"{where}.singular_points",
                item=_singular_point,
            ),
        )


def _rational_row(value, where: str) -> list[Fraction]:
    return list_(value, where, item=rational)


def _singular_point(value, where: str) -> tuple[str, SingularityType]:
    pid, stype = list_(value, where, length=2)
    return str_(pid, f"{where}[0]"), SingularityType.from_json(stype, f"{where}[1]")


class CurveClass:
    """A class in the ambient H_2 basis together with the curve's
    multiplicity m_C (the order of the generic stabilizer of its
    parametrization; m_C = 1 exactly for type I curves)."""

    __slots__ = ("coords", "multiplicity")

    def __init__(self, coords, multiplicity: int = 1):
        self.coords = tuple(map(_fraction, coords))
        if not any(self.coords):
            raise InvalidInput("curve class must be nonzero")
        if multiplicity < 1:
            raise InvalidInput(f"multiplicity must be >= 1, got {multiplicity}")
        self.multiplicity = multiplicity

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveClass):
            return NotImplemented
        return self.coords == other.coords and self.multiplicity == other.multiplicity

    @property
    def is_type_one(self) -> bool:
        return self.multiplicity == 1

    @staticmethod
    def from_json(data, where: str = "class") -> "CurveClass":
        obj(data, where, "coords", optional=("multiplicity",))
        return CurveClass(
            coords=_rational_row(data["coords"], f"{where}.coords"),
            multiplicity=int_(data.get("multiplicity", 1), f"{where}.multiplicity"),
        )


class StationPoint:
    """One domain point of a station: its label and its distinguished
    local branch; the other branches over the point are the germ's
    group translates, and the point's order is the germ's m."""

    __slots__ = ("label", "germ")

    def __init__(self, label: str, germ: CurveGerm):
        self.label = label
        self.germ = germ

    def __eq__(self, other) -> bool:
        if not isinstance(other, StationPoint):
            return NotImplemented
        return self.label == other.label and self.germ == other.germ


class Station:
    """All domain points of one curve lying over a single ambient point,
    with the isotropy order of that point.  Each point's stated
    stabilizer was checked once, when its germ was built."""

    __slots__ = ("ambient_point", "isotropy_order", "points")

    def __init__(self, ambient_point: str, isotropy_order: int, points):
        self.ambient_point = ambient_point
        self.isotropy_order = isotropy_order
        self.points = tuple(points)
        if isotropy_order < 1:
            raise InvalidInput(f"isotropy order must be >= 1, got {isotropy_order}")
        if not self.points:
            raise InvalidInput("a station needs at least one domain point")
        labels = [p.label for p in self.points]
        if len(set(labels)) != len(labels):
            raise InvalidInput(f"duplicate point labels in station: {labels}")
        for p in self.points:
            if p.germ.group.a != self.isotropy_order:
                raise InvalidInput(
                    f"orbit at {p.label!r} lives in a group of order "
                    f"{p.germ.group.a}, station isotropy is {self.isotropy_order}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Station):
            return NotImplemented
        return (
            self.ambient_point == other.ambient_point
            and self.isotropy_order == other.isotropy_order
            and self.points == other.points
        )

    def point(self, label: str) -> StationPoint:
        for p in self.points:
            if p.label == label:
                return p
        raise InvalidInput(f"no point labeled {label!r} in station {self.ambient_point!r}")


def station(ambient_point: str, isotropy_order: int, points) -> Station:
    """Build a station from (label, germ) pairs."""
    built = tuple(StationPoint(label, germ) for label, germ in points)
    return Station(ambient_point=ambient_point, isotropy_order=isotropy_order, points=built)


class CurveConfig:
    """The combinatorial shadow of one parametrized curve.  A regular
    double point is a station of two points at a trivial-isotropy
    ambient point, reported as one "double_point" item."""

    __slots__ = ("ambient", "domain", "curve_class", "stations", "regular_double_points")

    def __init__(self, ambient: AmbientModel, domain: OrbifoldSurface, curve_class: CurveClass,
                 stations=(), regular_double_points=()):
        self.ambient = ambient
        self.domain = domain
        self.curve_class = curve_class
        self.stations = tuple(stations)
        self.regular_double_points = tuple(regular_double_points)
        if len(self.curve_class.coords) != self.ambient.h2_rank:
            raise InvalidInput(
                f"class has {len(self.curve_class.coords)} coordinates, "
                f"ambient rank is {self.ambient.h2_rank}"
            )
        if self.curve_class.multiplicity != self.domain.m_sigma:
            raise InvalidInput(
                f"curve multiplicity {self.curve_class.multiplicity} must equal "
                f"the domain surface multiplicity {self.domain.m_sigma}"
            )
        have, labels = [], []  # the orders of the orbifold points, every label
        for s in self.stations:
            stype = self.ambient.point_type(s.ambient_point)
            if s.isotropy_order != stype.order:
                raise InvalidInput(
                    f"station at {s.ambient_point!r} declares isotropy "
                    f"{s.isotropy_order}, ambient point has order {stype.order}"
                )
            for p in s.points:
                if p.germ.group != stype:
                    raise InvalidInput(
                        f"germ at {p.label!r} lives in chart {p.germ.group.to_json()}, "
                        f"ambient point {s.ambient_point!r} has type {stype.to_json()}"
                    )
                if p.germ.m > 1:
                    have.append(p.germ.m)
                labels.append(p.label)
        for d in self.regular_double_points:
            if len(d.points) != 2 or d.isotropy_order != 1:
                raise InvalidInput(
                    "a regular double point is a station of two points at "
                    f"isotropy 1, got {len(d.points)} at isotropy {d.isotropy_order}"
                )
            labels += [p.label for p in d.points]
        # the domain's orbifold points must be covered exactly once
        need, have = sorted(self.domain.orders), sorted(have)
        if need != have:
            raise InvalidInput(
                f"station points of orders {have} do not match the domain "
                f"orbifold points {need}"
            )
        if len(set(labels)) != len(labels):
            raise InvalidInput(f"domain point labels must be unique: {labels}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveConfig):
            return NotImplemented
        return (
            self.ambient == other.ambient
            and self.domain == other.domain
            and self.curve_class == other.curve_class
            and self.stations == other.stations
            and self.regular_double_points == other.regular_double_points
        )

    @staticmethod
    def from_json(data) -> "CurveConfig":
        obj(data, "", "ambient", "domain", "class",
            optional=("schema", "stations", "regular_double_points"))
        check_schema(data)
        return CurveConfig(
            ambient=AmbientModel.from_json(data["ambient"]),
            domain=OrbifoldSurface.from_json(data["domain"]),
            curve_class=CurveClass.from_json(data["class"]),
            stations=list_(data.get("stations", []), "stations", item=_read_station),
            regular_double_points=list_(
                data.get("regular_double_points", []), "regular_double_points",
                item=_read_double_point,
            ),
        )


def _read_station(data, where: str) -> Station:
    """A station object; a point's "order", when given, must equal the
    order of its germ's stabilizer."""
    obj(data, where, "ambient_point", "isotropy_order", "points")
    points, declared = [], []
    for i, p in enumerate(list_(data["points"], f"{where}.points")):
        at = f"{where}.points[{i}]"
        obj(p, at, "label", "germ", optional=("order",))
        label = str_(p["label"], f"{at}.label")
        points.append((label, CurveGerm.from_json(p["germ"], f"{at}.germ")))
        declared.append(int_(p["order"], f"{at}.order") if "order" in p else None)
    st = station(
        str_(data["ambient_point"], f"{where}.ambient_point"),
        int_(data["isotropy_order"], f"{where}.isotropy_order"),
        points,
    )
    for built, want in zip(st.points, declared):
        if want is not None and built.germ.m != want:
            raise InvalidInput(
                f"point {built.label!r} declares order {want}, germ "
                f"stabilizer gives {built.germ.m}"
            )
    return st


def _read_double_point(data, where: str) -> Station:
    """A {"labels", "germs"} object: a two-point station at isotropy 1."""
    obj(data, where, "labels", "germs")
    labels = list_(data["labels"], f"{where}.labels", item=str_, length=2)
    germs = list_(data["germs"], f"{where}.germs", item=CurveGerm.from_json, length=2)
    return station("", 1, zip(labels, germs))


def load_config(path: str) -> CurveConfig:
    return CurveConfig.from_json(load(path))


def _class_pairing(c1: CurveConfig, c2: CurveConfig) -> tuple[int, int]:
    """(m_C m_C')^{-1} [C]^T P [C'] as an integer numerator and denominator."""
    right = [b.as_integer_ratio() for b in c2.curve_class.coords]
    num, den = 0, 1
    for a, row in zip(c1.curve_class.coords, c1.ambient.pairing):
        an, ad = a.as_integer_ratio()
        for (bn, bd), x in zip(right, row):
            xn, xd = x.as_integer_ratio()
            d = ad * bd * xd
            num, den = num * d + an * bn * xn * den, den * d
    return num, den * c1.curve_class.multiplicity * c2.curve_class.multiplicity


def _c_value(c: CurveConfig) -> tuple[int, int]:
    """-c1(TX).[C] / m_C as an integer numerator and denominator."""
    num, den = 0, 1
    for x, a in zip(c.ambient.c1_vector, c.curve_class.coords):
        (xn, xd), (an, ad) = x.as_integer_ratio(), a.as_integer_ratio()
        num, den = num * xd * ad - xn * an * den, den * xd * ad
    return num, den * c.curve_class.multiplicity


def algebraic_intersection(c1: CurveConfig, c2: CurveConfig) -> Fraction:
    """(m_C m_C')^{-1} [C]^T P [C']: the pairing of the classes with the
    multiplicity normalization."""
    if c1.ambient != c2.ambient:
        raise AmbientMismatch("configurations live in different ambient models")
    return Fraction(*_class_pairing(c1, c2))


def c_pairing(c: CurveConfig) -> Fraction:
    """Value of c = -c1(TX) on the curve, with the 1/m_C normalization
    of the class pairing."""
    return Fraction(*_c_value(c))


def virtual_genus(c: CurveConfig) -> Fraction:
    """g(C) = (C.C + c(C))/2 + 1/m_C."""
    n1, d1 = _class_pairing(c, c)
    n2, d2 = _c_value(c)
    m = c.curve_class.multiplicity
    return Fraction((n1 * d2 + n2 * d1) * m + 2 * d1 * d2, 2 * d1 * d2 * m)


def _sum(values: list) -> Fraction:
    """The sum of rationals, made as one Fraction from one integer
    numerator over the product of the denominators."""
    num, den = 0, 1
    for v in values:
        n, d = v.as_integer_ratio()
        num, den = num * d + n * den, den * d
    return Fraction(num, den)


def _pair_term(g1: CurveGerm, g2: CurveGerm) -> Fraction:
    """(1/|G|) times the sum of the intersection multiplicities of every
    branch of g1's orbit with every branch of g2's (distinct germs
    assumed).  The group acts by biholomorphisms, so I(mu^j g1, mu^k g2)
    = I(g1, mu^(k-j) g2) and each translate of g1 meets g2's orbit alike."""
    total = 0
    for k in range(g2.orbit_size):
        total += intersection_multiplicity(g1, g2, k)
    return Fraction(g1.orbit_size * total, g1.group.a)


def local_pair_contribution(s: Station, z: str, zprime: str) -> Fraction:
    """k for an unordered pair of distinct domain points over one
    ambient point: (1/|G|) sum over both orbits of pairwise
    intersection multiplicities."""
    if z == zprime:
        raise InvalidInput("pair contribution needs two distinct labels")
    return _pair_term(s.point(z).germ, s.point(zprime).germ)


def local_point_contribution(s: Station, z: str) -> Fraction:
    """k for a single domain point z over an ambient point:
    (1/2|G|) (sum of branch deltas + sum over ordered branch pairs),
    where the pair sum's diagonal term is the branch's delta.

    With n the orbit size this is (1/2|G|)(2 n delta + cross), since
    every branch of the orbit has the base's delta; as in _pair_term the
    cross sum is n times the sum over 0 < d < n of I(base, mu^d base),
    and each mu^d must lie in Q(i).  I(base, mu^d base) = I(mu^-d base,
    base) = I(base, mu^(n-d) base), so d <= n/2 are summed, each twice
    but the middle one.
    """
    return _point_term(s.point(z).germ, s.isotropy_order)


def _point_term(base: CurveGerm, isotropy_order: int) -> Fraction:
    """local_point_contribution of the point whose germ is base."""
    size, delta, cross = base.orbit_size, self_intersection(base), 0
    for d in range(1, size // 2 + 1):
        cross += intersection_multiplicity(base, base, d) * (1 if 2 * d == size else 2)
    return Fraction(size * (2 * delta + cross), 2 * isotropy_order)


def _item(kind: str, station: str, labels: list, value: Fraction) -> dict:
    """One itemized contribution of a report; kind is "domain_genus",
    "pair", "point" or "double_point"."""
    return {"kind": kind, "station": station, "labels": labels, "value": value}


def adjunction_report(c: CurveConfig) -> dict:
    """Check g(C) = g_Sigma + sum of pair terms + sum of point terms,
    itemizing every local contribution; the first item is the domain's
    orbifold genus."""
    items = [_item("domain_genus", "", [], orbifold_genus(c.domain))]
    for s in c.stations:
        at, points = s.ambient_point, s.points
        for i, p1 in enumerate(points):
            for p2 in points[i + 1:]:
                items.append(_item("pair", at, [p1.label, p2.label], _pair_term(p1.germ, p2.germ)))
        for p in points:
            items.append(_item("point", at, [p.label], _point_term(p.germ, s.isotropy_order)))
    for d in c.regular_double_points:
        p1, p2 = d.points
        g1, g2 = p1.germ, p2.germ
        value = _pair_term(g1, g2) + self_intersection(g1) + self_intersection(g2)
        items.append(_item("double_point", d.ambient_point, [p1.label, p2.label], value))
    rhs = _sum([it["value"] for it in items])
    lhs = virtual_genus(c)
    return {"schema": SCHEMA_VERSION, "lhs": lhs, "rhs": rhs, "holds": lhs == rhs,
            "contributions": items}


def infer_meetings(c1: CurveConfig, c2: CurveConfig) -> list[tuple[int, int]]:
    """Station index pairs whose ambient ids coincide (where the two
    curves can meet)."""
    return [(i, j) for i, s1 in enumerate(c1.stations) for j, s2 in enumerate(c2.stations)
            if s1.ambient_point == s2.ambient_point]


def intersection_report(c1: CurveConfig, c2: CurveConfig) -> dict:
    """Check C.C' = sum over meeting points of (1/|G|) sum of pairwise
    branch intersection multiplicities."""
    algebraic = algebraic_intersection(c1, c2)
    items = []
    for i, j in infer_meetings(c1, c2):
        s1, s2 = c1.stations[i], c2.stations[j]
        for p1 in s1.points:
            for p2 in s2.points:
                value = _pair_term(p1.germ, p2.germ)
                items.append(_item("pair", s1.ambient_point, [p1.label, p2.label], value))
    local_sum = _sum([it["value"] for it in items])
    return {"schema": SCHEMA_VERSION, "algebraic": algebraic, "local_sum": local_sum,
            "holds": algebraic == local_sum, "contributions": items}


def embeddedness_verdict(report: dict) -> dict:
    """Verdict read from a configuration's adjunction report:
    EmbeddedSuborbifold when every local contribution vanishes (so the
    virtual genus equals the domain genus); otherwise Singular, with the
    total local contribution rhs - g_Sigma as the defect."""
    if not report["holds"]:
        raise AdjunctionViolated(
            f"adjunction fails on this configuration: lhs {report['lhs']} != "
            f"rhs {report['rhs']}; the input data is inconsistent"
        )
    rn, rd = report["rhs"].as_integer_ratio()
    gn, gd = report["contributions"][0]["value"].as_integer_ratio()
    num = rn * gd - gn * rd  # rhs - g_Sigma over the denominator rd * gd > 0
    defect = Fraction(num, rd * gd)
    if num < 0:
        raise AdjunctionViolated(
            f"negative local contribution total {defect}; the input data is inconsistent")
    return {"verdict": "Singular" if num else "EmbeddedSuborbifold", "defect": defect}
