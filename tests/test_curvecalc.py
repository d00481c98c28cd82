"""Curve configurations: pairings, adjunction reports, embeddedness."""

import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from orbicurves.curvecalc import (
    AmbientModel,
    CurveClass,
    CurveConfig,
    Station,
    StationPoint,
    adjunction_report,
    algebraic_intersection,
    c_pairing,
    embeddedness_verdict,
    infer_meetings,
    intersection_report,
    load_config,
    local_pair_contribution,
    local_point_contribution,
    station,
    virtual_genus,
)
from orbicurves.errors import (
    AdjunctionViolated,
    AmbientMismatch,
    EquivarianceViolated,
    InvalidInput,
)
from orbicurves.germ import (
    germ_from_polynomials,
    intersection_multiplicity,
    self_intersection,
    translate,
)
from orbicurves.lens import SingularityType
from orbicurves.surface import OrbifoldSurface
from orbicurves.wps import build_model, c0_config, c0prime_config


def cp2() -> AmbientModel:
    return AmbientModel(h2_rank=1, pairing=((1,),), c1_vector=(3,))


def plane_curve(degree, genus=0, stations=(), doubles=()) -> CurveConfig:
    orders = tuple(
        p.germ.m for s in stations for p in s.points if p.germ.m > 1
    )
    return CurveConfig(
        ambient=cp2(),
        domain=OrbifoldSurface(1, genus, orders),
        curve_class=CurveClass((degree,)),
        stations=tuple(stations),
        regular_double_points=tuple(doubles),
    )


def node() -> Station:
    return station(
        "",
        1,
        [
            ("n1", germ_from_polynomials({1: 1}, {})),
            ("n2", germ_from_polynomials({}, {1: 1})),
        ],
    )


def cusp_station() -> Station:
    return station("regular:cusp", 1, [("c", germ_from_polynomials({2: 1}, {3: 1}))])


class TestAmbientModel:
    def test_rejects_asymmetric_pairing(self):
        with pytest.raises(InvalidInput):
            AmbientModel(2, ((0, 1), (2, 0)), (1, 1))

    def test_rejects_wrong_c1_length(self):
        with pytest.raises(InvalidInput):
            AmbientModel(1, ((1,),), (1, 2))

    def test_rejects_duplicate_point_ids(self):
        t = SingularityType(5, 2)
        with pytest.raises(InvalidInput):
            AmbientModel(1, ((1,),), (3,), (("x", t), ("x", t)))

    def test_regular_marker_reserved_for_trivial_type(self):
        with pytest.raises(InvalidInput):
            AmbientModel(1, ((1,),), (3,), (("regular:z", SingularityType(5, 2)),))

    @pytest.mark.parametrize("pid", ["x", "regular:x"])
    def test_singular_point_needs_a_singularity_type(self, pid):
        with pytest.raises(InvalidInput, match="needs a SingularityType"):
            AmbientModel(1, ((1,),), (3,), ((pid, (1, 0)),))

    def test_point_type_resolution(self):
        m = AmbientModel(1, ((1,),), (3,), (("x", SingularityType(5, 2)),))
        assert m.point_type("x") == SingularityType(5, 2)
        assert m.point_type("regular").is_trivial()
        assert m.point_type("regular:node").is_trivial()
        with pytest.raises(InvalidInput):
            m.point_type("y")

    def test_json_round_trip(self):
        m = AmbientModel(
            2,
            ((Fraction(1, 5), 0), (0, -1)),
            (Fraction(7, 5), 2),
            (("x", SingularityType(5, 2)),),
        )
        data = {
            "h2_rank": 2,
            "pairing": [["1/5", "0"], ["0", "-1"]],
            "c1_vector": ["7/5", "2"],
            "singular_points": [["x", [5, 2]]],
        }
        assert AmbientModel.from_json(data) == m


class TestCurveClass:
    def test_rejects_zero_class(self):
        with pytest.raises(InvalidInput):
            CurveClass((0, 0))

    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InvalidInput):
            CurveClass((1,), multiplicity=0)

    def test_is_type_one(self):
        assert CurveClass((1,)).is_type_one
        assert not CurveClass((1,), multiplicity=5).is_type_one


class TestStation:
    def test_builder_and_lookup(self):
        st = cusp_station()
        assert st.point("c").germ.m == 1
        with pytest.raises(InvalidInput):
            st.point("missing")

    def test_rejects_duplicate_labels(self):
        g = germ_from_polynomials({1: 1}, {})
        h = germ_from_polynomials({}, {1: 1})
        with pytest.raises(InvalidInput):
            station("regular", 1, [("a", g), ("a", h)])

    def test_rejects_isotropy_orbit_mismatch(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        with pytest.raises(InvalidInput):
            station("x", 5, [("a", g)])

    def test_direct_construction_checks_the_stabilizer(self):
        # z^3 is fixed by every Z_3 translate, so the stated m = 1 is too small
        g = germ_from_polynomials({3: 1}, {}, group=SingularityType(3, 1), m=1)
        with pytest.raises(EquivarianceViolated, match="translate by 1 fixes the germ"):
            Station("x", 3, (StationPoint("a", g),))


class TestRegularDoublePoint:
    def test_rejects_equal_labels(self):
        g = germ_from_polynomials({1: 1}, {})
        with pytest.raises(InvalidInput):
            station("", 1, [("a", g), ("a", g)])

    def test_rejects_nontrivial_chart(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        h = germ_from_polynomials({}, {1: 1})
        with pytest.raises(InvalidInput):
            station("", 1, [("a", g), ("b", h)])

    @pytest.mark.parametrize(
        "double",
        [
            station("", 1, [("a", germ_from_polynomials({1: 1}, {}))]),
            station(
                "",
                1,
                [(lab, germ_from_polynomials({1: 1}, {k: 1})) for k, lab in enumerate("abc", 2)],
            ),
            station(
                "x",
                3,
                [
                    ("a", germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)),
                    ("b", germ_from_polynomials({}, {1: 1}, group=SingularityType(3, 1), m=3)),
                ],
            ),
        ],
        ids=["one_point", "three_points", "isotropy_3"],
    )
    def test_config_takes_two_point_trivial_stations_only(self, double):
        with pytest.raises(InvalidInput, match="regular double point is a station of two points"):
            plane_curve(3, doubles=[double])


class TestConfigValidation:
    def test_class_length_must_match_rank(self):
        with pytest.raises(InvalidInput):
            CurveConfig(
                ambient=cp2(),
                domain=OrbifoldSurface(1, 0, ()),
                curve_class=CurveClass((1, 2)),
            )

    def test_multiplicity_must_match_domain(self):
        with pytest.raises(InvalidInput):
            CurveConfig(
                ambient=cp2(),
                domain=OrbifoldSurface(1, 0, ()),
                curve_class=CurveClass((1,), multiplicity=2),
            )

    def test_station_isotropy_must_match_ambient(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        amb = AmbientModel(1, ((1,),), (3,), (("x", SingularityType(5, 2)),))
        with pytest.raises(InvalidInput):
            CurveConfig(
                ambient=amb,
                domain=OrbifoldSurface(1, 0, (3,)),
                curve_class=CurveClass((1,)),
                stations=(station("x", 3, [("a", g)]),),
            )

    def test_germ_chart_must_match_ambient_type(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(5, 3), m=5)
        amb = AmbientModel(1, ((1,),), (3,), (("x", SingularityType(5, 2)),))
        with pytest.raises(InvalidInput):
            CurveConfig(
                ambient=amb,
                domain=OrbifoldSurface(1, 0, (5,)),
                curve_class=CurveClass((1,)),
                stations=(station("x", 5, [("a", g)]),),
            )

    def test_domain_orders_must_be_covered(self):
        with pytest.raises(InvalidInput):
            CurveConfig(
                ambient=cp2(),
                domain=OrbifoldSurface(1, 0, (3,)),
                curve_class=CurveClass((1,)),
            )

    def test_labels_unique_across_stations_and_doubles(self):
        d = station(
            "",
            1,
            [("c", germ_from_polynomials({1: 1}, {})), ("d", germ_from_polynomials({}, {1: 1}))],
        )
        with pytest.raises(InvalidInput):
            plane_curve(3, stations=[cusp_station()], doubles=[d, node()])
        # relabeled copy is fine
        ok = station(
            "",
            1,
            [("d1", germ_from_polynomials({1: 1}, {})), ("d2", germ_from_polynomials({}, {1: 1}))],
        )
        plane_curve(4, genus=1, stations=[cusp_station()], doubles=[ok])


class TestPairings:
    def test_line_conic_pairing(self):
        assert algebraic_intersection(plane_curve(1), plane_curve(2)) == 2

    def test_ambient_mismatch(self):
        other = CurveConfig(
            ambient=AmbientModel(1, ((2,),), (3,)),
            domain=OrbifoldSurface(1, 0, ()),
            curve_class=CurveClass((1,)),
        )
        with pytest.raises(AmbientMismatch):
            algebraic_intersection(plane_curve(1), other)

    def test_c_pairing_is_minus_c1(self):
        assert c_pairing(plane_curve(1)) == -3
        assert c_pairing(plane_curve(3)) == -9

    def test_virtual_genus_plane_curves(self):
        # (d^2 - 3d)/2 + 1
        assert virtual_genus(plane_curve(1)) == 0
        assert virtual_genus(plane_curve(2)) == 0
        assert virtual_genus(plane_curve(3)) == 1
        assert virtual_genus(plane_curve(4, genus=3)) == 3


_RATIONALS = st.fractions(min_value=-40, max_value=40, max_denominator=24)


@st.composite
def _curve_pair(draw):
    """Two classes, of multiplicities 1-6, in one rank-1 or rank-2 ambient
    with a random symmetric pairing and c1 vector."""
    n = draw(st.sampled_from([1, 2]))
    entries = {(i, j): draw(_RATIONALS) for i in range(n) for j in range(i, n)}
    pairing = [[entries[min(i, j), max(i, j)] for j in range(n)] for i in range(n)]
    ambient = AmbientModel(n, pairing, [draw(_RATIONALS) for _ in range(n)])
    coords = st.lists(_RATIONALS, min_size=n, max_size=n).filter(any)

    def curve():
        m = draw(st.integers(1, 6))
        return CurveConfig(ambient, OrbifoldSurface(m, 0, ()), CurveClass(draw(coords), m))

    return curve(), curve()


class TestPairingFormulas:
    """The integer-numerator pairings against Fraction formulas."""

    @given(_curve_pair())
    def test_pairings_and_virtual_genus(self, pair):
        c1, c2 = pair
        pairing = c1.ambient.pairing

        def class_pairing(a, b):
            total = sum(
                (x * y * pairing[i][j] for i, x in enumerate(a.curve_class.coords)
                 for j, y in enumerate(b.curve_class.coords)),
                Fraction(0),
            )
            return total / (a.curve_class.multiplicity * b.curve_class.multiplicity)

        def c_value(c):
            total = sum((x * a for x, a in zip(c.ambient.c1_vector, c.curve_class.coords)),
                        Fraction(0))
            return -total / c.curve_class.multiplicity

        got = algebraic_intersection(c1, c2)
        assert type(got) is Fraction and got == class_pairing(c1, c2)
        for c in (c1, c2):
            m = c.curve_class.multiplicity
            want = (class_pairing(c, c) + c_value(c)) / 2 + Fraction(1, m)
            assert type(c_pairing(c)) is Fraction and c_pairing(c) == c_value(c)
            assert type(virtual_genus(c)) is Fraction and virtual_genus(c) == want


class TestLocalContributions:
    def test_pair_contribution_needs_distinct_labels(self):
        st = cusp_station()
        with pytest.raises(InvalidInput):
            local_pair_contribution(st, "c", "c")

    def test_cusp_point_contribution(self):
        assert local_point_contribution(cusp_station(), "c") == 1

    def test_orbit_point_contribution(self):
        # (z, z^2) at a (4,1) point: four branches, pairwise contact 2,
        # so (2*4*0 + 24)/(2*4) = 3
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(4, 1), m=1)
        st = station("z", 4, [("a", g)])
        assert local_point_contribution(st, "a") == 3

    def test_pair_against_a_fixed_branch_in_z3(self):
        # each of the three translates of (z, z^2) is tangent to the fixed
        # axis (z, 0), so 3 * 2 / 3 = 2; only the base of the second
        # orbit is needed, and it needs no root of unity outside Q(i)
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(3, 1))
        axis = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        st = station("z", 3, [("a", g), ("b", axis)])
        assert local_pair_contribution(st, "a", "b") == 2

    @pytest.mark.parametrize(
        "germs,pair,degree,genus",
        [
            (tuple(p.germ for p in node().points), 1, 3, 0),
            (
                (germ_from_polynomials({1: 1}, {2: 1}), germ_from_polynomials({1: 1}, {2: -1})),
                2,
                4,
                1,
            ),
            (
                (germ_from_polynomials({2: 1}, {3: 1}), germ_from_polynomials({}, {1: 1})),
                2,
                4,
                0,
            ),
        ],
        ids=["node", "tacnode", "cusp_axis"],
    )
    def test_node_station_matches_double_point(self, germs, pair, degree, genus):
        # a double point counts delta(g1) + delta(g2) + I(g1, g2), as the
        # same two points do as a station: one pair term, two point terms
        st = station("regular:node", 1, [("n1", germs[0]), ("n2", germs[1])])
        double = station("", 1, [("n1", germs[0]), ("n2", germs[1])])
        via_station = plane_curve(degree, genus, stations=[st])
        via_double = plane_curve(degree, genus, doubles=[double])
        assert local_pair_contribution(st, "n1", "n2") == pair
        assert adjunction_report(via_station)["rhs"] == adjunction_report(via_double)["rhs"]
        assert embeddedness_verdict(adjunction_report(via_station)) == embeddedness_verdict(
            adjunction_report(via_double)
        )


def _translates(g):
    return [translate(g, k) for k in range(g.group.a // g.m)]


def _double_sum_point(s, label):
    """The point term summed over every ordered pair of translates."""
    g = s.point(label).germ
    orbit = _translates(g)
    delta = self_intersection(g)
    cross = sum(
        intersection_multiplicity(x, y)
        for i, x in enumerate(orbit)
        for j, y in enumerate(orbit)
        if i != j
    )
    return Fraction(2 * len(orbit) * delta + cross, 2 * s.isotropy_order)


def _double_sum_pair(s, z, w):
    """The pair term summed over every pair of translates."""
    total = sum(
        intersection_multiplicity(x, y)
        for x in _translates(s.point(z).germ)
        for y in _translates(s.point(w).germ)
    )
    return Fraction(total, s.isotropy_order)


def _outcome(f, *args):
    try:
        return f(*args)
    except (ArithmeticError, ValueError) as exc:
        return type(exc)


@st.composite
def _z2_z4_germ(draw, a, b):
    """A germ equivariant for a subgroup Z_m of Z_a: U's exponents are
    u mod m and V's are u*b mod m for a unit u."""
    m = draw(st.sampled_from([m for m in (1, 1, 2, 4) if a % m == 0]))  # m = 1 twice as often
    u = draw(st.sampled_from([u for u in range(m) if math.gcd(u, m) == 1]))
    coeff = st.sampled_from([-2, -1, 1, 2])

    def terms(r):
        allowed = [j for j in range(1, 7) if (j - r) % m == 0]
        exps = draw(st.sets(st.sampled_from(allowed), max_size=2))
        return {j: draw(coeff) for j in exps}

    u_terms, v_terms = terms(u), terms(u * b)
    assume(u_terms or v_terms)
    return germ_from_polynomials(u_terms, v_terms, group=SingularityType(a, b), m=m, trunc=12)


@st.composite
def _z2_z4_station(draw):
    a, b = draw(st.sampled_from([(2, 0), (2, 1), (4, 0), (4, 1), (4, 3)]))
    germs = [draw(_z2_z4_germ(a, b)), draw(_z2_z4_germ(a, b))]
    try:
        return station("z", a, [("p", germs[0]), ("q", germs[1])])
    except EquivarianceViolated:  # a stated stabilizer below the true one
        assume(False)


class TestOrbitSums:
    """The O(size) orbit sums against the sum over all pairs of translates."""

    @settings(max_examples=60, deadline=None)
    @given(_z2_z4_station())
    def test_point_and_pair_terms_match_the_double_sum(self, s):
        for label in ("p", "q"):
            assert _outcome(local_point_contribution, s, label) == _outcome(
                _double_sum_point, s, label
            )
        for z, w in (("p", "q"), ("q", "p")):
            assert _outcome(local_pair_contribution, s, z, w) == _outcome(
                _double_sum_pair, s, z, w
            )


class TestAdjunction:
    def test_line_and_conic_are_embedded(self):
        for d in (1, 2):
            rep = adjunction_report(plane_curve(d))
            assert rep["holds"] and rep["lhs"] == 0
            verdict = embeddedness_verdict(adjunction_report(plane_curve(d)))
            assert verdict == {"verdict": "EmbeddedSuborbifold", "defect": 0}

    def test_nodal_cubic(self):
        cfg = plane_curve(3, doubles=[node()])
        rep = adjunction_report(cfg)
        assert rep["holds"] and rep["lhs"] == 1
        assert rep["rhs"] - rep["contributions"][0]["value"] == 1
        assert embeddedness_verdict(adjunction_report(cfg)) == {"verdict": "Singular", "defect": 1}

    def test_cuspidal_cubic(self):
        cfg = plane_curve(3, stations=[cusp_station()])
        rep = adjunction_report(cfg)
        assert rep["holds"] and rep["lhs"] == 1
        kinds = [c["kind"] for c in rep["contributions"]]
        assert kinds == ["domain_genus", "point"]
        assert embeddedness_verdict(adjunction_report(cfg)) == {"verdict": "Singular", "defect": 1}

    def test_inconsistent_config_fails_adjunction(self):
        # a cubic with no singular points cannot satisfy genus 1 = 0
        cfg = plane_curve(3)
        rep = adjunction_report(cfg)
        assert not rep["holds"]
        with pytest.raises(AdjunctionViolated):
            embeddedness_verdict(adjunction_report(cfg))

    def test_report_json_shape(self):
        data = adjunction_report(plane_curve(3, doubles=[node()]))
        assert list(data) == ["schema", "lhs", "rhs", "holds", "contributions"]
        assert data["lhs"] == 1 and type(data["lhs"]) is Fraction and data["holds"] is True
        assert [list(c) for c in data["contributions"]] == [
            ["kind", "station", "labels", "value"]
        ] * 2
        assert all(type(c["value"]) is Fraction for c in data["contributions"])


class TestWeightedModelCurves:
    def test_c0_embedded_sampled(self):
        for p, q in [(5, 2), (7, 3), (11, 4)]:
            cfg = c0_config(build_model(p, q, q))
            rep = adjunction_report(cfg)
            assert rep["holds"]
            assert rep["lhs"] == Fraction(1, 2) - Fraction(1, 2 * (p + q))
            assert embeddedness_verdict(adjunction_report(cfg))["verdict"] == "EmbeddedSuborbifold"

    def test_c0_prime_embedded_and_self_pairing(self):
        m = build_model(5, 2, 2)
        cfg = c0prime_config(m)
        assert algebraic_intersection(cfg, cfg) == Fraction(1, 35)
        assert adjunction_report(cfg)["holds"]
        assert embeddedness_verdict(adjunction_report(cfg))["verdict"] == "EmbeddedSuborbifold"

    def test_c0_meets_c0_prime(self):
        m = build_model(5, 2, 2)
        rep = intersection_report(c0_config(m), c0prime_config(m))
        assert rep["holds"]
        assert rep["algebraic"] == Fraction(1, 7)

    def test_infer_meetings_by_ambient_id(self):
        m = build_model(5, 2, 2)
        assert infer_meetings(c0_config(m), c0prime_config(m)) == [(0, 0)]
        assert infer_meetings(c0_config(m), plane_curve(1)) == []


def quartic_json() -> dict:
    """plane_curve(4, genus=1, stations=[cusp_station()], doubles=[node()])
    as a file, leaving out every optional field that has its default."""

    def series(*exponents):
        return {"trunc": 32, "terms": [[e, {"re": "1"}] for e in exponents]}

    return {
        "schema": 1,
        "ambient": {"h2_rank": 1, "pairing": [["1"]], "c1_vector": ["3"]},
        "domain": {"genus": 1},
        "class": {"coords": ["4"]},
        "stations": [
            {
                "ambient_point": "regular:cusp",
                "isotropy_order": 1,
                "points": [{"label": "c", "order": 1, "germ": {"U": series(2), "V": series(3)}}],
            }
        ],
        "regular_double_points": [
            {
                "labels": ["n1", "n2"],
                "germs": [{"U": series(1), "V": series()}, {"U": series(), "V": series(1)}],
            }
        ],
    }


class TestSerialization:
    def test_round_trip_with_stations_and_doubles(self, tmp_path):
        cfg = plane_curve(4, genus=1, stations=[cusp_station()], doubles=[node()])
        path = tmp_path / "quartic.json"
        path.write_text(__import__("json").dumps(quartic_json()), encoding="utf-8")
        back = load_config(str(path))
        assert back == cfg

    def test_unsupported_schema_rejected(self):
        data = quartic_json()
        data["schema"] = 99
        with pytest.raises(InvalidInput):
            CurveConfig.from_json(data)

    def test_declared_order_mismatch_rejected(self):
        data = quartic_json()
        data["stations"][0]["points"][0]["order"] = 2
        with pytest.raises(InvalidInput):
            CurveConfig.from_json(data)
