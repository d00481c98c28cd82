"""Power series arithmetic, equivariant branch germs, and local invariants."""

import pytest

from orbicurves.errors import (
    DistinctBranchesRequired,
    EquivarianceViolated,
    InvalidInput,
    MultiplyCovered,
    PrecisionExhausted,
    UnrepresentableCoefficients,
    ZeroToPrecision,
)
from orbicurves.exact import GR_I, GR_ONE, GaussianRational
from orbicurves.germ import (
    CurveGerm,
    PowerSeries,
    _delta_from_characteristic,
    characteristic_exponents,
    germ_from_polynomials,
    germ_orbit,
    intersection_multiplicity,
    self_intersection,
    translate,
)
from orbicurves.lens import SingularityType

from corpus import branch, gaussian_terms, germ_pairs
from oracles import oracle_delta, oracle_intersection


def series(terms, trunc=32):
    return PowerSeries({e: GaussianRational.of(c) for e, c in terms.items()}, trunc)


class TestPowerSeries:
    def test_addition_and_negation(self):
        a = series({1: 1, 3: 2})
        b = series({1: -1, 2: 5})
        assert (a + b) == series({2: 5, 3: 2})
        assert (a - a).is_zero_to_precision()

    def test_product_truncation_gains_the_other_orders(self):
        # O(z^4) times an order-3 factor is only wrong from z^7 on,
        # so the product keeps min(4 + 3, 4 + 1) = 5 good orders
        a = series({1: 1}, trunc=4)
        b = series({3: 1}, trunc=4)
        prod = a * b
        assert prod.trunc == 5
        assert prod == series({4: 1}, trunc=5)

    def test_product_drops_terms_at_its_truncation(self):
        a = series({2: 1}, trunc=4)
        b = series({1: 1, 3: 7}, trunc=4)
        prod = a * b
        assert prod.trunc == 5
        assert prod.support() == [3]

    def test_order_and_degree(self):
        a = series({2: 1, 5: 3})
        assert a.order() == 2 and a.degree() == 5

    def test_order_of_zero_raises(self):
        with pytest.raises(ZeroToPrecision):
            PowerSeries.zero().order()

    def test_rejects_negative_exponent_and_bad_trunc(self):
        with pytest.raises(InvalidInput):
            series({-1: 1})
        with pytest.raises(InvalidInput):
            series({1: 1}, trunc=0)

    def test_terms_at_or_above_trunc_dropped(self):
        a = series({1: 1, 9: 4}, trunc=6)
        assert a.support() == [1]

    def test_equality_below_common_truncation(self):
        assert series({1: 1}, trunc=4) == series({1: 1, 5: 9}, trunc=6)
        assert series({1: 1}, trunc=4) != series({1: 1, 3: 9}, trunc=6)

    def test_invert_unit(self):
        u = series({0: 1, 1: -1}, trunc=6)
        inv = u.invert_unit()
        assert inv == series({k: 1 for k in range(6)}, trunc=6)
        assert (u * inv).coeff(0) == GR_ONE

    def test_invert_requires_unit(self):
        with pytest.raises(InvalidInput):
            series({1: 1}).invert_unit()

    def test_divide(self):
        num = series({3: 1, 4: 1}, trunc=8)
        den = series({1: 1}, trunc=8)
        assert num.divide(den) == series({2: 1, 3: 1}, trunc=7)

    def test_divide_rejects_negative_valuation(self):
        with pytest.raises(InvalidInput):
            series({1: 1}).divide(series({2: 1}))

    def test_divide_by_zero_to_precision(self):
        with pytest.raises(ZeroToPrecision):
            series({1: 1}).divide(PowerSeries.zero())

    def test_nth_root_of_unit_series(self):
        u = series({0: 1, 2: 1}, trunc=8)
        r = u.nth_root_of_unit_series(2)
        assert r * r == u

    def test_nth_root_needs_constant_term_one(self):
        with pytest.raises(InvalidInput):
            series({0: 4}).nth_root_of_unit_series(2)

    def test_json_round_trip(self):
        a = PowerSeries({1: GR_I, 4: GaussianRational.of("1/2", "-2")}, trunc=10)
        back = PowerSeries.from_json(a.to_json())
        assert back == a and back.trunc == 10


class TestCurveGerm:
    def test_must_pass_through_origin(self):
        with pytest.raises(InvalidInput):
            germ_from_polynomials({0: 1, 1: 1}, {})

    def test_coordinates_must_not_both_vanish(self):
        with pytest.raises(InvalidInput):
            germ_from_polynomials({}, {})

    def test_requires_finite_truncation(self):
        with pytest.raises(InvalidInput):
            CurveGerm(U=PowerSeries({1: GR_ONE}, None), V=PowerSeries.zero())

    def test_stabilizer_divides_group_order(self):
        with pytest.raises(EquivarianceViolated):
            germ_from_polynomials({1: 1}, {}, group=SingularityType(7, 5), m=3)

    def test_equivariance_checked_on_supports(self):
        # z1 + z2-like mixed supports at (5, 3) admit no injective action
        with pytest.raises(EquivarianceViolated):
            germ_from_polynomials({1: 1}, {1: 1}, group=SingularityType(5, 3), m=5)

    def test_weights_frozen_values(self):
        w = germ_from_polynomials({1: 1}, {}, group=SingularityType(7, 5), m=7)
        assert w.weights() == (1, 5)
        w = germ_from_polynomials({}, {1: 1}, group=SingularityType(7, 5), m=7)
        assert w.weights() == (3, 1)
        w = germ_from_polynomials({}, {1: 1}, group=SingularityType(5, 3), m=5)
        assert w.weights() == (2, 1)
        w = germ_from_polynomials({1: 1}, {}, group=SingularityType(5, 3), m=5)
        assert w.weights() == (1, 3)

    def test_trivial_chart_weights(self):
        assert germ_from_polynomials({1: 1}, {2: 1}).weights() == (0, 0)

    def test_multiplicity(self):
        assert germ_from_polynomials({2: 1}, {3: 1}).multiplicity() == 2
        assert germ_from_polynomials({}, {3: 1}).multiplicity() == 3

    def test_json_round_trip(self):
        g = germ_from_polynomials({1: "1/2"}, {}, group=SingularityType(7, 5), m=7)
        g = translate(g, 3)
        back = CurveGerm.from_json(g.to_json())
        assert back == g and back.twist == 3 and back.m == 7


class TestOrbits:
    def test_orbit_size_and_twists(self):
        g = germ_from_polynomials({1: 1, 2: 1}, {1: 1}, group=SingularityType(3, 1))
        orb = germ_orbit(g)
        assert len(orb) == 3
        assert [x.twist for x in orb.germs] == [0, 1, 2]
        assert orb.base is orb.germs[0]

    def test_orbit_rejects_understated_stabilizer(self):
        # z^3 is fixed by the full Z_3 translate action, so m = 1 is wrong
        g = germ_from_polynomials({3: 1}, {}, group=SingularityType(3, 1), m=1)
        with pytest.raises(EquivarianceViolated):
            germ_orbit(g)

    def test_orbit_group_argument_must_match(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=1)
        with pytest.raises(InvalidInput):
            germ_orbit(g, group=SingularityType(5, 2))
        with pytest.raises(InvalidInput):
            germ_orbit(g, m=3)

    def test_materialize_fourth_roots(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(4, 1), m=4)
        leads = []
        for k in range(4):
            u, _ = translate(g, k).materialize()
            leads.append(u.coeff(1))
        assert leads == [GR_ONE, GR_I, -GR_ONE, -GR_I]

    def test_materialize_outside_gaussian_field(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        with pytest.raises(UnrepresentableCoefficients):
            translate(g, 1).materialize()


class TestIntersection:
    def test_frozen_values(self):
        ax = germ_from_polynomials({1: 1}, {})
        ay = germ_from_polynomials({}, {1: 1})
        par = germ_from_polynomials({1: 1}, {2: 1})
        cusp = germ_from_polynomials({2: 1}, {3: 1})
        assert intersection_multiplicity(ax, ay) == 1
        assert intersection_multiplicity(par, ax) == 2
        assert intersection_multiplicity(par, ay) == 1
        assert intersection_multiplicity(cusp, ax) == 3
        assert intersection_multiplicity(cusp, ay) == 2

    def test_tangent_parabolas(self):
        up = germ_from_polynomials({1: 1}, {2: 1})
        down = germ_from_polynomials({1: 1}, {2: -1})
        assert intersection_multiplicity(up, down) == 2

    def test_high_contact_pair(self):
        cusp = germ_from_polynomials({2: 1}, {3: 1})
        near = germ_from_polynomials({2: 1}, {3: 1, 4: 1})
        assert intersection_multiplicity(cusp, near) == 7

    def test_symmetry(self):
        a = germ_from_polynomials({2: 1}, {3: 1})
        b = germ_from_polynomials({1: 1}, {2: 1})
        assert intersection_multiplicity(a, b) == intersection_multiplicity(b, a)

    def test_identical_data_rejected(self):
        g = germ_from_polynomials({1: 1}, {2: 1})
        h = germ_from_polynomials({1: 1}, {2: 1})
        with pytest.raises(DistinctBranchesRequired):
            intersection_multiplicity(g, h)

    def test_shared_axis_rejected(self):
        g = germ_from_polynomials({}, {1: 1})
        h = germ_from_polynomials({}, {2: 1, 3: 1})
        with pytest.raises(DistinctBranchesRequired):
            intersection_multiplicity(g, h)

    def test_chart_mismatch_rejected(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        h = germ_from_polynomials({}, {1: 1})
        with pytest.raises(InvalidInput):
            intersection_multiplicity(g, h)

    def test_same_branch_different_data_exhausts_precision(self):
        # (t^2, t^3) and (t^2, -t^3) parametrize one branch; the
        # resultant is identically zero and the data cannot certify it
        g = germ_from_polynomials({2: 1}, {3: 1})
        h = germ_from_polynomials({2: 1}, {3: -1})
        with pytest.raises(PrecisionExhausted):
            intersection_multiplicity(g, h)

    def test_twisted_translate_changes_the_count(self):
        base = germ_from_polynomials(
            {1: 1}, {2: 1}, group=SingularityType(2, 1), m=1
        )
        other = germ_from_polynomials(
            {1: 1}, {2: 1, 3: 1}, group=SingularityType(2, 1), m=1
        )
        # the translate negates both coordinates, moving third-order
        # contact with the base parabola down to second order
        assert intersection_multiplicity(base, other) == 3
        assert intersection_multiplicity(base, translate(other, 1)) == 2

    def test_matches_independent_oracle_on_sample(self):
        for (n1, u1, v1), (n2, u2, v2) in germ_pairs()[::13]:
            got = intersection_multiplicity(
                germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1)),
                germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2)),
            )
            assert got == oracle_intersection(u1, v1, u2, v2), (n1, n2)


class TestBranchInvariants:
    def test_characteristic_exponents_cusp(self):
        assert characteristic_exponents(germ_from_polynomials({2: 1}, {3: 1})) == (
            2,
            [3],
        )

    def test_characteristic_exponents_two_pairs(self):
        g = germ_from_polynomials({4: 1}, {6: 1, 7: 1})
        assert characteristic_exponents(g) == (4, [6, 7])
        assert self_intersection(g) == 8

    def test_smooth_branch_has_delta_zero(self):
        assert self_intersection(germ_from_polynomials({1: 1}, {5: 3})) == 0

    @pytest.mark.parametrize(
        "lead",
        [2, 2 * (10**33 + 3) * (10**33 + 7), 2 * 10**400 + 1],
        ids=["two", "large-composite", "beyond-float-range"],
    )
    def test_cusp_with_hostile_leading_coefficient(self, lead):
        # no n-th root of the leading coefficient is taken, so leads
        # without a root in Q(i), hard to factor, or too large for a
        # float all give the plain cusp
        g = germ_from_polynomials({2: lead}, {3: 1})
        assert characteristic_exponents(g) == (2, [3])
        assert self_intersection(g) == 1

    def test_multiple_cover_rejected(self):
        g = germ_from_polynomials({2: 1}, {4: 1})
        with pytest.raises(MultiplyCovered):
            self_intersection(g)

    def test_odd_milnor_number_is_checked(self):
        # beta0 = 2 with no characteristic exponent gives mu = -1, which
        # must raise, also under python -O
        with pytest.raises(ArithmeticError, match="Milnor number must be even"):
            _delta_from_characteristic(2, [])

    def test_matches_independent_delta_oracle_on_sample(self):
        for name in ["cusp", "e6", "e8", "quint_cusp", "two_pair", "mult6"]:
            u, v = branch(name)
            g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
            assert self_intersection(g) == oracle_delta(u, v), name
