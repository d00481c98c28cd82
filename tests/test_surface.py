"""Closed orbifold surfaces: validation, genus, tangent degree."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from orbicurves.errors import InvalidParameters
from orbicurves.surface import OrbifoldSurface, orbifold_genus, tangent_c1


class TestValidation:
    def test_rejects_bad_multiplicity(self):
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=0, genus=0, orders=())

    def test_rejects_negative_genus(self):
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=1, genus=-1, orders=())

    def test_rejects_order_below_two(self):
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=1, genus=0, orders=(1,))
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=1, genus=0, orders=(0, 3))

    def test_rejects_order_not_multiple_of_m_sigma(self):
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=2, genus=0, orders=(3,))
        with pytest.raises(InvalidParameters):
            OrbifoldSurface(m_sigma=2, genus=0, orders=(2,))


class TestGenus:
    def test_smooth_surface_genus_is_plain_genus(self):
        for g in range(4):
            assert orbifold_genus(OrbifoldSurface(1, g, ())) == g

    def test_sphere_with_one_point(self):
        # g = 0, one point of order 7: genus 0 + (1 - 1/7)/2 = 3/7
        s = OrbifoldSurface(1, 0, (7,))
        assert orbifold_genus(s) == Fraction(3, 7)

    def test_sphere_with_two_points(self):
        s = OrbifoldSurface(1, 0, (7, 5))
        assert orbifold_genus(s) == Fraction(3, 7) + Fraction(2, 5)

    def test_profile_vertex_value(self):
        # genus of the sphere with points of orders 5 and 7 is 29/35
        s = OrbifoldSurface(1, 0, (5, 7))
        assert orbifold_genus(s) == Fraction(29, 35)

    @given(
        m_sigma=st.integers(1, 12),
        genus=st.integers(0, 50),
        factors=st.lists(st.integers(2, 40), max_size=6),
    )
    def test_matches_the_fraction_formula(self, m_sigma, genus, factors):
        s = OrbifoldSurface(m_sigma, genus, [k * m_sigma for k in factors])
        want = Fraction(genus, m_sigma) + sum(
            (Fraction(1, 2 * m_sigma) - Fraction(1, 2 * m) for m in s.orders), Fraction(0)
        )
        got = orbifold_genus(s)
        assert type(got) is Fraction and got == want

    def test_genus_scales_with_multiplicity(self):
        # g/m + (1/(2m) - 1/(2 m_i)) per point: 1/2 + (1/4 - 1/8) = 5/8
        s = OrbifoldSurface(2, 1, (4,))
        assert orbifold_genus(s) == Fraction(5, 8)


class TestTangentDegree:
    def test_smooth_sphere(self):
        assert tangent_c1(OrbifoldSurface(1, 0, ())) == 2

    def test_smooth_torus(self):
        assert tangent_c1(OrbifoldSurface(1, 1, ())) == 0

    def test_three_point_sphere(self):
        # 2 - (1 - 1/3) - (1 - 1/5) - (1 - 1/9) = -16/45
        s = OrbifoldSurface(1, 0, (3, 5, 9))
        assert tangent_c1(s) == Fraction(-16, 45)

    def test_multiplicity_scales_base_term(self):
        s = OrbifoldSurface(3, 0, ())
        assert tangent_c1(s) == Fraction(2, 3)

    def test_genus_tangent_relation(self):
        # tangent_c1 = 2/m - 2 g + 2 (g - genus_orb) for reduced surfaces
        for orders in [(), (2,), (3, 4), (2, 2, 2)]:
            for g in range(3):
                s = OrbifoldSurface(1, g, orders)
                assert tangent_c1(s) == 2 - 2 * orbifold_genus(s)


class TestJson:
    def test_round_trip(self):
        s = OrbifoldSurface.from_json({"m_sigma": 2, "genus": 1, "orders": [4, 6]})
        assert (s.m_sigma, s.genus, s.orders) == (2, 1, (4, 6))

    def test_from_json_validates(self):
        with pytest.raises(InvalidParameters):
            OrbifoldSurface.from_json({"m_sigma": 1, "genus": 0, "orders": [1]})
