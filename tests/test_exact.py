"""Exact arithmetic: rational text form, modular inverses, Gaussian
rationals, and the fourth roots of unity."""

from fractions import Fraction

import pytest

from orbicurves.decode import format_rational, parse_rational
from orbicurves.errors import InvalidInput, NotCoprime
from orbicurves.exact import (
    FOURTH_ROOTS,
    GR_I,
    GR_ONE,
    GaussianRational,
    fourth_root_power,
)
from orbicurves.germ import PowerSeries
from orbicurves.lens import mod_inverse


class TestRationalText:
    def test_parse_plain_integer(self):
        assert parse_rational("7") == Fraction(7)

    def test_parse_fraction(self):
        assert parse_rational("-13/7") == Fraction(-13, 7)

    def test_parse_normalizes(self):
        assert parse_rational("4/6") == Fraction(2, 3)

    @pytest.mark.parametrize("bad", ["", "1/0", "a/b", "1.5", "1/2/3"])
    def test_parse_rejects(self, bad):
        with pytest.raises((InvalidInput, ZeroDivisionError)):
            parse_rational(bad)

    def test_parse_tolerates_surrounding_space(self):
        assert parse_rational(" 1/2 ") == Fraction(1, 2)

    def test_format_integer_has_no_slash(self):
        assert format_rational(Fraction(6, 3)) == "2"

    def test_format_fraction(self):
        assert format_rational(Fraction(-13, 7)) == "-13/7"

    def test_round_trip(self):
        for text in ["0", "1", "-1", "22/7", "-355/113"]:
            assert format_rational(parse_rational(text)) == text

    @pytest.mark.parametrize(
        "x,text",
        [
            (0, "0"),
            (7, "7"),
            (-7, "-7"),
            (10**40, str(10**40)),
            (-(10**40) - 1, str(-(10**40) - 1)),
            (Fraction(-6, 3), "-2"),
            (Fraction(-2 * 10**40, 2), f"-{10**40}"),
            (Fraction(10**40 + 1, 10**20), f"{10**40 + 1}/{10**20}"),
            (Fraction(1 - 10**40, 7), f"{1 - 10**40}/7"),
        ],
    )
    def test_format_ints_negatives_and_large_values(self, x, text):
        assert format_rational(x) == text


class TestModInverse:
    def test_small_values(self):
        assert mod_inverse(3, 7) == 5
        assert mod_inverse(5, 7) == 3
        assert mod_inverse(1, 2) == 1

    def test_frozen_congruence_values(self):
        # the l, l' arising in the (5, 2) cobordism bookkeeping
        assert mod_inverse(5, 7) == 3
        assert mod_inverse(2, 5) == 3
        assert mod_inverse(3, 5) == 2

    def test_inverse_property(self):
        for n in range(2, 40):
            for a in range(1, n):
                import math

                if math.gcd(a, n) == 1:
                    assert a * mod_inverse(a, n) % n == 1

    def test_not_coprime(self):
        with pytest.raises(NotCoprime):
            mod_inverse(6, 9)


class TestGaussianRational:
    def test_arithmetic(self):
        a = GaussianRational.of(Fraction(1, 2), Fraction(3, 2))
        b = GaussianRational.of(2, -1)
        assert a + b == GaussianRational.of(Fraction(5, 2), Fraction(1, 2))
        assert a * b == GaussianRational.of(Fraction(5, 2), Fraction(5, 2))
        assert (a / b) * b == a

    def test_i_squares_to_minus_one(self):
        assert GR_I * GR_I == -GR_ONE

    def test_norm_and_conjugate(self):
        z = GaussianRational.of(3, 4)
        assert z.norm() == Fraction(25)
        assert z * z.conjugate() == GaussianRational.of(25)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GR_ONE / GaussianRational.of(0)

    def test_pow(self):
        assert GR_I**4 == GR_ONE
        assert GR_I**-1 == -GR_I

    def test_json_round_trip(self):
        # a coefficient is read as {"re": "a/b", "im": "c/d"} inside a series
        z = GaussianRational.of(Fraction(-2, 3), Fraction(5, 7))
        data = {"terms": [[1, {"re": "-2/3", "im": "5/7"}]]}
        assert PowerSeries.from_json(data).coeff(1) == z


class TestRoots:
    def test_fourth_roots_cycle(self):
        assert FOURTH_ROOTS == (GR_ONE, GR_I, -GR_ONE, -GR_I)
        for k in range(8):
            assert fourth_root_power(k) == FOURTH_ROOTS[k % 4]

