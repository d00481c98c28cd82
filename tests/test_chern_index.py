"""Splitting of c1 over cone points and the index integrality scan."""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from orbicurves.chern_index import (
    EquivariantTrivialization,
    _rational_text,
    chern_split,
    index_integrality_scan,
    kawasaki_index,
)
from orbicurves.errors import InvalidInput, InvalidParameters, WeightOutOfRange
from orbicurves.decode import format_rational
from orbicurves.lens import allowed_q_set, cobordism_congruence
from orbicurves.surface import OrbifoldSurface, tangent_c1


class TestTrivialization:
    def test_weights_reduced_mod_order(self):
        t = EquivariantTrivialization(rank=1, relative_c1=0, points=[(5, (7,))])
        assert t.points[0][1] == (2,)

    def test_weight_count_must_match_rank(self):
        with pytest.raises(WeightOutOfRange):
            EquivariantTrivialization(rank=2, relative_c1=0, points=[(5, (1,))])

    def test_rejects_bad_rank_and_order(self):
        with pytest.raises(InvalidParameters):
            EquivariantTrivialization(rank=0, relative_c1=0, points=[])
        with pytest.raises(InvalidParameters):
            EquivariantTrivialization(rank=1, relative_c1=0, points=[(0, (0,))])

    @pytest.mark.parametrize(
        "relative_c1,points",
        [(1.5, [(5, (1,))]), (True, [(5, (1,))]), (0, [(5.0, (1,))]), (0, [(5, (1.9,))])],
        ids=["float_c1", "bool_c1", "float_order", "float_weight"],
    )
    def test_rejects_non_integers(self, relative_c1, points):
        # int() would read 1.5 as 1 and 1.9 as 1
        with pytest.raises(InvalidInput, match="expected an integer"):
            EquivariantTrivialization(rank=1, relative_c1=relative_c1, points=points)


class TestChernSplit:
    def test_sphere_three_points(self):
        # rank 1, weights all 1: c1 = -1 + 1/3 + 1/5 + 1/9 = -16/45
        t = EquivariantTrivialization(
            rank=1, relative_c1=-1, points=[(3, (1,)), (5, (1,)), (9, (1,))]
        )
        assert chern_split(t) == Fraction(-16, 45)

    def test_matches_tangent_degree_on_random_reduced_surfaces(self):
        rng = random.Random(20260815)
        for _ in range(60):
            g = rng.randrange(0, 3)
            k = rng.randrange(0, 5)
            orders = tuple(rng.randrange(2, 12) for _ in range(k))
            surf = OrbifoldSurface(1, g, orders)
            rel = 2 - 2 * g - k
            t = EquivariantTrivialization(
                rank=1, relative_c1=rel, points=[(m, (1,)) for m in orders]
            )
            assert chern_split(t) == tangent_c1(surf)

    def test_split_is_additive_in_relative_part(self):
        pts = [(3, (2,)), (7, (4,))]
        a = EquivariantTrivialization(1, 0, pts)
        b = EquivariantTrivialization(1, 5, pts)
        assert chern_split(b) - chern_split(a) == 5

    def test_rank_two_sums_both_weights(self):
        t = EquivariantTrivialization(rank=2, relative_c1=0, points=[(5, (1, 2))])
        assert chern_split(t) == Fraction(3, 5)


class TestKawasaki:
    def test_frozen_index_5_2(self):
        # c1 pairing 13/7 with a genus-0 domain, weights (1, 5) at order 7
        rep = kawasaki_index(Fraction(13, 7), 0, [(7, (1, 5))])
        assert rep["d"] == 3
        assert rep["index"] == 6
        assert rep["integral"]
        assert list(rep) == ["d", "index", "integral"]
        assert type(rep["d"]) is Fraction and type(rep["index"]) is Fraction

    def test_index_is_twice_d(self):
        rep = kawasaki_index(Fraction(1, 3), 1, [(3, (1, 1))])
        assert rep["index"] == 2 * rep["d"]

    def test_index_report_integrality(self):
        # genus 1 and no cone point: d is c1_pair
        assert kawasaki_index(Fraction(3), 1, [])["integral"]
        assert not kawasaki_index(Fraction(13, 2), 1, [])["integral"]

    @pytest.mark.parametrize(
        "x,integral",
        [
            (0, True),
            (-5, True),
            (10**40, True),
            (Fraction(-(10**40), 5), True),
            (Fraction(-1, 2), False),
            (Fraction(10**40, 7), False),
            (Fraction(8, 4), True),
            (Fraction(1, 2), False),
        ],
    )
    def test_integral_ints_negatives_and_large_values(self, x, integral):
        assert kawasaki_index(x, 1, [])["integral"] is integral

    @given(
        num=st.integers(-10**6, 10**6),
        den=st.integers(1, 10**4),
        genus=st.integers(0, 20),
        points=st.lists(
            st.tuples(st.integers(1, 60), st.tuples(st.integers(-99, 99), st.integers(-99, 99))),
            max_size=5,
        ),
    )
    def test_matches_the_fraction_formula(self, num, den, genus, points):
        rep = kawasaki_index(Fraction(num, den), genus, points)
        want = Fraction(num, den) + 2 - 2 * genus
        for m, (w1, w2) in points:
            want -= Fraction(w1 % m + w2 % m, m)
        assert type(rep["d"]) is Fraction and rep["d"] == want
        assert type(rep["index"]) is Fraction and rep["index"] == 2 * want
        assert rep["integral"] is (want.denominator == 1)

    def test_weight_count_checked(self):
        with pytest.raises(WeightOutOfRange):
            kawasaki_index(Fraction(1), 0, [(5, (1, 2, 3))])
        with pytest.raises(WeightOutOfRange):
            kawasaki_index(Fraction(1), 0, [(5, (1,))])

    def test_rejects_float_weight(self):
        # int(1.9) = 1 would give d = 3, the value for weights (1, 5)
        with pytest.raises(InvalidInput, match="weight: expected an integer, got 1.9"):
            kawasaki_index("13/7", 0, [(7, (1.9, 5))])

    def test_rejects_bool_genus(self):
        with pytest.raises(InvalidInput, match="genus: expected an integer, got true"):
            kawasaki_index("13/7", True, [(7, (1, 5))])

    def test_rejects_float_order(self):
        with pytest.raises(InvalidInput, match="point order: expected an integer, got 7.0"):
            kawasaki_index("13/7", 0, [(7.0, (1, 5))])

    def test_rejects_negative_genus(self):
        with pytest.raises(InvalidParameters):
            kawasaki_index(Fraction(1), -1, [])


class TestScan:
    def test_frozen_rows_5_2(self):
        rows = {r["qprime"]: r for r in index_integrality_scan(5, 2)}
        assert set(rows) == {1, 2, 3, 4}
        assert (rows[1]["caseA_d"], rows[1]["caseB_d"]) == ("7/5", "7/5")
        assert (rows[2]["caseA_d"], rows[2]["caseB_d"]) == ("1", "6/5")
        assert (rows[3]["caseA_d"], rows[3]["caseB_d"]) == ("6/5", "1")
        assert (rows[4]["caseA_d"], rows[4]["caseB_d"]) == ("4/5", "4/5")
        assert [q for q in rows if rows[q]["allowed"]] == [2, 3]

    def test_scan_matches_congruence_allowed(self):
        for p in range(2, 20):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for row in index_integrality_scan(p, q):
                    rec = cobordism_congruence(p, q, row["qprime"])
                    assert row["allowed"] == rec["allowed"]
                    assert row["caseA_integral"] == rec["caseA_integral"]
                    assert row["caseB_integral"] == rec["caseB_integral"]

    def test_scan_is_the_oracle_for_the_closed_allowed_set(self):
        # allowed_q_set is {q, q^-1 mod p}; the scan reaches it through
        # kawasaki_index alone
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                scanned = [r["qprime"] for r in index_integrality_scan(p, q) if r["allowed"]]
                assert allowed_q_set(p, q) == scanned

    def test_scan_skips_non_coprime(self):
        rows = index_integrality_scan(6, 1)
        assert [r["qprime"] for r in rows] == [1, 5]

    def test_row_json_uses_rational_text(self):
        row = next(iter(index_integrality_scan(5, 2)))
        assert list(row) == [
            "qprime", "caseA_d", "caseB_d", "caseA_integral", "caseB_integral", "allowed"
        ]
        assert row["caseA_d"] == "7/5"
        assert row["allowed"] is False

    @given(num=st.integers(), den=st.integers(min_value=1))
    @example(num=0, den=35)
    @example(num=-26, den=14)
    @example(num=-70, den=35)
    def test_rational_text_is_format_rational(self, num, den):
        assert _rational_text(num, den) == format_rational(Fraction(num, den))

    @staticmethod
    def two_calls_per_qprime(p, q, qprimes):
        """The scan as two full kawasaki_index calls per q'."""
        l = pow(p, -1, p + q)
        c1_pair = Fraction(2 * p + q + 1, p * (p + q))
        rows = []
        for qprime in qprimes:
            lprime = pow(qprime, -1, p)
            d_a = kawasaki_index(c1_pair, 0, [(p + q, (l, 1)), (p, (lprime, 1))])["d"]
            d_b = kawasaki_index(c1_pair, 0, [(p + q, (l, 1)), (p, (1, qprime))])["d"]
            a, b = d_a.denominator == 1, d_b.denominator == 1
            rows.append((qprime, d_a, d_b, a, b, a or b))
        return rows

    def test_rows_equal_two_index_calls_per_qprime(self):
        for p in range(2, 61):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                units = [u for u in range(1, p) if math.gcd(u, p) == 1]
                assert list(index_integrality_scan(p, q)) == scan_oracle_rows(p, q, units)

    def test_sampled_rows_equal_two_index_calls_at_p_10007(self):
        rng = random.Random(10007)
        p = 10007
        for q in (1, 2, p - 1, rng.randrange(3, p - 1)):
            rows = list(index_integrality_scan(p, q))
            sample = rng.sample(rows, 200) + [rows[0], rows[-1]]
            sample += [r for r in rows if r["allowed"]]
            assert sample == scan_oracle_rows(p, q, [r["qprime"] for r in sample])

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            index_integrality_scan(4, 2)
        with pytest.raises(InvalidParameters):
            index_integrality_scan(5, 0)


def scan_oracle_rows(p, q, qprimes):
    """The report rows of index scan for the given q', made by
    TestScan.two_calls_per_qprime with each d as format_rational text."""
    return [
        {
            "qprime": qprime,
            "caseA_d": format_rational(d_a),
            "caseB_d": format_rational(d_b),
            "caseA_integral": a,
            "caseB_integral": b,
            "allowed": allowed,
        }
        for qprime, d_a, d_b, a, b, allowed in TestScan.two_calls_per_qprime(p, q, qprimes)
    ]
