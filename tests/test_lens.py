"""Lens space classification and the cobordism congruence."""

import math

import pytest

from orbicurves import lens
from orbicurves.errors import InvalidParameters
from orbicurves.lens import (
    LensSpace,
    SingularityType,
    allowed_q_set,
    cobordism_congruence,
    lens_equivalent,
)


class TestSingularityType:
    def test_order_and_triviality(self):
        t = SingularityType(7, 5)
        assert t.order == 7 and not t.is_trivial()
        assert SingularityType(1, 0).is_trivial()

    def test_json_round_trip(self):
        t = SingularityType(5, 2)
        assert SingularityType.from_json(t.to_json()) == t
        assert t.to_json() == [5, 2]

    @pytest.mark.parametrize("a,b", [(0, 0), (4, 4), (4, 2), (6, 3), (3, -1)])
    def test_rejects_bad_weights(self, a, b):
        with pytest.raises(InvalidParameters):
            SingularityType(a, b)


class TestLensSpace:
    def test_parameter_range(self):
        with pytest.raises(InvalidParameters):
            LensSpace(1, 1)
        with pytest.raises(InvalidParameters):
            LensSpace(4, 2)
        with pytest.raises(InvalidParameters):
            LensSpace(5, 5)

    def test_cone_type(self):
        assert LensSpace(5, 2).cone_type() == SingularityType(5, 2)


class TestEquivalence:
    def test_classical_non_equivalence(self):
        # the classical distinct pair of the same fundamental group
        assert not lens_equivalent(LensSpace(7, 1), LensSpace(7, 2))

    def test_inverse_is_oriented_equivalence(self):
        # 2 * 4 = 8 = 1 mod 7
        assert lens_equivalent(LensSpace(7, 2), LensSpace(7, 4), oriented=True)

    def test_negation_is_unoriented_only(self):
        assert lens_equivalent(LensSpace(5, 1), LensSpace(5, 4))
        assert not lens_equivalent(LensSpace(5, 1), LensSpace(5, 4), oriented=True)

    def test_different_groups_never_equivalent(self):
        assert not lens_equivalent(LensSpace(5, 2), LensSpace(7, 2))

    def test_reflexive_and_symmetric(self):
        for p, q in [(5, 2), (7, 3), (11, 4)]:
            assert lens_equivalent(LensSpace(p, q), LensSpace(p, q), oriented=True)
        assert lens_equivalent(LensSpace(7, 2), LensSpace(7, 4)) == lens_equivalent(
            LensSpace(7, 4), LensSpace(7, 2)
        )


class TestCongruence:
    def test_frozen_record_5_2_2(self):
        rec = cobordism_congruence(5, 2, 2)
        assert (rec["l"], rec["r"], rec["lprime"]) == (3, -2, 3)
        assert rec["caseA_integral"] and not rec["caseB_integral"]
        assert rec["allowed"]

    def test_frozen_record_5_2_3(self):
        rec = cobordism_congruence(5, 2, 3)
        assert not rec["caseA_integral"] and rec["caseB_integral"]
        assert rec["allowed"]

    def test_frozen_record_5_2_4(self):
        rec = cobordism_congruence(5, 2, 4)
        assert not rec["allowed"]

    def test_frozen_record_7_2_4(self):
        rec = cobordism_congruence(7, 2, 4)
        assert (rec["l"], rec["r"], rec["lprime"]) == (4, -3, 2)
        assert not rec["caseA_integral"] and rec["caseB_integral"]

    def test_l_and_r_satisfy_the_defining_identity(self):
        for p, q in [(5, 2), (7, 3), (12, 5), (30, 29)]:
            rec = cobordism_congruence(p, q, q)
            assert rec["l"] * p + rec["r"] * (p + q) == 1
            assert 0 < rec["l"] < p + q

    def test_self_target_always_allowed(self):
        for p in range(2, 20):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert cobordism_congruence(p, q, q)["allowed"]

    def test_characterization_small(self):
        # allowed iff q' = q or q q' = 1 mod p
        for p in range(2, 26):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for qp in range(1, p):
                    if math.gcd(p, qp) != 1:
                        continue
                    rec = cobordism_congruence(p, q, qp)
                    assert rec["allowed"] == (qp == q or (q * qp) % p == 1 % p)

    def test_case_a_matches_residue_criterion(self):
        for p in range(2, 26):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                for qp in range(1, p):
                    if math.gcd(p, qp) != 1:
                        continue
                    rec = cobordism_congruence(p, q, qp)
                    residue = (rec["r"] * (p + q) - q * rec["lprime"]) % p == 0
                    assert rec["caseA_integral"] == residue

    def test_json_keys(self):
        data = cobordism_congruence(5, 2, 3)
        assert list(data) == [
            "p", "q", "qprime", "l", "r", "lprime",
            "caseA_integral", "caseB_integral", "allowed",
        ]

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            cobordism_congruence(4, 2, 1)
        with pytest.raises(InvalidParameters):
            cobordism_congruence(5, 2, 5)

    def test_divisibility_invariant_is_checked(self, monkeypatch):
        # a wrong inverse of p mod p+q must raise, also under python -O
        monkeypatch.setattr(lens, "mod_inverse", lambda a, m: 2)
        with pytest.raises(ArithmeticError, match="divisible by p\\+q"):
            cobordism_congruence(5, 2, 2)


class TestAllowedSet:
    def test_frozen_sets(self):
        assert allowed_q_set(5, 2) == [2, 3]
        assert allowed_q_set(7, 3) == [3, 5]

    def test_sorted_and_unique(self):
        for p, q in [(11, 3), (12, 5), (13, 5)]:
            out = allowed_q_set(p, q)
            assert out == sorted(set(out))

    def test_membership_matches_congruence(self):
        for p, q in [(9, 2), (10, 3), (15, 4)]:
            members = set(allowed_q_set(p, q))
            for qp in range(1, p):
                if math.gcd(p, qp) != 1:
                    continue
                assert (qp in members) == cobordism_congruence(p, q, qp)["allowed"]

    def test_q_eq_one_gives_only_one(self):
        # q = 1: q' = 1 satisfies both clauses, nothing else does
        for p in range(2, 12):
            assert allowed_q_set(p, 1) == [1]
