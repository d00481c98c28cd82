"""Weighted chain complexes, homology, and complexes of groups."""

import json
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from orbicurves import chains
from orbicurves.chains import (
    Chain,
    FiniteGroup,
    GroupComplexFull,
    WeightedComplex,
    boundary,
    boundary_matrices,
    boundary_squared_is_zero,
    cyclic_group_complex,
    faces,
    homology_betti,
    load_complex,
    load_group_complex,
    teardrop_complex,
    to_singular,
    validate_group_complex,
)
from orbicurves.cli import main
from orbicurves.errors import InvalidInput, MalformedTable, UnsupportedSimplex

from complex_gen import cone_torus, random_weighted_complex
from golden_commands import CONFIGS
from oracles import oracle_betti


def betti(w: WeightedComplex) -> list[int]:
    return homology_betti(w, boundary_matrices(w))


def chain_boundary_squared_is_zero(w: WeightedComplex) -> bool:
    """The identity checked through boundary on Chains, one basis
    simplex at a time."""
    return all(
        boundary(boundary(Chain.of(s), w), w).is_zero() for s in w.simplices if len(s) > 2
    )


class TestWeightedComplex:
    def test_face_closure(self):
        w = WeightedComplex([(0, 1, 2)])
        assert len(w.simplices) == 7
        assert (0, 2) in w and (1,) in w

    def test_vertices_sorted_and_deduplicated(self):
        w = WeightedComplex([(2, 0, 1), (0, 1, 2)])
        assert w.of_dimension(2) == [(0, 1, 2)]

    def test_rejects_repeated_vertices(self):
        with pytest.raises(InvalidInput):
            WeightedComplex([(0, 0, 1)])

    def test_missing_orders_default_to_one(self):
        w = WeightedComplex([(0, 1)], {(0,): 3})
        assert w.order((0,)) == 3
        assert w.order((1,)) == 1
        assert w.order((0, 1)) == 1

    def test_string_order_keys(self):
        w = WeightedComplex([(0, 1, 2)], {"0": 4, "1": 2, "0,1": 2})
        assert w.order((0,)) == 4
        assert w.order((0, 1)) == 2

    def test_order_for_missing_simplex_rejected(self):
        with pytest.raises(InvalidInput):
            WeightedComplex([(0, 1)], {(5,): 2})

    def test_non_positive_order_rejected(self):
        with pytest.raises(InvalidInput):
            WeightedComplex([(0, 1)], {(0,): 0})

    def test_divisibility_enforced(self):
        # an edge of order 2 over trivial vertices is inconsistent
        with pytest.raises(InvalidInput):
            WeightedComplex([(0, 1)], {(0, 1): 2})

    def test_divisibility_satisfied(self):
        w = WeightedComplex([(0, 1)], {(0,): 6, (1,): 4, (0, 1): 2})
        assert w.order((0, 1)) == 2

    def test_json_round_trip(self, tmp_path):
        w = WeightedComplex([(0, 1, 2), (2, 3)], {(0,): 6, (1,): 2, (0, 1): 2})
        data = {"simplices": [[0, 1, 2], [2, 3]], "orders": {"0": 6, "1": 2, "0,1": 2}}
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        back = load_complex(str(path))
        assert back.simplices == w.simplices and back.orders == w.orders


class TestChain:
    def test_mixed_dimensions_rejected(self):
        with pytest.raises(InvalidInput):
            Chain({(0,): 1, (0, 1): 1})

    def test_empty_chain_needs_degree(self):
        with pytest.raises(InvalidInput):
            Chain({})
        assert Chain({}, degree=2).is_zero()

    def test_addition_and_scaling(self):
        a = Chain.of((0, 1), 2)
        b = Chain.of((0, 1), -2) + Chain.of((1, 2), 1)
        assert (a + b) == Chain.of((1, 2))
        assert a.scale(Fraction(1, 2)) == Chain.of((0, 1))

    def test_degree_mismatch_rejected(self):
        with pytest.raises(InvalidInput):
            Chain.of((0,)) + Chain.of((0, 1))


class TestBoundary:
    def test_weighted_edge_boundary(self):
        w = teardrop_complex(5)
        out = boundary(Chain.of((0, 1)), w)
        assert out == Chain({(1,): 1, (0,): -5})

    def test_triangle_boundary_signs(self):
        w = WeightedComplex([(0, 1, 2)])
        out = boundary(Chain.of((0, 1, 2)), w)
        assert out == Chain({(1, 2): 1, (0, 2): -1, (0, 1): 1})

    def test_vertex_boundary_is_zero(self):
        w = teardrop_complex(3)
        assert faces((0,)) == []
        assert boundary(Chain.of((0,)), w).is_zero()

    def test_unknown_simplex_rejected(self):
        w = teardrop_complex(3)
        with pytest.raises(UnsupportedSimplex):
            boundary(Chain.of((4, 5)), w)

    def test_boundary_squared_teardrop(self):
        for p in (1, 2, 7, 12):
            assert boundary_squared_is_zero(boundary_matrices(teardrop_complex(p)))

    def test_boundary_squared_random(self):
        rng = random.Random(411)
        for _ in range(25):
            w = random_weighted_complex(rng)
            assert boundary_squared_is_zero(boundary_matrices(w))

    def test_boundary_squared_agrees_with_chain_composite(self):
        rng = random.Random(412)
        complexes = [random_weighted_complex(rng) for _ in range(25)]
        complexes += [cone_torus(n, order) for n in (3, 4, 6) for order in (1, 2, 5)]
        for w in complexes:
            squared_zero = boundary_squared_is_zero(boundary_matrices(w))
            assert squared_zero is chain_boundary_squared_is_zero(w) is True

    @pytest.mark.parametrize(
        "w",
        [teardrop_complex(3), cone_torus(4, 6), random_weighted_complex(random.Random(9))],
        ids=["teardrop", "cone_torus", "random"],
    )
    def test_corrupted_face_weight_is_caught(self, monkeypatch, w):
        # the check is not vacuous: one wrong weight on one triangle is seen
        real, target = chains._face_weights, w.of_dimension(2)[0]

        def corrupted(complex_, s):
            out = real(complex_, s)
            if s == target:
                face, weight = out[0]
                out[0] = (face, 2 * weight)
            return out

        monkeypatch.setattr(chains, "_face_weights", corrupted)
        assert boundary_squared_is_zero(boundary_matrices(w)) is False
        assert chain_boundary_squared_is_zero(w) is False

    def test_boundary_is_linear(self):
        w = teardrop_complex(4)
        a, b = Chain.of((0, 1, 2)), Chain.of((1, 2, 3), 3)
        lhs = boundary(a + b, w)
        rhs = boundary(a, w) + boundary(b, w)
        assert lhs == rhs


class TestHomology:
    def test_point(self):
        assert betti(WeightedComplex([(0,)])) == [1]

    def test_circle(self):
        w = WeightedComplex([(0, 1), (1, 2), (0, 2)])
        assert betti(w) == [1, 1]

    def test_teardrop_is_a_rational_sphere(self):
        for p in (1, 2, 7, 12):
            assert betti(teardrop_complex(p)) == [1, 0, 1]

    def test_two_components(self):
        w = WeightedComplex([(0, 1), (2, 3)], {(0,): 2, (2,): 2})
        assert betti(w) == [2, 0]

    def test_weights_do_not_change_betti(self):
        rng = random.Random(1999)
        for _ in range(15):
            w = random_weighted_complex(rng, n_vertices=8, n_tops=6)
            assert betti(w) == betti(w.underlying())

    def test_matches_sympy_oracle_on_weighted_complexes(self):
        rng = random.Random(2024)
        checked = 0
        while checked < 20:
            w = random_weighted_complex(rng)
            if not w.orders:
                continue
            assert betti(w) == oracle_betti(w.simplices, w.orders)
            checked += 1

    def test_cone_torus_matches_sympy_oracle(self):
        w = cone_torus(6, 12)
        assert betti(w) == oracle_betti(w.simplices, w.orders) == [1, 2, 1]


class TestSingularComparison:
    def test_rescales_by_order(self):
        w = teardrop_complex(5)
        out = to_singular(Chain.of((0,)), w)
        assert out == Chain({(0,): Fraction(1, 5)})

    def test_chain_map_property(self):
        rng = random.Random(77)
        for _ in range(10):
            w = random_weighted_complex(rng, n_vertices=7, n_tops=5)
            plain = w.underlying()
            for s in w.simplices:
                if len(s) == 1:
                    continue
                c = Chain.of(s)
                lhs = to_singular(boundary(c, w), w)
                rhs = boundary(to_singular(c, w), plain)
                assert lhs == rhs, s

    def test_unknown_simplex_rejected(self):
        with pytest.raises(UnsupportedSimplex):
            to_singular(Chain.of((9,)), teardrop_complex(2))


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup.cyclic(4)
        assert g.order == 4
        assert g.mul(3, 2) == 1
        assert g.inverse(1) == 3

    def test_rejects_non_latin_square(self):
        with pytest.raises(MalformedTable):
            FiniteGroup([[0, 1], [1, 1]])

    def test_rejects_wrong_identity(self):
        with pytest.raises(MalformedTable):
            FiniteGroup([[1, 0], [0, 1]])

    def test_rejects_non_associative_loop(self):
        # a Latin square with identity that is not a group
        table = [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ]
        with pytest.raises(MalformedTable):
            FiniteGroup(table)

    def test_rejects_oversized_table(self):
        with pytest.raises(MalformedTable):
            FiniteGroup.cyclic(65)


def s3_table():
    """Multiplication table of the symmetric group on 3 letters with the
    identity first; table[i][j] = perms[i] after perms[j]."""
    perms = sorted(permutations(range(3)))
    index = {p: k for k, p in enumerate(perms)}
    table = [
        [index[tuple(a[b[x]] for x in range(3))] for b in perms] for a in perms
    ]
    return table, perms, index


class TestGroupComplex:
    def test_cyclic_structure_validates(self):
        for p in (1, 2, 7, 12):
            assert validate_group_complex(cyclic_group_complex(teardrop_complex(p)))

    def test_cyclic_structure_validates_on_random(self):
        rng = random.Random(5)
        for _ in range(5):
            w = random_weighted_complex(rng, n_vertices=6, n_tops=4)
            assert validate_group_complex(cyclic_group_complex(w))

    def test_equal_orders_share_one_table(self):
        rng = random.Random(13)
        for w in [random_weighted_complex(rng) for _ in range(5)] + [cone_torus(3, 4)]:
            g = cyclic_group_complex(w)
            for s in w.simplices:
                assert g.group(s).order == w.order(s)
                for t in w.simplices:
                    assert (g.group(s) is g.group(t)) == (w.order(s) == w.order(t))

    def test_missing_group_rejected(self):
        w = teardrop_complex(2)
        with pytest.raises(MalformedTable):
            GroupComplexFull(complex=w, groups={}, homs={})

    def test_group_order_mismatch_rejected(self):
        w = teardrop_complex(2)
        g = cyclic_group_complex(w)
        groups = {k: v for k, v in g.groups.items()}
        groups[(0,)] = FiniteGroup.cyclic(3)
        with pytest.raises(MalformedTable):
            GroupComplexFull(complex=w, groups=groups, homs=g.homs)

    def test_missing_hom_raises(self):
        w = teardrop_complex(2)
        g = cyclic_group_complex(w)
        broken = GroupComplexFull(complex=w, groups=g.groups, homs={})
        with pytest.raises(MalformedTable):
            validate_group_complex(broken)

    def test_non_homomorphism_fails(self):
        w = teardrop_complex(4)
        g = cyclic_group_complex(w)
        homs = dict(g.homs)
        # send the generator of the trivial group away from the identity
        key = next(k for k in homs if k.endswith("|0") and homs[k] == [0])
        homs[key] = [1]
        broken = GroupComplexFull(complex=w, groups=g.groups, homs=homs)
        assert validate_group_complex(broken) is False

    def test_corrupted_twist_fails_composition_identity(self):
        # solid tetrahedron: four levels of nested simplices make the
        # twist composition identity non-vacuous
        w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
        g = cyclic_group_complex(w)
        assert validate_group_complex(g)
        twisted = GroupComplexFull(
            complex=w,
            groups=g.groups,
            homs=g.homs,
            twists={"0,1,2,3|0,1|0": 1},
        )
        assert validate_group_complex(twisted) is False

    def test_corrupted_twist_fails_only_the_triple_identity(self):
        # every simplex has group Z/2 (the gcd weighting of vertices of
        # order 2), so conjugation is trivial and the pair identity holds
        # whatever the twists; the edge 0,1 has a further face, so the
        # twist on 0,1,2,3 > 0,1,2 > 0,1 enters the triple identity,
        # which it breaks
        tetra = (0, 1, 2, 3)
        w = WeightedComplex(
            [tetra], {s: 2 for k in range(1, 5) for s in combinations(tetra, k)}
        )
        g = cyclic_group_complex(w)
        assert validate_group_complex(g)
        twisted = GroupComplexFull(
            complex=w,
            groups=g.groups,
            homs=g.homs,
            twists={"0,1,2,3|0,1,2|0,1": 1},
        )
        assert validate_group_complex(twisted) is False

    def test_out_of_range_twist_rejected(self):
        w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
        g = cyclic_group_complex(w)
        twisted = GroupComplexFull(
            complex=w, groups=g.groups, homs=g.homs, twists={"0,1,2,3|0,1|0": 9}
        )
        with pytest.raises(MalformedTable):
            validate_group_complex(twisted)

    def test_load_defaults_to_cyclic(self, tmp_path):
        # the boundary of a tetrahedron with a cone point of order 3
        triangles = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
        path = tmp_path / "complex.json"
        path.write_text(
            json.dumps({"simplices": triangles, "orders": {"0": 3}}), encoding="utf-8"
        )
        g = load_group_complex(str(path))
        assert validate_group_complex(g)
        assert g.group((0,)).order == 3


class TestNonabelianConjugation:
    """The first twist identity conjugates by the twist element, which
    only bites over a nonabelian group."""

    def build(self, tri_to_vertex_fix, twists):
        table, perms, index = s3_table()
        transpo_01 = index[(1, 0, 2)]
        transpo_02 = index[(2, 1, 0)]
        w = WeightedComplex(
            [(0, 1, 2)],
            {
                (0,): 6, (1,): 6, (2,): 6,
                (0, 1): 2, (0, 2): 2, (1, 2): 2,
                (0, 1, 2): 2,
            },
        )
        groups = {
            "0": table, "1": table, "2": table,
            "0,1": [[0, 1], [1, 0]],
            "0,2": [[0, 1], [1, 0]],
            "1,2": [[0, 1], [1, 0]],
            "0,1,2": [[0, 1], [1, 0]],
        }
        embed = [0, transpo_01]
        homs = {}
        for e in ("0,1", "0,2", "1,2"):
            homs[f"0,1,2|{e}"] = [0, 1]
            for v in e.split(","):
                homs[f"{e}|{v}"] = embed
        for v in ("0", "1", "2"):
            homs[f"0,1,2|{v}"] = embed
        if tri_to_vertex_fix:
            homs["0,1,2|0"] = [0, transpo_02]
        return GroupComplexFull(
            complex=w, groups=groups, homs=homs, twists=twists
        ), index

    def test_consistent_structure_validates(self):
        g, _ = self.build(tri_to_vertex_fix=False, twists={})
        assert validate_group_complex(g)

    def test_mismatched_embedding_fails_without_twist(self):
        g, _ = self.build(tri_to_vertex_fix=True, twists={})
        assert validate_group_complex(g) is False

    def test_conjugating_twist_repairs_the_mismatch(self):
        table, perms, index = s3_table()
        s3 = FiniteGroup(table)
        transpo_01 = index[(1, 0, 2)]
        transpo_02 = index[(2, 1, 0)]
        fixers = [
            t
            for t in range(6)
            if s3.mul(s3.mul(t, transpo_02), s3.inverse(t)) == transpo_01
        ]
        assert fixers, "every pair of transpositions is conjugate"
        twists = {
            f"0,1,2|{e}|0": fixers[0] for e in ("0,1", "0,2")
        }
        g, _ = self.build(tri_to_vertex_fix=True, twists=twists)
        assert validate_group_complex(g)


class TestChainsBettiCli:
    def test_each_boundary_matrix_is_built_once(self, monkeypatch, capsys):
        # the identity check and the ranks share one build of each matrix
        built = []
        face_weights = chains._face_weights
        monkeypatch.setattr(
            chains, "_face_weights", lambda w, s: built.append(s) or face_weights(w, s)
        )
        path = CONFIGS / "teardrop_7.json"
        assert main(["chains", "betti", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["betti"] == [1, 0, 1]
        simplices = [s for s in load_complex(str(path)).simplices if len(s) > 1]
        assert sorted(built) == sorted(simplices)


class TestChainsCliInput:
    """Hostile complex files end in exit 2 with a one-line message."""

    def run(self, tmp_path, capsys, verb, data):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["chains", verb, str(path)])
        captured = capsys.readouterr()
        assert captured.out == ""
        return code, captured.err

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    def test_empty_complex(self, tmp_path, capsys, verb):
        code, err = self.run(tmp_path, capsys, verb, {"simplices": []})
        assert code == 2
        assert err == "error: a complex needs at least one simplex\n"

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    def test_bool_vertex_rejected(self, tmp_path, capsys, verb):
        code, err = self.run(tmp_path, capsys, verb, {"simplices": [[True, 2]]})
        assert code == 2
        assert err == "error: simplices[0][0]: expected an integer, got true\n"

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    def test_bool_order_rejected(self, tmp_path, capsys, verb):
        data = {"simplices": [[0, 1]], "orders": {"0": True}}
        code, err = self.run(tmp_path, capsys, verb, data)
        assert code == 2
        assert err == "error: order of (0,) must be a positive integer, got True\n"
