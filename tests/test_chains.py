"""Weighted chain complexes, homology, and complexes of groups."""

import json
import random
from itertools import combinations, permutations

import pytest

from orbicurves import chains
from orbicurves.chains import (
    FiniteGroup,
    WeightedComplex,
    boundary_matrices,
    boundary_squared_is_zero,
    faces,
    homology_betti,
    load_complex,
    teardrop_complex,
    validate_file,
    validate_group_complex,
)
from orbicurves.cli import main
from orbicurves.errors import InvalidInput, MalformedTable

from complex_gen import (
    canonical_group_complex,
    complex_data,
    cone_torus,
    cyclic_table,
    explicit_tables,
    random_weighted_complex,
)
from golden_commands import CONFIGS
from oracles import oracle_betti


def betti(w: WeightedComplex) -> list[int]:
    return homology_betti(w, boundary_matrices(w))


def boundary_rows(w: WeightedComplex) -> dict:
    """boundary_matrices(w) keyed by simplices: {simplex: {face: weight}}
    for every simplex of positive dimension."""
    rows = {}
    for r, matrix in enumerate(boundary_matrices(w), start=1):
        lower = w.of_dimension(r - 1)
        for s, row in zip(w.of_dimension(r), matrix):
            rows[s] = {lower[j]: weight for j, weight in row.items()}
    return rows


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


class TestBoundary:
    def test_weighted_edge_boundary(self):
        assert boundary_rows(teardrop_complex(5))[(0, 1)] == {(1,): 1, (0,): -5}

    def test_triangle_boundary_signs(self):
        rows = boundary_rows(WeightedComplex([(0, 1, 2)]))
        assert rows[(0, 1, 2)] == {(1, 2): 1, (0, 2): -1, (0, 1): 1}

    def test_vertex_boundary_is_zero(self):
        w = teardrop_complex(3)
        assert faces((0,)) == []
        assert chains._face_weights(w, (0,)) == []

    def test_boundary_squared_teardrop(self):
        for p in (1, 2, 7, 12):
            assert boundary_squared_is_zero(boundary_matrices(teardrop_complex(p)))

    def test_boundary_squared_random(self):
        rng = random.Random(411)
        complexes = [random_weighted_complex(rng) for _ in range(25)]
        complexes += [cone_torus(n, order) for n in (3, 4, 6) for order in (1, 2, 5)]
        for w in complexes:
            assert boundary_squared_is_zero(boundary_matrices(w))

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
    def test_chain_map_property(self):
        # the rescaling s -> s / |G_s| intertwines the weighted boundary
        # with the plain one: entry (s, f) of the weighted matrix is
        # |G_f| / |G_s| times the plain entry
        rng = random.Random(77)
        complexes = [random_weighted_complex(rng, n_vertices=7, n_tops=5) for _ in range(10)]
        complexes += [teardrop_complex(5), cone_torus(3, 4)]
        for w in complexes:
            weighted, plain = boundary_rows(w), boundary_rows(w.underlying())
            assert weighted.keys() == plain.keys()
            for s, row in weighted.items():
                assert row.keys() == plain[s].keys(), s
                for f, entry in row.items():
                    assert w.order(s) * entry == w.order(f) * plain[s][f], (s, f)


class TestFiniteGroup:
    def test_cyclic(self):
        g = FiniteGroup(cyclic_table(4))
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
        with pytest.raises(MalformedTable, match="group order must be in 1..64, got 65"):
            FiniteGroup([[0] * 65] * 65)


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
            w = teardrop_complex(p)
            assert validate_group_complex(w, **canonical_group_complex(w))

    def test_cyclic_structure_validates_on_random(self):
        rng = random.Random(5)
        for _ in range(5):
            w = random_weighted_complex(rng, n_vertices=6, n_tops=4)
            assert validate_group_complex(w, **canonical_group_complex(w))

    def test_missing_group_rejected(self):
        w = teardrop_complex(2)
        with pytest.raises(MalformedTable):
            validate_group_complex(w, groups={}, homs={})

    def test_group_order_mismatch_rejected(self):
        w = teardrop_complex(2)
        g = canonical_group_complex(w)
        groups = dict(g["groups"])
        groups[(0,)] = cyclic_table(3)
        with pytest.raises(MalformedTable):
            validate_group_complex(w, groups=groups, homs=g["homs"])

    def test_missing_hom_raises(self):
        w = teardrop_complex(2)
        g = canonical_group_complex(w)
        with pytest.raises(MalformedTable):
            validate_group_complex(w, groups=g["groups"], homs={})

    def test_non_homomorphism_fails(self):
        w = teardrop_complex(4)
        g = canonical_group_complex(w)
        homs = dict(g["homs"])
        # send the generator of the trivial group away from the identity
        key = next(k for k in homs if k.endswith("|0") and homs[k] == [0])
        homs[key] = [1]
        assert validate_group_complex(w, groups=g["groups"], homs=homs) is False

    def test_corrupted_twist_fails_composition_identity(self):
        # solid tetrahedron: four levels of nested simplices make the
        # twist composition identity non-vacuous
        w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
        g = canonical_group_complex(w)
        assert validate_group_complex(w, **g)
        assert validate_group_complex(w, **g, twists={"0,1,2,3|0,1|0": 1}) is False

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
        g = canonical_group_complex(w)
        assert validate_group_complex(w, **g)
        assert validate_group_complex(w, **g, twists={"0,1,2,3|0,1,2|0,1": 1}) is False

    def test_out_of_range_twist_rejected(self):
        w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
        g = canonical_group_complex(w)
        with pytest.raises(MalformedTable):
            validate_group_complex(w, **g, twists={"0,1,2,3|0,1|0": 9})

    def test_load_defaults_to_cyclic(self, tmp_path):
        # the boundary of a tetrahedron with a cone point of order 3: the
        # file is valid, as are the cyclic tables it stands for
        triangles = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]]
        path = tmp_path / "complex.json"
        path.write_text(
            json.dumps({"simplices": triangles, "orders": {"0": 3}}), encoding="utf-8"
        )
        assert validate_file(str(path)) is True
        w = load_complex(str(path))
        g = canonical_group_complex(w)
        assert validate_group_complex(w, **g)
        assert FiniteGroup(g["groups"][(0,)]).order == 3


class TestNoBoolElement:
    """True is never read as the group element 1: a library caller's
    tables reach the validator without the file reader's type checks."""

    def test_bool_table_entry_rejected(self):
        with pytest.raises(MalformedTable, match="entries in range"):
            FiniteGroup([[0, True], [True, 0]])

    def test_bool_hom_image_rejected(self):
        w = WeightedComplex([(0, 1)], {(0,): 2, (1,): 2, (0, 1): 2})
        g = canonical_group_complex(w)
        assert g["homs"]["0,1|0"] == [0, 1]
        homs = {**g["homs"], "0,1|0": [0, True]}
        with pytest.raises(MalformedTable, match="homomorphism 0,1\\|0 has the wrong shape"):
            validate_group_complex(w, groups=g["groups"], homs=homs)

    def test_bool_twist_rejected(self):
        w = WeightedComplex([(0, 1, 2, 3)], {(0,): 4})
        g = canonical_group_complex(w)
        with pytest.raises(MalformedTable, match="twist 0,1,2,3\\|0,1\\|0 is out of range"):
            validate_group_complex(w, **g, twists={"0,1,2,3|0,1|0": True})


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
        return w, groups, homs, twists

    def test_consistent_structure_validates(self):
        assert validate_group_complex(*self.build(tri_to_vertex_fix=False, twists={}))

    def test_mismatched_embedding_fails_without_twist(self):
        assert validate_group_complex(*self.build(tri_to_vertex_fix=True, twists={})) is False

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
        assert validate_group_complex(*self.build(tri_to_vertex_fix=True, twists=twists))


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


class TestChainsValidateCli:
    """An orders-only file is valid by theorem; a file with tables is
    checked table by table."""

    def run(self, tmp_path, capsys, data):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["chains", "validate", str(path)])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def test_orders_only_files_are_valid(self, tmp_path, capsys):
        # the theorem, checked against the table validator: the canonical
        # tables pass it, and the CLI answers true without building them
        rng = random.Random(16)
        complexes = [random_weighted_complex(rng, n_vertices=6, n_tops=4) for _ in range(8)]
        for w in complexes + [cone_torus(3, 4), teardrop_complex(7)]:
            assert validate_group_complex(w, **canonical_group_complex(w))
            code, out, err = self.run(tmp_path, capsys, complex_data(w))
            assert (code, json.loads(out), err) == (0, {"schema": 1, "valid": True}, "")

    def test_explicit_tables_are_checked(self, tmp_path, capsys):
        code, out, err = self.run(tmp_path, capsys, explicit_tables({}))
        assert (code, json.loads(out)["valid"], err) == (0, True, "")
        broken = explicit_tables({"0,1,2,3|0,1|0": 1})
        code, out, err = self.run(tmp_path, capsys, broken)
        assert (code, json.loads(out)["valid"], err) == (0, False, "")

    @pytest.mark.parametrize(
        "fault,message",
        [
            (lambda d: d["groups"].update({"0,4": [[0]]}),
             "groups.0,4: names no simplex of the complex"),
            (lambda d: d["groups"].pop("1,2"), "no group table for simplex (1, 2)"),
            (lambda d: d["groups"].update({"0": cyclic_table(2)}),
             "group at (0,) has order 2, complex declares 4"),
            (lambda d: d["groups"].update({"0": [[0, 1, 2, 3], [1, 0, 3, 2],
                                                 [2, 3, 0, 1], [3, 2, 1, 1]]}),
             "rows and columns must be permutations"),
            (lambda d: d["homs"].pop("0,1,2|0,2"),
             "missing homomorphism for face relation 0,1,2|0,2"),
            (lambda d: d["twists"].update({"0,1,2,3|0,1|0": 4}),
             "twist 0,1,2,3|0,1|0 is out of range"),
        ],
        ids=["stray_group", "missing_group", "wrong_order", "malformed_table", "missing_hom",
             "twist_range"],
    )
    def test_single_fault_exits_2_with_one_line(self, tmp_path, capsys, fault, message):
        data = explicit_tables({})
        fault(data)
        code, out, err = self.run(tmp_path, capsys, data)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "maps,key",
        [
            ({"homs": {"0,1|0": [5]}, "twists": {"x": 99}}, "homs"),
            ({"homs": {}}, "homs"),
            ({"twists": {"0,1,2|0,1|0": 0}}, "twists"),
        ],
        ids=["both", "empty_homs", "twists"],
    )
    def test_maps_without_groups_exit_2(self, tmp_path, capsys, maps, key):
        data = json.loads((CONFIGS / "teardrop_7.json").read_text(encoding="utf-8"))
        code, out, err = self.run(tmp_path, capsys, {**data, **maps})
        assert (code, out) == (2, "")
        assert err == f"error: {key}: given without groups\n"

    @pytest.mark.parametrize(
        "table,key,value,message",
        [
            ("groups", "5", [[0]], "groups.5: names no simplex of the complex"),
            ("homs", "1|0", [0], "homs.1|0: names no face relation of the complex"),
            ("twists", "0,1|0|1", 0, "twists.0,1|0|1: names no composable pair of the complex"),
        ],
        ids=["groups", "homs", "twists"],
    )
    def test_key_naming_nothing_exits_2(self, tmp_path, capsys, table, key, value, message):
        # valid tables on the edge 0,1 with a Z/2 vertex 0, which has two
        # face relations and no composable pair, plus one key naming nothing
        z2, z1 = [[0, 1], [1, 0]], [[0]]
        data = {
            "simplices": [[0, 1]],
            "orders": {"0": 2},
            "groups": {"0": z2, "1": z1, "0,1": z1},
            "homs": {"0,1|0": [0], "0,1|1": [0]},
            "twists": {},
        }
        data[table][key] = value
        code, out, err = self.run(tmp_path, capsys, data)
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize(
        "key,first",
        [("00", "0"), ("1,0", "0,1")],
        ids=["leading_zero", "vertex_order"],
    )
    def test_two_group_keys_for_one_simplex_exit_2(self, tmp_path, capsys, key, first):
        z2, z1 = [[0, 1], [1, 0]], [[0]]
        groups = {"0": z2, "1": z1, "0,1": z1}
        data = {
            "simplices": [[0, 1]],
            "orders": {"0": 2},
            "groups": {**groups, key: groups[first]},
            "homs": {"0,1|0": [0], "0,1|1": [0]},
        }
        code, out, err = self.run(tmp_path, capsys, data)
        message = f"groups.{key}: names the same simplex as groups.{first}"
        assert (code, out, err) == (2, "", f"error: {message}\n")


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
    def test_wide_simplex_rejected(self, tmp_path, capsys, verb):
        # 2^40 - 1 faces: the cap stops the file before any is made
        code, err = self.run(tmp_path, capsys, verb, {"simplices": [list(range(40))]})
        assert code == 2
        cap = chains.MAX_SIMPLEX_VERTICES
        assert err == f"error: a simplex has at most {cap} vertices, got 40\n"

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    @pytest.mark.parametrize(
        "orders,message",
        [
            ({"0": 2, "00": 3}, "orders.00: names the same simplex as orders.0"),
            ({"0,1": 1, "1,0": 1}, "orders.1,0: names the same simplex as orders.0,1"),
        ],
        ids=["leading_zero", "vertex_order"],
    )
    def test_two_order_keys_for_one_simplex(self, tmp_path, capsys, verb, orders, message):
        code, err = self.run(tmp_path, capsys, verb, {"simplices": [[0, 1]], "orders": orders})
        assert (code, err) == (2, f"error: {message}\n")

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    @pytest.mark.parametrize(
        "key", ["1_0", "+1", " 2 ", "\u0661"], ids=["underscore", "plus", "spaces", "arabic_indic"]
    )
    def test_order_key_of_ascii_digits_only(self, tmp_path, capsys, verb, key):
        # int() reads each key as vertex 10, 1, 2 or 1 of the complex
        data = {"simplices": [[10, 11], [1, 2]], "orders": {key: 2}}
        code, err = self.run(tmp_path, capsys, verb, data)
        assert (code, err) == (2, f"error: bad simplex key {key!r}\n")

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    def test_bool_order_rejected(self, tmp_path, capsys, verb):
        data = {"simplices": [[0, 1]], "orders": {"0": True}}
        code, err = self.run(tmp_path, capsys, verb, data)
        assert code == 2
        assert err == "error: order of (0,) must be a positive integer, got True\n"
