"""End-to-end acceptance suite.

Every check is exact (Fraction equality, zero tolerance). Each test
covers one acceptance criterion and emits a single verdict line of the
form "ACCEPTANCE <id> <name>: PASS" or "... FAIL"; the lines are echoed
in the pytest terminal summary via conftest.
"""

import contextlib
import random
import time
from fractions import Fraction
from math import gcd
from pathlib import Path
from unittest import mock

from orbicurves import germ
from orbicurves.chains import (
    WeightedComplex,
    boundary_matrices,
    boundary_squared_is_zero,
    homology_betti,
)
from orbicurves.chern_index import (
    EquivariantTrivialization,
    chern_split,
    index_integrality_scan,
)
from orbicurves.curvecalc import (
    CurveConfig,
    Station,
    adjunction_report,
    embeddedness_verdict,
    intersection_report,
    load_config,
)
from orbicurves.germ import (
    CurveGerm,
    germ_from_polynomials,
    intersection_multiplicity,
    self_intersection,
)
from orbicurves.lens import allowed_q_set, cobordism_congruence
from orbicurves.surface import OrbifoldSurface, tangent_c1
from orbicurves.wps import build_model, c0_config, c0prime_config, dossier

from complex_gen import random_weighted_complex, teardrop_complex
from conftest import record_acceptance
from corpus import BRANCHES, DELTA_CASES, branch, gaussian_terms, germ_pairs
from golden_commands import COMMANDS, GOLDEN_DIR, run_command
from oracles import oracle_delta, oracle_intersection
from test_curvecalc import cusp_station, node, plane_curve

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
EMBEDDED = "EmbeddedSuborbifold"


@contextlib.contextmanager
def criterion(cid: int, name: str):
    try:
        yield
    except BaseException:
        _emit(cid, name, "FAIL")
        raise
    _emit(cid, name, "PASS")


def _emit(cid: int, name: str, verdict: str) -> None:
    line = f"ACCEPTANCE {cid} {name}: {verdict}"
    print(line)
    record_acceptance(line)


def coprime_pairs(p_max: int):
    for p in range(2, p_max + 1):
        for q in range(1, p):
            if gcd(p, q) == 1:
                yield p, q


def _count_constructions(monkeypatch, *classes) -> dict:
    """The number of instances of each class built while the test runs,
    by class name."""
    counts = dict.fromkeys((cls.__name__ for cls in classes), 0)
    for cls in classes:
        def counted(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_acceptance_1_weighted_model_invariants(monkeypatch):
    """The five scalar invariants of the generating curve, exactly,
    for every coprime (p, q) with p <= 30, in under five seconds and
    from two configurations (C0 and C0') and at most three germs (at x
    on both, at x' on C0') a dossier, so that a regression shows as a
    count."""
    with criterion(1, "weighted-model-invariants"):
        built = _count_constructions(monkeypatch, CurveGerm, CurveConfig)
        start = time.perf_counter()
        checked = 0
        for p, q in coprime_pairs(30):
            d = dossier(build_model(p, q, q))
            assert Fraction(d["pairing_C0_C0"]) == Fraction(p, p + q)
            assert Fraction(d["c1_KX_C0"]) == -Fraction(2 * p + q + 1, p + q)
            expected_genus = Fraction(1, 2) - Fraction(1, 2 * (p + q))
            assert Fraction(d["C0"]["virtual_genus"]) == expected_genus
            assert Fraction(d["seifert_euler"]) == 1 + Fraction(q, p)
            idx = d["index_C0"]
            assert Fraction(idx["d"]) == 3 and Fraction(idx["index"]) == 6
            assert idx["integral"] is True
            checked += 1
        elapsed = time.perf_counter() - start
        assert checked == 277
        assert elapsed < 5.0, f"took {elapsed:.2f}s"
        # configs are never shared between dossiers; germs may come from a cache
        assert built["CurveConfig"] == 2 * 277 and built["CurveGerm"] <= 3 * 277, built


def test_acceptance_2_adjunction_end_to_end():
    """Adjunction reports balance exactly for the generating curve, the
    fraction curve on every allowed target, and the classical plane
    curve corpus (nodal/cuspidal cubics and quartics)."""
    with criterion(2, "adjunction-end-to-end"):
        for p, q in coprime_pairs(30):
            cfg = c0_config(build_model(p, q, q))
            rep = adjunction_report(cfg)
            assert rep["holds"]
            assert rep["lhs"] == Fraction(1, 2) - Fraction(1, 2 * (p + q))
            assert embeddedness_verdict(adjunction_report(cfg))["verdict"] == EMBEDDED
            for qprime in allowed_q_set(p, q):
                prime = c0prime_config(build_model(p, q, qprime))
                prep = adjunction_report(prime)
                want = 1 - Fraction(2 * p + q, 2 * p * (p + q))
                assert prep["holds"] and prep["lhs"] == prep["rhs"] == want
                assert embeddedness_verdict(adjunction_report(prime))["verdict"] == EMBEDDED

        def cusp_at(tag, label):
            return Station(
                f"regular:{tag}", 1, [(label, germ_from_polynomials({2: 1}, {3: 1}))]
            )

        tacnode = Station(
            "",
            1,
            [
                ("t1", germ_from_polynomials({1: 1}, {2: 1})),
                ("t2", germ_from_polynomials({1: 1}, {2: -1})),
            ],
        )
        plane_corpus = [
            (load_config(CONFIGS / "nodal_cubic.json"), 1, 1),
            (load_config(CONFIGS / "cuspidal_cubic.json"), 1, 1),
            (plane_curve(3, doubles=[node()]), 1, 1),
            (plane_curve(3, stations=[cusp_station()]), 1, 1),
            (plane_curve(4, genus=2, doubles=[node()]), 3, 1),
            (plane_curve(4, genus=2, stations=[cusp_station()]), 3, 1),
            (
                plane_curve(
                    4,
                    stations=[cusp_at("c1", "a"), cusp_at("c2", "b"), cusp_at("c3", "c")],
                ),
                3,
                3,
            ),
            (plane_curve(4, genus=1, doubles=[tacnode]), 3, 2),
        ]
        for cfg, lhs, defect in plane_corpus:
            rep = adjunction_report(cfg)
            assert rep["holds"] and rep["lhs"] == lhs
            assert rep["rhs"] - rep["contributions"][0]["value"] == defect
            verdict = embeddedness_verdict(adjunction_report(cfg))
            assert verdict == {"verdict": "Singular", "defect": defect}


def test_acceptance_3_intersection_formula():
    """Algebraic and local intersection numbers agree: the two model
    curves meet in 1/(p+q), and transverse plane configurations meet in
    the product of their degrees."""
    with criterion(3, "intersection-formula"):
        for p, q in coprime_pairs(30):
            for qprime in allowed_q_set(p, q):
                m = build_model(p, q, qprime)
                rep = intersection_report(c0_config(m), c0prime_config(m))
                assert rep["holds"]
                assert rep["algebraic"] == rep["local_sum"] == Fraction(1, p + q)

        # a line through the node of a nodal cubic: 3 = 2 + 1
        line = plane_curve(
            1,
            stations=[
                Station(
                    "regular:node", 1, [("l1", germ_from_polynomials({1: 1}, {1: 1}))]
                ),
                Station(
                    "regular:extra", 1, [("l2", germ_from_polynomials({1: 1}, {}))]
                ),
            ],
        )
        cubic = plane_curve(
            3,
            stations=[
                Station(
                    "regular:node",
                    1,
                    [
                        ("n1", germ_from_polynomials({1: 1}, {})),
                        ("n2", germ_from_polynomials({}, {1: 1})),
                    ],
                ),
                Station(
                    "regular:extra", 1, [("e1", germ_from_polynomials({}, {1: 1}))]
                ),
            ],
        )
        rep = intersection_report(line, cubic)
        assert rep["holds"] and rep["algebraic"] == rep["local_sum"] == 3
        # itemized per branch pair: the node meeting yields two of the three
        assert sorted(c["value"] for c in rep["contributions"]) == [1, 1, 1]

        # two transverse lines: 1 = 1
        def line_through(label, u, v):
            return plane_curve(
                1,
                stations=[
                    Station("regular:origin", 1, [(label, germ_from_polynomials(u, v))])
                ],
            )

        crossing = intersection_report(
            line_through("a", {1: 1}, {}), line_through("b", {}, {1: 1})
        )
        assert crossing["holds"] and crossing["algebraic"] == crossing["local_sum"] == 1


def test_acceptance_4_integrality_scan_characterization():
    """The index-integrality scan reproduces the congruence
    characterization {q' = q or q q' = 1 mod p} for every p <= 60, and
    case A integrality matches its residue criterion, in under ten
    seconds."""
    with criterion(4, "integrality-scan-characterization"):
        start = time.perf_counter()
        rows_checked = 0
        for p, q in coprime_pairs(60):
            rows = list(index_integrality_scan(p, q))
            assert [r["qprime"] for r in rows] == [
                qp for qp in range(1, p) if gcd(p, qp) == 1
            ]
            for row in rows:
                should_allow = row["qprime"] == q or (q * row["qprime"]) % p == 1 % p
                assert row["allowed"] == should_allow
                rec = cobordism_congruence(p, q, row["qprime"])
                assert row["caseA_integral"] == rec["caseA_integral"]
                assert row["caseB_integral"] == rec["caseB_integral"]
                residue = (rec["r"] * (p + q) - q * rec["lprime"]) % p == 0
                assert row["caseA_integral"] == residue
                rows_checked += 1
        elapsed = time.perf_counter() - start
        assert rows_checked == 30881
        assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_acceptance_5_genus_bound_profile():
    """The genus bound decreases strictly on (0, 1], peaks as stated at
    r = 1/p for every p <= 30, and the uniqueness inequality holds for
    every p <= 100."""
    with criterion(5, "genus-bound-profile"):
        from orbicurves.wps import (
            genus_bound_profile,
            uniqueness_inequality,
        )

        for p, q in coprime_pairs(30):
            m = build_model(p, q, q)
            grid = [Fraction(k, 4 * p) for k in range(1, 4 * p + 1)]
            profile = genus_bound_profile(m, grid)
            assert profile["strictly_decreasing"]
            assert profile["peak_identity"]
            peak = Fraction(1 - Fraction(1, p + q), 2) + Fraction(1 - Fraction(1, p), 2)
            assert profile["value_at_inverse_p"] == peak
            assert genus_bound_profile(m, [Fraction(1, p)])["rows"][0][1] == peak
        for p, q in coprime_pairs(100):
            assert uniqueness_inequality(build_model(p, q, q))


def test_acceptance_6_germ_oracle_equivalence():
    """Resultant-based intersection multiplicities match an independent
    substitution/elimination oracle on the whole pair corpus, and the
    characteristic-exponent delta matches the semigroup-gap oracle on
    every corpus branch, in under thirty seconds and at most 36
    blow-ups, so that a regression shows as a count."""
    with criterion(6, "germ-oracle-equivalence"), mock.patch.object(
        germ, "_blow_up", wraps=germ._blow_up
    ) as blow_up:
        start = time.perf_counter()
        pairs = germ_pairs()
        assert len(pairs) >= 50
        for (n1, u1, v1), (n2, u2, v2) in pairs:
            g1 = germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1))
            g2 = germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2))
            # polynomial data: the least stored order of a coordinate is the multiplicity
            assert all(min(s.order() for s in (g.U, g.V) if not s.is_zero_to_precision()) <= 6
                       for g in (g1, g2))
            got = intersection_multiplicity(g1, g2)
            assert got == oracle_intersection(u1, v1, u2, v2), (n1, n2)
        for name, u, v in BRANCHES:
            g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
            assert self_intersection(g) == oracle_delta(u, v), name
        for name, delta in DELTA_CASES:
            u, v = branch(name)
            g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
            assert self_intersection(g) == delta, name
        elapsed = time.perf_counter() - start
        assert elapsed < 30.0, f"took {elapsed:.2f}s"
        assert blow_up.call_count <= 36, blow_up.call_count


def test_acceptance_7_weighted_chain_homology():
    """The weighted boundary squares to zero on 100 randomized
    complexes of at most 200 simplices, weighted Betti numbers match
    the underlying unweighted ones, and every small teardrop is a
    rational sphere."""
    with criterion(7, "weighted-chain-homology"):
        rng = random.Random(31415)
        for i in range(100):
            if i % 4 == 3:
                w = random_weighted_complex(rng, n_vertices=18, n_tops=26, max_dim=3)
            else:
                w = random_weighted_complex(rng, n_vertices=12, n_tops=10, max_dim=3)
            assert len(w.simplices) <= 200
            assert boundary_squared_is_zero(boundary_matrices(w))
            u = WeightedComplex(w.simplices)
            betti = homology_betti(w, boundary_matrices(w))
            assert betti == homology_betti(u, boundary_matrices(u))
        for p in range(2, 13):
            t = teardrop_complex(p)
            assert homology_betti(t, boundary_matrices(t)) == [1, 0, 1]


def test_acceptance_8_chern_splitting():
    """The orbifold Chern number splits as the relative part plus the
    weight fractions and equals the tangent Chern number
    2 - 2g - sum(1 - 1/m_i) on randomized reduced surfaces."""
    with criterion(8, "chern-splitting"):
        rng = random.Random(27182)
        for _ in range(200):
            genus = rng.randrange(0, 7)
            orders = tuple(
                rng.randrange(2, 13) for _ in range(rng.randrange(0, 6))
            )
            surface = OrbifoldSurface(1, genus, orders)
            triv = EquivariantTrivialization(
                rank=1,
                relative_c1=2 - 2 * genus - len(orders),
                points=[(m, (1,)) for m in orders],
            )
            expected = 2 - 2 * genus - sum(1 - Fraction(1, m) for m in orders)
            assert chern_split(triv) == expected == tangent_c1(surface)


def test_acceptance_9_cli_golden_determinism():
    """Every documented command reproduces its committed golden file
    byte for byte, twice in a row."""
    with criterion(9, "cli-golden-determinism"):
        for fname, argv in COMMANDS:
            golden = (GOLDEN_DIR / fname).read_text()
            for _ in range(2):
                code, out = run_command(list(argv))
                assert code == 0, argv
                assert out == golden, fname
