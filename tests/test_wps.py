"""The weighted cap model: curves, genus bound, index, dossier."""

import functools
import io
import json
import math
import os
from fractions import Fraction

import pytest

from orbicurves import cli, curvecalc, germ, lens, wps
from orbicurves.curvecalc import (
    adjunction_report,
    algebraic_intersection,
    embeddedness_verdict,
    intersection_report,
    virtual_genus,
)
from orbicurves.errors import (
    Disallowed,
    DistinctBranchesRequired,
    InvalidInput,
    InvalidParameters,
)
from orbicurves.decode import format_rational
from orbicurves.lens import SingularityType, allowed_q_set, cobordism_congruence
from orbicurves.wps import (
    build_model,
    c0_config,
    c0_index,
    c0prime_cases,
    c0prime_config,
    dossier,
    genus_bound_profile,
    seifert_euler,
    sweep_row,
    sweep_rows,
    uniqueness_inequality,
)

from oracles import sweep_row_closed_form

EMBEDDED = "EmbeddedSuborbifold"


def cli_render(report: dict) -> str:
    out = io.StringIO()
    cli.write_report(report, "json", out)
    return out.getvalue()


class TestModel:
    def test_frozen_values_5_2(self):
        m = build_model(5, 2, 2)
        assert m.pairing == Fraction(5, 7)
        assert m.c1_value == Fraction(13, 7)
        assert m.ambient.point_type("x") == SingularityType(7, 5)
        assert m.ambient.point_type("x_prime") == SingularityType(5, 2)

    def test_rejects_bad_parameters(self):
        with pytest.raises(InvalidParameters):
            build_model(1, 1, 1)
        with pytest.raises(InvalidParameters):
            build_model(5, 5, 2)
        with pytest.raises(InvalidParameters):
            build_model(6, 2, 1)
        with pytest.raises(InvalidParameters):
            build_model(6, 1, 3)

    def test_disallowed_qprime_still_models(self):
        m = build_model(5, 2, 4)
        assert m.ambient.point_type("x_prime") == SingularityType(5, 4)
        assert not cobordism_congruence(5, 2, 4)["allowed"]


class TestGeneratingCurve:
    def test_c0_is_embedded_with_the_stated_genus(self):
        for p, q in [(2, 1), (5, 2), (9, 4), (12, 5)]:
            cfg = c0_config(build_model(p, q, q))
            rep = adjunction_report(cfg)
            assert rep["holds"]
            assert rep["lhs"] == Fraction(1, 2) - Fraction(1, 2 * (p + q))
            assert embeddedness_verdict(adjunction_report(cfg))["verdict"] == EMBEDDED

    def test_c0_self_pairing_and_c1(self):
        m = build_model(5, 2, 2)
        cfg = c0_config(m)
        assert algebraic_intersection(cfg, cfg) == Fraction(5, 7)
        assert virtual_genus(cfg) == Fraction(3, 7)

    def test_c0_index_frozen(self):
        m = build_model(5, 2, 2)
        rep = c0_index(m, c0_config(m))
        assert rep["d"] == 3 and rep["index"] == 6 and rep["integral"]

    def test_c0_index_integral_sampled(self):
        for p, q in [(3, 2), (7, 4), (11, 3)]:
            m = build_model(p, q, q)
            assert c0_index(m, c0_config(m))["integral"]


class TestFractionCurve:
    def test_case_preference(self):
        assert c0prime_cases(build_model(5, 2, 2)) == ["A"]
        assert c0prime_cases(build_model(5, 2, 3)) == ["B"]
        assert c0prime_cases(build_model(5, 2, 4)) == []
        # q = q' = 1: both local forms are integral
        assert c0prime_cases(build_model(5, 1, 1)) == ["A", "B"]

    def test_configs_for_both_cases(self):
        # c0prime_config takes the preferred case A; case B's local form
        # at x', the first axis, is built here from the model's parts
        m = build_model(5, 1, 1)
        domain, curve_class, at_x = m.c0prime_parts
        at_x_prime = curvecalc.Station(
            "x_prime", 5, [("w1", germ.axis_germ(True, m.ambient.point_type("x_prime")))])
        case_b = curvecalc.CurveConfig(m.ambient, domain, curve_class, (at_x, at_x_prime))
        for cfg in (c0prime_config(m), case_b):
            assert adjunction_report(cfg)["holds"]
            assert embeddedness_verdict(adjunction_report(cfg))["verdict"] == EMBEDDED

    def test_disallowed_raises(self):
        with pytest.raises(Disallowed):
            c0prime_config(build_model(5, 2, 4))

    def test_self_pairing_and_meeting(self):
        for p, q in [(5, 2), (7, 3), (8, 3)]:
            for qp in allowed_q_set(p, q):
                m = build_model(p, q, qp)
                cp = c0prime_config(m)
                assert algebraic_intersection(cp, cp) == Fraction(1, p * (p + q))
                assert embeddedness_verdict(adjunction_report(cp))["verdict"] == EMBEDDED
                rep = intersection_report(c0_config(m), cp)
                assert rep["holds"] and rep["algebraic"] == Fraction(1, p + q)


class TestGenusBound:
    def test_peak_value_5_2(self):
        m = build_model(5, 2, 2)
        assert genus_bound_profile(m, [Fraction(1, 5)])["rows"][0][1] == Fraction(29, 35)

    def test_value_at_one_is_c0_genus(self):
        for p, q in [(5, 2), (7, 4), (11, 2)]:
            m = build_model(p, q, q)
            assert genus_bound_profile(m, [1])["rows"][0][1] == virtual_genus(c0_config(m))

    def test_profile_checks(self):
        m = build_model(5, 2, 2)
        prof = genus_bound_profile(m, [Fraction(1, 5), Fraction(1, 2), 1])
        assert prof["strictly_decreasing"]
        assert prof["peak_identity"]
        assert prof["value_at_inverse_p"] == Fraction(29, 35)
        assert prof["rows"][-1] == [Fraction(1), Fraction(3, 7)]

    def test_profile_rejects_bad_samples(self):
        m = build_model(5, 2, 2)
        with pytest.raises(InvalidInput):
            genus_bound_profile(m, [Fraction(1, 2), Fraction(1, 3)])
        with pytest.raises(InvalidInput):
            genus_bound_profile(m, [0, 1])
        with pytest.raises(InvalidInput):
            genus_bound_profile(m, [Fraction(1, 2), Fraction(3, 2)])

    def test_profile_json_uses_rational_text(self):
        m = build_model(5, 2, 2)
        data = json.loads(cli_render(genus_bound_profile(m, [Fraction(1, 5), 1])))
        assert data["rows"][0] == ["1/5", "29/35"]
        assert data["value_at_inverse_p"] == "29/35"


class TestScalars:
    def test_seifert_euler(self):
        assert seifert_euler(build_model(5, 2, 2)) == Fraction(7, 5)
        for p in range(2, 8):
            assert seifert_euler(build_model(p, 1, 1)) == Fraction(p + 1, p)

    def test_uniqueness_inequality_holds_widely(self):
        for p in range(2, 40):
            for q in range(1, p):
                if math.gcd(p, q) == 1:
                    assert uniqueness_inequality(build_model(p, q, q))


class TestDossier:
    def test_allowed_dossier_5_2_2(self):
        d = dossier(build_model(5, 2, 2))
        assert d["schema"] == 1
        assert d["pairing_C0_C0"] == Fraction(5, 7)
        assert d["c1_X_C0"] == Fraction(13, 7)
        assert d["c1_KX_C0"] == Fraction(-13, 7)
        assert d["singular_points"] == {"x": [7, 5], "x_prime": [5, 2]}
        assert d["seifert_euler"] == Fraction(7, 5)
        assert d["uniqueness_inequality"] is True
        assert d["cases"] == ["A"] and d["case"] == "A"
        assert d["index_C0"] == {"d": 3, "index": 6, "integral": True}
        assert d["C0"]["virtual_genus"] == Fraction(3, 7)
        assert d["C0"]["verdict"] == EMBEDDED
        assert d["C0_prime"]["class_fraction"] == Fraction(1, 5)
        assert d["C0_prime"]["self_pairing"] == Fraction(1, 35)
        assert d["intersection_C0_C0_prime"]["algebraic"] == Fraction(1, 7)
        assert d["genus_bound"]["strictly_decreasing"] is True

    def test_dossier_key_order_is_stable(self):
        d = dossier(build_model(5, 2, 2))
        assert list(d) == [
            "schema", "p", "q", "q_prime", "pairing_C0_C0", "c1_X_C0",
            "c1_KX_C0", "singular_points", "seifert_euler",
            "uniqueness_inequality", "congruence", "cases", "index_C0",
            "C0", "genus_bound", "case", "C0_prime",
            "intersection_C0_C0_prime",
        ]

    def test_disallowed_dossier_has_null_curve(self):
        d = dossier(build_model(5, 2, 4))
        assert d["cases"] == [] and d["case"] is None
        assert d["C0_prime"] is None
        assert d["intersection_C0_C0_prime"] is None
        assert d["C0"]["verdict"] == "EmbeddedSuborbifold"


def _dossier_checks(d: dict) -> bool:
    """The checks a sweep row conjoins, read from one dossier."""
    meeting = d["intersection_C0_C0_prime"]
    return (
        d["C0"]["adjunction"]["holds"]
        and d["C0"]["verdict"] == EMBEDDED
        and d["index_C0"]["d"] == 3
        and d["genus_bound"]["strictly_decreasing"]
        and d["genus_bound"]["peak_identity"]
        and d["uniqueness_inequality"]
        and d["C0_prime"]["adjunction"]["holds"]
        and d["C0_prime"]["verdict"] == EMBEDDED
        and meeting["holds"]
        and meeting["algebraic"] == Fraction(1, d["p"] + d["q"])
    )


class TestSweepRow:
    """A sweep row shares one model and C0 config across its allowed q';
    it must agree with dossiers built from scratch."""

    def test_rows_match_dossiers(self):
        for p in range(2, 13):
            for q in range(1, p):
                if math.gcd(p, q) != 1:
                    continue
                row = sweep_row(p, q)
                d = dossier(build_model(p, q, q))
                assert row == {
                    "p": d["p"],
                    "q": d["q"],
                    "C0_C0": format_rational(d["pairing_C0_C0"]),
                    "c1_KX_C0": format_rational(d["c1_KX_C0"]),
                    "genus_C0": format_rational(d["C0"]["domain_genus"]),
                    "seifert_euler": format_rational(d["seifert_euler"]),
                    "index_d": format_rational(d["index_C0"]["d"]),
                    "holds": all(
                        _dossier_checks(dossier(build_model(p, q, qp)))
                        for qp in allowed_q_set(p, q)
                    ),
                }, (p, q)

    def test_checks_every_allowed_qprime(self, monkeypatch):
        seen = []

        def spy(m):
            seen.append(m.qprime)
            return c0prime_config(m)

        monkeypatch.setattr(wps, "c0prime_config", spy)
        for p, q in [(5, 2), (7, 3), (8, 3), (12, 5)]:
            seen.clear()
            sweep_row(p, q)
            assert seen == allowed_q_set(p, q), (p, q)


def _coprime_pairs(p_max: int) -> list:
    return [(p, q) for p in range(2, p_max + 1) for q in range(1, p) if math.gcd(p, q) == 1]


def _failing_adjunction(only_c0_prime: bool):
    """adjunction_report with holds False, for C0' alone or for both curves."""

    def report(config):
        r = adjunction_report(config)
        if only_c0_prime and len(config.stations) == 1:  # C0 has one station
            return r
        return {**r, "holds": False}

    return report


def _changed_meeting(**changed):
    def report(c1, c2):
        return {**intersection_report(c1, c2), **changed}

    return report


_GENUS_CHECKS = wps._genus_checks


def _failing_genus_check(position: int):
    """wps._genus_checks with the check at position (2: strictly
    decreasing, 3: the peak identity) made False."""

    def checks(p, q, ratios):
        out = list(_GENUS_CHECKS(p, q, ratios))
        out[position] = False
        return tuple(out)

    return checks


class TestSweepRowOracle:
    """Every sweep row against the closed forms of the cap, in integers,
    and every check a row conjoins shown to reach holds."""

    def test_rows_match_the_closed_forms(self):
        for p, q in _coprime_pairs(40):
            assert sweep_row(p, q) == sweep_row_closed_form(p, q), (p, q)

    @pytest.mark.parametrize(
        "name,failing",
        [
            ("adjunction_report", _failing_adjunction(False)),
            ("adjunction_report", _failing_adjunction(True)),
            ("intersection_report", _changed_meeting(holds=False)),
            ("intersection_report", _changed_meeting(algebraic=Fraction(1))),
            ("_genus_checks", _failing_genus_check(2)),
            ("_genus_checks", _failing_genus_check(3)),
        ],
        ids=["adjunction", "adjunction_C0_prime", "meeting", "meeting_value",
             "profile_decreasing", "profile_peak"],
    )
    def test_a_failing_check_clears_holds(self, monkeypatch, name, failing):
        monkeypatch.setattr(wps, name, failing)
        for p, q in [(2, 1), (5, 2), (7, 3), (12, 5)]:
            assert sweep_row(p, q)["holds"] is False, (p, q)


def _count_calls(monkeypatch, counts: dict, key: str, owner, attr: str) -> None:
    """Replace owner.attr by a wrapper that adds 1 to counts[key] per call."""
    original = getattr(owner, attr)
    counts.setdefault(key, 0)

    def counted(*args, **kwargs):
        counts[key] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, counted)


class TestWorkCount:
    """Work counts of the serial sweep over p <= 30 (277 rows): 40,367
    Fraction constructions and 1,425 germs before the report layer moved
    to integer numerators and each row shared its axis germs; 12,544 and
    1,029 after.  Since the row's checks (the profile's order checks, the
    uniqueness inequality, the verdict's sign and the meeting value) and
    the sums of the pairings run on integer numerators, 9,655 Fractions
    on CPython 3.10 and 3.11 (9,378 on 3.12 and 3.13, whose arithmetic
    makes fewer); since C0's class is a constant, the second q' of a row
    shares the model's pairing and c1 values, and the row reads the
    genus-bound checks from their integer core, 7,599 (7,322).  The two
    C0' configs of a row share one domain, class and station at x, so
    the sweep builds 950 configs and 1,029 stations (1,227 before).
    The axis germs take the model's own singularity types, and the
    second q' shares the type at x, so the sweep builds 752 of them
    (1,979 before).  C0 and C0' meet along the two coordinate axes, so
    every one of the 475 intersections is between transverse smooth
    branches and is read off the leading terms: no blow-up (475 series
    determinants before), and no series comparison (475 before, when
    the identical-data check came first).  The axis germs are built on
    two shared series, so no row calls germ_from_polynomials (1,029
    calls before).  The local form of C0' at x' is read off the closed
    form of the congruence, so the sweep builds no congruence record
    and checks lens parameters 831 times (475 records and 1,781 checks
    before).  A regression shows as a count, not as a time."""

    def test_fractions_and_germs_per_sweep(self, monkeypatch):
        counts = {}
        for key, owner, attr in [
            ("fractions", Fraction, "__new__"),
            ("germs", germ.CurveGerm, "__init__"),
            ("germs", wps, "axis_germ"),
            ("configs", curvecalc.CurveConfig, "__init__"),
            ("stations", curvecalc.Station, "__init__"),
            ("singularity_types", SingularityType, "__init__"),
            ("series_comparisons", germ.PowerSeries, "__eq__"),
            ("blow_ups", germ, "_blow_up"),
            ("polynomial_germs", germ, "germ_from_polynomials"),
        ]:
            _count_calls(monkeypatch, counts, key, owner, attr)
        rows = [sweep_row(p, q) for p, q in _coprime_pairs(30)]
        monkeypatch.undo()
        assert len(rows) == 277 and all(r["holds"] for r in rows)
        assert counts["fractions"] <= 7_599, counts
        assert counts["germs"] <= 1_029, counts
        assert counts["configs"] <= 950, counts
        assert counts["stations"] <= 1_029, counts
        assert counts["singularity_types"] <= 752, counts
        assert counts["series_comparisons"] == 0, counts
        assert counts["blow_ups"] == 0, counts
        assert counts["polynomial_germs"] == 0, counts

    def test_lens_checks_and_congruence_records_per_sweep(self, monkeypatch):
        """Each of the 277 rows checks (p, q) and (p, q') in build_model
        and (p, q) in allowed_q_set, 831 lens-parameter checks in all;
        the C0' case is read off the closed form, so no congruence
        record is built (1,781 checks and 475 records when each allowed
        q' built its record)."""
        counts = {}
        for key, owner, attr in [
            ("lens_checks", lens, "_check_lens_params"),
            ("lens_checks", wps, "_check_lens_params"),
            ("congruence_records", lens, "cobordism_congruence"),
            ("congruence_records", wps, "cobordism_congruence"),
        ]:
            _count_calls(monkeypatch, counts, key, owner, attr)
        rows = [sweep_row(p, q) for p, q in _coprime_pairs(30)]
        monkeypatch.undo()
        assert len(rows) == 277 and all(r["holds"] for r in rows)
        assert counts["lens_checks"] <= 831, counts
        assert counts["congruence_records"] == 0, counts

    def test_a_transverse_meeting_compares_no_series(self, monkeypatch):
        """The leading terms settle (t, 0) against (0, t) before any
        identical-data comparison; (t^2, t^3) against itself still
        reaches the comparison and raises."""
        counts = {}
        _count_calls(monkeypatch, counts, "series_comparisons", germ.PowerSeries, "__eq__")
        chart = SingularityType(7, 3)
        first, second = germ.axis_germ(True, chart), germ.axis_germ(False, chart)
        assert germ.intersection_multiplicity(first, second) == 1
        assert counts["series_comparisons"] == 0
        cusp = germ.germ_from_polynomials({2: 1}, {3: 1})
        with pytest.raises(DistinctBranchesRequired, match="identical data"):
            germ.intersection_multiplicity(cusp, cusp)
        assert counts["series_comparisons"] == 2

    def test_wps_report_evaluates_the_congruence_once(self, monkeypatch, capsys):
        calls = []
        congruence = wps.cobordism_congruence

        def counted(*args):
            calls.append(args)
            return congruence(*args)

        monkeypatch.setattr(wps, "cobordism_congruence", counted)
        assert cli.main(["wps", "report", "5", "2", "2"]) == 0
        assert calls == [(5, 2, 2)]
        assert '"congruence"' in capsys.readouterr().out


@functools.cache
def _serial_rows(p_max: int) -> list:
    return [sweep_row(p, q) for p, q in _coprime_pairs(p_max)]


def _force_cpus(monkeypatch, k: int) -> list:
    """Make sched_getaffinity report k CPUs; the list records each fork
    attempt, which fails, so no process is started."""
    forks = []

    def counted():
        forks.append(1)
        raise OSError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)
    monkeypatch.setattr(os, "fork", counted, raising=False)
    return forks


class TestSweepRows:
    """sweep_rows is the serial comprehension over sweep_row, made in
    this process whatever the CPU count."""

    # p_max 60 has 1,101 rows, p_max 30 has 277
    @pytest.mark.parametrize("p_max", [2, 3, 8, 30, 60])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_any_worker_count_gives_the_serial_rows(self, monkeypatch, k, p_max):
        forks = _force_cpus(monkeypatch, k)
        assert sweep_rows(p_max) == _serial_rows(p_max)
        assert forks == []
