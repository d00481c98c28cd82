"""Command-line interface: golden outputs, flags, and exit codes."""

import argparse
import contextlib
import functools
import io
import json
import math
import os
import random
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import orbicurves.germ as germ_module
from orbicurves import chern_index, cli, wps
from orbicurves.argparser import build_parser
from orbicurves.cli import (
    MAX_SCAN_P,
    MAX_SWEEP_P,
    ROW_BATCH,
    _read_argv,
    main,
    write_report,
)
from orbicurves.decode import MAX_PRECISION, format_rational

from golden_commands import COMMANDS, CONFIGS, GOLDEN_DIR, run_command
from test_chern_index import scan_oracle_rows
from test_wps import _force_cpus

DATA = Path(__file__).resolve().parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def golden_text(name: str) -> str:
    return (GOLDEN_DIR / name).read_text(encoding="utf-8")


def parse_with_argparse(argv):
    return build_parser(argv, cli._COMMANDS, cli._COMMON_FLAGS, cli._emit).parse_args(argv)


def _invalid_choice(value: str, choices: list) -> str:
    """argparse's own text for a value outside choices, as the running
    interpreter writes it: 3.11.7 and 3.13.0 quote each choice with repr,
    3.13.13 writes it with str."""
    parser = argparse.ArgumentParser(exit_on_error=False)
    parser.add_argument("value", choices=choices)
    try:
        parser.parse_args([value])
    except argparse.ArgumentError as exc:
        return exc.message
    raise AssertionError(f"{value!r} is one of {choices}")


_COMMAND_NAMES = ["lens", "adjunction", "intersect", "index", "chains", "wps", "sweep"]
_VERBS = ["classify", "allowed"]  # of lens


def render(payload: dict, output_format: str = "json") -> str:
    out = io.StringIO()
    write_report(payload, output_format, out)
    return out.getvalue()


class TestGolden:
    @pytest.mark.parametrize("name,argv", COMMANDS, ids=[n for n, _ in COMMANDS])
    def test_byte_identity(self, name, argv):
        code, text = run_command(argv)
        assert code == 0
        assert text == golden_text(name)

    def test_repeat_runs_are_identical(self):
        for name, argv in COMMANDS[:4]:
            assert run_command(argv) == run_command(argv), name

    def test_module_entry_point(self):
        # Each golden in a fresh interpreter, where a handler's own
        # imports are the only ones that ran; started together to keep
        # the test short.
        procs = [
            (name, subprocess.Popen(
                [sys.executable, "-m", "orbicurves.cli", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            ))
            for name, argv in COMMANDS
        ]
        for name, proc in procs:
            out, err = proc.communicate()
            assert (proc.returncode, err) == (0, b""), name
            assert out == (GOLDEN_DIR / name).read_bytes(), name

    def test_json_goldens_parse_and_round_trip(self):
        for name, _ in COMMANDS:
            if not name.endswith(".json"):
                continue
            text = golden_text(name)
            payload = json.loads(text)
            assert payload["schema"] == 1
            assert render(payload) == text


class TestEntryPoint:
    """run() is the process entry point: python -m orbicurves.cli and the
    installed script.  Each test starts a fresh interpreter, since run()
    freezes the heap of the process it runs in.  TestGolden runs every
    golden and TestScanStream --help to /dev/full through the module."""

    def test_run_freezes_before_main(self):
        script = (
            "import gc, sys\n"
            "from orbicurves import cli\n"
            "def stub():\n"
            "    print(gc.get_freeze_count() > 0)\n"
            "    return 0\n"
            "cli.main = stub\n"
            "sys.exit(cli.run())\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "True\n", "")

    def test_argument_error_through_the_module_ends_on_one_line(self):
        proc = subprocess.run(
            [sys.executable, "-m", "orbicurves.cli", "lens", "classify", "7"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1

    def test_installed_script_is_run(self):
        # a text check: tomllib is not in Python 3.10
        pyproject = (SRC.parent / "pyproject.toml").read_text(encoding="utf-8")
        assert 'orbicurves = "orbicurves.cli:run"' in pyproject.splitlines()


class TestFlagPlacement:
    def test_flag_before_subcommand(self):
        code, text = run_command(["--format", "table", "wps", "report", "5", "2", "2"])
        assert code == 0
        assert text == golden_text("wps_report_5_2_2.table.txt")

    def test_flag_after_subcommand_wins(self):
        code, text = run_command(
            ["--format", "json", "wps", "report", "5", "2", "2", "--format", "table"]
        )
        assert code == 0
        assert text == golden_text("wps_report_5_2_2.table.txt")

    def test_run_config_fields(self):
        for read in (parse_with_argparse, _read_argv):
            argv = ["--format", "json", "intersect", "a.json", "b.json", "--format", "table"]
            args = read(argv)
            assert (args.command, args.path_a, args.path_b) == (
                "intersect",
                "a.json",
                "b.json",
            )
            assert args.output_format == "table"
            args = read(["wps", "report", "5", "2", "2"])
            assert (args.command, args.verb) == ("wps", "report")
            assert args.output_format == "json"
            assert not hasattr(args, "precision")

    def test_flag_between_command_and_verb_is_an_argument_error(self, capsys):
        code, out = run_command(["lens", "--format", "table", "classify", "7", "2", "4"])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == (
            f"error: orbicurves lens: argument verb: {_invalid_choice('table', _VERBS)}\n"
        )


def _leaves():
    """(command argv, leaf arguments) for every leaf of the command table."""
    for command, (_, spec) in cli._COMMANDS.items():
        if isinstance(spec, dict):
            for verb, (_, (_, arguments)) in spec.items():
                yield [command, verb], arguments
        else:
            yield [command], spec[1]


_LEAVES = list(_leaves())
_NAMES = [name for head, _ in _LEAVES for name in head]
# files of each kind, a missing one, command names and the empty path
_PATHS = [str(CONFIGS / "line.json"), str(CONFIGS / "teardrop_7.json"), "missing.json"]
_PATHS += ["lens", "sweep", ""]
# small enough that every handler returns at once
_INTS = ["2", "3", "4", "5", "7", "8", "16"]
# int() reads these four as 7 or 70; an integer argument is ASCII digits
# after an optional minus sign, so each is an argument error
_NOT_INTS = ["+7", " 7", "\u0667", "7_0"]
_HOSTILE = [
    "--form", "--format=table", "--p-max=5", "--", "-h", "--help", "-5", "x", "xml",
    "--bogus", "-", *_NOT_INTS,
]
_TOKENS = sorted(set(_NAMES + _PATHS + _INTS + _HOSTILE + [
    "--format", "--precision", "--p-max", "json", "table",
]))


def _plain_value(kwargs: dict):
    if kwargs.get("choices"):
        return st.sampled_from(kwargs["choices"])
    return st.sampled_from(_INTS if kwargs.get("type") is cli._INT["type"] else _PATHS)


@st.composite
def _argv(draw):
    """An argv of a random leaf, as units (kind, tokens): the command
    and verb, the positionals in order, and the leaf's flags and up to
    four common flags each inserted anywhere.  One value in eight is any
    token, one argument in sixteen is left out, and half the time one or
    two tokens are then inserted, replaced or removed.  Returns (argv,
    plain), where plain means that argv was built well-formed."""
    head, arguments = draw(st.sampled_from(_LEAVES))
    plain = True

    def value(kwargs):
        nonlocal plain
        if draw(st.integers(0, 7)) == 0:
            plain = False
            return draw(st.sampled_from(_TOKENS))
        return draw(_plain_value(kwargs))

    def kept():
        nonlocal plain
        keep = draw(st.integers(0, 15)) > 0
        plain &= keep
        return keep

    units = [("head", [name]) for name in head]
    flags = []
    for name, kwargs in arguments.items():
        if not kept():
            continue
        if name.startswith("-"):
            flags.append(("leaf", [name, value(kwargs)]))
        else:
            units.append(("positional", [value(kwargs)]))
    for flag in draw(st.lists(st.sampled_from(list(cli._COMMON_FLAGS)), max_size=4)):
        flags.append(("common", [flag, value(cli._COMMON_FLAGS[flag])]))
    for unit in flags:
        units.insert(draw(st.integers(0, len(units))), unit)
    kinds = [kind for kind, _ in units]
    first = kinds.index("head")
    # common flags before the command, nothing between command and verb
    plain &= set(kinds[:first]) <= {"common"} and "head" not in kinds[first + len(head):]
    argv = [token for _, tokens in units for token in tokens]
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        plain = False
        i = draw(st.integers(0, len(argv)))
        edit = draw(st.sampled_from(["insert", "replace", "remove"]))
        if edit == "insert" or i == len(argv):
            argv.insert(i, draw(st.sampled_from(_TOKENS)))
        elif edit == "replace":
            argv[i] = draw(st.sampled_from(_TOKENS))
        else:
            del argv[i]
    return argv, plain


def _run_main(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


class TestArgvReader:
    """The reader returns the namespace argparse returns, or declines
    and leaves argv to argparse; either way main ends as it does with
    argparse alone."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_argv())
    def test_reader_agrees_with_argparse(self, drawn):
        argv, plain = drawn
        args = _read_argv(argv)
        if plain:
            assert args is not None, argv
        if args is not None:
            assert vars(args) == vars(parse_with_argparse(argv))
        got = _run_main(argv)
        with mock.patch.object(cli, "_read_argv", lambda argv: None):
            assert got == _run_main(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["--form", "table", "lens", "allowed", "7", "3"],
            ["--format=table", "lens", "allowed", "7", "3"],
            ["lens", "allowed", "--", "7", "3"],
            ["lens", "allowed", "7", "3", "-h"],
            ["lens", "allowed", "-5", "3"],
            ["lens", "allowed", "7", "x"],
            ["lens", "allowed", "7"],
            ["lens", "allowed", "7", "3", "3"],
            ["lens", "--format", "table", "allowed", "7", "3"],
            ["sweep", "--p-max=8"],
            ["sweep", "--p-max", "-3"],
            ["sweep", "--format", "table"],
            ["--p-max", "8", "sweep"],
            ["--format", "xml", "sweep", "--p-max", "8"],
            ["--precision", "eight", "adjunction", "line.json"],
            ["adjunction", "line.json", "--format"],
            ["adjunction", "-"],
            [],
        ],
        ids=" ".join,
    )
    def test_declines_all_but_plain_spellings(self, argv):
        assert _read_argv(argv) is None

    @pytest.mark.parametrize("name,argv", COMMANDS, ids=[n for n, _ in COMMANDS])
    def test_reads_every_golden_command(self, name, argv):
        assert vars(_read_argv(argv)) == vars(parse_with_argparse(argv))

    @pytest.mark.parametrize(
        "spelling,plain",
        [
            ("--format=table lens allowed 7 3", "--format table lens allowed 7 3"),
            ("--form table lens allowed 7 3", "--format table lens allowed 7 3"),
            ("lens allowed -- 7 3", "lens allowed 7 3"),
            ("sweep --p-max=8", "sweep --p-max 8"),
        ],
        ids=["format_equals", "abbreviation", "double_dash", "p_max_equals"],
    )
    def test_argparse_spellings_still_work(self, spelling, plain):
        assert run_command(spelling.split()) == run_command(plain.split())


HELP_TEXTS = json.loads((DATA / "help_texts.json").read_text(encoding="utf-8"))


class TestHelpText:
    """The help of the top level, of each command and of each verb, as
    argparse prints it at 80 columns."""

    @pytest.mark.parametrize("argv", list(HELP_TEXTS))
    def test_help_is_unchanged(self, monkeypatch, capsys, argv):
        monkeypatch.setenv("COLUMNS", "80")
        assert main(argv.split()) == 0
        assert capsys.readouterr() == (HELP_TEXTS[argv], "")


class TestPrecisionRetry:
    def test_shallow_data_resolves_at_its_stored_truncation(self):
        code, text = run_command(
            ["adjunction", str(DATA / "deep_singularity.json")]
        )
        assert code == 0
        payload = json.loads(text)
        assert payload["holds"] is True
        assert payload["lhs"] == "15"
        assert payload["verdict"] == {"verdict": "Singular", "defect": "15"}

    def test_last_rung_names_the_cap(self, tmp_path, monkeypatch, capsys):
        # (t, t^2) and (2t, 4t^2), one parabola given twice at one
        # station, which no truncation resolves: one attempt on the
        # stored series, and the one error line is the blow-up kernel's
        seen = self.record_attempts(monkeypatch)
        for trunc in (8, 32, 64, MAX_PRECISION):
            seen.clear()
            path = _station_file(tmp_path, f"parabola_twice_{trunc}",
                                 ("b", {1: "1"}, {2: "1"}, trunc),
                                 ("b2", {1: "2"}, {2: "4"}, trunc))
            assert main(["adjunction", path]) == 1
            assert len(seen) == 1
            assert capsys.readouterr() == ("", UNRESOLVED)

    @staticmethod
    def record_attempts(monkeypatch) -> list:
        """One entry per report attempt that cli._with_retries makes,
        filled as main runs."""
        seen = []
        retries = cli._with_retries

        def recorded(compute, x):
            def attempt(y):
                seen.append(y)
                return compute(y)

            return retries(attempt, x)

        monkeypatch.setattr(cli, "_with_retries", recorded)
        return seen

    def test_shallow_data_takes_one_attempt(self, monkeypatch, capsys):
        # (t^6, t^7) stored at 8: both orders are stored, and coprime, so
        # the stored data fix delta
        seen = self.record_attempts(monkeypatch)
        assert main(["adjunction", str(DATA / "deep_singularity.json")]) == 0
        assert len(seen) == 1

    def test_mixed_truncations_climb_from_the_smallest(self, tmp_path, monkeypatch):
        # (t, t^2) stored at trunc and (2t, 4t^2 + t^20) stored at 256
        # meet to order 20, and the stored data fix that only when the
        # first branch is known below 21: at 8, its completions meet the
        # second to every order from 8 on.  So it goes whether both
        # branches sit at one station or in the two configs of intersect.
        seen = self.record_attempts(monkeypatch)
        second = ("b2", {1: "2"}, {2: "4", 20: "1"}, MAX_PRECISION)
        other = _station_file(tmp_path, "second", second)
        for trunc, code, value in ((8, 1, None), (21, 0, "20")):
            first = ("b", {1: "1"}, {2: "1"}, trunc)
            both = _station_file(tmp_path, f"both_{trunc}", first, second)
            alone = _station_file(tmp_path, f"first_{trunc}", first)
            for argv in (["adjunction", both], ["intersect", alone, other],
                         ["intersect", other, alone]):
                seen.clear()
                got = _run_main(argv)
                assert len(seen) == 1
                assert got[0] == code, (trunc, argv)
                if value is None:
                    assert got[1:] == ("", UNRESOLVED)
                else:
                    assert _pair_values(got[1]) == [value] and got[2] == ""


UNRESOLVED = ("error: the stored jets do not fix the intersection number; check that the "
              "branches are distinct\n")


def _station_file(tmp_path, name: str, *branches) -> str:
    """The configuration of configs/conic_tangent.json with its one
    station holding the given branches, each (label, U terms, V terms,
    trunc), the terms {exponent: real part}."""
    data = json.loads((CONFIGS / "conic_tangent.json").read_text(encoding="utf-8"))
    station = data["stations"][0]
    template = station["points"][0]
    station["points"] = []
    for label, u, v, trunc in branches:
        point = json.loads(json.dumps(template))
        point["label"] = label
        for key, terms in (("U", u), ("V", v)):
            point["germ"][key] = {"trunc": trunc,
                                  "terms": [[e, {"re": c}] for e, c in terms.items()]}
        station["points"].append(point)
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def _pair_values(stdout: str) -> list:
    return [c["value"] for c in json.loads(stdout)["contributions"] if c["kind"] == "pair"]


def _restored(path: Path, trunc: int, tmp_path, tail: bool = False) -> str:
    """A copy of the configuration file at path with every series
    stored at truncation trunc, at or above its own.  With tail, each
    series also gains up to three terms with seeded random Gaussian
    coefficients at exponents from its old truncation up to trunc, so
    the copy is one completion of the stored data, not only the one
    that continues it by zeros."""
    rng = random.Random(f"{path.stem}-{trunc}")

    def gaussian() -> dict:
        return {"re": str(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))),
                "im": str(Fraction(rng.randint(-9, 9), rng.randint(1, 9)))}

    def walk(value):
        if isinstance(value, dict):
            if "terms" in value:
                assert value["trunc"] <= trunc
                if tail:
                    gap = range(value["trunc"], trunc)
                    value["terms"] += [[e, gaussian()] for e in rng.sample(gap, min(3, len(gap)))]
                value["trunc"] = trunc
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    data = json.loads(path.read_text(encoding="utf-8"))
    walk(data)
    out = tmp_path / f"{path.stem}_{trunc}{'_tail' if tail else ''}.json"
    out.write_text(json.dumps(data), encoding="utf-8")
    return str(out)


_CURVE_FILES = [CONFIGS / f"{name}.json" for name in (
    "nodal_cubic", "cuspidal_cubic", "line", "conic_tangent")] + [DATA / "deep_singularity.json"]


class TestTruncationLaw:
    """Delta invariants and intersection multiplicities are fixed by
    finitely many terms of a germ (finite determinacy), so a report that
    the stored series resolve holds for every completion of them: the
    exit code, stdout and stderr stay the same when each series gains
    arbitrary terms at or above its stored truncation.  A value the
    stored series do not fix exits 1, since no attempt runs past them.
    Continued by zeros instead, each of the curve files here also keeps
    its failures."""

    @pytest.mark.parametrize(
        "paths",
        [[p] for p in _CURVE_FILES] + [[a, b] for a in _CURVE_FILES for b in _CURVE_FILES],
        ids=lambda paths: "-".join(p.stem for p in paths),
    )
    def test_output_is_the_same_at_every_stored_truncation(self, tmp_path, paths):
        command = "adjunction" if len(paths) == 1 else "intersect"
        stored = _run_main([command, *map(str, paths)])
        for trunc in (64, 128, MAX_PRECISION):
            for tail in (False, True) if stored[0] == 0 else (False,):
                argv = [command, *(_restored(p, trunc, tmp_path, tail) for p in paths)]
                assert _run_main(argv) == stored, (trunc, tail)

    def test_the_stored_jet_decides(self, tmp_path):
        # (t, t^2) stored at 8 against (2t, 4t^2 + 2^9 t^9) stored at 32:
        # continued by zeros, the first meets the second to order 9, and
        # given an extra t^8 term, to order 8, so the data fix no value
        second = ("b", {1: "2"}, {2: "4", 9: "512"}, 32)
        undetermined = _station_file(tmp_path, "undetermined", ("a", {1: "1"}, {2: "1"}, 8), second)
        assert _run_main(["adjunction", undetermined]) == (1, "", UNRESOLVED)
        zeros = _run_main(["adjunction", _restored(Path(undetermined), 32, tmp_path)])
        assert zeros[0] == 0 and _pair_values(zeros[1]) == ["9"]
        extended = _station_file(tmp_path, "extended", ("a", {1: "1"}, {2: "1", 8: "1"}, 32),
                                 second)
        got = _run_main(["adjunction", extended])
        assert got[0] == 0 and _pair_values(got[1]) == ["8"] and got[2] == ""
        for trunc in (64, 128, MAX_PRECISION):
            completed = _restored(Path(extended), trunc, tmp_path, tail=True)
            assert _run_main(["adjunction", completed]) == got


class TestDeepTruncation:
    def test_cusp_at_truncation_250_reports_at_once(self, tmp_path, monkeypatch):
        data = json.loads((CONFIGS / "cuspidal_cubic.json").read_text(encoding="utf-8"))
        germ = data["stations"][0]["points"][0]["germ"]
        germ["U"] = {"trunc": 250, "terms": [[2, {"re": "1"}], [3, {"re": "1"}]]}
        germ["V"]["trunc"] = 250
        path = tmp_path / "cusp_250.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        seen = TestPrecisionRetry.record_attempts(monkeypatch)
        start = time.perf_counter()
        got = run_command(["adjunction", str(path)])
        assert time.perf_counter() - start < 0.5
        assert len(seen) == 1
        # (t^2 + t^3, t^3) is a cusp too, with the plain cusp's report
        assert got == run_command(["adjunction", str(CONFIGS / "cuspidal_cubic.json")])

    def test_cusp_given_twice_exits_at_once(self, tmp_path, monkeypatch):
        # (t^2 - t^3, -t^3) is (t^2 + t^3, t^3) at -t: one branch given
        # twice, which no truncation resolves.  Its one attempt reads the
        # series only below the stored truncation 32; stored at 256, its
        # blow-ups take over a second.
        path = _station_file(tmp_path, "cusp_twice", ("a", {2: "1", 3: "1"}, {3: "1"}, 32),
                             ("b", {2: "1", 3: "-1"}, {3: "-1"}, 32))
        seen = TestPrecisionRetry.record_attempts(monkeypatch)
        start = time.perf_counter()
        with mock.patch.object(germ_module, "_blow_up", wraps=germ_module._blow_up) as blow_up:
            got = _run_main(["adjunction", path])
        assert time.perf_counter() - start < 0.5
        assert got == (1, "", UNRESOLVED) and len(seen) == 1
        assert blow_up.call_count <= 62


class TestExitCodes:
    def test_missing_file(self, capsys):
        code, _ = run_command(["adjunction", "no_such_file.json"])
        assert code == 2

    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{", encoding="utf-8")
        code, _ = run_command(["adjunction", str(bad)])
        assert code == 2

    def test_wrong_shape_json(self, tmp_path):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]", encoding="utf-8")
        code, _ = run_command(["index", "eval", str(bad)])
        assert code == 2

    def test_invalid_parameters(self):
        code, _ = run_command(["lens", "classify", "4", "2", "1"])
        assert code == 2

    def test_precision_is_not_a_flag(self, capsys):
        # no truncation is a user setting, before the command or after it
        path = str(CONFIGS / "line.json")
        for argv in (["--precision", "64", "adjunction", path],
                     ["adjunction", path, "--precision", "64"]):
            code, out = run_command(argv)
            assert (code, out) == (2, "")
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1

    def test_unrepresentable_coefficients(self):
        code, _ = run_command(["adjunction", str(DATA / "unrepresentable.json")])
        assert code == 1

    def test_unknown_command(self):
        code, _ = run_command(["frobnicate"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv,message",
        [
            (["lens", "classify", "7"], "orbicurves lens classify: the following arguments "
             "are required: q, qprime"),
            (["lens", "allowed", "7", "x"], "orbicurves lens allowed: argument q: "
             "invalid int value: 'x'"),
            (["chains"], "orbicurves chains: the following arguments are required: verb"),
            (["sweep", "--p-max", "8", "--bogus"], "orbicurves: unrecognized arguments: --bogus"),
            (["frobnicate"], "orbicurves: argument command: "
             + _invalid_choice("frobnicate", _COMMAND_NAMES)),
            (["lens", "frob"], "orbicurves lens: argument verb: " + _invalid_choice("frob", _VERBS)),
            # a bad q' is named as q', not as q
            (["lens", "classify", "9", "2", "3"], "p and q' must be coprime, got (9, 3)"),
            (["lens", "classify", "5", "2", "0"], "q' must satisfy 0 < q' < p, got 0"),
        ],
        ids=["missing", "not_an_int", "no_verb", "unknown_flag", "no_such_command", "no_such_verb",
             "qprime_not_coprime", "qprime_out_of_range"],
    )
    def test_argument_errors_are_one_line(self, capsys, argv, message):
        code, out = run_command(argv)
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("token", _NOT_INTS, ids=["plus", "space", "arabic_indic", "underscore"])
    @pytest.mark.parametrize(
        "argv,where",
        [
            (["lens", "allowed", "T", "3"], "lens allowed: argument p"),
            (["wps", "report", "5", "2", "T"], "wps report: argument qprime"),
            (["index", "scan", "T", "3"], "index scan: argument p"),
            (["sweep", "--p-max", "T"], "sweep: argument --p-max"),
        ],
        ids=["lens", "wps_report", "index_scan", "sweep"],
    )
    def test_integer_arguments_are_ascii_digits(self, capsys, argv, where, token):
        code, out = run_command([token if a == "T" else a for a in argv])
        assert (code, out) == (2, "")
        assert capsys.readouterr().err == f"error: orbicurves {where}: invalid int value: {token!r}\n"

    def test_no_command(self):
        code, _ = run_command([])
        assert code == 2

    def test_success_paths_are_zero(self):
        code, _ = run_command(["lens", "allowed", "7", "3"])
        assert code == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["adjunction", "DEEP"],
            ["intersect", str(CONFIGS / "line.json"), "DEEP"],
            ["index", "eval", "DEEP"],
            ["chains", "betti", "DEEP"],
            ["chains", "validate", "DEEP"],
        ],
        ids=["adjunction", "intersect", "index_eval", "chains_betti", "chains_validate"],
    )
    def test_deeply_nested_json_exits_2_with_one_line(self, tmp_path, capsys, argv):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
        code, out = run_command([str(deep) if a == "DEEP" else a for a in argv])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {deep}: JSON nested too deeply\n"

    @pytest.mark.parametrize(
        "content,message",
        [
            (b'{"ambient": {"h2_rank": 1', "Expecting ',' delimiter: line 1 column 26 (char 25)"),
            (b"\xff{}", "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
        ],
        ids=["truncated", "not_utf8"],
    )
    def test_bad_json_file_is_named(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        code, out = run_command(["intersect", str(CONFIGS / "line.json"), str(bad)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {bad}: {message}\n"

    @pytest.mark.parametrize(
        "data,message",
        [
            (
                {"c1_pair": "12/35", "genus": 0.5, "points": [[7.9, [3, 1]]]},
                "genus: expected an integer, got 0.5",
            ),
            (
                {"c1_pair": "12/35", "genus": True, "points": [[7, [3, 1]]]},
                "genus: expected an integer, got true",
            ),
            (
                {"c1_pair": "12/35", "genus": 0, "points": [[7.0, [3, 1]]]},
                "points[0][0]: expected an integer, got 7.0",
            ),
            (
                {"c1_pair": "12/35", "genus": 0, "points": [[True, [3, 1]]]},
                "points[0][0]: expected an integer, got true",
            ),
            (
                {"c1_pair": "12/35", "genus": 0, "points": [[7, [3.5, 1]]]},
                "points[0][1][0]: expected an integer, got 3.5",
            ),
            (
                {"c1_pair": "12/35", "genus": 0, "points": [[7, [3, False]]]},
                "points[0][1][1]: expected an integer, got false",
            ),
            (
                # a point's weights are a pair: the path names the list
                {"c1_pair": "12/35", "genus": 0, "points": [[3, [1, 1, 1]]]},
                "points[0][1]: expected a list of 2 items, got [1, 1, 1]",
            ),
            (
                {"c1_pair": 0.25, "genus": 0, "points": [[7, [3, 1]]]},
                'c1_pair: expected a rational string "a/b", got 0.25',
            ),
            (
                {"c1_pair": ["12/35"], "genus": 0, "points": []},
                'c1_pair: expected a rational string "a/b", got ["12/35"]',
            ),
        ],
        ids=[
            "float_genus", "bool_genus", "float_order", "bool_order",
            "float_weight", "bool_weight", "three_weights", "float_c1", "list_c1",
        ],
    )
    def test_index_eval_rejects_non_integer_fields(self, tmp_path, capsys, data, message):
        bad = tmp_path / "index.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_command(["index", "eval", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"


class TestGermJsonBoundary:
    """Series exponents, trunc and m must be ints that are not bools;
    anything else exits 2 with one stderr line."""

    @staticmethod
    def cusp_germ():
        data = json.loads((CONFIGS / "cuspidal_cubic.json").read_text(encoding="utf-8"))
        return data, data["stations"][0]["points"][0]["germ"]

    @pytest.mark.parametrize(
        "field,value",
        [
            ("exponent", "3"),
            ("exponent", True),
            ("exponent", 2.7),
            ("exponent", 3.0),
            ("trunc", True),
            ("trunc", "32"),
            ("trunc", 32.0),
            ("trunc", None),
            ("m", True),
            ("m", 1.0),
            ("terms", "[[3, 1]]"),
            ("coefficient", 1),
            ("coefficient", 0.5),
            ("group", [True, False]),
        ],
        ids=[
            "str_exponent", "bool_exponent", "float_exponent", "integral_float_exponent",
            "bool_trunc", "str_trunc", "float_trunc", "null_trunc", "bool_m", "float_m",
            "str_terms", "int_coefficient", "float_coefficient", "bool_group",
        ],
    )
    def test_rejects_non_integer_fields(self, tmp_path, capsys, field, value):
        data, germ = self.cusp_germ()
        series = germ["V"]
        if field == "exponent":
            series["terms"][0][0] = value
        elif field == "coefficient":
            series["terms"][0][1]["re"] = value
        elif field in ("trunc", "terms"):
            series[field] = value
        else:
            germ[field] = value
        bad = tmp_path / "germ.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_command(["adjunction", str(bad)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_integer_fields_still_load(self, tmp_path):
        # the fields test_rejects_non_integer_fields spoils, as plain ints
        data, germ = self.cusp_germ()
        germ["V"]["terms"][0][0] = 3
        germ["V"]["trunc"] = 32
        germ["m"] = 1
        good = tmp_path / "germ.json"
        good.write_text(json.dumps(data), encoding="utf-8")
        assert run_command(["adjunction", str(good)]) == run_command(
            ["adjunction", str(CONFIGS / "cuspidal_cubic.json")]
        )

    def test_twist_is_not_a_germ_key(self, tmp_path, capsys):
        # a group translate is a rotation inside the orbit sums; no
        # germ stores one
        data, germ = self.cusp_germ()
        germ["twist"] = 0
        bad = tmp_path / "germ.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_command(["adjunction", str(bad)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == (
            "error: stations[0].points[0].germ.twist: unknown key\n"
        )

    def test_one_orbit_listed_twice_exits_2(self, tmp_path, capsys):
        # at Z_2 of type (2, 1), (-t, -t^2) is the translate by 1 of
        # (t, t^2): the pair term meets the first germ's data again
        data = json.loads((DATA / "unrepresentable.json").read_text(encoding="utf-8"))
        data["ambient"]["singular_points"][0][1] = [2, 1]
        station = data["stations"][0]
        station["isotropy_order"] = 2
        p = station["points"][0]
        p["germ"]["group"] = [2, 1]
        q = json.loads(json.dumps(p))
        q["label"] = "b"
        for key in ("U", "V"):
            q["germ"][key]["terms"][0][1]["re"] = "-1"
        station["points"].append(q)
        path = tmp_path / "twice.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_command(["adjunction", str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == "error: the two germs carry identical data\n"

    def test_stored_trunc_above_the_cap_exits_at_once(self, tmp_path, capsys):
        data, germ = self.cusp_germ()
        germ["V"]["trunc"] = MAX_PRECISION + 1
        bad = tmp_path / "germ.json"
        bad.write_text(json.dumps(data), encoding="utf-8")
        series = germ_module.PowerSeries
        start = time.perf_counter()
        with mock.patch.object(series, "from_json", wraps=series.from_json) as read:
            code, out = run_command(["adjunction", str(bad)])
        assert time.perf_counter() - start < 1
        # U is read and V fails, so no series past the failing field is read
        assert read.call_count == 2
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == (
            f"error: series trunc must be an integer <= {MAX_PRECISION}, "
            f"got {MAX_PRECISION + 1}\n"
        )

    def test_stored_trunc_at_the_cap_loads(self, tmp_path):
        data, germ = self.cusp_germ()
        germ["V"]["trunc"] = MAX_PRECISION
        good = tmp_path / "germ.json"
        good.write_text(json.dumps(data), encoding="utf-8")
        # U keeps truncation 32, so the germ's truncation and report stay
        assert run_command(["adjunction", str(good)]) == run_command(
            ["adjunction", str(CONFIGS / "cuspidal_cubic.json")]
        )


class TestSweepLimit:
    @pytest.mark.parametrize("p_max", [1, MAX_SWEEP_P + 1, 10**40])
    def test_out_of_range_exits_at_once(self, capsys, p_max):
        start = time.perf_counter()
        with mock.patch.object(wps, "sweep_rows", wraps=wps.sweep_rows) as rows:
            code, out = run_command(["sweep", "--p-max", str(p_max)])
        assert time.perf_counter() - start < 1
        assert rows.call_count == 0
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: --p-max must be in 2..{MAX_SWEEP_P}, got {p_max}\n"


class TestSweepWorkers:
    """A sweep runs in this process whatever the CPU count, so a failing
    row ends the command with that row's own error."""

    # two positions in the 1,101 rows of p_max 60: the ids name the share
    # that dealing the rows round-robin to two workers gave each
    @pytest.mark.parametrize("where", [4, 5], ids=["parent_share", "child_share"])
    def test_failing_row_gives_the_serial_error(self, monkeypatch, capsys, where):
        pairs = [(p, q) for p in range(2, 61) for q in range(1, p) if math.gcd(p, q) == 1]
        row = wps.sweep_row

        def failing(p, q):
            if (p, q) == pairs[where]:
                raise ArithmeticError(f"row ({p}, {q}) failed")
            return row(p, q)

        monkeypatch.setattr(wps, "sweep_row", failing)
        forks = _force_cpus(monkeypatch, 2)
        code = run_command(["sweep", "--p-max", "60"])
        assert (code, capsys.readouterr().err) == ((1, ""), f"error: row {pairs[where]} failed\n")
        assert forks == []


class TestScanLimit:
    @pytest.mark.parametrize("p", [MAX_SCAN_P + 1, 10**40 + 7])
    def test_above_the_bound_exits_at_once(self, capsys, p):
        start = time.perf_counter()
        scan = chern_index.index_integrality_scan
        with mock.patch.object(chern_index, "index_integrality_scan", wraps=scan) as rows:
            code, out = run_command(["index", "scan", str(p), "2"])
        assert time.perf_counter() - start < 1
        assert rows.call_count == 0
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: index scan p must be <= {MAX_SCAN_P}, got {p}\n"


def _mutated(tmp_path, source: Path, edits: dict) -> str:
    """source with the leaf at each key path replaced, written under tmp_path."""
    data = json.loads(source.read_text(encoding="utf-8"))
    for path, value in edits.items():
        node = data
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
    out = tmp_path / source.name
    out.write_text(json.dumps(data), encoding="utf-8")
    return str(out)


AMBIENT_POINT = ("stations", 0, "ambient_point")
SINGULAR_POINT_ID = ("ambient", "singular_points", 0, 0)
GERM_GROUP = ("stations", 0, "points", 0, "germ", "group")


class TestIdsAndLabels:
    """Point ids and labels must be strings and chains orders an object;
    anything else exits 2 with one stderr line."""

    @pytest.mark.parametrize(
        "source,path,value",
        [
            (DATA / "unrepresentable.json", AMBIENT_POINT, 1),
            (DATA / "unrepresentable.json", AMBIENT_POINT, None),
            (DATA / "unrepresentable.json", AMBIENT_POINT, ["z"]),
            (CONFIGS / "line.json", AMBIENT_POINT, True),
            (DATA / "unrepresentable.json", SINGULAR_POINT_ID, 3),
            (DATA / "unrepresentable.json", SINGULAR_POINT_ID, None),
            (DATA / "unrepresentable.json", ("stations", 0, "points", 0, "label"), 1.5),
            (CONFIGS / "nodal_cubic.json", ("regular_double_points", 0, "labels", 0), 7),
        ],
        ids=[
            "int_ambient_point", "null_ambient_point", "list_ambient_point",
            "bool_ambient_point", "int_singular_point_id", "null_singular_point_id",
            "float_point_label", "int_double_point_label",
        ],
    )
    def test_non_string_ids_exit_2(self, tmp_path, capsys, source, path, value):
        code, out = run_command(["adjunction", _mutated(tmp_path, source, {path: value})])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and ": expected a string, got " in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    @pytest.mark.parametrize("orders", [True, 1.5, "3", -1, [1]])
    def test_non_object_orders_exit_2(self, tmp_path, capsys, verb, orders):
        path = _mutated(tmp_path, CONFIGS / "teardrop_7.json", {("orders",): orders})
        code, out = run_command(["chains", verb, path])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err == f"error: orders: expected an object, got {json.dumps(orders)}\n"

    @pytest.mark.parametrize("verb", ["betti", "validate"])
    @pytest.mark.parametrize(
        "data,message",
        [
            ({"simplices": [[0, 1]], "groups": 5, "homs": "x"}, "groups: expected an object, got 5"),
            ({"simplices": [[0, 1]], "homs": {}}, "homs: given without groups"),
        ],
        ids=["non_object_groups", "homs_without_groups"],
    )
    def test_group_keys_are_checked_by_both_verbs(self, tmp_path, capsys, verb, data, message):
        path = tmp_path / "complex.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, out = run_command(["chains", verb, str(path)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


DOUBLE_POINT = ("regular_double_points", 0)


class TestDoublePointInput:
    """A regular double point is read as a two-point station at
    isotropy 1, whose checks give the one-line error."""

    @pytest.mark.parametrize(
        "edits,message",
        [
            (
                {DOUBLE_POINT + ("labels", 1): "n1"},
                "duplicate point labels in station: ['n1', 'n1']",
            ),
            (
                {DOUBLE_POINT + ("germs", 0, "group"): [3, 1], DOUBLE_POINT + ("germs", 0, "m"): 3},
                "orbit at 'n1' lives in a group of order 3, station isotropy is 1",
            ),
        ],
        ids=["equal_labels", "z3_germ"],
    )
    def test_invalid_double_point_exits_2(self, tmp_path, capsys, edits, message):
        code, out = run_command(["adjunction", _mutated(tmp_path, CONFIGS / "nodal_cubic.json", edits)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"


def _terms(*exponents):
    """Series terms with coefficient 1 at each exponent, as the JSON stores them."""
    return [[e, {"re": "1", "im": "0"}] for e in exponents]


class TestStatedStabilizer:
    """The Z_3 germ of unrepresentable.json, type (3, 1), with its stated
    stabilizer order m changed: a fault the stored jet certifies is one of
    the constructor's two messages, one stderr line, exit 2."""

    @staticmethod
    def _stated(tmp_path, u, v, m):
        point = ("stations", 0, "points", 0)
        return _mutated(tmp_path, DATA / "unrepresentable.json", {
            point + ("germ", "U", "terms"): _terms(*u),
            point + ("germ", "V", "terms"): _terms(*v),
            point + ("germ", "m"): m,
            point + ("order",): m,
        })

    @pytest.mark.parametrize(
        "u, v, m, message",
        [
            ((1,), (2,), 3, "germ is not equivariant for group [3, 1] with m=3"),
            ((3,), (), 3, "no injective order-3 action is compatible with the germ supports"),
        ],
        ids=["not_equivariant", "not_injective"],
    )
    def test_stated_stabilizer_fault_exits_2(self, tmp_path, capsys, u, v, m, message):
        code, out = run_command(["adjunction", self._stated(tmp_path, u, v, m)])
        assert code == 2 and out == ""
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_understated_stabilizer_is_unresolved(self, tmp_path, capsys):
        # (t^3, 0) stored at 32 builds with m = 1, since its completion
        # (t^3 + t^32 + t^33, 0) is fixed by no translate; but its V is
        # zero to precision, so the point term's delta is not fixed
        code, out = run_command(["adjunction", self._stated(tmp_path, (3,), (), 1)])
        assert code == 1 and out == ""
        assert capsys.readouterr().err == f"error: {germ_module._UNFIXED_DELTA}\n"


class TestLargeGroupOrders:
    """No germ computation walks the chart group Z_a."""

    def test_point_term_past_q_i_exits_1_at_once(self, tmp_path, capsys):
        a = 10**40 + 1
        path = _mutated(tmp_path, DATA / "unrepresentable.json", {
            ("ambient", "singular_points", 0, 1): [a, 1],
            ("stations", 0, "isotropy_order"): a,
            GERM_GROUP: [a, 1],
        })
        start = time.perf_counter()
        with mock.patch.object(germ_module, "_rotated", wraps=germ_module._rotated) as rotated:
            code, out = run_command(["adjunction", path])
        assert time.perf_counter() - start < 1
        # the first translate raises: the point term forms no other
        assert rotated.call_count == 1
        assert code == 1 and out == ""
        assert capsys.readouterr().err == (
            f"error: translate by 1 of a Z_{a} action needs a root of unity "
            "outside the Gaussian rationals\n"
        )

    @pytest.mark.parametrize(
        "source",
        [
            CONFIGS / "conic_tangent.json",
            CONFIGS / "cuspidal_cubic.json",
            DATA / "deep_singularity.json",
            DATA / "unrepresentable.json",
        ],
        ids=lambda p: p.stem,
    )
    def test_huge_germ_group_exits_at_once(self, tmp_path, capsys, source):
        path = _mutated(tmp_path, source, {GERM_GROUP + (0,): 10**40})
        solve = germ_module._stabilizer_exponent
        start = time.perf_counter()
        with mock.patch.object(germ_module, "_stabilizer_exponent", wraps=solve) as solved, \
                mock.patch.object(germ_module, "_rotated", wraps=germ_module._rotated) as rotated:
            code, out = run_command(["adjunction", path])
        assert time.perf_counter() - start < 1
        # one germ is built, by one closed-form solve, and no translate is formed
        assert (solved.call_count, rotated.call_count) == (1, 0)
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestLensAllowed:
    def test_huge_p_returns_q_and_its_inverse(self):
        p = 100000000000000000000000000049
        code, out = run_command(["lens", "allowed", str(p), "7"])
        assert code == 0
        assert json.loads(out)["allowed"] == sorted({7, pow(7, -1, p)})


class TestEmitReport:
    def test_json_is_newline_terminated(self):
        assert render({"schema": 1}).endswith("\n")

    def test_table_flattens_nested_keys(self):
        text = render(
            {"a": {"b": 1, "c": [2, 3]}, "flag": True, "rows": [{"x": 1, "y": "q"}]},
            "table",
        )
        lines = text.splitlines()
        assert "a.b   1" in lines
        assert "a.c   [2, 3]" in lines
        assert "flag  true" in lines
        assert lines[-2] == "x  y"
        assert lines[-1] == "1  q"

    def test_table_reads_the_rows_twice(self):
        # one pass sizes the columns and one writes them: a re-iterable
        # is iterated twice, a one-shot iterator gives the same table
        from orbicurves.chern_index import index_integrality_scan

        rows = index_integrality_scan(11, 2)
        want = render({"p": 11, "rows": list(rows)}, "table")
        assert render({"p": 11, "rows": rows}, "table") == want
        assert render({"p": 11, "rows": iter(rows)}, "table") == want

    def test_table_indexes_record_lists(self):
        text = render({"items": [{"v": 1}, {"v": 2}]}, "table")
        assert "items[0].v" in text and "items[1].v" in text

    @pytest.mark.parametrize(
        "payload",
        [
            {"rows": []},
            {"schema": 1, "rows": []},
            {"a": {"b": [1, 2]}, "rows": [{"s": "qé\"\\", "n": None, "t": True, "i": -3}]},
            {"rows": [{"x": 1}], "after": 2},
            {"head": "h", "rows": [{"i": i, "odd": i % 2 == 1} for i in range(3 * ROW_BATCH)]},
        ],
    )
    def test_json_rows_equal_one_dump(self, payload):
        want = json.dumps(payload, indent=2) + "\n"
        assert render(payload) == want
        if next(reversed(payload)) == "rows":  # a last "rows" may be any iterable
            assert render({**payload, "rows": iter(payload["rows"])}) == want

    def test_json_rows_are_written_in_batches(self):
        writes = []

        class Sink:
            def write(self, text):
                writes.append(text)

        rows = [{"i": i} for i in range(2 * ROW_BATCH + 1)]
        write_report({"rows": iter(rows)}, "json", Sink())
        assert len(writes) == 3
        assert "".join(writes) == json.dumps({"rows": rows}, indent=2) + "\n"


class TestWriterContract:
    """The writer is the one place a rational becomes text: a Fraction at
    any depth prints as its "a/b" text, while an int stays a JSON number
    and a bool stays true or false."""

    NESTED = {
        "schema": 1,
        "x": Fraction(-13, 7),
        "n": 5,
        "whole": Fraction(10, 2),
        "flags": [True, False, None],
        "deep": {"list": [Fraction(1, 2), 3, {"y": Fraction(-4)}], "t": True},
    }

    def test_json_prints_every_fraction_as_text(self):
        assert json.loads(render(self.NESTED)) == {
            "schema": 1,
            "x": "-13/7",
            "n": 5,
            "whole": "5",
            "flags": [True, False, None],
            "deep": {"list": ["1/2", 3, {"y": "-4"}], "t": True},
        }

    def test_table_prints_every_fraction_as_text(self):
        assert render(self.NESTED, "table").splitlines() == [
            f"{path:14}  {value}" for path, value in [
                ("schema", "1"),
                ("x", "-13/7"),
                ("n", "5"),
                ("whole", "5"),
                ("flags", "[true, false, null]"),
                ("deep.list[0]", "1/2"),
                ("deep.list[1]", "3"),
                ("deep.list[2].y", "-4"),
                ("deep.t", "true"),
            ]
        ]


def _type_law_pairs(value, printed, path=""):
    """(path, value, printed) for every leaf of a report and of its JSON
    text read back."""
    if isinstance(value, dict):
        assert list(value) == list(printed), path
        for key in value:
            yield from _type_law_pairs(value[key], printed[key], f"{path}.{key}")
    elif isinstance(value, list):
        assert len(value) == len(printed), path
        for i, (v, p) in enumerate(zip(value, printed)):
            yield from _type_law_pairs(v, p, f"{path}[{i}]")
    else:
        yield path, value, printed


def _config_commands() -> list:
    """A command for every file of configs/, and intersect for every
    ordered pair of configurations, distinct and in one ambient model."""
    curves = []
    argvs = []
    for path in sorted(CONFIGS.glob("*.json")):
        data = json.loads(path.read_text(encoding="utf-8"))
        if "ambient" in data:
            curves.append((str(path), data["ambient"]))
            argvs.append(["adjunction", str(path)])
        elif "c1_pair" in data:
            argvs.append(["index", "eval", str(path)])
        else:
            argvs += [["chains", "betti", str(path)], ["chains", "validate", str(path)]]
    argvs += [
        ["intersect", a, b] for a, ambient_a in curves for b, ambient_b in curves
        if a != b and ambient_a == ambient_b
    ]
    return argvs


class TestReportTypes:
    """Type law: every value of a report that prints as a rational is a
    Fraction in the report's dict, and no other value is."""

    @staticmethod
    def check(argv):
        args = _read_argv(argv)
        report = args.handler(args)
        printed = json.loads(render(report))
        leaves = list(_type_law_pairs(report, printed))
        for path, value, text in leaves:
            is_rational_text = isinstance(text, str) and re.fullmatch(r"-?\d+(/\d+)?", text)
            assert (type(value) is Fraction) == bool(is_rational_text), (argv, path, value)
        return leaves

    def test_every_config_command(self):
        argvs = _config_commands()
        assert ["intersect", str(CONFIGS / "line.json"), str(CONFIGS / "conic_tangent.json")] in argvs
        fractions = 0
        for argv in argvs:
            fractions += sum(type(v) is Fraction for _, v, _ in self.check(argv))
        assert fractions > 0

    def test_every_wps_report_up_to_p_12(self):
        for p in range(2, 13):
            for q in range(1, p):
                for qprime in range(1, p):
                    if math.gcd(p, q) == math.gcd(p, qprime) == 1:
                        self.check(["wps", "report", str(p), str(q), str(qprime)])


class _NullSink:
    def write(self, text):
        return len(text)

    def flush(self):
        pass


class TestScanStream:
    @staticmethod
    def listed(p: int, q: int) -> dict:
        """The whole report, its rows made by two kawasaki_index calls
        per q' on Fractions."""
        units = [u for u in range(1, p) if math.gcd(u, p) == 1]
        return {"schema": 1, "p": p, "q": q, "rows": scan_oracle_rows(p, q, units)}

    def test_streamed_output_equals_one_dump(self):
        rng = random.Random(120)
        for p in range(2, 121):
            units = [q for q in range(1, p) if math.gcd(p, q) == 1]
            for q in {units[0], units[-1], rng.choice(units)}:
                payload = self.listed(p, q)
                code, text = run_command(["index", "scan", str(p), str(q)])
                assert code == 0
                assert text == json.dumps(payload, indent=2) + "\n", (p, q)
                code, text = run_command(["index", "scan", str(p), str(q), "--format", "table"])
                assert code == 0
                assert text == render(payload, "table"), (p, q)

    @pytest.mark.parametrize("p,q", [(1024, 3), (1031, 5)])
    def test_streamed_output_across_batches(self, p, q):
        # phi(1024) = 2 * ROW_BATCH rows fill the batches exactly
        code, text = run_command(["index", "scan", str(p), str(q)])
        assert code == 0
        assert text == json.dumps(self.listed(p, q), indent=2) + "\n"

    def test_memory_does_not_grow_with_p(self, monkeypatch):
        monkeypatch.setattr(sys, "stdout", _NullSink())
        tracemalloc.start()
        try:
            code = main(["index", "scan", "20011", "3"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < 2 * 2**20, f"peak {peak / 2**20:.2f} MiB"

    @pytest.mark.parametrize("unbuffered", [True, False])
    def test_closed_pipe_exits_1_with_one_line(self, unbuffered):
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(SRC)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        with subprocess.Popen(
            [sys.executable, "-m", "orbicurves.cli", "index", "scan", "20011", "3"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
        ) as proc:
            assert proc.stdout.read(100).startswith(b'{\n  "schema": 1,')
            proc.stdout.close()  # like `| head`, long before the report ends
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=60) == 1
        assert err == "error: standard output closed before the report ended\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize(
        "argv", [["lens", "allowed", "5", "2"], ["index", "scan", "20011", "3"]], ids=" ".join
    )
    def test_full_device_exits_1_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "orbicurves.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write the report: No space left on device\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    @pytest.mark.parametrize("argv", [["--help"], ["chains", "validate", "--help"]], ids=" ".join)
    def test_help_to_full_device_exits_1_with_one_line(self, argv):
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "orbicurves.cli", *argv],
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                env={**os.environ, "PYTHONPATH": str(SRC)},
            )
        assert proc.returncode == 1
        assert proc.stderr == "error: cannot write the report: No space left on device\n"

    @pytest.mark.parametrize("p,q", [(4, 2), (5, 0), (100003, 2)])
    def test_bad_parameters_exit_2_before_any_output(self, capsys, p, q):
        code, out = run_command(["index", "scan", str(p), str(q)])
        err = capsys.readouterr().err
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


_BASE = {"orbicurves", "orbicurves.cli", "orbicurves.decode", "orbicurves.errors"}
_LENS = {"orbicurves.lens"}
_GERM = _LENS | {"orbicurves.exact", "orbicurves.curvecalc", "orbicurves.germ", "orbicurves.surface"}
_INDEX = _LENS | {"orbicurves.chern_index"}
_WPS = _GERM | _INDEX | {"orbicurves.wps"}
_MODULES_AFTER_MAIN = """
import contextlib, io, json, sys
before = set(sys.modules)
from orbicurves.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    code = main(json.loads(sys.argv[1]))
new = set(sys.modules) - before
print(json.dumps([
    code,
    sorted(m for m in new if m.startswith("orbicurves")),
    sorted(new & {"dataclasses", "inspect", "fractions", "argparse", "gettext"}),
]))
"""
MODULE_SETS = [
    (["--help"], _BASE | {"orbicurves.argparser"}),
    (["lens", "classify", "7", "2", "4"], _BASE | _LENS),
    (["lens", "allowed", "5", "2"], _BASE | _LENS),
    (["index", "scan", "5", "2"], _BASE | _INDEX),
    (["index", "eval", str(CONFIGS / "index_c0_5_2.json")], _BASE | _INDEX),
    (["chains", "betti", str(CONFIGS / "teardrop_7.json")], _BASE | {"orbicurves.chains"}),
    (["chains", "validate", str(CONFIGS / "teardrop_7.json")], _BASE | {"orbicurves.chains"}),
    (["adjunction", str(CONFIGS / "nodal_cubic.json")], _BASE | _GERM),
    (["adjunction", str(CONFIGS / "cuspidal_cubic.json")], _BASE | _GERM),
    (["intersect", str(CONFIGS / "line.json"), str(CONFIGS / "conic_tangent.json")], _BASE | _GERM),
    (["wps", "report", "5", "2", "2"], _BASE | _WPS),
    (["sweep", "--p-max", "3"], _BASE | _WPS),
]


_MODULE_SET_IDS = [" ".join(Path(x).name for x in a[:2]) for a, _ in MODULE_SETS]


@functools.cache
def _fresh_run(argv: tuple[str, ...]) -> list:
    """[exit code, orbicurves modules, watched standard modules] that
    main(argv) loads in a fresh interpreter: other tests load every
    module in this one, and modules the interpreter loaded before
    orbicurves do not count."""
    proc = subprocess.run(
        [sys.executable, "-c", _MODULES_AFTER_MAIN, json.dumps(argv)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestParserSize:
    """A well-formed command builds no parser.  Where argparse decides,
    every command and verb is registered with its help, and only the
    invoked one gets its verbs, flags and arguments: --help builds the
    top level and 7 commands with 9 add_argument calls (7 of them the
    commands' -h), and a declined lens classify adds its 2 verbs, the
    leaf flags and 3 arguments."""

    @pytest.mark.parametrize(
        "argv,parsers,arguments",
        [
            (["--help"], 8, 9),
            (["lens", "classify", "7", "2", "4"], 0, 0),
            (["lens", "classify", "--format=json", "7", "2", "4"], 10, 15),
        ],
        ids=["help", "lens_classify", "declined_lens_classify"],
    )
    def test_parser_fills_in_only_the_invoked_branch(
        self, monkeypatch, capsys, argv, parsers, arguments
    ):
        counts = {"parsers": 0, "arguments": 0}

        def counted(name, method):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return method(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(
            argparse.ArgumentParser, "__init__", counted("parsers", argparse.ArgumentParser.__init__)
        )
        monkeypatch.setattr(
            argparse._ActionsContainer,
            "add_argument",
            counted("arguments", argparse._ActionsContainer.add_argument),
        )
        assert main(argv) == 0
        assert counts == {"parsers": parsers, "arguments": arguments}


class TestImportGraph:
    @pytest.mark.parametrize("argv,modules", MODULE_SETS, ids=_MODULE_SET_IDS)
    def test_command_loads_only_the_modules_it_runs(self, argv, modules):
        assert _fresh_run(tuple(argv))[:2] == [0, sorted(modules)]

    @pytest.mark.parametrize("argv,modules", MODULE_SETS, ids=_MODULE_SET_IDS)
    def test_command_loads_no_dataclasses(self, argv, modules):
        # dataclasses brings inspect, ast, dis and tokenize with it; the
        # commands that compute no rational, which load neither exact nor
        # chern_index, skip fractions too
        unwanted = {"dataclasses", "inspect"}
        if not modules & {"orbicurves.exact", "orbicurves.chern_index"}:
            unwanted.add("fractions")
        assert not unwanted & set(_fresh_run(tuple(argv))[2])

    @pytest.mark.parametrize("argv,modules", MODULE_SETS, ids=_MODULE_SET_IDS)
    def test_argparse_loads_only_for_help(self, argv, modules):
        watched = {"argparse", "gettext"} & set(_fresh_run(tuple(argv))[2])
        assert watched == ({"argparse", "gettext"} if argv == ["--help"] else set())

    def test_orders_with_a_common_factor_load_the_germ_modules(self, tmp_path):
        # the cusp of configs/cuspidal_cubic.json made (t^4, t^6 + t^7): its
        # orders share 2, so only the blow-ups give its delta, and they
        # load no module past those of every other germ command
        data = json.loads((CONFIGS / "cuspidal_cubic.json").read_text(encoding="utf-8"))
        germ = data["stations"][0]["points"][0]["germ"]
        germ["U"]["terms"] = [[4, {"re": "1"}]]
        germ["V"]["terms"] = [[6, {"re": "1"}], [7, {"re": "1"}]]
        path = tmp_path / "quartic_cusp.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        code, modules, _ = _fresh_run(("adjunction", str(path)))
        assert (code, modules) == (0, sorted(_BASE | _GERM))

    def test_argument_error_loads_argparse(self):
        code, modules, watched = _fresh_run(("lens", "classify", "7"))
        assert code == 2
        assert "orbicurves.argparser" in modules and "argparse" in watched

    def test_cli_import_leaves_chains_unloaded(self):
        # In a fresh interpreter: other tests import chains in this one.
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys, orbicurves.cli; print('orbicurves.chains' in sys.modules)",
            ],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(SRC)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"
