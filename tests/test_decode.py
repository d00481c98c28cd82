"""Strict JSON input: the decode readers, the path-qualified messages the
CLI prints for wrong-typed fields, and a single-leaf mutation fuzz of
every input file in configs/ and tests/data/."""

import contextlib
import copy
import io
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbicurves import decode
from orbicurves.cli import main
from orbicurves.errors import InvalidInput

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
DATA = ROOT / "tests" / "data"
INPUT_FILES = sorted([*CONFIGS.glob("*.json"), *DATA.glob("*.json")])


class Hang(Exception):
    """Raised by the alarm; cli.main does not catch it."""


@contextlib.contextmanager
def alarm(seconds: int):
    def expire(signum, frame):
        raise Hang(f"no answer within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def run(argv):
    """(exit code, stdout, stderr) of one in-process CLI call, stopped by
    Hang after 3 s."""
    out, err = io.StringIO(), io.StringIO()
    with alarm(3), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def commands(path: Path) -> list[list[str]]:
    if path.name == "teardrop_7.json":
        return [["chains", "betti", str(path)], ["chains", "validate", str(path)]]
    if path.name == "index_c0_5_2.json":
        return [["index", "eval", str(path)]]
    return [["adjunction", str(path)]]


class RawJSON(str):
    """A value that mutated() writes as this JSON text, such as an
    integer of more digits than json.dumps writes."""


def mutated(tmp_path, source: Path, path: tuple, value) -> Path:
    """source with the leaf at key path replaced by value."""
    data = json.loads(source.read_text(encoding="utf-8"))
    node = data
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    text = json.dumps(data)
    if isinstance(value, RawJSON):
        text = text.replace(json.dumps(value), value)
    out = tmp_path / source.name
    out.write_text(text, encoding="utf-8")
    return out


class TestReaders:
    @pytest.mark.parametrize("value", [True, False, 1.0, 1.5, "3", None, [1], {}])
    def test_int_rejects_non_integers(self, value):
        with pytest.raises(InvalidInput, match="^a.b: expected an integer, got "):
            decode.int_(value, "a.b")

    def test_int_accepts_big_integers(self):
        assert decode.int_(10**40, "n") == 10**40

    @pytest.mark.parametrize("value", [1, 0.5, True, None, "x", "1/0", "1.5", ["1/2"]])
    def test_rational_needs_a_rational_string(self, value):
        with pytest.raises(InvalidInput, match='^c: expected a rational string "a/b", got '):
            decode.rational(value, "c")

    def test_rational_reads_the_text_form(self):
        assert decode.rational("-13/7", "c") == Fraction(-13, 7)
        assert decode.rational("5", "c") == 5

    def test_str_rejects_non_strings(self):
        with pytest.raises(InvalidInput, match=r"^id: expected a string, got \[\"z\"\]$"):
            decode.str_(["z"], "id")

    def test_list_reads_items_with_their_paths(self):
        assert decode.list_([[1], [2, 3]], "s", item=decode.list_) == [[1], [2, 3]]
        with pytest.raises(InvalidInput, match=r"^s\[1\]\[0\]: expected an integer, got true$"):
            decode.list_([[1], [True]], "s", item=lambda v, w: decode.list_(v, w, decode.int_))

    def test_list_length(self):
        assert decode.list_([1, 2], "p", length=2) == [1, 2]
        with pytest.raises(InvalidInput, match=r"^p: expected a list of 2 items, got \[1\]$"):
            decode.list_([1], "p", length=2)
        with pytest.raises(InvalidInput, match='^p: expected a list, got "12"$'):
            decode.list_("12", "p")

    def test_obj_required_keys(self):
        assert decode.obj({"a": 1}, "x", "a") == {"a": 1}
        with pytest.raises(InvalidInput, match=r"^x\.b: missing$"):
            decode.obj({"a": 1}, "x", "a", "b")
        with pytest.raises(InvalidInput, match="^b: missing$"):
            decode.obj({}, "", "b")
        with pytest.raises(InvalidInput, match=r"^file: expected an object, got \[1, 2\]$"):
            decode.obj([1, 2], "")

    def test_obj_rejects_unknown_keys(self):
        assert decode.obj({"a": 1, "c": 2}, "x", "a", optional=("c", "d")) == {"a": 1, "c": 2}
        with pytest.raises(InvalidInput, match=r"^x\.z: unknown key$"):
            decode.obj({"a": 1, "z": 2}, "x", "a", optional=("c",))
        with pytest.raises(InvalidInput, match="^z: unknown key$"):
            decode.obj({"z": 2}, "")
        # a key that is not an identifier is quoted, so the message stays one line
        with pytest.raises(InvalidInput, match=r'^x\."a\\nb": unknown key$'):
            decode.obj({"a\nb": 1}, "x")

    def test_shown_value_is_cut_at_a_fixed_length(self):
        # a value whose JSON fits is shown whole, exactly as json.dumps writes it
        fits = "x" * (decode.MAX_SHOWN - 2)
        with pytest.raises(InvalidInput, match=f'^n: expected an integer, got "{fits}"$'):
            decode.int_(fits, "n")
        longer = fits + "y"
        with pytest.raises(InvalidInput) as caught:
            decode.int_(longer, "n")
        shown = json.dumps(longer)
        assert str(caught.value) == (
            f"n: expected an integer, got {shown[:decode.MAX_SHOWN]}... "
            f"({decode.MAX_SHOWN + 1} characters)"
        )

    def test_deep_brackets_give_a_bounded_line(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 900 + "]" * 900, encoding="utf-8")
        code, out, err = run(["adjunction", str(path)])
        assert (code, out) == (2, "")
        head = "error: file: expected an object, got "
        assert err == f"{head}{'[' * decode.MAX_SHOWN}... (1800 characters)\n"

    def test_keyed_allows_any_key(self):
        assert decode.keyed({"0,1": 2, "a\nb": 3}, "orders") == {"0,1": 2, "a\nb": 3}
        with pytest.raises(InvalidInput, match=r'^orders: expected an object, got "abc"$'):
            decode.keyed("abc", "orders")

    def test_key_path_quotes_all_but_identifiers_and_simplex_keys(self):
        assert decode.key_path("x", "genus") == "x.genus"
        assert decode.key_path("homs", "0,1|0") == "homs.0,1|0"
        assert decode.key_path("", "12") == "12"
        assert decode.key_path("groups", "a\nb") == 'groups."a\\nb"'
        assert decode.key_path("groups", "0,") == 'groups."0,"'
        assert decode.key_path("x", "a b") == 'x."a b"'


AMBIENT = CONFIGS / "line.json"
POINT = ("stations", 0, "points", 0)


class TestWrongTypesExit2:
    """Each of these leaves was read silently at an earlier version: a
    bool as an integer, or any value at all as the index schema."""

    @pytest.mark.parametrize(
        "source,path,value,message",
        [
            (AMBIENT, ("schema",), True, "schema: expected an integer, got true"),
            (
                AMBIENT,
                ("ambient", "h2_rank"),
                True,
                "ambient.h2_rank: expected an integer, got true",
            ),
            (
                AMBIENT,
                ("domain", "m_sigma"),
                True,
                "domain.m_sigma: expected an integer, got true",
            ),
            (AMBIENT, ("domain", "genus"), False, "domain.genus: expected an integer, got false"),
            (
                AMBIENT,
                ("class", "multiplicity"),
                True,
                "class.multiplicity: expected an integer, got true",
            ),
            (
                AMBIENT,
                ("stations", 0, "isotropy_order"),
                True,
                "stations[0].isotropy_order: expected an integer, got true",
            ),
            (
                AMBIENT,
                POINT + ("order",),
                True,
                "stations[0].points[0].order: expected an integer, got true",
            ),
            (
                AMBIENT,
                POINT + ("order",),
                None,
                "stations[0].points[0].order: expected an integer, got null",
            ),
            (
                AMBIENT,
                ("ambient", "pairing"),
                "3",
                'ambient.pairing: expected a list, got "3"',
            ),
            (
                AMBIENT,
                ("ambient", "c1_vector", 0),
                3,
                'ambient.c1_vector[0]: expected a rational string "a/b", got 3',
            ),
            (
                AMBIENT,
                POINT + ("germ", "U", "terms", 0, 1, "im"),
                0,
                "stations[0].points[0].germ.U.terms[0][1].im: "
                'expected a rational string "a/b", got 0',
            ),
            (
                CONFIGS / "index_c0_5_2.json",
                ("schema",),
                "1",
                'schema: expected an integer, got "1"',
            ),
            (
                CONFIGS / "index_c0_5_2.json",
                ("schema",),
                2,
                "unsupported schema version 2",
            ),
        ],
        ids=[
            "bool_schema", "bool_h2_rank", "bool_m_sigma", "bool_genus", "bool_multiplicity",
            "bool_isotropy_order", "bool_point_order", "null_point_order", "str_pairing",
            "int_c1", "int_coefficient", "str_index_schema", "index_schema_2",
        ],
    )
    def test_message_names_the_field(self, tmp_path, source, path, value, message):
        file = mutated(tmp_path, source, path, value)
        for argv in commands(file):
            assert run(argv) == (2, "", f"error: {message}\n")

    def test_missing_field_is_named(self, tmp_path):
        data = json.loads(AMBIENT.read_text(encoding="utf-8"))
        del data["stations"][0]["points"][0]["germ"]["V"]
        file = tmp_path / "line.json"
        file.write_text(json.dumps(data), encoding="utf-8")
        assert run(["adjunction", str(file)]) == (
            2, "", "error: stations[0].points[0].germ.V: missing\n"
        )


class TestUnknownKeysExit2:
    """A key that no reader names was ignored at an earlier version, so a
    misspelled optional field silently took its default."""

    @pytest.mark.parametrize(
        "source,path,message",
        [
            (AMBIENT, ("class", "multiplicty"), "class.multiplicty"),
            (AMBIENT, ("domain", "genuss"), "domain.genuss"),
            (AMBIENT, ("ambient", "singular_point"), "ambient.singular_point"),
            (AMBIENT, ("station",), "station"),
            (AMBIENT, ("stations", 0, "isotropy"), "stations[0].isotropy"),
            (AMBIENT, (*POINT, "ordr"), "stations[0].points[0].ordr"),
            (AMBIENT, (*POINT, "germ", "twst"), "stations[0].points[0].germ.twst"),
            (AMBIENT, (*POINT, "germ", "U", "trnc"), "stations[0].points[0].germ.U.trnc"),
            (
                AMBIENT,
                (*POINT, "germ", "U", "terms", 0, 1, "img"),
                "stations[0].points[0].germ.U.terms[0][1].img",
            ),
            (
                CONFIGS / "nodal_cubic.json",
                ("regular_double_points", 0, "label"),
                "regular_double_points[0].label",
            ),
            (CONFIGS / "index_c0_5_2.json", ("gneus",), "gneus"),
            (CONFIGS / "teardrop_7.json", ("order",), "order"),
        ],
        ids=[
            "class", "domain", "ambient", "top_level", "station", "point", "germ",
            "series", "coefficient", "double_point", "index_eval", "chains",
        ],
    )
    def test_unknown_key_is_named(self, tmp_path, source, path, message):
        file = mutated(tmp_path, source, path, 2)
        for argv in commands(file):
            assert run(argv) == (2, "", f"error: {message}: unknown key\n")

    def test_both_typos_in_one_file(self, tmp_path):
        data = json.loads(AMBIENT.read_text(encoding="utf-8"))
        data["class"]["multiplicty"] = 2
        data["domain"]["genuss"] = 5
        file = tmp_path / "line.json"
        file.write_text(json.dumps(data), encoding="utf-8")
        assert run(["adjunction", str(file)]) == (
            2, "", "error: domain.genuss: unknown key\n"
        )

    def test_keyed_maps_take_any_key(self, tmp_path):
        table = [[0, 1], [1, 0]]
        path = tmp_path / "groups.json"
        path.write_text(
            json.dumps({
                "simplices": [[0], [1], [0, 1]],
                "orders": {"0": 2, "1": 2, "0,1": 2},
                "groups": {"0": table, "1": table, "0,1": table},
                "homs": {"0,1|0": [0, 1], "0,1|1": [0, 1]},
                "twists": {},
            }),
            encoding="utf-8",
        )
        code, out, err = run(["chains", "validate", str(path)])
        assert code == 0 and json.loads(out)["valid"] is True and err == ""


TEARDROP = CONFIGS / "teardrop_7.json"


class TestGroupComplexInput:
    def groups_file(self, tmp_path, groups) -> str:
        path = tmp_path / "groups.json"
        path.write_text(
            json.dumps({"simplices": [[0]], "orders": {"0": 2}, "groups": groups}),
            encoding="utf-8",
        )
        return str(path)

    def test_groups_must_be_an_object(self, tmp_path):
        path = self.groups_file(tmp_path, "abc")
        assert run(["chains", "validate", path]) == (
            2, "", 'error: groups: expected an object, got "abc"\n'
        )

    def test_bool_table_entries_rejected(self, tmp_path):
        path = self.groups_file(tmp_path, {"0": [[0, True], [True, 0]]})
        assert run(["chains", "validate", path]) == (
            2, "", "error: groups.0[0][1]: expected an integer, got true\n"
        )

    def test_integer_table_still_validates(self, tmp_path):
        path = self.groups_file(tmp_path, {"0": [[0, 1], [1, 0]]})
        code, out, err = run(["chains", "validate", path])
        assert code == 0 and json.loads(out)["valid"] is True and err == ""

    @pytest.mark.parametrize(
        "maps,expected",
        [
            ({"groups": {"a\nb": "x"}}, 'groups."a\\nb": expected a list'),
            ({"groups": {}, "homs": {"a\nb": "x"}}, 'homs."a\\nb": expected a list'),
            (
                {"groups": {}, "homs": {}, "twists": {"a\nb": "x"}},
                'twists."a\\nb": expected an integer',
            ),
        ],
        ids=["groups", "homs", "twists"],
    )
    def test_odd_key_keeps_the_error_on_one_line(self, tmp_path, maps, expected):
        path = tmp_path / "groups.json"
        path.write_text(
            json.dumps({"simplices": [[0]], "orders": {"0": 2}, **maps}), encoding="utf-8"
        )
        assert run(["chains", "validate", str(path)]) == (
            2, "", f'error: {expected}, got "x"\n'
        )

    def test_huge_cyclic_order_exits_at_once(self, tmp_path):
        path = str(mutated(tmp_path, TEARDROP, ("orders", "0"), 10**40))
        start = time.perf_counter()
        assert run(["chains", "validate", path]) == (
            2, "", f"error: group order must be in 1..64, got {10**40}\n"
        )
        assert time.perf_counter() - start < 1
        code, out, _ = run(["chains", "betti", path])
        assert code == 0 and json.loads(out)["betti"] == [1, 0, 1]


DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
HUGE_INTEGER = RawJSON("1" + "0" * 5000)  # 10**5000, past the JSON reader
HUGE_RATIONAL = "7" * 5000  # past int()
HUGE_DENOMINATOR = "1/" + "7" * 3000  # read, but its square cannot be printed


@pytest.mark.skipif(not DIGIT_LIMIT, reason="no limit on int <-> str conversion")
class TestMagnitudes:
    """No int <-> str conversion lifts the interpreter's digit limit,
    and a value past it ends on one line that names what it can."""

    CUSPIDAL = CONFIGS / "cuspidal_cubic.json"
    COEFFICIENT = (*POINT, "germ", "U", "terms", 0, 1, "re")

    def test_huge_rational_names_the_field(self, tmp_path):
        path = str(mutated(tmp_path, self.CUSPIDAL, self.COEFFICIENT, HUGE_RATIONAL))
        assert run(["adjunction", path]) == (
            2,
            "",
            "error: stations[0].points[0].germ.U.terms[0][1].re: expected a rational "
            f'of at most {DIGIT_LIMIT} digits a side, got "{"7" * 79}... (5002 characters)\n',
        )

    @pytest.mark.parametrize("command", ["betti", "validate"])
    def test_huge_json_integer_names_the_file(self, tmp_path, command):
        path = str(mutated(tmp_path, TEARDROP, ("orders", "0"), HUGE_INTEGER))
        assert run(["chains", command, path]) == (
            2, "", f"error: {path}: an integer of more than {DIGIT_LIMIT} digits\n"
        )

    def test_report_past_the_limit_exits_1(self, tmp_path):
        # the writer meets the value before it writes a byte, in either format
        path = str(mutated(tmp_path, self.CUSPIDAL, ("class", "coords", 0), HUGE_DENOMINATOR))
        for flags in ([], ["--format", "table"]):
            assert run(["adjunction", path, *flags]) == (
                1, "", f"error: cannot print a report value of more than {DIGIT_LIMIT} digits\n"
            )


def _leaves(node, path=()):
    """Key paths of every scalar or empty container in a JSON value."""
    if isinstance(node, (dict, list)) and node:
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for key, child in items:
            yield from _leaves(child, path + (key,))
    else:
        yield path


LEAVES = [
    (source, path)
    for source in INPUT_FILES
    for path in _leaves(json.loads(source.read_text(encoding="utf-8")))
]
VALUES = [
    True, False, 1.5, "3", None, [], {}, -1, 0, 10**40, "x", [1],
    HUGE_INTEGER, HUGE_RATIONAL, HUGE_DENOMINATOR,
]


@settings(max_examples=200, deadline=None)
@given(leaf=st.sampled_from(LEAVES), value=st.sampled_from(VALUES))
def test_single_leaf_mutations_end_cleanly(tmp_path_factory, leaf, value):
    source, path = leaf
    file = mutated(tmp_path_factory.mktemp("fuzz"), source, path, copy.deepcopy(value))
    for argv in commands(file):
        code, _, err = run(argv)
        assert code in (0, 1, 2)
        if code:
            assert err.startswith("error: ") and err.count("\n") == 1
            assert "Traceback" not in err
        if isinstance(value, (bool, float)):  # no field of any input file takes one
            assert code == 2, (argv, path, value, err)
        if isinstance(value, RawJSON) and DIGIT_LIMIT:  # the reader stops at it
            assert code == 2 and str(file) in err, (argv, path, err)
