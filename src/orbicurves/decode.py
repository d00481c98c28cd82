"""Strict reading of JSON input files: each reader checks the JSON type
of one value and returns it, or raises InvalidInput naming the value's
path in the file, as in ``ambient.h2_rank: expected an integer, got true``.

An integer is never ``true``, ``false`` or ``1.0``; a rational is a
string "a/b" or "a".  An optional field is either absent or of its
type, so callers read it with ``data.get(key, default)``.  An object
has only the fields its reader names, as in ``class.multiplicty:
unknown key``; keyed maps, whose keys are data, are read with keyed.
The input format's version and truncation cap live here too, and so
does the "a/b" text of a rational both ways: parse_rational reads it
and format_rational writes it, for every report.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter

from .errors import InvalidInput

SCHEMA_VERSION = 1
MAX_PRECISION = 256  # largest truncation a series may store
MAX_SHOWN = 80  # characters of a wrong value's JSON that an error line shows
SIMPLEX_KEY = r"[0-9]+(,[0-9]+)*"  # a simplex key such as 0,1: ASCII digits only


def format_rational(x) -> str:
    """Canonical textual form of an int or Fraction: "a/b" with b > 1,
    plain "a" for integers.  A side longer than the interpreter writes
    (sys.get_int_max_str_digits) is an OverflowError.

    >>> from fractions import Fraction
    >>> format_rational(Fraction(-26, 14))
    '-13/7'
    >>> format_rational(Fraction(10, 2))
    '5'
    """
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OverflowError(f"cannot print a report value of more than {limit} digits") from None


def parse_rational(text: str) -> Fraction:
    """Parse the textual form "a/b" or "a" into a Fraction.

    >>> parse_rational("-13/7")
    Fraction(-13, 7)
    >>> parse_rational("5")
    Fraction(5, 1)
    """
    from fractions import Fraction  # here, so that --help and chains skip it

    m = re.fullmatch(r"(-?[0-9]+)(?:/(-?[0-9]+))?", text.strip()) if isinstance(text, str) else None
    if not m:
        raise InvalidInput(f"not a rational literal: {text!r}")
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) else 1
    if den == 0:
        raise InvalidInput(f"zero denominator: {text!r}")
    return Fraction(num, den)


def _unique_keys(pairs: list) -> dict:
    """The object of pairs, whose keys differ: json keeps a repeated key's last value."""
    data = dict(pairs)
    if len(data) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise InvalidInput(f"the key {json.dumps(key)} is repeated in one object")
    return data


def load(path):
    """The JSON value stored in the file at path.  Text that is not
    UTF-8 JSON, a repeated key, nesting too deep for the parser or an
    integer past the digit limit is invalid input named by its path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh, object_pairs_hook=_unique_keys)
        except RecursionError:
            raise InvalidInput(f"{path}: JSON nested too deeply") from None
        except (json.JSONDecodeError, UnicodeDecodeError, InvalidInput) as exc:
            raise InvalidInput(f"{path}: {exc}") from None
        except ValueError:  # an integer past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            raise InvalidInput(f"{path}: an integer of more than {limit} digits") from None


def _fail(where: str, expected: str, value):
    shown = json.dumps(value, default=repr)
    if len(shown) > MAX_SHOWN:
        shown = f"{shown[:MAX_SHOWN]}... ({len(shown)} characters)"
    raise InvalidInput(f"{where or 'file'}: expected {expected}, got {shown}")


def is_int(value) -> bool:
    """True for an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def int_(value, where: str) -> int:
    if not is_int(value):
        _fail(where, "an integer", value)
    return value


def str_(value, where: str) -> str:
    if not isinstance(value, str):
        _fail(where, "a string", value)
    return value


def rational(value, where: str) -> Fraction:
    if isinstance(value, str):
        try:
            return parse_rational(value)
        except InvalidInput:
            pass
        except ValueError:  # a side past sys.get_int_max_str_digits()
            limit = sys.get_int_max_str_digits()
            _fail(where, f"a rational of at most {limit} digits a side", value)
    _fail(where, 'a rational string "a/b"', value)


def list_(value, where: str, item=None, length=None) -> list:
    """A list, of exactly length items when length is given, with each
    item read by item(value, path) when item is given."""
    if not isinstance(value, list) or length is not None and len(value) != length:
        _fail(where, "a list" if length is None else f"a list of {length} items", value)
    if item is None:
        return value
    return [item(v, f"{where}[{i}]") for i, v in enumerate(value)]


def keyed(value, where: str) -> dict:
    """An object whose keys are data, such as the simplex keys of chains
    orders: any key is allowed."""
    if not isinstance(value, dict):
        _fail(where, "an object", value)
    return value


def obj(value, where: str, *required, optional=()) -> dict:
    """An object that has every key in required and no key outside
    required and optional, so a misspelled field is an error and not a
    silent default."""
    keyed(value, where)
    for key in required:
        if key not in value:
            raise InvalidInput(f"{key_path(where, key)}: missing")
    for key in value:
        if key not in required and key not in optional:
            raise InvalidInput(f"{key_path(where, key)}: unknown key")
    return value


def key_path(where: str, key: str) -> str:
    """The path of key in the object at where.  A key other than an
    identifier or a simplex key such as 0,1|0 is JSON-quoted, so a
    newline in it cannot split the one-line error message."""
    table_key = rf"{SIMPLEX_KEY}(\|{SIMPLEX_KEY})*"
    shown = key if key.isidentifier() or re.fullmatch(table_key, key) else json.dumps(key)
    return f"{where}.{shown}" if where else shown


def check_schema(data: dict) -> None:
    """An input file's optional "schema" field must be SCHEMA_VERSION."""
    schema = int_(data.get("schema", SCHEMA_VERSION), "schema")
    if schema != SCHEMA_VERSION:
        raise InvalidInput(f"unsupported schema version {schema!r}")
