"""Command-line front end: argument reading, command dispatch, and
deterministic report emission.

Every command prints one report to standard output, newline-terminated,
with stable key order, so identical inputs produce identical bytes.  A
handler returns the report's own dict, and write_report writes each
Fraction in it as "a/b" text; the rows of sweep and index scan hold that
text already, made in wps and in chern_index.  Exit codes: 0 success,
1 computation failure on well-formed input (a value that the stored
series do not fix, and kin) or a report that could not be written
(standard output closed or full, a value past the digit limit), 2
malformed input (an integer past that limit too).  adjunction and
intersect run each report once, on the series as stored: no attempt
reads past a stored truncation.

A command loads only the modules it runs: this module imports the
standard library, errors and decode, and each handler imports the rest
in its own body.  So --help loads no computation module, a lens command
adds only lens, an index command adds only lens and chern_index, and the
chains commands load no germ code.  The value
types are plain classes with __slots__, so no command execs generated
methods or loads inspect, and --help and the lens and chains commands,
which read no rational, skip fractions.

argparse loads only for help and argument errors.  Plainly well-formed
argv is read from the command table (_read_argv) into the namespace
argparse would return; any other argv goes to the argparse parser of
the argparser module, built from the same table, which writes every
help text and argument error and accepts every spelling it accepted
before.
"""

from __future__ import annotations

import gc
import json
import os
import sys
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .decode import (SCHEMA_VERSION, check_schema, format_rational, int_, list_, load, obj,
                     rational)
from .errors import InvalidInput

# sweep makes its rows in this process.  sweep --p-max 250 (19,023 rows):
# 2.2 s, from 2.7 s before a row built its parts once (Python 3.11, 2-core VM)
MAX_SWEEP_P = 250
# index scan 99991 2 (the largest prime p allowed): about 0.9 s and 15 MB
# peak RSS for 18.6 MB of streamed JSON; with --format table, whose rows
# are made twice, 1.2-1.5 s and 15 MB (ru_maxrss of the whole command,
# Python 3.11, one core of a 2-core VM)
MAX_SCAN_P = 100_000


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, (int, str)):
        return str(value)
    return format_rational(value)


def _flatten(prefix: str, value, out: list):
    if isinstance(value, dict):
        for k, v in value.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(value, list):
        if all(not isinstance(v, (dict, list)) for v in value):
            out.append((prefix, "[" + ", ".join(_scalar(v) for v in value) + "]"))
        else:
            for i, v in enumerate(value):
                _flatten(f"{prefix}[{i}]", v, out)
    else:
        out.append((prefix, _scalar(value)))


# The JSON text of a row value by its exact type, with json.dumps's encoders
_JSON_SCALARS = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: lambda v: "true" if v else "false",
    type(None): lambda v: "null",
}
ROW_BATCH = 256  # rows per write: stdout may be unbuffered


def _write_table(result: dict, out) -> None:
    """Aligned "path  value" lines, then a top-level "rows" iterable of
    records as a column table, in two passes over the rows: the first
    sizes the columns, the second writes the rows in batches.  So rows
    that a re-iterable remakes on each pass (index scan) are never held
    whole; a one-shot iterator is listed first."""
    scalars = {k: v for k, v in result.items() if k != "rows"}
    flat: list[tuple[str, str]] = []
    _flatten("", scalars, flat)
    text = ""
    if flat:
        width = max(len(k) for k, _ in flat)
        text = "".join(f"{k.ljust(width)}  {v}\n" for k, v in flat)
    rows = result.get("rows", ())
    if iter(rows) is rows:
        rows = list(rows)
    headers = widths = None
    for row in rows:
        if headers is None:
            headers = list(row)
            widths = [len(h) for h in headers]
        widths = [max(w, len(_scalar(row[h]))) for w, h in zip(widths, headers)]
    if headers is None:
        out.write(text)
        return
    batch = [text + "\n" if text else "", _table_line(headers, widths)]
    for row in rows:
        batch.append(_table_line([_scalar(row[h]) for h in headers], widths))
        if len(batch) >= ROW_BATCH:
            out.write("".join(batch))
            batch.clear()
    out.write("".join(batch))


def _table_line(cells: list, widths: list) -> str:
    return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip() + "\n"


def _json_row(row: dict) -> str:
    """A record of a top-level "rows" list as json.dumps(indent=2) writes
    it two levels deep.  Report rows are flat, non-empty records of str
    keys and str, int, bool or None values; any other value is a KeyError."""
    parts = [f"{encode_basestring_ascii(k)}: {_JSON_SCALARS[type(v)](v)}" for k, v in row.items()]
    return "{\n      " + ",\n      ".join(parts) + "\n    }"


def _write_json_rows(result: dict, out) -> None:
    """json.dumps(result, indent=2) + "\n" byte for byte, for a report
    whose last key is "rows": the head is dumped, then the rows are
    written in batches as the iterable makes them."""
    head = {k: v for k, v in result.items() if k != "rows"}
    text = json.dumps(head, indent=2, default=format_rational)[:-2] + ",\n" if head else "{\n"
    batch = [text + '  "rows": [']
    sep = "\n    "
    for row in result["rows"]:
        batch.append(sep + _json_row(row))
        sep = ",\n    "
        if len(batch) >= ROW_BATCH:
            out.write("".join(batch))
            batch.clear()
    batch.append("]\n}\n" if sep == "\n    " else "\n  ]\n}\n")
    out.write("".join(batch))


def write_report(result: dict, output_format: str, out) -> None:
    """Write one report deterministically to out, each Fraction at any
    depth as its "a/b" text (the sweep and scan rows arrive as text,
    made by wps.sweep_row and chern_index._rational_text).  JSON is
    json.dumps(result, indent=2) + "\n", insertion order kept, with a
    last top-level "rows" iterable of flat records (see _json_row)
    written as it is made; table mode prints aligned "path  value" lines
    and the rows as a column table, reading the rows twice.  A rational
    past the digit limit is an OverflowError, raised before anything is
    written."""
    if output_format == "table":
        _write_table(result, out)
    elif result and next(reversed(result)) == "rows":
        _write_json_rows(result, out)
    else:
        out.write(json.dumps(result, indent=2, default=format_rational) + "\n")


def _with_retries(compute, x):
    """compute(x), once.  This function exists only because
    bench/tracer.py counts report attempts by patching it by name;
    step 1 of ROADMAP item 4 deletes it, together with that change to
    the benchmark."""
    return compute(x)


def _cmd_lens_classify(args) -> dict:
    from .lens import cobordism_congruence, lens_equivalent

    # the congruence checks (p, q) and (p, q'), q' under its own name
    p, q, qprime = args.p, args.q, args.qprime
    congruence = cobordism_congruence(p, q, qprime)
    return {
        "schema": SCHEMA_VERSION,
        "p": p,
        "q": q,
        "q_prime": qprime,
        "equivalent_unoriented": lens_equivalent(p, q, qprime),
        "equivalent_oriented": lens_equivalent(p, q, qprime, oriented=True),
        "congruence": congruence,
    }


def _cmd_lens_allowed(args) -> dict:
    from .lens import allowed_q_set

    return {
        "schema": SCHEMA_VERSION,
        "p": args.p,
        "q": args.q,
        "allowed": allowed_q_set(args.p, args.q),
    }


def _cmd_adjunction(args) -> dict:
    from .curvecalc import adjunction_report, embeddedness_verdict, load_config

    def report(config):
        out = adjunction_report(config)
        out["verdict"] = embeddedness_verdict(out) if out["holds"] else None
        return out

    return _with_retries(report, load_config(args.path))


def _cmd_intersect(args) -> dict:
    from .curvecalc import intersection_report, load_config

    configs = [load_config(args.path_a), load_config(args.path_b)]
    return _with_retries(lambda pair: intersection_report(*pair), configs)


def _index_point(value, where: str) -> tuple[int, list[int]]:
    m, weights = list_(value, where, length=2)
    return int_(m, f"{where}[0]"), list_(weights, f"{where}[1]", item=int_, length=2)


def _cmd_index_eval(args) -> dict:
    from .chern_index import kawasaki_index

    data = obj(load(args.path), "", "c1_pair", "genus", "points", optional=("schema",))
    check_schema(data)
    report = kawasaki_index(
        rational(data["c1_pair"], "c1_pair"),
        int_(data["genus"], "genus"),
        list_(data["points"], "points", item=_index_point),
    )
    return {"schema": SCHEMA_VERSION, **report}


def _cmd_index_scan(args) -> dict:
    from .chern_index import index_integrality_scan

    if args.p > MAX_SCAN_P:
        raise InvalidInput(f"index scan p must be <= {MAX_SCAN_P}, got {args.p}")
    return {
        "schema": SCHEMA_VERSION,
        "p": args.p,
        "q": args.q,
        "rows": index_integrality_scan(args.p, args.q),
    }


def _cmd_chains_betti(args) -> dict:
    from .chains import (
        boundary_matrices,
        boundary_squared_is_zero,
        homology_betti,
        load_complex,
    )

    complex_ = load_complex(args.path)
    matrices = boundary_matrices(complex_)
    squared_zero = boundary_squared_is_zero(matrices)
    return {
        "schema": SCHEMA_VERSION,
        "boundary_squared_zero": squared_zero,
        "betti": homology_betti(complex_, matrices),
    }


def _cmd_chains_validate(args) -> dict:
    from .chains import validate_file

    return {"schema": SCHEMA_VERSION, "valid": validate_file(args.path)}


def _cmd_wps_report(args) -> dict:
    from .wps import build_model, dossier

    return dossier(build_model(args.p, args.q, args.qprime))


def _cmd_sweep(args) -> dict:
    from .wps import sweep_rows

    if not 2 <= args.p_max <= MAX_SWEEP_P:
        raise InvalidInput(f"--p-max must be in 2..{MAX_SWEEP_P}, got {args.p_max}")
    return {"schema": SCHEMA_VERSION, "p_max": args.p_max, "rows": sweep_rows(args.p_max)}


# the flags every leaf takes, before the command or after the leaf:
# flag -> add_argument keywords, with the default argparse gives the top
# level (a leaf's own occurrences override it)
_COMMON_FLAGS = {
    "--format": {"dest": "output_format", "choices": ("json", "table"), "default": "json",
                 "help": "report format (default: json)"},
}


def _ascii_int(token: str) -> int:
    """An integer argument: ASCII digits after an optional minus sign,
    and nothing else, where int() also reads "+7", " 7", "7_0" and the
    digits of other scripts."""
    digits = token[1:] if token.startswith("-") else token
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


# argparse names the type in its error line: "invalid int value: 'x'"
_ascii_int.__name__ = "int"
_INT = {"type": _ascii_int}
# command -> (help, verbs) or (help, leaf), verb -> (help, leaf), where a
# leaf is (handler, {argument name: add_argument keywords})
_COMMANDS = {
    "lens": ("lens space classification and congruence", {
        "classify": ("equivalence and congruence record for (p, q, q')",
                     (_cmd_lens_classify, {"p": _INT, "q": _INT, "qprime": _INT})),
        "allowed": ("all q' passing the congruence", (_cmd_lens_allowed, {"p": _INT, "q": _INT})),
    }),
    "adjunction": ("adjunction report for a configuration file", (_cmd_adjunction, {"path": {}})),
    "intersect": ("intersection report for two configuration files",
                  (_cmd_intersect, {"path_a": {}, "path_b": {}})),
    "index": ("deformation index counts", {
        "eval": ("index for point data in a file", (_cmd_index_eval, {"path": {}})),
        "scan": ("integrality scan over q'",
                 (_cmd_index_scan, {"p": {**_INT, "help": f"2..{MAX_SCAN_P}"}, "q": _INT})),
    }),
    "chains": ("weighted simplicial chains", {
        "betti": ("rational Betti numbers of a complex file", (_cmd_chains_betti, {"path": {}})),
        "validate": ("check full complex-of-groups data", (_cmd_chains_validate, {"path": {}})),
    }),
    "wps": ("weighted projective cap model", {
        "report": ("full dossier for (p, q, q')",
                   (_cmd_wps_report, {"p": _INT, "q": _INT, "qprime": _INT})),
    }),
    "sweep": ("verify the cap invariants over all (p, q)", (_cmd_sweep, {"--p-max": {
        **_INT, "required": True, "metavar": "N", "help": f"2..{MAX_SWEEP_P}"}})),
}


def _dest(name: str, kwargs: dict) -> str:
    return kwargs.get("dest", name.lstrip("-").replace("-", "_"))


def _take(args: dict, name: str, kwargs: dict, token) -> bool:
    """Store token under the dest of argument name as argparse converts
    and checks it; False, storing nothing, where argparse might read the
    token otherwise or reject it: a missing token, one that starts with
    "-", a failed conversion or a value outside the choices."""
    if token is None or token.startswith("-"):
        return False
    convert = kwargs.get("type")
    if convert is not None:
        try:
            token = convert(token)
        except (TypeError, ValueError):
            return False
    if token not in kwargs.get("choices", (token,)):
        return False
    args[_dest(name, kwargs)] = token
    return True


def _read_argv(argv) -> SimpleNamespace | None:
    """The namespace argparse returns for plainly well-formed argv, read
    from the command table without argparse, or None to leave argv to
    argparse.  Well-formed: exact names and flags, the common flags
    before the command or after the leaf and the leaf's own flags after
    it, each flag with a separate value that does not start with "-",
    every positional and flag of the leaf given, and each value
    converted and checked as argparse does.  A later flag wins, as with
    argparse, whose leaf parsers suppress the defaults.  Help, the
    spellings only argparse takes (--form, --format=table, "--") and
    every argument error are declined."""
    args = {}
    for kwargs in _COMMON_FLAGS.values():
        args[kwargs["dest"]] = kwargs["default"]
    tokens = iter(argv)
    token = next(tokens, None)
    while token in _COMMON_FLAGS:
        if not _take(args, token, _COMMON_FLAGS[token], next(tokens, None)):
            return None
        token = next(tokens, None)
    if token not in _COMMANDS:
        return None
    args["command"] = token
    spec = _COMMANDS[token][1]
    if isinstance(spec, dict):
        verb = next(tokens, None)
        if verb not in spec:
            return None
        args["verb"] = verb
        spec = spec[verb][1]
    handler, arguments = spec
    flags = dict(_COMMON_FLAGS)
    positionals = []
    for name, kwargs in arguments.items():
        if name.startswith("-"):
            flags[name] = kwargs
        else:
            positionals.append((name, kwargs))
    positionals.reverse()  # popped in order
    for token in tokens:
        if token in flags:
            name, kwargs, token = token, flags[token], next(tokens, None)
        elif positionals:
            name, kwargs = positionals.pop()
        else:
            return None
        if not _take(args, name, kwargs, token):
            return None
    for name, kwargs in arguments.items():
        if _dest(name, kwargs) not in args:
            return None
    return SimpleNamespace(**args, handler=handler)


def _emit(write) -> int:
    """Run write(), which prints to standard output, and flush it: 0, or
    1 with one error line when the reader closed the pipe mid-report
    (`| head`) or the write failed (a full device)."""
    try:
        write()
        sys.stdout.flush()
    except OSError as exc:
        # point stdout at devnull so that the flush at exit does not
        # raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if isinstance(exc, BrokenPipeError):
            print("error: standard output closed before the report ended", file=sys.stderr)
        else:
            print(f"error: cannot write the report: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        from .argparser import build_parser

        try:
            args = build_parser(argv, _COMMANDS, _COMMON_FLAGS, _emit).parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.handler(args)
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (OSError, LookupError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _emit(lambda: write_report(payload, args.output_format, sys.stdout))
    except OverflowError as exc:  # a value past the digit limit, before any write
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> int:
    """The process entry point, for python -m orbicurves.cli and the
    installed orbicurves script: gc.freeze(), then main().  The freeze
    moves the objects that start-up built (about 11,800: the
    interpreter's, site's and this module's) into a permanent generation
    that no collection walks: not those during main, and not the one at
    interpreter shutdown.  Tests call main, so no test process is
    frozen."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    sys.exit(run())
