"""The argparse parser of the command line, which only help and argument
errors reach.

cli reads plainly well-formed argv itself, from its command table, and
imports this module, with argparse and gettext, only for the argv it
declines: help, the spellings only argparse takes (abbreviations,
--flag=value, "--") and every argument error.  So argparse writes every
help text and every argument error line.  The parser registers every
command and verb with its help but gives arguments only to the one that
argv invokes (_add_choices), so a command builds 8 to 10 parsers.
"""

from __future__ import annotations

import argparse
import sys


class _Parser(argparse.ArgumentParser):
    """An argument error is one error: line and exit 2, without
    argparse's usage block; add_subparsers builds every subparser from
    this class too, and emit writes the help as a report is written."""

    def __init__(self, *args, emit, **kwargs):
        # cli passes emit and its tables in: under `python -m
        # orbicurves.cli`, importing cli here would run a second copy
        super().__init__(*args, **kwargs)
        self.emit = emit

    def error(self, message):
        self.exit(2, f"error: {self.prog}: {message}\n")

    def print_help(self, file=None):
        # argparse drops a failed write of its help; this one ends as a
        # failed report write does
        if self.emit(lambda: (file or sys.stdout).write(self.format_help())):
            self.exit(1)


def _add_common_flags(parser: argparse.ArgumentParser, flags: dict, leaf: bool) -> None:
    # leaf parsers suppress defaults so a flag placed after the
    # subcommand overrides one placed before it, not the other way round
    for flag, kwargs in flags.items():
        parser.add_argument(flag, **(dict(kwargs, default=argparse.SUPPRESS) if leaf else kwargs))


def _add_choices(parser: _Parser, dest: str, entries: dict, flags: dict, tokens) -> None:
    """Register every entry with its help, so that help and choice
    errors list them all, and fill in only the entry named by the first
    of tokens that names one: the entry argparse takes, since no option
    value can name a command or verb."""
    sub = parser.add_subparsers(dest=dest, required=True)
    chosen = next((t for t in tokens if t in entries), None)
    for name, (help_, spec) in entries.items():
        child = sub.add_parser(name, help=help_, emit=parser.emit)
        if name != chosen:
            continue
        if isinstance(spec, dict):
            _add_choices(child, "verb", spec, flags, tokens)
            continue
        handler, arguments = spec
        _add_common_flags(child, flags, leaf=True)
        for arg, kwargs in arguments.items():
            child.add_argument(arg, **kwargs)
        child.set_defaults(handler=handler)


def build_parser(argv, commands: dict, flags: dict, emit) -> argparse.ArgumentParser:
    """The parser for argv: every command and verb of the command table,
    with the arguments of the one that argv invokes.  flags maps each
    common flag to its add_argument keywords; emit(write) runs a write
    to standard output and returns cli's exit code for it."""
    parser = _Parser(
        prog="orbicurves",
        description="Exact invariants of orbifold curve configurations.",
        emit=emit,
    )
    _add_common_flags(parser, flags, leaf=False)
    _add_choices(parser, "command", commands, flags, iter(argv))
    return parser
