"""Fixed pure-Python work that measures the machine's current speed.

It does what a short CLI call does, without orbicurves: start the
interpreter, import the standard modules the CLI imports, build an
argument parser, then exact rational arithmetic with dict updates and
JSON output.  No change to the program can change its cost.
"""

import argparse
import dataclasses
import json
import re
from fractions import Fraction

ROUNDS = 1500


def main() -> None:
    parser = argparse.ArgumentParser(prog="probe")
    sub = parser.add_subparsers(dest="command")
    for name in ("a", "b", "c", "d"):
        sub.add_parser(name).add_argument("n", type=int)
    parser.parse_args(["a", "1"])
    acc = Fraction(0)
    table = {}
    for k in range(1, ROUNDS):
        term = Fraction(k, k + 1) * Fraction(k + 2, 2 * k + 1) - Fraction(1, k)
        acc += term
        table[k % 97] = table.get(k % 97, Fraction(0)) + term
    text = json.dumps({str(k): str(v) for k, v in table.items()}, indent=2)
    assert re.match(r"^\{", text) and dataclasses.is_dataclass(Fraction) is False


if __name__ == "__main__":
    main()
