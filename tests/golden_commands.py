"""Golden command manifest for the CLI byte-identity tests.

Each entry pairs a golden file name with the argv that produces it;
HELP_COMMANDS lists the help argvs whose texts, at 80 columns, are
tests/data/help_texts.json.  Run this module directly to regenerate
every golden file and the help texts:

    python3 tests/golden_commands.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
HELP_TEXTS = Path(__file__).resolve().parent / "data" / "help_texts.json"

COMMANDS: list[tuple[str, list[str]]] = [
    ("wps_report_5_2_2.json", ["wps", "report", "5", "2", "2"]),
    (
        "wps_report_5_2_2.table.txt",
        ["wps", "report", "5", "2", "2", "--format", "table"],
    ),
    ("lens_classify_7_2_4.json", ["lens", "classify", "7", "2", "4"]),
    ("lens_allowed_5_2.json", ["lens", "allowed", "5", "2"]),
    ("index_scan_5_2.json", ["index", "scan", "5", "2"]),
    ("index_scan_5_2.table.txt", ["index", "scan", "5", "2", "--format", "table"]),
    ("index_eval_c0_5_2.json", ["index", "eval", str(CONFIGS / "index_c0_5_2.json")]),
    (
        "adjunction_cuspidal_cubic.json",
        ["adjunction", str(CONFIGS / "cuspidal_cubic.json")],
    ),
    ("adjunction_nodal_cubic.json", ["adjunction", str(CONFIGS / "nodal_cubic.json")]),
    (
        "intersect_line_conic.json",
        ["intersect", str(CONFIGS / "line.json"), str(CONFIGS / "conic_tangent.json")],
    ),
    ("chains_betti_teardrop_7.json", ["chains", "betti", str(CONFIGS / "teardrop_7.json")]),
    (
        "chains_validate_teardrop_7.json",
        ["chains", "validate", str(CONFIGS / "teardrop_7.json")],
    ),
    ("sweep_p8.json", ["sweep", "--p-max", "8"]),
    ("sweep_p8.table.txt", ["sweep", "--p-max", "8", "--format", "table"]),
]

# the help of the top level, of each command and of each verb
HELP_COMMANDS: list[str] = [
    "--help",
    "lens --help",
    "lens classify --help",
    "lens allowed --help",
    "adjunction --help",
    "intersect --help",
    "index --help",
    "index eval --help",
    "index scan --help",
    "chains --help",
    "chains betti --help",
    "chains validate --help",
    "wps --help",
    "wps report --help",
    "sweep --help",
]


def run_command(argv: list[str]) -> tuple[int, str]:
    """Run the CLI in-process, returning (exit code, stdout text)."""
    from orbicurves.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def regenerate() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, argv in COMMANDS:
        code, text = run_command(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit code {code}")
        (GOLDEN_DIR / name).write_text(text, encoding="utf-8")
        print(f"wrote {name} ({len(text)} bytes)")
    texts = {}
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        for argv in HELP_COMMANDS:
            code, texts[argv] = run_command(argv.split())
            if code != 0:
                raise SystemExit(f"{argv}: exit code {code}")
    HELP_TEXTS.write_text(json.dumps(texts, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {HELP_TEXTS.name} ({len(texts)} texts)")


if __name__ == "__main__":
    regenerate()
