"""Self-tests of the benchmark: deterministic generators, checkers that
reject corrupted outputs, and a smoke run.

    python3 -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import gen  # noqa: E402

WORK = BENCH / "_work" / "selftest"


def _snapshot(workload: str, seed: int, work: Path):
    shutil.rmtree(work, ignore_errors=True)
    jobs = gen.make_jobs(workload, seed, work)
    files = {p.name: p.read_bytes() for p in sorted(work.glob("*.json"))} if work.exists() else {}
    return [(j.kind, j.argv, json.dumps(j.expect, sort_keys=True)) for j in jobs], files


@pytest.mark.parametrize("workload", sorted(gen.WORKLOADS))
def test_generators_are_deterministic(workload):
    work = WORK / "det"
    first = _snapshot(workload, 7, work)
    assert first == _snapshot(workload, 7, work)
    assert first != _snapshot(workload, 8, work)


def test_germ_branches_are_reduced_and_distinct():
    jobs = gen.make_jobs("germ", 3, WORK / "germ")
    for job in jobs:
        branches = [b for _, _, pair in job.expect["pairs"] for b in pair]
        for n, v in branches:
            assert math.gcd(n, *v) == 1 and min(v) > n
        for (n1, v1), (n2, v2) in combinations({repr(b): b for b in branches}.values(), 2):
            lead1, lead2 = v1[min(v1)], v2[min(v2)]
            assert lead1[0] ** 2 + lead1[1] ** 2 != lead2[0] ** 2 + lead2[1] ** 2


def test_closed_form_pairs_agree_with_oracle():
    jobs = gen.make_jobs("germ", 5, WORK / "germ")
    check.attach_oracle_values(jobs, ROOT)
    for job in jobs:
        closed = [v for _, v, _ in job.expect["pairs"]]
        assert closed == [v for _, v in job.expect["pair_values"]]


def test_random_complex_sizes_and_orders():
    import random

    simplices, orders = gen.random_complex(random.Random(1), 20, 200)
    assert len(simplices) >= 200
    have = {tuple(s) for s in simplices}
    for s in simplices:
        for k in range(1, len(s)):
            assert all(f in have for f in combinations(s, k))
    for key, order in orders.items():
        face = tuple(int(v) for v in key.split(","))
        assert order > 1 and face in have


def _run_cli(argv):
    from orbicurves.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(list(argv))
    return code, out.getvalue()


def _job(kind, argv, expect):
    return gen.Job(kind, tuple(argv), expect)


def _germ_jobs():
    jobs = gen.make_jobs("germ", 2, WORK / "germ")
    check.attach_oracle_values(jobs, ROOT)
    adjunction = next(j for j in jobs if j.kind == "adjunction")
    intersect = next(j for j in jobs if j.kind == "intersect")
    return adjunction, intersect


def _set_value(out, path, value):
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value


def _bump_contribution(out):
    item = next(c for c in out["contributions"] if c["kind"] == "pair")
    item["value"] = str(int(item["value"]) + 1)


CORRUPTIONS = [
    ("lens_allowed", ["lens", "allowed", "101", "7"], {"p": 101, "q": 7},
     lambda o: _set_value(o, ["allowed"], [7])),
    ("lens_allowed", ["lens", "allowed", "101", "7"], {"p": 101, "q": 7},
     lambda o: _set_value(o, ["allowed"], sorted(o["allowed"] + [8]))),
    ("index_scan", ["index", "scan", "101", "7"], {"p": 101, "q": 7},
     lambda o: o["rows"].pop()),
    ("index_scan", ["index", "scan", "101", "7"], {"p": 101, "q": 7},
     lambda o: _set_value(o, ["rows", 0, "allowed"], True)),
    ("lens_classify", ["lens", "classify", "101", "7", "29"], {"p": 101, "q": 7, "qprime": 29},
     lambda o: _set_value(o, ["congruence", "allowed"], not o["congruence"]["allowed"])),
    ("lens_classify", ["lens", "classify", "101", "7", "5"], {"p": 101, "q": 7, "qprime": 5},
     lambda o: _set_value(o, ["congruence", "l"], o["congruence"]["l"] + 1)),
    ("sweep", ["sweep", "--p-max", "9"], {"p_max": 9},
     lambda o: o["rows"].pop()),
    ("sweep", ["sweep", "--p-max", "9"], {"p_max": 9},
     lambda o: _set_value(o, ["rows", 3, "holds"], False)),
    ("wps_report", ["wps", "report", "11", "3", "4"], {"p": 11, "q": 3, "qprime": 4},
     lambda o: _set_value(o, ["intersection_C0_C0_prime", "algebraic"], "1/15")),
    ("wps_report", ["wps", "report", "11", "3", "4"], {"p": 11, "q": 3, "qprime": 4},
     lambda o: _set_value(o, ["C0_prime", "adjunction", "holds"], False)),
    ("chains_betti", ["chains", "betti", "configs/teardrop_7.json"], {"betti": [1, 0, 1]},
     lambda o: _set_value(o, ["betti"], [1, 1, 1])),
    ("chains_betti", ["chains", "betti", "configs/teardrop_7.json"], {"euler": 2},
     lambda o: _set_value(o, ["betti"], [1, 1, 1])),
    ("chains_validate", ["chains", "validate", "configs/teardrop_7.json"], {},
     lambda o: _set_value(o, ["valid"], False)),
]


@pytest.mark.parametrize("kind, argv, expect, corrupt", CORRUPTIONS)
def test_checker_accepts_real_output_and_rejects_corruption(kind, argv, expect, corrupt):
    job = _job(kind, argv, expect)
    code, text = _run_cli(argv)
    assert check.check(job, code, text) is None
    out = json.loads(text)
    corrupt(out)
    assert check.check(job, 0, json.dumps(out)) is not None
    assert check.check(job, 2, text) is not None


@pytest.mark.parametrize("which", ["adjunction", "intersect"])
def test_germ_checker_rejects_off_by_one_contribution(which):
    adjunction, intersect = _germ_jobs()
    job = adjunction if which == "adjunction" else intersect
    code, text = _run_cli(job.argv)
    assert check.check(job, code, text) is None
    out = json.loads(text)
    bumped = copy.deepcopy(out)
    _bump_contribution(bumped)
    assert check.check(job, 0, json.dumps(bumped)) is not None
    wrong_total = copy.deepcopy(out)
    key = "lhs" if which == "adjunction" else "algebraic"
    wrong_total[key] = str(int(out[key]) + 1)
    assert check.check(job, 0, json.dumps(wrong_total)) is not None


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run(trace):
    done = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if trace == "1" else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }


def test_fails_without_the_program():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in BENCH.glob("*.py"):
        shutil.copy(path, bare / "bench")
    done = _bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=bare)
    assert done.returncode != 0
    assert "correct" not in done.stdout
