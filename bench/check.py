"""Output checks for every job kind.

Each checker takes the job and the parsed JSON report and returns None
when the output matches the references, or a one-line reason.  The
references are closed forms over the generated parameters (units mod p,
inverses, Euler characteristics, Milnor's delta formula) and, for germ
pair contributions, the sympy oracle in tests/oracles.py; nothing here
calls orbicurves.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import zip_longest
from pathlib import Path


def _units(p: int) -> list[int]:
    return [k for k in range(1, p) if math.gcd(k, p) == 1]


def _allowed(p: int, q: int) -> list[int]:
    return sorted({q, pow(q, -1, p)})


def _sweep(job, out):
    p_max = job.expect["p_max"]
    pairs = [(p, q) for p in range(2, p_max + 1) for q in _units(p)]
    rows = out["rows"]
    if len(rows) != len(pairs):
        return f"{len(rows)} rows, want {len(pairs)} coprime pairs"
    for row, (p, q) in zip(rows, pairs):
        if (row["p"], row["q"]) != (p, q):
            return f"row {row['p']},{row['q']} out of order, want {p},{q}"
        if row["holds"] is not True:
            return f"row {p},{q} does not hold"
        if Fraction(row["C0_C0"]) != Fraction(p, p + q) or row["index_d"] != "3":
            return f"row {p},{q} has wrong C0.C0 or index"
    return None


def _wps_report(job, out):
    p, q = job.expect["p"], job.expect["q"]
    meet = out["intersection_C0_C0_prime"]
    if not out["cases"] or out["case"] is None or meet is None:
        return f"q'={job.expect['qprime']} is allowed but no fraction curve was built"
    if not (
        out["C0"]["adjunction"]["holds"]
        and out["C0_prime"]["adjunction"]["holds"]
        and meet["holds"]
        and out["congruence"]["allowed"]
    ):
        return "an identity of the dossier does not hold"
    if Fraction(meet["algebraic"]) != Fraction(1, p + q):
        return f"C0.C0' is {meet['algebraic']}, want 1/{p + q}"
    if Fraction(out["C0"]["virtual_genus"]) != Fraction(1, 2) - Fraction(1, 2 * (p + q)):
        return f"C0 virtual genus is {out['C0']['virtual_genus']}"
    if out["index_C0"]["d"] != "3":
        return f"index d is {out['index_C0']['d']}, want 3"
    return None


def _lens_allowed(job, out):
    p, q = job.expect["p"], job.expect["q"]
    if out["allowed"] != _allowed(p, q):
        return f"allowed set {out['allowed'][:4]}..., want {_allowed(p, q)}"
    return None


def _index_scan(job, out):
    p, q = job.expect["p"], job.expect["q"]
    rows = out["rows"]
    if [r["qprime"] for r in rows] != _units(p):
        return f"{len(rows)} rows, want one per unit mod {p}"
    allowed = [r["qprime"] for r in rows if r["allowed"]]
    if allowed != _allowed(p, q):
        return f"allowed rows {allowed[:4]}, want {_allowed(p, q)}"
    return None


def _lens_classify(job, out):
    p, q, qp = job.expect["p"], job.expect["q"], job.expect["qprime"]
    inv = pow(q, -1, p)
    oriented = qp in (q, inv)
    unoriented = qp in (q, inv, p - q, p - inv)
    rec = out["congruence"]
    l = pow(p, -1, p + q)
    if (
        out["equivalent_oriented"] != oriented
        or out["equivalent_unoriented"] != unoriented
        or rec["allowed"] != oriented
    ):
        return f"classification of ({p}, {q}, {qp}) is wrong"
    if rec["l"] != l or rec["r"] != (1 - l * p) // (p + q) or rec["lprime"] != pow(qp, -1, p):
        return "congruence record has wrong inverses"
    return None


def _chains_betti(job, out):
    if out["boundary_squared_zero"] is not True:
        return "boundary does not square to zero"
    betti = out["betti"]
    if "betti" in job.expect and betti != job.expect["betti"]:
        return f"betti {betti}, want {job.expect['betti']}"
    if "euler" in job.expect:
        chi = sum((-1) ** r * b for r, b in enumerate(betti))
        if chi != job.expect["euler"]:
            return f"betti {betti} give Euler characteristic {chi}, want {job.expect['euler']}"
    return None


def _chains_validate(job, out):
    if out["valid"] is not True:
        return "canonical cyclic structure reported invalid"
    return None


def _contributions(out, expect, with_genus):
    got = [(c["kind"], c["labels"], Fraction(c["value"])) for c in out["contributions"]]
    want = [("pair", labels, Fraction(v)) for labels, v in expect["pair_values"]]
    want += [("point", [label], Fraction(v)) for label, v in expect.get("points", [])]
    if with_genus:
        want.insert(0, ("domain_genus", [], Fraction(0)))
    for i, (g, w) in enumerate(zip_longest(got, want)):
        if g != w:
            return f"contribution {i} is {g}, reference {w}"
    return None


def _adjunction(job, out):
    total = Fraction(job.expect["total"])
    if out["holds"] is not True or Fraction(out["lhs"]) != total or Fraction(out["rhs"]) != total:
        return f"adjunction {out['lhs']} = {out['rhs']} (holds {out['holds']}), want {total}"
    reason = _contributions(out, job.expect, with_genus=True)
    if reason:
        return reason
    if out["verdict"] != {"verdict": "Singular", "defect": str(total)}:
        return f"verdict {out['verdict']}, want Singular with defect {total}"
    return None


def _intersect(job, out):
    total = Fraction(job.expect["total"])
    if out["holds"] is not True or Fraction(out["algebraic"]) != total or Fraction(out["local_sum"]) != total:
        return f"intersection {out['algebraic']} vs {out['local_sum']}, want {total}"
    return _contributions(out, job.expect, with_genus=False)


CHECKERS = {
    "sweep": _sweep,
    "wps_report": _wps_report,
    "lens_allowed": _lens_allowed,
    "index_scan": _index_scan,
    "lens_classify": _lens_classify,
    "chains_betti": _chains_betti,
    "chains_validate": _chains_validate,
    "adjunction": _adjunction,
    "intersect": _intersect,
}


def check(job, code: int, text: str) -> str | None:
    """None when the job exited 0 with a correct report, else a reason."""
    if code != 0:
        return f"exit code {code}"
    try:
        out = json.loads(text)
        return CHECKERS[job.kind](job, out)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def _oracle_terms(branch):
    n, v = branch
    u = {n: ("1", "0")}
    return u, {e: (str(re), str(im)) for e, (re, im) in v.items()}


def attach_oracle_values(jobs, root: Path) -> None:
    """Replace the generator's closed-form pair multiplicities by the
    values of tests/oracles.py (implicitization and substitution in
    sympy), computing each distinct pair once."""
    sys.path.insert(0, str(root / "tests"))
    try:
        from oracles import oracle_intersection
    finally:
        sys.path.pop(0)
    cache = {}
    for job in jobs:
        if "pairs" not in job.expect:
            continue
        values = []
        for labels, _closed_form, (b1, b2) in job.expect["pairs"]:
            key = repr((b1, b2))
            if key not in cache:
                u1, v1 = _oracle_terms(b1)
                u2, v2 = _oracle_terms(b2)
                cache[key] = oracle_intersection(u1, v1, u2, v2)
            values.append([labels, cache[key]])
        job.expect["pair_values"] = values
