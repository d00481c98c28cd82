"""Seeded inputs for the benchmark workloads.

Each ``<workload>_jobs(rng, work)`` returns the job list of one round:
the argv of every CLI call and the reference data its output is checked
against.  Input files are written under ``work``; argv paths are
relative to the repository root, so one seed gives byte-identical files
and argv wherever the checkout lives.

Sizes are stratified, not drawn freely: every seed gets the same number
of jobs in each size class, and the seed moves parameters only within a
class (a few units of p, the branch coefficients, the cone point of a
torus, the random complexes).  That keeps the cost of a round nearly the
same across seeds, which the run-to-run bounds in BENCHMARK.json rely
on.  Each round has about 15% heavy jobs, so that the pooled 90th
percentile falls inside the heavy class rather than on its edge.

References are closed forms computed here, never by orbicurves; the
checker replaces the germ pair values by those of the sympy oracle in
tests/oracles.py.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from itertools import combinations, product
from pathlib import Path


@dataclass(frozen=True)
class Job:
    kind: str
    argv: tuple[str, ...]
    expect: dict


def _write(path: Path, data) -> str:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path.as_posix()


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


def _next_prime(n: int) -> int:
    while not _is_prime(n):
        n += 1
    return n


def _unit(rng: random.Random, p: int) -> int:
    while True:
        q = rng.randint(1, p - 1)
        if math.gcd(p, q) == 1:
            return q


# --- sweep ------------------------------------------------------------------

# A sweep's only input is P.  It is fixed, near 30 so that the 100 jobs
# of a run take about 25 s, and the same for every seed: P moves a
# sweep's cost by about P^2.5, more than the run-to-run bounds allow.
SWEEP_P_MAX = 30
SWEEP_SWEEPS = 3
SWEEP_DOSSIERS = 17


def sweep_jobs(rng: random.Random, work: Path) -> list[Job]:
    """Three ``sweep --p-max 30`` calls and ``wps report`` dossiers on
    random (p, q) with q' drawn from {q, q^-1 mod p}."""
    jobs = [
        Job("sweep", ("sweep", "--p-max", str(SWEEP_P_MAX)), {"p_max": SWEEP_P_MAX})
    ] * SWEEP_SWEEPS
    for _ in range(SWEEP_DOSSIERS):
        p = rng.randint(5, 120)
        q = _unit(rng, p)
        qprime = rng.choice(sorted({q, pow(q, -1, p)}))
        jobs.append(
            Job(
                "wps_report",
                ("wps", "report", str(p), str(q), str(qprime)),
                {"p": p, "q": q, "qprime": qprime},
            )
        )
    rng.shuffle(jobs)
    return jobs


# --- scan -------------------------------------------------------------------

SCAN_INDEX_P = 10500  # about 2 MB of JSON
SCAN_ALLOWED_P = 12000
SCAN_P_JITTER = 500
SCAN_CLASSIFY = 17


def scan_jobs(rng: random.Random, work: Path) -> list[Job]:
    """One ``index scan`` at the first prime from a random point of
    10000..10500 (a multi-MB report), two ``lens allowed`` at the first
    primes from 12000 - d and 12000 + d (d in 0..500, so their summed
    cost barely moves), and ``lens classify`` calls at primes in
    1e4..3e4 with q' allowed or not."""
    jobs = []
    p = _next_prime(SCAN_INDEX_P - rng.randint(0, SCAN_P_JITTER))
    q = _unit(rng, p)
    jobs.append(Job("index_scan", ("index", "scan", str(p), str(q)), {"p": p, "q": q}))
    d = rng.randint(0, SCAN_P_JITTER)
    for p in (_next_prime(SCAN_ALLOWED_P - d), _next_prime(SCAN_ALLOWED_P + d)):
        q = _unit(rng, p)
        jobs.append(Job("lens_allowed", ("lens", "allowed", str(p), str(q)), {"p": p, "q": q}))
    for i in range(SCAN_CLASSIFY):
        p = _next_prime(rng.randint(10000, 30000))
        q = _unit(rng, p)
        qprime = pow(q, -1, p) if i % 2 else _unit(rng, p)
        jobs.append(
            Job(
                "lens_classify",
                ("lens", "classify", str(p), str(q), str(qprime)),
                {"p": p, "q": q, "qprime": qprime},
            )
        )
    rng.shuffle(jobs)
    return jobs


# --- chains -----------------------------------------------------------------

ORDER_POOL = (1, 1, 1, 2, 2, 3, 4, 6, 8, 12)


def torus(n: int, cone_order: int):
    """The n x n triangulated torus (n >= 3) with a cone point at vertex
    0; where the cone sits moves the cost of the dense elimination by
    tens of percent, so it does not move."""
    tris = []
    for i in range(n):
        for j in range(n):
            a = i * n + j
            b = ((i + 1) % n) * n + j
            c = ((i + 1) % n) * n + (j + 1) % n
            d = i * n + (j + 1) % n
            tris += [sorted((a, b, c)), sorted((a, d, c))]
    return tris, {"0": cone_order}


def random_complex(rng: random.Random, n_vertices: int, size: int, max_dim: int = 3):
    """Random tops of dimension 1..max_dim, added until the face closure
    has at least ``size`` simplices; every simplex gets the gcd of its
    vertex orders, so orders divide along faces."""
    vertex_order = {v: rng.choice(ORDER_POOL) for v in range(n_vertices)}
    closed = {(v,) for v in vertex_order}
    while len(closed) < size:
        top = tuple(sorted(rng.sample(range(n_vertices), rng.randint(2, max_dim + 1))))
        for k in range(1, len(top) + 1):
            closed.update(combinations(top, k))
    ordered = sorted(closed, key=lambda s: (len(s), s))
    orders = {}
    for s in ordered:
        g = math.gcd(*(vertex_order[v] for v in s))
        if g != 1:
            orders[",".join(map(str, s))] = g
    return [list(s) for s in ordered], orders


def euler_characteristic(simplices) -> int:
    return sum((-1) ** (len(s) - 1) for s in simplices)


CHAINS_BETTI_TORI = (6, 6, 6)  # the heavy class: 216 simplices each
CHAINS_RANDOM = ((16, 120),) * 5  # (vertices, size), betti + validate
CHAINS_VALIDATE_ONLY = ((16, 120),) * 5 + ((20, 200),)


def chains_jobs(rng: random.Random, work: Path) -> list[Job]:
    """``chains betti`` on tori with a cone vertex and on random
    gcd-weighted complexes, ``chains validate`` on the same families
    (validate uses the canonical cyclic group structure)."""
    jobs = []

    def add_torus(verb: str, n: int, tag: str):
        tris, orders = torus(n, rng.choice((2, 3, 5, 7, 12)))
        path = _write(work / f"{tag}.json", {"simplices": tris, "orders": orders})
        jobs.append(
            Job(f"chains_{verb}", ("chains", verb, path), {"betti": [1, 2, 1]})
        )

    def add_random(verb: str, n_vertices: int, size: int, tag: str):
        simplices, orders = random_complex(rng, n_vertices, size)
        path = _write(work / f"{tag}.json", {"simplices": simplices, "orders": orders})
        jobs.append(
            Job(
                f"chains_{verb}",
                ("chains", verb, path),
                {"euler": euler_characteristic(simplices)},
            )
        )

    for i, n in enumerate(CHAINS_BETTI_TORI):
        add_torus("betti", n, f"torus_betti_{i}")
    add_torus("validate", 8, "torus_validate")
    for i, (nv, size) in enumerate(CHAINS_RANDOM):
        add_random("betti", nv, size, f"random_betti_{i}")
        add_random("validate", nv, size, f"random_validate_{i}")
    for i, (nv, size) in enumerate(CHAINS_VALIDATE_ONLY):
        add_random("validate", nv, size, f"validate_{i}")
    rng.shuffle(jobs)
    return jobs


# --- germ -------------------------------------------------------------------

# One branch is (n, {exponent: (re, im)}): U = t^n exactly and V carries
# Gaussian integer coefficients on exponents above n.  Within one station
# the leading V coefficients have pairwise distinct norms, so no two
# conjugate leading terms can cancel and the intersection multiplicity of
# two branches is min(m1 n2, m2 n1), m the leading exponent of V.


def _gaussian(rng: random.Random) -> tuple[int, int]:
    while True:
        z = (rng.randint(-3, 3), rng.randint(-3, 3))
        if z != (0, 0):
            return z


def _branch(rng: random.Random, n: int, lead: int, deg: int, norms: set):
    """(t^n, a t^lead + b t^deg) with Gaussian integer a, b; the norm of
    a differs from the norms in ``norms``."""
    while True:
        a = _gaussian(rng)
        if a[0] ** 2 + a[1] ** 2 not in norms:
            norms.add(a[0] ** 2 + a[1] ** 2)
            break
    v = {lead: a}
    if deg != lead:
        v[deg] = _gaussian(rng)
    return n, v


def branch_delta(branch) -> int:
    """Delta of (t^n, V) from the characteristic exponents of V's support
    (Milnor's formula mu = 2 delta)."""
    n, v = branch
    e, mu = n, 1 - n
    for k in sorted(v):
        g = math.gcd(e, k)
        if g < e:
            mu += (e - g) * k
            e = g
    return mu // 2


def pair_multiplicity(b1, b2) -> int:
    (n1, v1), (n2, v2) = b1, b2
    return min(min(v1) * n2, min(v2) * n1)


def _series_json(terms: dict, trunc: int) -> dict:
    return {
        "trunc": trunc,
        "terms": [[e, {"re": str(c[0]), "im": str(c[1])}] for e, c in sorted(terms.items())],
    }


def _station_json(point: str, labels, branches, trunc: int) -> dict:
    return {
        "ambient_point": point,
        "isotropy_order": 1,
        "points": [
            {
                "label": label,
                "order": 1,
                "germ": {
                    "U": _series_json({n: (1, 0)}, trunc),
                    "V": _series_json(v, trunc),
                    "group": [1, 0],
                    "m": 1,
                },
            }
            for label, (n, v) in zip(labels, branches)
        ],
    }


def _config_json(ambient: dict, coords: str, station: dict) -> dict:
    return {
        "schema": 1,
        "ambient": ambient,
        "domain": {"m_sigma": 1, "genus": 0, "orders": []},
        "class": {"coords": [coords], "multiplicity": 1},
        "stations": [station],
        "regular_double_points": [],
    }


def _ambient(pairing: int, local_total: int) -> dict:
    """Rank-one ambient whose c1 makes adjunction balance:
    g = (P - c1)/2 + 1 must equal the local total on a genus-0 domain."""
    return {
        "h2_rank": 1,
        "pairing": [[str(pairing)]],
        "c1_vector": [str(pairing + 2 - 2 * local_total)],
        "singular_points": [],
    }


def germ_config(rng: random.Random, specs, trunc: int):
    """A balanced configuration with one regular station; specs lists
    (n, lead, deg) per branch.  Returns (json, branches, labels)."""
    norms: set = set()
    branches = [_branch(rng, n, lead, deg, norms) for n, lead, deg in specs]
    labels = [f"b{i}" for i in range(len(branches))]
    total = sum(branch_delta(b) for b in branches)
    total += sum(pair_multiplicity(a, b) for a, b in combinations(branches, 2))
    ambient = _ambient(rng.randint(1, 30), total)
    station = _station_json("regular:s", labels, branches, trunc)
    return _config_json(ambient, "1", station), branches, labels


def _pairs(branches, labels, index_pairs) -> list:
    """[labels, closed-form multiplicity, the two branches] per pair."""
    return [
        [[labels[i], labels[j]], pair_multiplicity(branches[i], branches[j]), [branches[i], branches[j]]]
        for i, j in index_pairs
    ]


def adjunction_expect(branches, labels) -> dict:
    pairs = _pairs(branches, labels, combinations(range(len(branches)), 2))
    points = [[label, branch_delta(b)] for label, b in zip(labels, branches)]
    total = sum(v for _, v, _ in pairs) + sum(v for _, v in points)
    return {"pairs": pairs, "points": points, "total": total}


# Branches are (n, lead, deg): U = t^n, V = a t^lead + b t^deg, with
# gcd(n, lead, deg) = 1.  The shapes are fixed so that every seed pays
# about the same; the seed draws the coefficients and the ambient model.
# Three copies of the heavy shape make the top 15% of a round's jobs, so
# the pooled 90th percentile falls inside one class; the ladder configs
# are more than half of the round, so the median falls inside theirs.
GERM_HEAVY = (((8, 10, 13), (8, 9, 15), (3, 5, 7), (4, 6, 9)), 64)
GERM_ADJUNCTION = (  # (branches, stored truncation)
    (((3, 4, 8), (3, 5, 7), (4, 6, 9), (5, 6, 8)), 32),
    (((3, 4, 4), (3, 5, 5), (4, 5, 5), (3, 5, 7), (5, 6, 6), (4, 6, 7)), 32),
)
GERM_INTERSECT = (  # (first station, second station, stored truncation)
    (((3, 5, 7), (4, 6, 9)), ((5, 6, 8), (3, 4, 5)), 32),
    (((3, 4, 5), (4, 5, 7)), ((5, 7, 7),), 32),
)
# Stored at truncation 8, every exponent below 8: the stored truncation
# cannot resolve the report, so the CLI's precision ladder must climb.
GERM_LADDER = (
    ((3, 5, 7), (4, 7, 7), (5, 6, 6)),
    ((3, 4, 5), (4, 7, 7), (3, 7, 7)),
    ((5, 6, 7), (3, 5, 7), (4, 5, 5)),
    ((3, 4, 4), (4, 5, 5), (5, 7, 7)),
    ((3, 5, 5), (4, 5, 5), (5, 6, 6)),
    ((6, 7, 7), (3, 4, 7), (4, 7, 7)),
    ((3, 5, 7), (5, 7, 7), (4, 5, 5)),
    ((4, 5, 7), (3, 5, 5), (6, 7, 7)),
    ((5, 6, 6), (3, 4, 4), (4, 6, 7)),
    ((3, 7, 7), (4, 5, 5), (5, 7, 7)),
    ((3, 4, 4), (4, 5, 5), (5, 6, 6)),
    ((3, 5, 5), (4, 7, 7), (5, 7, 7)),
    ((4, 5, 5), (3, 4, 5), (5, 6, 6)),
)


def germ_jobs(rng: random.Random, work: Path) -> list[Job]:
    """``adjunction`` on balanced single-station configurations (3-6
    branches of multiplicity 3-8, truncation 32 or 64), ``adjunction`` on
    configurations stored at truncation 8, and ``intersect`` on pairs
    of configurations sharing an ambient model and a station point."""
    jobs = []
    configs = (GERM_HEAVY,) * 3 + GERM_ADJUNCTION + tuple((s, 8) for s in GERM_LADDER)
    for i, (specs, trunc) in enumerate(configs):
        cfg, branches, labels = germ_config(rng, specs, trunc)
        path = _write(work / f"adjunction_{i}.json", cfg)
        jobs.append(Job("adjunction", ("adjunction", path), adjunction_expect(branches, labels)))
    for i, (specs_a, specs_b, trunc) in enumerate(GERM_INTERSECT):
        cfg_a, branches_a, labels_a = germ_config(rng, specs_a + specs_b, trunc)
        k = len(specs_a)
        station = cfg_a["stations"][0]
        pairs = _pairs(branches_a, labels_a, product(range(k), range(k, len(branches_a))))
        local = sum(v for _, v, _ in pairs)
        pairing = int(cfg_a["ambient"]["pairing"][0][0])
        first = _config_json(
            cfg_a["ambient"], "1", dict(station, points=station["points"][:k])
        )
        second = _config_json(
            cfg_a["ambient"],
            f"{local}/{pairing}",
            dict(station, points=station["points"][k:]),
        )
        path_a = _write(work / f"intersect_{i}_a.json", first)
        path_b = _write(work / f"intersect_{i}_b.json", second)
        jobs.append(Job("intersect", ("intersect", path_a, path_b), {"pairs": pairs, "total": local}))
    rng.shuffle(jobs)
    return jobs


WORKLOADS = {
    "sweep": sweep_jobs,
    "germ": germ_jobs,
    "chains": chains_jobs,
    "scan": scan_jobs,
}


def make_jobs(workload: str, seed: int, work: Path) -> list[Job]:
    """The round's job list for one workload and seed."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOADS[workload](rng, work)
