"""Executable model of the weighted projective cap: the closed
4-orbifold with two cyclic singular points that compactifies the
symplectic cone over a lens space, its two distinguished holomorphic
curves, the quadratic genus bound, and the Seifert Euler number.

All quantities are exact rationals; cone radii carry no invariant
content and do not appear.
"""

from __future__ import annotations

import marshal
import os
from fractions import Fraction
from functools import lru_cache
from math import gcd

from .chern_index import kawasaki_index
from .curvecalc import (
    AmbientModel,
    CurveClass,
    CurveConfig,
    adjunction_report,
    algebraic_intersection,
    c_pairing,
    embeddedness_verdict,
    intersection_report,
    station,
)
from .decode import SCHEMA_VERSION, format_rational
from .errors import Disallowed, InvalidInput
from .germ import CurveGerm, germ_from_polynomials
from .lens import (
    SingularityType,
    _check_lens_params,
    allowed_q_set,
    cobordism_congruence,
)
from .surface import OrbifoldSurface

POINT_X = "x"
POINT_X_PRIME = "x_prime"


class WpsModel:
    """The cap for parameters (p, q, q'): one generator of H_2 with
    self-pairing p/(p+q), c1 value (2p+q+1)/(p+q), and singular points
    x of type (p+q, p) and x' of type (p, q')."""

    __slots__ = ("p", "q", "qprime", "ambient", "_congruence")

    def __init__(self, p: int, q: int, qprime: int, ambient: AmbientModel):
        self.p = p
        self.q = q
        self.qprime = qprime
        self.ambient = ambient
        self._congruence = None

    @property
    def pairing(self) -> Fraction:
        return self.ambient.pairing[0][0]

    @property
    def c1_value(self) -> Fraction:
        return self.ambient.c1_vector[0]

    def congruence(self) -> dict:
        """The congruence record of (p, q, q'), evaluated on first use."""
        if self._congruence is None:
            self._congruence = cobordism_congruence(self.p, self.q, self.qprime)
        return self._congruence


def build_model(p: int, q: int, qprime: int) -> WpsModel:
    """Assemble the cap model; the congruence is not consulted here, so
    disallowed q' still produce a model (only c0prime_config objects)."""
    _check_lens_params(p, q)
    _check_lens_params(p, qprime, name="q'")
    ambient = AmbientModel(
        h2_rank=1,
        pairing=((Fraction(p, p + q),),),
        c1_vector=(Fraction(2 * p + q + 1, p + q),),
        singular_points=(
            (POINT_X, SingularityType(p + q, p)),
            (POINT_X_PRIME, SingularityType(p, qprime)),
        ),
    )
    return WpsModel(p=p, q=q, qprime=qprime, ambient=ambient)


@lru_cache(maxsize=4)
def _axis_germ(first: bool, a: int, b: int, m: int) -> CurveGerm:
    """The germ t -> (t, 0) (first) or (0, t) in a chart of type (a, b),
    with stabilizer order m.  Germs are immutable, so configs share
    them: within one sweep row, the C0 configs of both q' hold one germ
    at x, and so do the C0' configs."""
    u, v = ({1: 1}, {}) if first else ({}, {1: 1})
    return germ_from_polynomials(u, v, group=SingularityType(a, b), m=m)


def c0_config(m: WpsModel) -> CurveConfig:
    """The generating curve: a sphere with one cone point of order p+q,
    passing only through x along the first coordinate axis."""
    p, q = m.p, m.q
    return CurveConfig(
        ambient=m.ambient,
        domain=OrbifoldSurface(m_sigma=1, genus=0, orders=(p + q,)),
        curve_class=CurveClass((1,)),
        stations=(station(POINT_X, p + q, [("z0", _axis_germ(True, p + q, p, p + q))]),),
    )


def c0prime_cases(m: WpsModel) -> list[str]:
    """Which local forms at x' pass the integrality congruence, in
    preference order."""
    record = m.congruence()
    cases = (("A", "caseA_integral"), ("B", "caseB_integral"))
    return [case for case, key in cases if record[key]]


def c0prime_config(m: WpsModel, case: str | None = None) -> CurveConfig:
    """The (1/p)-fraction curve: a sphere with cone points of orders
    p+q and p, along the second coordinate axis at x, and at x' along
    the axis selected by the congruence case (A: second axis, B: first
    axis).  Case A is preferred when both pass.
    """
    cases = c0prime_cases(m)
    if not cases:
        record = m.congruence()
        raise Disallowed(
            f"no integral local form at x' for (p, q, q') = "
            f"({m.p}, {m.q}, {m.qprime}); congruence record {record}"
        )
    if case is None:
        case = cases[0]
    if case not in ("A", "B"):
        raise InvalidInput(f"case must be 'A' or 'B', got {case!r}")
    if case not in cases:
        raise Disallowed(
            f"case {case} fails the integrality congruence for "
            f"(p, q, q') = ({m.p}, {m.q}, {m.qprime}); passing cases: {cases}"
        )
    p, q = m.p, m.q
    return CurveConfig(
        ambient=m.ambient,
        domain=OrbifoldSurface(m_sigma=1, genus=0, orders=(p + q, p)),
        curve_class=CurveClass((Fraction(1, p),)),
        stations=(
            station(POINT_X, p + q, [("w0", _axis_germ(False, p + q, p, p + q))]),
            station(POINT_X_PRIME, p, [("w1", _axis_germ(case == "B", p, m.qprime, p))]),
        ),
    )


def genus_bound(m: WpsModel, r) -> Fraction:
    """g(r) = ((p/(p+q)) r^2 - ((2p+q+1)/(p+q)) r) / 2 + 1, the virtual
    genus of a class r[C0] as a function of the fraction r."""
    if not isinstance(r, Fraction):
        r = Fraction(r)
    a, b, p, q = r.numerator, r.denominator, m.p, m.q
    den = 2 * (p + q) * b * b
    return Fraction(p * a * a - (2 * p + q + 1) * a * b + den, den)


def genus_bound_profile(m: WpsModel, samples) -> dict:
    """Evaluate the genus bound on ascending samples in (0, 1]: the
    [r, g(r)] rows plus the two exact checks, that the bound decreases
    strictly over (0, 1] and that its value at r = 1/p equals
    (1 - 1/(p+q))/2 + (1 - 1/p)/2."""
    rs = [r if isinstance(r, Fraction) else Fraction(r) for r in samples]
    if any(not 0 < r <= 1 for r in rs):
        raise InvalidInput("samples must lie in (0, 1]")
    if any(a >= b for a, b in zip(rs, rs[1:])):
        raise InvalidInput("samples must be strictly ascending")
    rows = [[r, genus_bound(m, r)] for r in rs]
    decreasing = all(ga > gb for (_, ga), (_, gb) in zip(rows, rows[1:]))
    p, q = m.p, m.q
    at_peak = genus_bound(m, Fraction(1, p))
    # (1 - 1/(p+q))/2 + (1 - 1/p)/2 over the denominator 2p(p+q)
    displayed = Fraction((p + q - 1) * p + (p - 1) * (p + q), 2 * p * (p + q))
    return {
        "schema": SCHEMA_VERSION,
        "rows": rows,
        "strictly_decreasing": decreasing,
        "value_at_inverse_p": at_peak,
        "peak_identity": at_peak == displayed,
    }


def _samples(p: int) -> list[Fraction]:
    """The ascending samples {1/p, 1/2, 1}: two of them when p = 2."""
    head = [Fraction(1, p)] if p > 2 else []
    return head + [Fraction(1, 2), Fraction(1)]


def uniqueness_inequality(m: WpsModel) -> bool:
    """The self-pairing of the fraction class stays below the cost of a
    second component: 1/(p(p+q)) < 1/(p+q) + 1/p."""
    p, q = m.p, m.q
    return Fraction(1, p * (p + q)) < Fraction(1, p + q) + Fraction(1, p)


def seifert_euler(m: WpsModel) -> Fraction:
    """Euler number of the Seifert fibration on the lens space boundary:
    1 + q/p."""
    return Fraction(m.p + m.q, m.p)


def c0_index(m: WpsModel, c0: CurveConfig) -> dict:
    """Index count of the deformation operator for the C0 data: the c1
    pairing with [C0], a genus-0 domain, and the isotropy weights of
    the distinguished germ at x, read from c0 = c0_config(m)."""
    germ = c0.stations[0].points[0].germ
    return kawasaki_index(
        c1_pair=m.c1_value, genus=0, points=[(m.p + m.q, germ.weights())]
    )


def _verdict_text(report: dict) -> str:
    """The dossier's verdict string: EmbeddedSuborbifold, or
    Singular(defect=a/b)."""
    v = embeddedness_verdict(report)
    if v["verdict"] == "EmbeddedSuborbifold":
        return v["verdict"]
    return f"Singular(defect={format_rational(v['defect'])})"


def dossier(m: WpsModel) -> dict:
    """Every model quantity in one mapping of exact values with stable
    key order: homology data, congruence record, both curve reports, the
    genus bound profile on {1/p, 1/2, 1}, and the scalar invariants."""
    record = m.congruence()
    cases = c0prime_cases(m)
    c0 = c0_config(m)
    c0_report = adjunction_report(c0)
    out = {
        "schema": SCHEMA_VERSION,
        "p": m.p,
        "q": m.q,
        "q_prime": m.qprime,
        "pairing_C0_C0": m.pairing,
        "c1_X_C0": m.c1_value,
        "c1_KX_C0": c_pairing(c0),
        "singular_points": {
            POINT_X: [m.p + m.q, m.p],
            POINT_X_PRIME: [m.p, m.qprime],
        },
        "seifert_euler": seifert_euler(m),
        "uniqueness_inequality": uniqueness_inequality(m),
        "congruence": record,
        "cases": cases,
        "index_C0": c0_index(m, c0),
        "C0": {
            "virtual_genus": c0_report["lhs"],
            "domain_genus": c0_report["contributions"][0]["value"],
            "adjunction": c0_report,
            "verdict": _verdict_text(c0_report),
        },
        "genus_bound": genus_bound_profile(m, _samples(m.p)),
    }
    if cases:
        cp = c0prime_config(m)
        cp_report = adjunction_report(cp)
        out["case"] = cases[0]
        out["C0_prime"] = {
            "class_fraction": cp.curve_class.coords[0],
            "virtual_genus": cp_report["lhs"],
            "domain_genus": cp_report["contributions"][0]["value"],
            "self_pairing": algebraic_intersection(cp, cp),
            "adjunction": cp_report,
            "verdict": _verdict_text(cp_report),
        }
        out["intersection_C0_C0_prime"] = intersection_report(c0, cp)
    else:
        out["case"] = None
        out["C0_prime"] = None
        out["intersection_C0_C0_prime"] = None
    return out


def sweep_row(p: int, q: int) -> dict:
    """One row of the sweep over coprime (p, q): the C0 invariants, and
    whether every cap check holds, including C0' for each allowed q'."""
    model = build_model(p, q, q)
    config = c0_config(model)
    report = adjunction_report(config)
    index = c0_index(model, config)
    profile = genus_bound_profile(model, _samples(p))
    holds = (
        report["holds"]
        and embeddedness_verdict(report)["verdict"] == "EmbeddedSuborbifold"
        and index["d"] == 3
        and profile["strictly_decreasing"]
        and profile["peak_identity"]
        and uniqueness_inequality(model)
    )
    for qprime in allowed_q_set(p, q):
        sibling = model if qprime == q else build_model(p, q, qprime)
        c0 = config if qprime == q else c0_config(sibling)
        partner = c0prime_config(sibling)
        partner_report = adjunction_report(partner)
        meeting = intersection_report(c0, partner)
        holds = (
            holds
            and partner_report["holds"]
            and meeting["holds"]
            and meeting["algebraic"] == Fraction(1, p + q)
            and embeddedness_verdict(partner_report)["verdict"] == "EmbeddedSuborbifold"
        )
    # the rows hold text: they cross the fork boundary as one marshal
    # blob, and marshal cannot hold a Fraction
    return {
        "p": p,
        "q": q,
        "C0_C0": format_rational(model.pairing),
        "c1_KX_C0": format_rational(-model.c1_value),
        "genus_C0": format_rational(report["contributions"][0]["value"]),
        "seifert_euler": format_rational(seifert_euler(model)),
        "index_d": format_rational(index["d"]),
        "holds": holds,
    }


def sweep_rows(p_max: int) -> list[dict]:
    """[sweep_row(p, q) for coprime 1 <= q < p <= p_max], in that order.
    The pairs are dealt round-robin to one worker per CPU this process
    may run on, which keeps the shares even as a row's cost grows with p.
    Workers are forked, so they start with every module loaded; the CLI
    runs no thread that a fork could break.  On one CPU, without fork or sched_getaffinity, or when fork fails,
    the one worker is this process.  If any share fails, the rows are
    computed again by this process alone, so a failing row raises what
    it raises in a serial run."""
    pairs = [(p, q) for p in range(2, p_max + 1) for q in range(1, p) if gcd(p, q) == 1]
    workers = 1
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        workers = min(len(os.sched_getaffinity(0)), len(pairs))
    if workers > 1:
        try:
            return _dealt_rows(pairs, workers)
        except Exception:
            pass  # a failing row, a failed fork or a lost worker
    return _dealt_rows(pairs, 1)


def _dealt_rows(pairs: list, k: int) -> list[dict]:
    """The rows of pairs, with share i = pairs[i::k]: this process
    computes share 0 and a forked child each other share.  The children
    are killed, if still running, and reaped before this returns or
    raises."""
    parent = os.getpid()
    pids, pipes = [], []
    try:
        for share in range(1, k):
            pid, read = _fork_share(pairs[share::k], parent)
            pids.append(pid)
            pipes.append(open(read, "rb"))
        rows = [None] * len(pairs)
        rows[::k] = [sweep_row(p, q) for p, q in pairs[::k]]
        for share, pipe in enumerate(pipes, 1):
            # a failed child sends nothing, and b"" does not load
            rows[share::k] = marshal.loads(pipe.read())
        return rows
    finally:
        for pipe in pipes:
            pipe.close()
        if pids:
            from signal import SIGKILL

            for pid in pids:
                # a child whose rows were read is exiting anyway
                os.kill(pid, SIGKILL)
                os.waitpid(pid, 0)


def _fork_share(share: list, parent: int) -> tuple[int, int]:
    """Fork a child that computes the rows of share and writes them to a
    pipe as one marshal blob: its pid and the pipe's read end.  The child
    writes nothing else, and it stops, sending nothing, when a row raises
    or when parent is no longer its parent (a killed parent leaves no
    worker running)."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid:
        os.close(write)
        return pid, read
    code = 1
    try:
        os.close(read)
        rows = []
        for p, q in share:
            if os.getppid() != parent:
                break
            rows.append(sweep_row(p, q))
        else:
            with open(write, "wb") as out:
                out.write(marshal.dumps(rows))
            code = 0
    finally:
        os._exit(code)
