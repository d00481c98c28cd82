"""Executable model of the weighted projective cap: the closed
4-orbifold with two cyclic singular points that compactifies the
symplectic cone over a lens space, its two distinguished holomorphic
curves, the quadratic genus bound, and the Seifert Euler number.

All quantities are exact rationals; cone radii carry no invariant
content and do not appear.
"""

from __future__ import annotations

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
from .germ import CurveGerm, PowerSeries
from .lens import (
    SingularityType,
    _check_lens_params,
    allowed_q_set,
    cobordism_congruence,
)
from .surface import OrbifoldSurface

POINT_X = "x"
POINT_X_PRIME = "x_prime"
_T, _ZERO = PowerSeries({1: 1}), PowerSeries.zero()  # the axis series t and 0


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


def _axis_germ(first: bool, a: int, b: int, m: int) -> CurveGerm:
    """The germ t -> (t, 0) (first) or (0, t) in a chart of type (a, b),
    with stabilizer order m, on the shared series _T and _ZERO.  Series
    and germs are immutable (a series only memoises its inverse), so
    configs may share them."""
    u, v = (_T, _ZERO) if first else (_ZERO, _T)
    return CurveGerm(u, v, group=SingularityType(a, b), m=m)


@lru_cache(maxsize=4)
def _c0prime_parts(p: int, q: int) -> tuple:
    """The q'-free parts of C0' for (p, q), immutable like the germs:
    the domain S^2(p+q, p), the class 1/p and the station at x, which
    the C0' configs of both q' in a sweep row share."""
    return (OrbifoldSurface(m_sigma=1, genus=0, orders=(p + q, p)), CurveClass((Fraction(1, p),)),
            station(POINT_X, p + q, [("w0", _axis_germ(False, p + q, p, p + q))]))


def c0_config(m: WpsModel) -> CurveConfig:
    """The generating curve: a sphere with one cone point of order p+q,
    passing only through x along the first coordinate axis."""
    n = m.p + m.q
    at_x = station(POINT_X, n, [("z0", _axis_germ(True, n, m.p, n))])
    return CurveConfig(m.ambient, OrbifoldSurface(m_sigma=1, genus=0, orders=(n,)),
                       CurveClass((1,)), (at_x,))


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
    domain, curve_class, at_x = _c0prime_parts(m.p, m.q)
    at_x_prime = station(POINT_X_PRIME, m.p, [("w1", _axis_germ(case == "B", m.p, m.qprime, m.p))])
    return CurveConfig(m.ambient, domain, curve_class, (at_x, at_x_prime))


def genus_bound(m: WpsModel, r) -> Fraction:
    """g(r) = ((p/(p+q)) r^2 - ((2p+q+1)/(p+q)) r) / 2 + 1, the virtual
    genus of a class r[C0] as a function of the fraction r."""
    return Fraction(*_genus_ratio(m.p, m.q, *Fraction(r).as_integer_ratio()))


def _genus_ratio(p: int, q: int, a: int, b: int) -> tuple[int, int]:
    """g(a/b) as an integer numerator over the denominator 2(p+q)b^2."""
    den = 2 * (p + q) * b * b
    return p * a * a - (2 * p + q + 1) * a * b + den, den


def genus_bound_profile(m: WpsModel, samples) -> dict:
    """Evaluate the genus bound on ascending samples in (0, 1]: the
    [r, g(r)] rows plus the two exact checks, that the bound decreases
    strictly over (0, 1] and that its value at r = 1/p equals
    (1 - 1/(p+q))/2 + (1 - 1/p)/2."""
    rs = [r if isinstance(r, Fraction) else Fraction(r) for r in samples]
    # the checks run on integer numerators: a/b < c/d is a*d < c*b (b, d > 0)
    ratios = [r.as_integer_ratio() for r in rs]
    if any(not 0 < a <= b for a, b in ratios):
        raise InvalidInput("samples must lie in (0, 1]")
    if any(a * d >= c * b for (a, b), (c, d) in zip(ratios, ratios[1:])):
        raise InvalidInput("samples must be strictly ascending")
    p, q = m.p, m.q
    gs = [_genus_ratio(p, q, a, b) for a, b in ratios]
    num, den = _genus_ratio(p, q, 1, p)
    return {
        "schema": SCHEMA_VERSION,
        "rows": [[r, Fraction(*g)] for r, g in zip(rs, gs)],
        "strictly_decreasing": all(a * d > c * b for (a, b), (c, d) in zip(gs, gs[1:])),
        "value_at_inverse_p": Fraction(num, den),
        # (1 - 1/(p+q))/2 + (1 - 1/p)/2 over the denominator 2p(p+q)
        "peak_identity": num * 2 * p * (p + q) == ((p + q - 1) * p + (p - 1) * (p + q)) * den,
    }


_HALF_AND_ONE = (Fraction(1, 2), Fraction(1))


def _samples(p: int) -> list[Fraction]:
    """The ascending samples {1/p, 1/2, 1}: two of them when p = 2."""
    return [Fraction(1, p), *_HALF_AND_ONE] if p > 2 else [*_HALF_AND_ONE]


def uniqueness_inequality(m: WpsModel) -> bool:
    """The self-pairing of the fraction class stays below the cost of a
    second component: 1/(p(p+q)) < 1/(p+q) + 1/p, or 1 < 2p + q over p(p+q)."""
    return 1 < 2 * m.p + m.q


def seifert_euler(m: WpsModel) -> Fraction:
    """Euler number of the Seifert fibration on the lens space boundary:
    1 + q/p."""
    return Fraction(m.p + m.q, m.p)


def c0_index(m: WpsModel, c0: CurveConfig) -> dict:
    """Index count of the deformation operator for the C0 data: the c1
    pairing with [C0], a genus-0 domain, and the isotropy weights of
    the distinguished germ at x, read from c0 = c0_config(m)."""
    germ = c0.stations[0].points[0].germ
    return kawasaki_index(c1_pair=m.c1_value, genus=0, points=[(m.p + m.q, germ.weights())])


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
        # C0 for q' differs from config only in its ambient, which x' is part of
        c0 = config if qprime == q else CurveConfig(
            sibling.ambient, config.domain, config.curve_class, config.stations)
        partner = c0prime_config(sibling)
        partner_report = adjunction_report(partner)
        meeting = intersection_report(c0, partner)
        holds = (
            holds
            and partner_report["holds"]
            and meeting["holds"]
            and meeting["algebraic"].as_integer_ratio() == (1, p + q)
            and embeddedness_verdict(partner_report)["verdict"] == "EmbeddedSuborbifold"
        )
    # the rationals are text: cli._json_row writes a row's str, int, bool
    # or None values, and no other type
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
    """The sweep's rows, ordered by p and then q."""
    return [sweep_row(p, q) for p in range(2, p_max + 1) for q in range(1, p) if gcd(p, q) == 1]
