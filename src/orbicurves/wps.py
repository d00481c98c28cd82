"""Executable model of the weighted projective cap: the closed
4-orbifold with two cyclic singular points that compactifies the
symplectic cone over a lens space, its two distinguished holomorphic
curves, the quadratic genus bound, and the Seifert Euler number.

All quantities are exact rationals; cone radii carry no invariant
content and do not appear.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .chern_index import kawasaki_index
from .curvecalc import (
    AmbientModel,
    CurveClass,
    CurveConfig,
    Station,
    adjunction_report,
    algebraic_intersection,
    c_pairing,
    embeddedness_verdict,
    intersection_report,
)
from .decode import SCHEMA_VERSION, format_rational
from .errors import Disallowed, InvalidInput
from .germ import axis_germ
from .lens import (
    SingularityType,
    _cases,
    _check_lens_params,
    allowed_q_set,
    cobordism_congruence,
)
from .surface import OrbifoldSurface

POINT_X = "x"
POINT_X_PRIME = "x_prime"
_C0_CLASS = CurveClass((1,))  # [C0], the generator of H_2


class WpsModel:
    """The cap for parameters (p, q, q'): one generator of H_2 with
    self-pairing p/(p+q), c1 value (2p+q+1)/(p+q), and singular points
    x of type (p+q, p) and x' of type (p, q').  c0prime_parts holds the
    q'-free parts of C0': the domain S^2(p+q, p), the class 1/p and the
    station at x."""

    __slots__ = ("p", "q", "qprime", "ambient", "c0prime_parts")

    def __init__(self, p: int, q: int, qprime: int, ambient: AmbientModel, c0prime_parts: tuple):
        self.p = p
        self.q = q
        self.qprime = qprime
        self.ambient = ambient
        self.c0prime_parts = c0prime_parts

    @property
    def pairing(self) -> Fraction:
        return self.ambient.pairing[0][0]

    @property
    def c1_value(self) -> Fraction:
        return self.ambient.c1_vector[0]


def build_model(p: int, q: int, qprime: int) -> WpsModel:
    """Check the lens parameters and assemble the cap model with the
    q'-free parts of C0'.  The congruence is not consulted here, so a
    disallowed q' still produces a model (only c0prime_config objects)."""
    _check_lens_params(p, q)
    _check_lens_params(p, qprime, name="q'")
    x = SingularityType(p + q, p)
    ambient = AmbientModel(
        h2_rank=1,
        pairing=((Fraction(p, p + q),),),
        c1_vector=(Fraction(2 * p + q + 1, p + q),),
        singular_points=(
            (POINT_X, x),
            (POINT_X_PRIME, SingularityType(p, qprime)),
        ),
    )
    parts = (OrbifoldSurface(m_sigma=1, genus=0, orders=(p + q, p)),
             CurveClass((Fraction(1, p),)),
             Station(POINT_X, p + q, [("w0", axis_germ(False, x))]))
    return WpsModel(p, q, qprime, ambient, parts)


def _sibling(m: WpsModel, qprime: int) -> WpsModel:
    """The model of (p, q, q') for an allowed q' of m's sweep row.  Its
    ambient shares m's pairing, c1 values and point x, and it shares
    m's C0' parts, which like the germs are immutable; only x' is new.
    q' comes from allowed_q_set, so the lens checks of build_model have
    nothing left to reject."""
    ambient = m.ambient
    x = ambient.singular_points[0]
    return WpsModel(m.p, m.q, qprime, AmbientModel(
        1, ambient.pairing, ambient.c1_vector, (x, (POINT_X_PRIME, SingularityType(m.p, qprime)))),
        m.c0prime_parts)


def c0_config(m: WpsModel) -> CurveConfig:
    """The generating curve: a sphere with one cone point of order p+q,
    passing only through x along the first coordinate axis."""
    n = m.p + m.q
    at_x = Station(POINT_X, n, [("z0", axis_germ(True, m.ambient.point_type(POINT_X)))])
    return CurveConfig(m.ambient, OrbifoldSurface(m_sigma=1, genus=0, orders=(n,)),
                       _C0_CLASS, (at_x,))


def c0prime_cases(m: WpsModel) -> list[str]:
    """Which local forms at x' pass the integrality congruence, in
    preference order: A when q' = q, B when q*q' = 1 (mod p), read off
    lens._cases for the parameters build_model checked."""
    return [case for case, integral in zip("AB", _cases(m.p, m.q, m.qprime)) if integral]


def c0prime_config(m: WpsModel) -> CurveConfig:
    """The (1/p)-fraction curve: a sphere with cone points of orders
    p+q and p, along the second coordinate axis at x, and at x' along
    the axis of the preferred passing case: A (second axis) when
    q' = q, else B (first axis).
    """
    case_a, case_b = _cases(m.p, m.q, m.qprime)
    if not (case_a or case_b):
        record = cobordism_congruence(m.p, m.q, m.qprime)
        raise Disallowed(
            f"no integral local form at x' for (p, q, q') = "
            f"({m.p}, {m.q}, {m.qprime}); congruence record {record}"
        )
    domain, curve_class, at_x = m.c0prime_parts
    at_x_prime = Station(POINT_X_PRIME, m.p,
                         [("w1", axis_germ(not case_a, m.ambient.point_type(POINT_X_PRIME)))])
    return CurveConfig(m.ambient, domain, curve_class, (at_x, at_x_prime))


def _genus_ratio(p: int, q: int, a: int, b: int) -> tuple[int, int]:
    """g(a/b) = ((p/(p+q)) r^2 - ((2p+q+1)/(p+q)) r) / 2 + 1 at r = a/b,
    the virtual genus of the class r[C0], as an integer numerator over
    the denominator 2(p+q)b^2."""
    den = 2 * (p + q) * b * b
    return p * a * a - (2 * p + q + 1) * a * b + den, den


def _genus_checks(p: int, q: int, ratios: list) -> tuple:
    """The integer core of genus_bound_profile, on samples a/b given as
    ascending integer pairs: the values g(a/b) and g(1/p) as (numerator,
    denominator) pairs, whether the values decrease strictly, and the
    peak identity g(1/p) = (1 - 1/(p+q))/2 + (1 - 1/p)/2."""
    gs = [_genus_ratio(p, q, a, b) for a, b in ratios]
    num, den = peak = _genus_ratio(p, q, 1, p)
    decreasing = all(a * d > c * b for (a, b), (c, d) in zip(gs, gs[1:]))
    # (1 - 1/(p+q))/2 + (1 - 1/p)/2 over the denominator 2p(p+q)
    identity = num * 2 * p * (p + q) == ((p + q - 1) * p + (p - 1) * (p + q)) * den
    return gs, peak, decreasing, identity


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
    gs, peak, decreasing, identity = _genus_checks(m.p, m.q, ratios)
    return {
        "schema": SCHEMA_VERSION,
        "rows": [[r, Fraction(*g)] for r, g in zip(rs, gs)],
        "strictly_decreasing": decreasing,
        "value_at_inverse_p": Fraction(*peak),
        "peak_identity": identity,
    }


def _sample_ratios(p: int) -> list[tuple[int, int]]:
    """The ascending samples {1/p, 1/2, 1} as integer pairs: two of them
    when p = 2."""
    return [(1, p), (1, 2), (1, 1)] if p > 2 else [(1, 2), (1, 1)]


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
    record = cobordism_congruence(m.p, m.q, m.qprime)
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
        "genus_bound": genus_bound_profile(m, [Fraction(*r) for r in _sample_ratios(m.p)]),
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
    _, _, decreasing, identity = _genus_checks(p, q, _sample_ratios(p))
    holds = (
        report["holds"]
        and embeddedness_verdict(report)["verdict"] == "EmbeddedSuborbifold"
        and index["d"] == 3
        and decreasing
        and identity
        and uniqueness_inequality(model)
    )
    for qprime in allowed_q_set(p, q):
        sibling = model if qprime == q else _sibling(model, qprime)
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
