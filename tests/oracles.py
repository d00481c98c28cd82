"""Independent oracles for branch invariants and weighted Betti numbers,
used only by tests.

The branch oracles work from raw polynomial data (exponent -> (re, im)
string pairs) and recompute the invariants along different routes than
the package: intersection numbers via implicit equations and
substitution, delta via the monomial staircase of the value semigroup.
The Betti oracle works from a raw simplex list and order table and takes
ranks of dense sympy matrices.  Agreement is therefore a cross-check,
not a tautology.  sympy does all arithmetic of these; the sweep-row
oracle is the cap's closed forms in integers.
"""

from __future__ import annotations

import math
from itertools import combinations

import sympy

_t, _x, _y = sympy.symbols("_t _x _y")


def _to_sympy(terms: dict, var) -> sympy.Expr:
    total = sympy.Integer(0)
    for exp, (re, im) in terms.items():
        coeff = sympy.Rational(re) + sympy.Rational(im) * sympy.I
        total += coeff * var**exp
    return sympy.expand(total)


def implicit_equation(u_terms: dict, v_terms: dict) -> sympy.Expr:
    """A local equation of the branch image: the resultant eliminating
    the parameter from (x - U(t), y - V(t))."""
    u = _to_sympy(u_terms, _t)
    v = _to_sympy(v_terms, _t)
    f = sympy.resultant(
        sympy.Poly(_x - u, _t, extension=True), sympy.Poly(_y - v, _t, extension=True)
    )
    f = sympy.expand(f.as_expr() if isinstance(f, sympy.Poly) else f)
    if f == 0:
        raise ValueError("degenerate parametrization")
    return f


def _order_in_t(expr: sympy.Expr) -> int:
    poly = sympy.Poly(sympy.expand(expr), _t)
    monoms = [m[0] for m in poly.monoms() if poly.coeff_monomial((m[0],)) != 0]
    if not monoms:
        raise ValueError("expression is identically zero")
    return min(monoms)


def oracle_intersection(u1: dict, v1: dict, u2: dict, v2: dict) -> int:
    """Intersection multiplicity of two distinct branches at the origin:
    the vanishing order of the second branch's implicit equation along
    the first branch's parametrization.

    The implicit equation is global: it vanishes on the whole image of
    the polynomial map t -> (U2(t), V2(t)).  So the count is the local
    one only when the second curve passes through the origin at t = 0
    alone, i.e. when gcd(U2, V2) has no nonzero root; otherwise
    ValueError is raised."""
    common = sympy.gcd(
        sympy.Poly(_to_sympy(u2, _t), _t, extension=True),
        sympy.Poly(_to_sympy(v2, _t), _t, extension=True),
    )
    if len(common.terms()) > 1:  # not a monomial c*t^k: a nonzero root
        raise ValueError(
            "second curve passes through the origin away from t = 0; "
            "its global count is not the local intersection number"
        )
    f2 = implicit_equation(u2, v2)
    composed = f2.subs(
        [(_x, _to_sympy(u1, _t)), (_y, _to_sympy(v1, _t))], simultaneous=True
    )
    composed = sympy.expand(composed)
    if composed == 0:
        raise ValueError("branches coincide; intersection undefined")
    return _order_in_t(composed)


def _truncated_product(a: list, b: list, window: int) -> list:
    out = [sympy.Integer(0)] * (window + 1)
    for i, ca in enumerate(a):
        if ca == 0:
            continue
        for j, cb in enumerate(b):
            if i + j > window:
                break
            if cb != 0:
                out[i + j] += ca * cb
    return [sympy.expand_complex(c) for c in out]


def _coeff_vector(terms: dict, window: int) -> list:
    out = [sympy.Integer(0)] * (window + 1)
    for exp, (re, im) in terms.items():
        if exp <= window:
            out[exp] = sympy.Rational(re) + sympy.Rational(im) * sympy.I
    return out


def oracle_delta(u_terms: dict, v_terms: dict, window: int = 48) -> int:
    """Delta invariant of one branch as the gap count of its value
    semigroup: row-reduce all monomials in the two coordinate series and
    read off which vanishing orders are attained."""
    u = _coeff_vector(u_terms, window)
    v = _coeff_vector(v_terms, window)

    def order_of(vec):
        for i, c in enumerate(vec):
            if sympy.expand_complex(c) != 0:
                return i
        return None

    base_orders = [o for o in (order_of(u), order_of(v)) if o not in (None, 0)]
    if not base_orders:
        raise ValueError("not a branch through the origin")
    mult = min(base_orders)
    if mult == 1:
        return 0

    # all power products U^i V^j of order <= window
    vectors = []
    powers_u = [[sympy.Integer(1)] + [sympy.Integer(0)] * window]
    while True:
        nxt = _truncated_product(powers_u[-1], u, window)
        if order_of(nxt) is None:
            break
        powers_u.append(nxt)
    for pu in powers_u:
        cur = pu
        while True:
            o = order_of(cur)
            if o is None:
                break
            vectors.append(cur)
            cur = _truncated_product(cur, v, window)

    # echelon by leading order: one pivot per attained order
    pivots: dict[int, list] = {}
    for vec in vectors:
        vec = vec[:]
        while True:
            o = order_of(vec)
            if o is None:
                break
            if o not in pivots:
                pivots[o] = vec
                break
            lead = pivots[o][o]
            factor = sympy.expand_complex(vec[o] / lead)
            vec = [
                sympy.expand_complex(a - factor * b) for a, b in zip(vec, pivots[o])
            ]
    attained = sorted(pivots)
    run = 0
    conductor = None
    for n in range(window + 1):
        if n in pivots:
            run += 1
            if run == mult:
                conductor = n - mult + 1
                break
        else:
            run = 0
    if conductor is None:
        raise ValueError(f"window {window} too small to close the semigroup")
    return sum(1 for n in range(1, conductor) if n not in pivots)


def oracle_betti(simplices, orders: dict) -> list[int]:
    """Rational Betti numbers of a weighted complex.  The simplex list is
    closed under faces here; ``orders`` maps sorted vertex tuples to
    group orders (missing ones are 1).  The i-th face f of a simplex s
    enters its boundary with coefficient (-1)^i |G_f| / |G_s|, and the
    ranks are those of dense sympy matrices."""
    closed = set()
    for s in simplices:
        s = tuple(sorted(s))
        for k in range(1, len(s) + 1):
            closed.update(combinations(s, k))
    by_dim: dict[int, list] = {}
    for s in sorted(closed):
        by_dim.setdefault(len(s) - 1, []).append(s)
    top = max(by_dim)
    ranks = [0] * (top + 2)
    for r in range(1, top + 1):
        column = {f: j for j, f in enumerate(by_dim[r - 1])}
        m = sympy.zeros(len(by_dim[r]), len(column))
        for row, s in enumerate(by_dim[r]):
            for i in range(len(s)):
                f = s[:i] + s[i + 1 :]
                m[row, column[f]] = (-1) ** i * sympy.Rational(
                    orders.get(f, 1), orders.get(s, 1)
                )
        ranks[r] = m.rank()
    return [len(by_dim[r]) - ranks[r] - ranks[r + 1] for r in range(top + 1)]


def _text(num: int, den: int) -> str:
    """The "a/b" text of num/den (den > 0) in lowest terms."""
    g = math.gcd(num, den)
    return str(num // g) if den == g else f"{num // g}/{den // g}"


def sweep_row_closed_form(p: int, q: int) -> dict:
    """The sweep row of coprime (p, q) from the cap's closed forms, in
    integers: C0.C0 = p/(p+q), c1(K_X).C0 = -(2p+q+1)/(p+q), the genus
    of C0's domain (p+q-1)/(2(p+q)), the Seifert Euler number (p+q)/p,
    index d = 3, and every check holding."""
    return {
        "p": p,
        "q": q,
        "C0_C0": _text(p, p + q),
        "c1_KX_C0": _text(-(2 * p + q + 1), p + q),
        "genus_C0": _text(p + q - 1, 2 * (p + q)),
        "seifert_euler": _text(p + q, p),
        "index_d": "3",
        "holds": True,
    }
