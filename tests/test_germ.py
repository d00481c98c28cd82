"""Power series arithmetic, equivariant branch germs, and local invariants."""

import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from orbicurves.errors import (
    DistinctBranchesRequired,
    EquivarianceViolated,
    InvalidInput,
    MultiplyCovered,
    PrecisionExhausted,
    UnrepresentableCoefficients,
    ZeroToPrecision,
)
from orbicurves.decode import parse_rational
from orbicurves.exact import GR_I, GR_ONE, GaussianRational
from orbicurves.germ import (
    CurveGerm,
    PowerSeries,
    _normalized_second_coordinate,
    _delta_from_characteristic,
    _series_det,
    _stabilizing_twist,
    characteristic_exponents,
    check_stabilizer,
    germ_from_polynomials,
    intersection_multiplicity,
    self_intersection,
    translate,
)
from orbicurves.lens import SingularityType

from corpus import MINUS_ONE, ONE, branch, gaussian_terms, germ_pairs
from oracles import oracle_delta, oracle_intersection


def series(terms, trunc=32):
    return PowerSeries({e: GaussianRational.of(c) for e, c in terms.items()}, trunc)


class TestPowerSeries:
    def test_addition_and_negation(self):
        a = series({1: 1, 3: 2})
        b = series({1: -1, 2: 5})
        assert (a + b) == series({2: 5, 3: 2})
        assert (a - a).is_zero_to_precision()

    def test_product_truncation_gains_the_other_orders(self):
        # O(z^4) times an order-3 factor is only wrong from z^7 on,
        # so the product keeps min(4 + 3, 4 + 1) = 5 good orders
        a = series({1: 1}, trunc=4)
        b = series({3: 1}, trunc=4)
        prod = a * b
        assert prod.trunc == 5
        assert prod == series({4: 1}, trunc=5)

    def test_product_drops_terms_at_its_truncation(self):
        a = series({2: 1}, trunc=4)
        b = series({1: 1, 3: 7}, trunc=4)
        prod = a * b
        assert prod.trunc == 5
        assert prod.support() == [3]

    def test_order(self):
        a = series({2: 1, 5: 3})
        assert a.order() == 2 and a.support() == [2, 5]

    def test_order_of_zero_raises(self):
        with pytest.raises(ZeroToPrecision):
            PowerSeries.zero().order()

    def test_rejects_negative_exponent_and_bad_trunc(self):
        with pytest.raises(InvalidInput):
            series({-1: 1})
        with pytest.raises(InvalidInput):
            series({1: 1}, trunc=0)

    def test_terms_at_or_above_trunc_dropped(self):
        a = series({1: 1, 9: 4}, trunc=6)
        assert a.support() == [1]

    def test_equality_below_common_truncation(self):
        assert series({1: 1}, trunc=4) == series({1: 1, 5: 9}, trunc=6)
        assert series({1: 1}, trunc=4) != series({1: 1, 3: 9}, trunc=6)

    def test_invert_unit(self):
        u = series({0: 1, 1: -1}, trunc=6)
        inv = u.invert_unit()
        assert inv == series({k: 1 for k in range(6)}, trunc=6)
        assert (u * inv).coeff(0) == GR_ONE

    def test_invert_requires_unit(self):
        with pytest.raises(InvalidInput):
            series({1: 1}).invert_unit()

    def test_divide(self):
        num = series({3: 1, 4: 1}, trunc=8)
        den = series({1: 1}, trunc=8)
        assert num.divide(den) == series({2: 1, 3: 1}, trunc=7)

    def test_divide_rejects_negative_valuation(self):
        with pytest.raises(InvalidInput):
            series({1: 1}).divide(series({2: 1}))

    def test_divide_by_zero_to_precision(self):
        with pytest.raises(ZeroToPrecision):
            series({1: 1}).divide(PowerSeries.zero())

    def test_nth_root_of_unit_series(self):
        u = series({0: 1, 2: 1}, trunc=8)
        r = u.nth_root_of_unit_series(2)
        assert r * r == u

    def test_nth_root_needs_constant_term_one(self):
        with pytest.raises(InvalidInput):
            series({0: 4}).nth_root_of_unit_series(2)

    def test_json_round_trip(self):
        a = PowerSeries({1: GR_I, 4: GaussianRational.of("1/2", "-2")}, trunc=10)
        back = PowerSeries.from_json(
            {"trunc": 10, "terms": [[1, {"re": "0", "im": "1"}], [4, {"re": "1/2", "im": "-2"}]]}
        )
        assert back == a and back.trunc == 10


# A naive reference kernel: a series is (terms, trunc) with terms a dict
# exponent -> (Fraction re, Fraction im) of nonzero coefficients below
# trunc, and every operation follows the textbook recurrences and the
# truncation rules of PowerSeries.  It shares no code with orbicurves.


def _ref(terms, trunc):
    return ({e: c for e, c in terms.items() if c != (0, 0) and (trunc is None or e < trunc)}, trunc)


def _ref_tmin(*truncs):
    finite = [t for t in truncs if t is not None]
    return min(finite) if finite else None


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ref_add(x, y, sign=1):
    out = dict(x[0])
    for e, c in y[0].items():
        out[e] = _gadd(out.get(e, (0, 0)), (sign * c[0], sign * c[1]))
    return _ref(out, _ref_tmin(x[1], y[1]))


def ref_mul(x, y):
    (a, ta), (b, tb) = x, y
    if (ta is None and not a) or (tb is None and not b):
        return ({}, None)
    va, vb = min(a, default=ta), min(b, default=tb)
    # O(z^ta) * y is O(z^(ta + vb)), and x * O(z^tb) is O(z^(tb + va))
    trunc = _ref_tmin(None if ta is None else ta + vb, None if tb is None else tb + va)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = _gadd(out.get(e1 + e2, (0, 0)), _gmul(c1, c2))
    return _ref(out, trunc)


def ref_scale(x, c):
    return _ref({e: _gmul(v, c) for e, v in x[0].items()}, x[1])


def ref_shift(x, k):
    return _ref({e + k: v for e, v in x[0].items()}, None if x[1] is None else x[1] + k)


def ref_invert(x):
    a, trunc = x
    n = a[0][0] ** 2 + a[0][1] ** 2
    inv0 = (a[0][0] / n, -a[0][1] / n)
    out = {0: inv0}
    for k in range(1, 1 if trunc is None else trunc):
        acc = (0, 0)
        for e in range(1, k + 1):
            acc = _gadd(acc, _gmul(a.get(e, (0, 0)), out[k - e]))
        out[k] = _gmul((-inv0[0], -inv0[1]), acc)
    return _ref(out, trunc)


def ref_divide(x, y):
    v = min(y[0])
    trunc = _ref_tmin(x[1], y[1])
    num, den = ref_shift(x, -v), ref_shift(y, -v)
    if trunc is not None:
        num, den = _ref(num[0], trunc - v), _ref(den[0], trunc - v)
    return ref_mul(num, ref_invert(den))


def ref_nth_root(x, n):
    """y with y^n = x below the truncation, y_0 = 1, one coefficient at a
    time: [z^k] y^n = n y_k + [z^k] (y below k)^n."""
    f, trunc = x
    y = {0: (Fraction(1), Fraction(0))}
    for k in range(1, trunc):
        power = ({0: (1, 0)}, None)
        for _ in range(n):
            power = ref_mul(power, (y, None))
        rest = power[0].get(k, (0, 0))
        fk = f.get(k, (0, 0))
        y[k] = (Fraction(fk[0] - rest[0], n), Fraction(fk[1] - rest[1], n))
    return _ref(y, trunc)


def ref_det(matrix):
    """Elimination with the pivot of least order (the first such row),
    one fresh division per entry below the pivot; a column vanishing to
    precision gives zero below its weakest truncation (32 if exact)."""
    m = [row[:] for row in matrix]
    n, sign, pivots = len(m), 1, []
    for k in range(n):
        orders = [(min(m[i][k][0]), i) for i in range(k, n) if m[i][k][0]]
        if not orders:
            t = _ref_tmin(*(m[i][k][1] for i in range(k, n)))
            acc = ({}, 32 if t is None else t)
            for p in pivots:
                acc = ref_mul(acc, p)
            return acc
        best = min(orders)[1]
        if best != k:
            m[k], m[best], sign = m[best], m[k], -sign
        pivots.append(m[k][k])
        for i in range(k + 1, n):
            if m[i][k][0]:
                factor = ref_divide(m[i][k], m[k][k])
                for j in range(k + 1, n):
                    m[i][j] = ref_add(m[i][j], ref_mul(factor, m[k][j]), -1)
    det = ({0: (Fraction(sign), Fraction(0))}, None)
    for p in pivots:
        det = ref_mul(det, p)
    return det


def as_ref(s: PowerSeries):
    return ({e: (s.coeff(e).re, s.coeff(e).im) for e in s.support()}, s.trunc)


def fast(x) -> PowerSeries:
    return PowerSeries({e: GaussianRational(*c) for e, c in x[0].items()}, x[1])


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_nonzero = st.tuples(_fractions, _fractions).filter(lambda c: c != (0, 0))
_coeffs = st.one_of(st.just((Fraction(0), Fraction(0))), _nonzero)
_terms = st.dictionaries(st.integers(0, 9), _coeffs, max_size=6)
_truncs = st.one_of(st.none(), st.integers(1, 10))
# Sylvester-like entries: exact zeros, exact constants, and truncated
# series (possibly zero to precision)
_entries = st.one_of(
    st.just(({}, None)),
    st.builds(lambda c: ({0: c}, None), _nonzero),
    st.tuples(_terms, st.integers(1, 10)).map(lambda t: _ref(*t)),
)


class TestKernelAgainstReference:
    """Every PowerSeries operation gives the reference's coefficients and
    truncation on random Gaussian-rational series."""

    @settings(max_examples=150, deadline=None)
    @given(
        a=st.tuples(_terms, _truncs),
        b=st.tuples(_terms, _truncs),
        c=_nonzero,
        s=_coeffs,
        k=st.integers(0, 3),
        unit_trunc=st.integers(1, 10),
        v=st.integers(0, 3),
        divisor=st.dictionaries(st.integers(0, 6), _nonzero, min_size=1, max_size=4),
        n=st.integers(1, 3),
    )
    def test_operations_match_reference(self, a, b, c, s, k, unit_trunc, v, divisor, n):
        a, b = _ref(*a), _ref(*b)
        fa, fb = fast(a), fast(b)
        assert as_ref(fa) == a and fa == fa.with_truncation(fa.trunc)
        assert as_ref(fa + fb) == ref_add(a, b)
        assert as_ref(fa - fb) == ref_add(a, b, -1)
        assert as_ref(-fa) == ref_add(({}, None), a, -1)
        assert as_ref(fa * fb) == ref_mul(a, b)
        assert as_ref(fa.scale(GaussianRational(*s))) == ref_scale(a, s)
        assert as_ref(fa.shift(k)) == ref_shift(a, k)
        if a[0]:
            assert as_ref(fa.shift(-min(a[0]))) == ref_shift(a, -min(a[0]))

        unit = _ref({**a[0], 0: c}, unit_trunc)
        assert as_ref(fast(unit).invert_unit()) == ref_invert(unit)
        root_input = _ref({**a[0], 0: (Fraction(1), Fraction(0))}, unit_trunc)
        assert as_ref(fast(root_input).nth_root_of_unit_series(n)) == ref_nth_root(root_input, n)

        # numerators of order >= v divided by one divisor of order v, at
        # several truncations, so the divisor's memoised inverse is cut
        low = min(divisor)
        y = _ref({e - low + v: d for e, d in divisor.items()}, b[1] if b[1] is None else b[1] + v)
        fy = fast(y)
        for trunc in (a[1], unit_trunc, None, 10):
            x = ref_shift(_ref(a[0], trunc), v)
            if not x[0]:
                continue
            if x[1] is None and y[1] is None and len(y[0]) > 1:
                with pytest.raises(InvalidInput):
                    fast(x).divide(fy)
            else:
                assert as_ref(fast(x).divide(fy)) == ref_divide(x, y)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 4).flatmap(lambda n: st.lists(st.lists(_entries, min_size=n, max_size=n), min_size=n, max_size=n)))
    def test_series_determinant_matches_reference(self, matrix):
        got = _series_det([[fast(x) for x in row] for row in matrix])
        assert as_ref(got) == ref_det(matrix)

    def test_degree_eight_pair_at_truncation_64(self):
        # the ROADMAP's hot case: 64 orders of two degree-8 branches
        u1, v1 = {8: ("1", "0")}, {9: ("1", "0"), 10: ("1", "0")}
        u2, v2 = {8: ("1", "0")}, {9: ("2", "0"), 11: ("1", "0")}
        got = intersection_multiplicity(
            germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1), trunc=64),
            germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2), trunc=64),
        )
        assert got == 72 == oracle_intersection(u1, v1, u2, v2)


class TestCurveGerm:
    def test_must_pass_through_origin(self):
        with pytest.raises(InvalidInput):
            germ_from_polynomials({0: 1, 1: 1}, {})

    def test_coordinates_must_not_both_vanish(self):
        with pytest.raises(InvalidInput):
            germ_from_polynomials({}, {})

    def test_requires_finite_truncation(self):
        with pytest.raises(InvalidInput):
            CurveGerm(U=PowerSeries({1: GR_ONE}, None), V=PowerSeries.zero())

    def test_stabilizer_divides_group_order(self):
        with pytest.raises(EquivarianceViolated):
            germ_from_polynomials({1: 1}, {}, group=SingularityType(7, 5), m=3)

    def test_equivariance_checked_on_supports(self):
        # z1 + z2-like mixed supports at (5, 3) admit no injective action
        with pytest.raises(EquivarianceViolated):
            germ_from_polynomials({1: 1}, {1: 1}, group=SingularityType(5, 3), m=5)

    def test_weights_frozen_values(self):
        w = germ_from_polynomials({1: 1}, {}, group=SingularityType(7, 5), m=7)
        assert w.weights() == (1, 5)
        w = germ_from_polynomials({}, {1: 1}, group=SingularityType(7, 5), m=7)
        assert w.weights() == (3, 1)
        w = germ_from_polynomials({}, {1: 1}, group=SingularityType(5, 3), m=5)
        assert w.weights() == (2, 1)
        w = germ_from_polynomials({1: 1}, {}, group=SingularityType(5, 3), m=5)
        assert w.weights() == (1, 3)

    def test_trivial_chart_weights(self):
        assert germ_from_polynomials({1: 1}, {2: 1}).weights() == (0, 0)

    def test_multiplicity(self):
        assert germ_from_polynomials({2: 1}, {3: 1}).multiplicity() == 2
        assert germ_from_polynomials({}, {3: 1}).multiplicity() == 3

    def test_json_round_trip(self):
        g = germ_from_polynomials({1: "1/2"}, {}, group=SingularityType(7, 5), m=7)
        g = translate(g, 3)
        back = CurveGerm.from_json({
            "U": {"trunc": 32, "terms": [[1, {"re": "1/2", "im": "0"}]]},
            "V": {"trunc": 32, "terms": []},
            "group": [7, 5],
            "m": 7,
            "twist": 3,
        })
        assert back == g and back.twist == 3 and back.m == 7


class TestGermBoundary:
    """germ_from_polynomials builds the numerators directly; they must
    equal the PowerSeries constructor's for every coefficient kind."""

    @pytest.mark.parametrize(
        "terms",
        [
            {1: 1, 3: -2, 4: 0},
            {1: Fraction(1, 3), 2: Fraction(-5, 4)},
            {1: "2/9", 4: "-7", 5: "0"},
            {2: GaussianRational(Fraction(1, 6), Fraction(-3, 4)), 5: GR_I},
            {1: 2, 2: Fraction(1, 6), 3: "3/10", 4: GaussianRational(Fraction(0), Fraction(5, 4))},
        ],
        ids=["int", "fraction", "string", "gaussian", "mixed_denominators"],
    )
    def test_numerators_match_constructor(self, terms):
        values = {
            e: c if isinstance(c, GaussianRational)
            else GaussianRational.of(parse_rational(c) if isinstance(c, str) else c)
            for e, c in terms.items()
        }
        ref = PowerSeries(values, 16)
        assert {e: ref.coeff(e) for e in ref.support()} == {
            e: c for e, c in values.items() if c != GaussianRational.of(0)
        }
        for g, s in (
            (germ_from_polynomials(terms, {}, trunc=16), "U"),
            (germ_from_polynomials({1: 1}, terms, trunc=16), "V"),
        ):
            got = getattr(g, s)
            assert (got.num, got.den, got.trunc) == (ref.num, ref.den, ref.trunc)

    def test_translate_without_a_twist_change_is_the_germ(self):
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(4, 1))
        assert translate(g, 0) == g
        assert translate(g, 4) is g

    def test_nonzero_twist_revalidates(self, monkeypatch):
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(4, 1))
        assert translate(g, 1).twist == 1

        def refuse(self):
            raise EquivarianceViolated("validation ran")

        monkeypatch.setattr(CurveGerm, "_solve_equivariance", refuse)
        assert translate(g, 0) is g
        with pytest.raises(EquivarianceViolated, match="validation ran"):
            translate(g, 1)


class TestOrbits:
    def test_orbit_size_and_base(self):
        g = germ_from_polynomials({1: 1, 2: 1}, {1: 1}, group=SingularityType(3, 1))
        check_stabilizer(g)
        assert g.orbit_size == 3

    def test_orbit_rejects_understated_stabilizer(self):
        # z^3 is fixed by the full Z_3 translate action, so m = 1 is wrong
        g = germ_from_polynomials({3: 1}, {}, group=SingularityType(3, 1), m=1)
        with pytest.raises(EquivarianceViolated):
            check_stabilizer(g)

    def test_materialize_fourth_roots(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(4, 1), m=4)
        leads = []
        for k in range(4):
            u, _ = translate(g, k).materialize()
            leads.append(u.coeff(1))
        assert leads == [GR_ONE, GR_I, -GR_ONE, -GR_I]

    def test_materialize_outside_gaussian_field(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        with pytest.raises(UnrepresentableCoefficients):
            translate(g, 1).materialize()


def _weighted_exponents(a, b, u_exps, v_exps):
    return [(j, 1) for j in u_exps] + [(j, b) for j in v_exps]


def _least_fixing_twist(a, b, u_exps, v_exps):
    """Least d in 1..a for which some x in Z_N solves j*x = d*t_j (mod N),
    t_j = N/a on U's exponents and b*N/a on V's, by trying every pair."""
    exps = _weighted_exponents(a, b, u_exps, v_exps)
    n = a * math.lcm(*(j for j, _ in exps))
    for d in range(1, a + 1):
        for x in range(n):
            if all((j * x - d * w * (n // a)) % n == 0 for j, w in exps):
                return d


def _least_rho_exponent(a, b, m, u_exps, v_exps):
    """(s, reason) by trying every s in [0, a): the least s with
    gcd(s, a) = a/m and j*(a/m) = s*w (mod a) on every weighted exponent;
    reason names the failure when there is none."""
    k = a // m
    exps = _weighted_exponents(a, b, u_exps, v_exps)
    solves = [s for s in range(a) if all((w * s - j * k) % a == 0 for j, w in exps)]
    valid = [s for s in solves if math.gcd(s, a) == k]
    if valid:
        return valid[0], None
    return None, "no injective" if solves else "not equivariant"


_chart_types = st.integers(2, 12).flatmap(
    lambda a: st.tuples(
        st.just(a), st.sampled_from([b for b in range(a) if b == 0 or math.gcd(a, b) == 1])
    )
)
_exponent_sets = st.sets(st.integers(1, 5), max_size=3)


class TestImplicitOrbits:
    @settings(max_examples=100, deadline=None)
    @given(chart=_chart_types, u_exps=_exponent_sets, v_exps=_exponent_sets)
    @example(chart=(6, 1), u_exps={1}, v_exps={3})
    @example(chart=(4, 1), u_exps=set(), v_exps={1, 3})
    def test_closed_form_stabilizer_matches_search(self, chart, u_exps, v_exps):
        assume(u_exps or v_exps)
        a, b = chart
        # m = 1 is equivariant for any supports, so every germ constructs
        g = germ_from_polynomials(
            {j: 1 for j in u_exps}, {j: 1 for j in v_exps}, group=SingularityType(a, b)
        )
        d = _least_fixing_twist(a, b, u_exps, v_exps)
        assert _stabilizing_twist(g) == d
        if d < a:
            with pytest.raises(EquivarianceViolated, match=f"translate by {d} fixes"):
                check_stabilizer(g)
        else:
            check_stabilizer(g)
            assert g.orbit_size == a

    @settings(max_examples=150, deadline=None)
    @given(chart=_chart_types, m_pick=st.integers(0, 11),
           u_exps=_exponent_sets, v_exps=_exponent_sets)
    def test_equivariance_exponent_matches_search(self, chart, m_pick, u_exps, v_exps):
        assume(u_exps or v_exps)
        a, b = chart
        divisors = [m for m in range(1, a + 1) if a % m == 0]
        m = divisors[m_pick % len(divisors)]
        s, reason = _least_rho_exponent(a, b, m, u_exps, v_exps)

        def build():
            return germ_from_polynomials(
                {j: 1 for j in u_exps}, {j: 1 for j in v_exps}, group=SingularityType(a, b), m=m
            )

        if s is None:
            with pytest.raises(EquivarianceViolated, match=reason):
                build()
        else:
            u = s // (a // m)
            assert build().weights() == (u % m, u * b % m)

    def test_equivariance_solve_does_not_walk_the_group(self):
        start = time.perf_counter()
        g = germ_from_polynomials({}, {2: 1}, group=SingularityType(10**40, 0), m=2)
        assert g.weights() == (1, 0)
        assert time.perf_counter() - start < 1

    def test_orbit_larger_than_an_index(self):
        a = 10**40 + 1
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(a, 1))
        start = time.perf_counter()
        check_stabilizer(g)
        assert time.perf_counter() - start < 1
        assert g.orbit_size == a

    def test_fixed_orbit_skips_the_stabilizer(self, monkeypatch):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(7, 5), m=7)
        monkeypatch.setattr("orbicurves.germ._stabilizing_twist", None)
        check_stabilizer(g)
        assert g.orbit_size == 1


class TestIntersection:
    def test_frozen_values(self):
        ax = germ_from_polynomials({1: 1}, {})
        ay = germ_from_polynomials({}, {1: 1})
        par = germ_from_polynomials({1: 1}, {2: 1})
        cusp = germ_from_polynomials({2: 1}, {3: 1})
        assert intersection_multiplicity(ax, ay) == 1
        assert intersection_multiplicity(par, ax) == 2
        assert intersection_multiplicity(par, ay) == 1
        assert intersection_multiplicity(cusp, ax) == 3
        assert intersection_multiplicity(cusp, ay) == 2

    def test_tangent_parabolas(self):
        up = germ_from_polynomials({1: 1}, {2: 1})
        down = germ_from_polynomials({1: 1}, {2: -1})
        assert intersection_multiplicity(up, down) == 2

    def test_high_contact_pair(self):
        cusp = germ_from_polynomials({2: 1}, {3: 1})
        near = germ_from_polynomials({2: 1}, {3: 1, 4: 1})
        assert intersection_multiplicity(cusp, near) == 7

    def test_symmetry(self):
        a = germ_from_polynomials({2: 1}, {3: 1})
        b = germ_from_polynomials({1: 1}, {2: 1})
        assert intersection_multiplicity(a, b) == intersection_multiplicity(b, a)

    def test_identical_data_rejected(self):
        # the same germ twice at one stored truncation
        for u, v, trunc in (({1: 1}, {2: 1}, 8), ({1: 1}, {2: 1}, 32), ({1: 1}, {2: 1, 9: 1}, 32)):
            g = germ_from_polynomials(u, v, trunc=trunc)
            h = germ_from_polynomials(u, v, trunc=trunc)
            with pytest.raises(DistinctBranchesRequired, match="identical data"):
                intersection_multiplicity(g, h)

    @pytest.mark.parametrize("flip", [False, True])
    def test_agreement_below_the_smaller_truncation_is_unresolved(self, flip):
        # (t, t^2) known below 8 may be (t, t^2 + t^9) or may meet it to
        # any order from 8 on: not identical data, and no value either
        pair = (germ_from_polynomials({1: 1}, {2: 1}, trunc=8),
                germ_from_polynomials({1: 1}, {2: 1, 9: 1}, trunc=32))
        with pytest.raises(PrecisionExhausted, match="resultant vanishes"):
            intersection_multiplicity(*(pair[::-1] if flip else pair))

    def test_shared_axis_rejected(self):
        g = germ_from_polynomials({}, {1: 1})
        h = germ_from_polynomials({}, {2: 1, 3: 1})
        with pytest.raises(DistinctBranchesRequired):
            intersection_multiplicity(g, h)

    def test_chart_mismatch_rejected(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        h = germ_from_polynomials({}, {1: 1})
        with pytest.raises(InvalidInput):
            intersection_multiplicity(g, h)

    def test_same_branch_different_data_exhausts_precision(self):
        # (t^2, t^3) and (t^2, -t^3) parametrize one branch; the
        # resultant is identically zero and the data cannot certify it
        g = germ_from_polynomials({2: 1}, {3: 1})
        h = germ_from_polynomials({2: 1}, {3: -1})
        with pytest.raises(PrecisionExhausted):
            intersection_multiplicity(g, h)

    def test_twisted_translate_changes_the_count(self):
        base = germ_from_polynomials(
            {1: 1}, {2: 1}, group=SingularityType(2, 1), m=1
        )
        other = germ_from_polynomials(
            {1: 1}, {2: 1, 3: 1}, group=SingularityType(2, 1), m=1
        )
        # the translate negates both coordinates, moving third-order
        # contact with the base parabola down to second order
        assert intersection_multiplicity(base, other) == 3
        assert intersection_multiplicity(base, translate(other, 1)) == 2

    def test_matches_independent_oracle_on_sample(self):
        for (n1, u1, v1), (n2, u2, v2) in germ_pairs()[::13]:
            got = intersection_multiplicity(
                germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1)),
                germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2)),
            )
            assert got == oracle_intersection(u1, v1, u2, v2), (n1, n2)


# gamma = (s - s^2, s^2 - s^3) passes through the origin at s = 0 and again
# at s = 1, where its coordinates share the root of 1 - s
SECOND_PASS = ({1: ONE, 2: MINUS_ONE}, {2: ONE, 3: MINUS_ONE})


def _compose_with_sigma(terms: dict) -> dict:
    """Raw terms of P(s - s^2) from raw terms of P, with
    (s - s^2)^e = sum_j (-1)^j binom(e, j) s^(e + j)."""
    out: dict[int, tuple] = {}
    for e, (re, im) in terms.items():
        for j in range(e + 1):
            c = (-1) ** j * math.comb(e, j)
            r0, i0 = out.get(e + j, (Fraction(0), Fraction(0)))
            out[e + j] = (r0 + c * Fraction(re), i0 + c * Fraction(im))
    return {e: (str(r), str(i)) for e, (r, i) in out.items() if r or i}


class TestLocality:
    """The intersection number counts only the branches at the origin:
    a second pass of a curve through the origin adds nothing, in either
    argument order."""

    def test_second_pass_is_not_counted(self):
        axis = germ_from_polynomials({1: 1}, {})
        gamma = germ_from_polynomials(*map(gaussian_terms, SECOND_PASS))
        assert intersection_multiplicity(axis, gamma) == 2
        assert intersection_multiplicity(gamma, axis) == 2

    def test_second_pass_is_not_counted_on_a_translate(self):
        z2 = SingularityType(2, 1)
        g1 = germ_from_polynomials(
            {3: 3, 4: -2},
            {4: GaussianRational.of("2", "-1"), 5: -2, 6: 2, 7: GaussianRational.of("-1", "1")},
            group=z2,
        )
        g2 = germ_from_polynomials(*map(gaussian_terms, SECOND_PASS), group=z2)
        assert intersection_multiplicity(g1, translate(g2, 1)) == 4
        assert intersection_multiplicity(g2, translate(g1, 1)) == 4

    def test_global_oracle_refuses_a_second_pass(self):
        with pytest.raises(ValueError, match="away from t = 0"):
            oracle_intersection({1: ONE}, {}, *SECOND_PASS)

    @settings(max_examples=60, deadline=None)
    @given(pair=st.sampled_from(germ_pairs()), flip=st.booleans())
    def test_reparametrized_second_pass_is_not_counted(self, pair, flip):
        # sigma(s) = s - s^2 fixes the germ at s = 0 and sends s = 1 to 0
        # too, so gamma2 o sigma passes through the origin twice
        (n1, u1, v1), (n2, u2, v2) = pair[::-1] if flip else pair
        try:
            want = oracle_intersection(u1, v1, u2, v2)
        except ValueError:  # gamma2 itself passes through the origin again
            assume(False)
        cu, cv = _compose_with_sigma(u2), _compose_with_sigma(v2)
        trunc = 64
        assert max(cu.keys() | cv.keys()) < trunc  # the stored data are exact
        g1 = germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1), trunc=trunc)
        g2 = germ_from_polynomials(gaussian_terms(cu), gaussian_terms(cv), trunc=trunc)
        assert intersection_multiplicity(g1, g2) == want, (n1, n2)
        assert intersection_multiplicity(g2, g1) == want, (n2, n1)


class TestDepthOnDemand:
    """The normal form is built only as deep as each invariant needs, so
    a large stored truncation costs little.  Each case took seconds when
    W was built to the full truncation."""

    def test_cusp_delta_at_truncation_250(self):
        g = germ_from_polynomials({2: 1, 3: 1}, {3: 1}, trunc=250)
        start = time.perf_counter()
        assert self_intersection(g) == 1
        assert time.perf_counter() - start < 0.5

    def test_degree_eight_pair_at_truncation_250(self):
        u1, v1 = {8: ONE, 9: ONE}, {10: ONE, 13: ("2", "0")}
        u2, v2 = {8: ONE, 11: MINUS_ONE}, {9: ONE, 15: ONE}
        g1 = germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1), trunc=250)
        g2 = germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2), trunc=250)
        start = time.perf_counter()
        got = (intersection_multiplicity(g1, g2), intersection_multiplicity(g2, g1))
        assert time.perf_counter() - start < 0.5
        assert got == (72, 72) == (oracle_intersection(u1, v1, u2, v2),) * 2


class TestNormalFormPrecision:
    """W is known below min(v.trunc, depth, ord W + u.trunc - n): the unit
    U/(lead t^n) is known below u.trunc - n, which is W's relative
    precision."""

    def test_deep_singularity_resolves_at_truncation_8(self):
        # (t^6, t^7) stored at 8: W = t^7 is known below 8, where the old
        # bound u.trunc - n + 1 = 3 fell short of the multiplicity
        g = germ_from_polynomials({6: 1}, {7: 1}, trunc=8)
        assert characteristic_exponents(g) == (6, [7])
        assert self_intersection(g) == 15

    @pytest.mark.parametrize("seed", range(6))
    def test_every_completion_of_u_gives_the_same_w(self, seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4])
        u_trunc = n + rng.randint(1, 4)
        u = {n: rng.choice([1, 2, -3])}
        u.update({e: rng.randint(-2, 2) for e in range(n + 1, u_trunc)})
        v_order = rng.randint(n + 1, 2 * n + 2)
        v = {e: rng.randint(-2, 2) for e in range(v_order + 1, 24)}
        v[v_order] = 1
        depth = rng.choice([8, 16, 32])
        w = _normalized_second_coordinate(series(u, u_trunc), series(v, 24), n, depth)
        assert w.trunc == min(24, depth, v_order + u_trunc - n)
        for _ in range(3):
            tail = {e: rng.randint(-3, 3) for e in range(u_trunc, 24)}
            other = _normalized_second_coordinate(series({**u, **tail}, 24), series(v, 24), n, depth)
            assert w == other  # compared below w.trunc <= other.trunc


class TestBranchInvariants:
    def test_characteristic_exponents_cusp(self):
        assert characteristic_exponents(germ_from_polynomials({2: 1}, {3: 1})) == (
            2,
            [3],
        )

    def test_characteristic_exponents_two_pairs(self):
        g = germ_from_polynomials({4: 1}, {6: 1, 7: 1})
        assert characteristic_exponents(g) == (4, [6, 7])
        assert self_intersection(g) == 8

    def test_smooth_branch_has_delta_zero(self):
        assert self_intersection(germ_from_polynomials({1: 1}, {5: 3})) == 0

    @pytest.mark.parametrize(
        "lead",
        [2, 2 * (10**33 + 3) * (10**33 + 7), 2 * 10**400 + 1],
        ids=["two", "large-composite", "beyond-float-range"],
    )
    def test_cusp_with_hostile_leading_coefficient(self, lead):
        # no n-th root of the leading coefficient is taken, so leads
        # without a root in Q(i), hard to factor, or too large for a
        # float all give the plain cusp
        g = germ_from_polynomials({2: lead}, {3: 1})
        assert characteristic_exponents(g) == (2, [3])
        assert self_intersection(g) == 1

    def test_multiple_cover_rejected(self):
        g = germ_from_polynomials({2: 1}, {4: 1})
        with pytest.raises(MultiplyCovered):
            self_intersection(g)

    def test_odd_milnor_number_is_checked(self):
        # beta0 = 2 with no characteristic exponent gives mu = -1, which
        # must raise, also under python -O
        with pytest.raises(ArithmeticError, match="Milnor number must be even"):
            _delta_from_characteristic(2, [])

    def test_matches_independent_delta_oracle_on_sample(self):
        for name in ["cusp", "e6", "e8", "quint_cusp", "two_pair", "mult6"]:
            u, v = branch(name)
            g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
            assert self_intersection(g) == oracle_delta(u, v), name
