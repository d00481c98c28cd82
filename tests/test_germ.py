"""Power series arithmetic, equivariant branch germs, and local invariants."""

import itertools
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import orbicurves.germ as germ_module
from orbicurves.errors import (
    DistinctBranchesRequired,
    EquivarianceViolated,
    InvalidInput,
    PrecisionExhausted,
    UnrepresentableCoefficients,
    ZeroToPrecision,
)
from orbicurves.decode import parse_rational
from orbicurves.exact import GR_ONE, GaussianRational
from orbicurves.germ import (
    _UNFIXED_DELTA,
    _UNFIXED_PAIR,
    DEFAULT_TRUNCATION,
    CurveGerm,
    PowerSeries,
    _blow_up,
    _rotated,
    germ_from_polynomials,
    intersection_multiplicity,
    self_intersection,
)
from orbicurves.lens import SingularityType

from corpus import I_UNIT, MINUS_ONE, ONE, branch, gaussian_terms, germ_pairs
from oracles import oracle_delta, oracle_intersection

I = GaussianRational.of(0, 1)


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
        a = PowerSeries({1: I, 4: GaussianRational.of("1/2", "-2")}, trunc=10)
        back = PowerSeries.from_json(
            {"trunc": 10, "terms": [[1, {"re": "0", "im": "1"}], [4, {"re": "1/2", "im": "-2"}]]}
        )
        assert back == a and back.trunc == 10


# A naive reference kernel: a series is (terms, trunc) with terms a dict
# exponent -> (Fraction re, Fraction im) of nonzero coefficients below
# trunc, and every operation follows the textbook recurrences and the
# truncation rules of PowerSeries.  It shares no code with orbicurves.


def _ref(terms, trunc):
    return ({e: c for e, c in terms.items() if c != (0, 0) and e < trunc}, trunc)


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


def ref_add(x, y, sign=1):
    out = dict(x[0])
    for e, c in y[0].items():
        out[e] = _gadd(out.get(e, (0, 0)), (sign * c[0], sign * c[1]))
    return _ref(out, min(x[1], y[1]))


def ref_mul(x, y):
    (a, ta), (b, tb) = x, y
    va, vb = min(a, default=ta), min(b, default=tb)
    # O(z^ta) * y is O(z^(ta + vb)), and x * O(z^tb) is O(z^(tb + va))
    trunc = min(ta + vb, tb + va)
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = _gadd(out.get(e1 + e2, (0, 0)), _gmul(c1, c2))
    return _ref(out, trunc)


def ref_scale(x, c):
    return _ref({e: _gmul(v, c) for e, v in x[0].items()}, x[1])


def ref_shift(x, k):
    return _ref({e + k: v for e, v in x[0].items()}, x[1] + k)


def ref_invert(x):
    a, trunc = x
    n = a[0][0] ** 2 + a[0][1] ** 2
    inv0 = (a[0][0] / n, -a[0][1] / n)
    out = {0: inv0}
    for k in range(1, trunc):
        acc = (0, 0)
        for e in range(1, k + 1):
            acc = _gadd(acc, _gmul(a.get(e, (0, 0)), out[k - e]))
        out[k] = _gmul((-inv0[0], -inv0[1]), acc)
    return _ref(out, trunc)


def ref_divide(x, y):
    v = min(y[0])
    return ref_mul(ref_shift(x, -v), ref_invert(ref_shift(y, -v)))


def ref_nth_root(x, n):
    """y with y^n = x below the truncation, y_0 = 1, one coefficient at a
    time: [z^k] y^n = n y_k + [z^k] (y below k)^n."""
    f, trunc = x
    y = {0: (Fraction(1), Fraction(0))}
    for k in range(1, trunc):
        power = ({0: (1, 0)}, trunc)
        for _ in range(n):
            power = ref_mul(power, (y, trunc))
        rest = power[0].get(k, (0, 0))
        fk = f.get(k, (0, 0))
        y[k] = (Fraction(fk[0] - rest[0], n), Fraction(fk[1] - rest[1], n))
    return _ref(y, trunc)


def as_ref(s: PowerSeries):
    return ({e: (s.coeff(e).re, s.coeff(e).im) for e in s.support()}, s.trunc)


def fast(x) -> PowerSeries:
    return PowerSeries({e: GaussianRational(*c) for e, c in x[0].items()}, x[1])


_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
_nonzero = st.tuples(_fractions, _fractions).filter(lambda c: c != (0, 0))
_coeffs = st.one_of(st.just((Fraction(0), Fraction(0))), _nonzero)
_terms = st.dictionaries(st.integers(0, 9), _coeffs, max_size=6)
_truncs = st.integers(1, 10)


class TestKernelAgainstReference:
    """Every PowerSeries operation gives the reference's coefficients and
    truncation on random Gaussian-rational series."""

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
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
        assert as_ref(-fa) == ref_add(({}, a[1]), a, -1)
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
        # truncations below, at and above the divisor's
        low = min(divisor)
        y = _ref({e - low + v: d for e, d in divisor.items()}, b[1] + v)
        fy = fast(y)
        for trunc in (a[1], unit_trunc, 10):
            x = ref_shift(_ref(a[0], trunc), v)
            if x[0]:
                assert as_ref(fast(x).divide(fy)) == ref_divide(x, y)

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
            PowerSeries({1: GR_ONE}, None)

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

    def test_axis_germ_is_the_constructed_germ(self):
        # the closed form against the constructor's own solve, on every
        # chart type up to order 40, the weight 0 included
        for a in range(1, 41):
            for b in range(a):
                if a > 1 and b and math.gcd(a, b) != 1:
                    continue
                group = SingularityType(a, b)
                for first in (True, False):
                    u, v = ({1: 1}, {}) if first else ({}, {1: 1})
                    try:
                        want = germ_from_polynomials(u, v, group=group, m=a)
                    except EquivarianceViolated:
                        with pytest.raises(EquivarianceViolated):
                            germ_module.axis_germ(first, group)
                        continue
                    got = germ_module.axis_germ(first, group)
                    assert got == want and got.group is group, (a, b, first)
                    assert got.weights() == want.weights(), (a, b, first)
                    assert (got.U.trunc, got.V.trunc) == (want.U.trunc, want.V.trunc)

    def test_json_round_trip(self):
        g = germ_from_polynomials({1: "1/2"}, {}, group=SingularityType(7, 5), m=7)
        back = CurveGerm.from_json({
            "U": {"trunc": 32, "terms": [[1, {"re": "1/2", "im": "0"}]]},
            "V": {"trunc": 32, "terms": []},
            "group": [7, 5],
            "m": 7,
        })
        assert back == g and back.m == 7


class TestGermBoundary:
    """germ_from_polynomials, PowerSeries and GaussianRational.of read a
    coefficient one way: an int, a Fraction, an "a/b" string or a
    GaussianRational gives the numerators of its GaussianRational, and
    no float's binary expansion or bool's truth value is read at all."""

    @pytest.mark.parametrize("bad", [
        0.1, True, None, 1 + 0j,
        # a GaussianRational built directly skips of, so its parts are read
        GaussianRational(0.5, Fraction(0)), GaussianRational(True, Fraction(0)),
    ], ids=["float", "bool", "none", "complex", "float_part", "bool_part"])
    @pytest.mark.parametrize("build", [
        lambda c: PowerSeries({1: c}),
        lambda c: germ_from_polynomials({1: c}, {}),
        GaussianRational.of,
        lambda c: GaussianRational.of(1, c),
    ], ids=["series", "germ_from_polynomials", "real_part", "imaginary_part"])
    def test_rejects_a_value_that_is_not_exact(self, build, bad):
        with pytest.raises(InvalidInput):
            build(bad)

    @pytest.mark.parametrize("exponent", [True, 1.5, 2.0, "2", None],
                             ids=["bool", "float", "integral_float", "string", "none"])
    @pytest.mark.parametrize("build", [
        lambda e: PowerSeries({e: 1}),
        lambda e: germ_from_polynomials({1: 1}, {e: 1}),
    ], ids=["series", "germ_from_polynomials"])
    def test_rejects_an_exponent_that_is_not_an_int(self, build, exponent):
        with pytest.raises(InvalidInput, match="series exponent: expected an integer"):
            build(exponent)

    def test_an_int_a_string_and_a_gaussian_rational_agree(self):
        assert PowerSeries({1: 1}) == PowerSeries({1: "1"}) == PowerSeries({1: GR_ONE})
        assert series({1: 3}).scale(Fraction(1, 3)) == series({1: 3}).scale("1/3") == series({1: 1})

    @pytest.mark.parametrize(
        "terms",
        [
            {1: 1, 3: -2, 4: 0},
            {1: Fraction(1, 3), 2: Fraction(-5, 4)},
            {1: "2/9", 4: "-7", 5: "0"},
            {2: GaussianRational(Fraction(1, 6), Fraction(-3, 4)), 5: I},
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


class TestOrbits:
    def test_orbit_size_and_base(self):
        g = germ_from_polynomials({1: 1, 2: 1}, {1: 1}, group=SingularityType(3, 1))
        assert g.orbit_size == 3

    def test_orbit_takes_the_stabilizer_of_a_completion(self):
        # z^3 + O(z^32) is fixed by every Z_3 translate, but its completion
        # z^3 + z^32 + z^33 by none, so the stated m = 1 builds
        g = germ_from_polynomials({3: 1}, {}, group=SingularityType(3, 1), m=1)
        assert (g.orbit_size, g.weights()) == (3, (0, 0))

    def test_materialize_fourth_roots(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(4, 1), m=4)
        assert [_rotated(g, k)[0].coeff(1) for k in range(4)] == [GR_ONE, I, -GR_ONE, -I]

    def test_materialize_outside_gaussian_field(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        with pytest.raises(UnrepresentableCoefficients):
            _rotated(g, 1)


def _verdict(a, b, m, u_exps, v_exps):
    """What the constructor must do with the germ of supports u_exps and
    v_exps at type (a, b) and stated stabilizer order m, by trying every
    exponent: its weights, or the message it raises.

    An exponent s in [0, a) is equivariant when j*k = s*w (mod a) on
    every weighted exponent, k = a/m and w = 1 on U's exponents and b on
    V's, and injective when gcd(s, a) = k."""
    k = a // m
    exps = [(j, 1) for j in u_exps] + [(j, b) for j in v_exps]
    solves = [s for s in range(a) if all((w * s - j * k) % a == 0 for j, w in exps)]
    if not solves:
        return f"germ is not equivariant for group [{a}, {b}] with m={m}"
    valid = [s for s in solves if math.gcd(s, a) == k]
    if not valid:
        return f"no injective order-{m} action is compatible with the germ supports"
    u = valid[0] // k
    return (u % m, u * b % m)


def _least_fixing_twist(a, b, u_exps, v_exps):
    """The least d in 1..a whose translate carries the germ of supports
    u_exps and v_exps at type (a, b) onto itself through some z -> c z,
    by trying every c = mu_N^x, N = a*gcd(supp): c^j = mu_a^(d*w) on
    every weighted exponent puts c^gcd(supp) in mu_a, so c in mu_N."""
    exps = [(j, 1) for j in u_exps] + [(j, b) for j in v_exps]
    n = a * math.gcd(*(j for j, _ in exps))
    return next(d for d in range(1, a + 1)
                if any(all((j * x - d * w * (n // a)) % n == 0 for j, w in exps) for x in range(n)))


def _outcome(a, b, m, u_exps, v_exps, trunc=DEFAULT_TRUNCATION):
    """The constructor's weights, or the message it raises."""
    try:
        return germ_from_polynomials(
            {j: 1 for j in u_exps}, {j: 1 for j in v_exps}, group=SingularityType(a, b), m=m,
            trunc=trunc,
        ).weights()
    except EquivarianceViolated as exc:
        return str(exc)


_chart_types = st.integers(2, 12).flatmap(
    lambda a: st.tuples(
        st.just(a), st.sampled_from([b for b in range(a) if b == 0 or math.gcd(a, b) == 1])
    )
)
_exponent_sets = st.sets(st.integers(1, 5), max_size=3)


class TestImplicitOrbits:
    def test_stated_m_reads_the_jet(self):
        # (t + O(t^2), t + O(t^2)) at type (4, 1): its stored terms (t, t)
        # are fixed by every translate, but its completions need not be,
        # so it builds with every m; its completion (t + t^2, t) is
        # equivariant only for m = 1
        chart = SingularityType(4, 1)

        def stated(u, trunc):
            built = []
            for m in (1, 2, 4):
                try:
                    germ_from_polynomials(u, {1: 1}, group=chart, m=m, trunc=trunc)
                except EquivarianceViolated:
                    continue
                built.append(m)
            return built

        assert stated({1: 1}, 2) == [1, 2, 4]
        assert stated({1: 1, 2: 1}, 32) == [1]

    def test_constructor_matches_the_verdict_oracle_on_a_grid(self):
        # a <= 8, every b, every m | a, supports within {1..4} of size <= 2:
        # each germ is accepted with the oracle's weights or rejected with
        # its message.  Each accepted germ, stored below T = 32 with
        # weights (u, u*b), has the completion adding U terms z^j and
        # z^(j+m), j >= T and j = u (mod m): it builds at the same m with
        # the same weights, its exponents have gcd 1, and its least fixing
        # twist is a/m, so its stabilizer is exactly m
        charts = [(a, b, m) for a in range(1, 9)
                  for b in range(a) if b == 0 or math.gcd(a, b) == 1
                  for m in range(1, a + 1) if a % m == 0]
        supports = [set(c) for r in range(3) for c in itertools.combinations(range(1, 5), r)]
        germs = [(*chart, u, v) for chart in charts for u in supports for v in supports if u or v]
        assert len(germs) == 9120
        accepted = 0
        for germ in germs:
            got = _outcome(*germ)
            assert got == _verdict(*germ), germ
            if isinstance(got, str):
                continue
            accepted += 1
            a, b, m, u, v = germ
            j = DEFAULT_TRUNCATION + (got[0] - DEFAULT_TRUNCATION) % m
            done = u | {j, j + m}
            assert _outcome(a, b, m, done, v, trunc=j + m + 1) == got, germ
            assert math.gcd(*done, *v) == 1, germ
            assert _least_fixing_twist(a, b, done, v) == a // m, germ
        assert accepted == 3951

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chart=_chart_types, u_exps=_exponent_sets, v_exps=_exponent_sets)
    @example(chart=(6, 1), u_exps={1}, v_exps={3})
    @example(chart=(4, 1), u_exps=set(), v_exps={1, 3})
    def test_closed_form_stabilizer_matches_search(self, chart, u_exps, v_exps):
        assume(u_exps or v_exps)
        a, b = chart
        # m = 1 is equivariant and injective for any supports: a
        # completion fixed by no translate has it
        assert _verdict(a, b, 1, u_exps, v_exps) == _outcome(a, b, 1, u_exps, v_exps) == (0, 0)
        g = germ_from_polynomials(
            {j: 1 for j in u_exps}, {j: 1 for j in v_exps}, group=SingularityType(a, b)
        )
        assert g.orbit_size == a

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(chart=_chart_types, m_pick=st.integers(0, 11),
           u_exps=_exponent_sets, v_exps=_exponent_sets)
    def test_equivariance_exponent_matches_search(self, chart, m_pick, u_exps, v_exps):
        assume(u_exps or v_exps)
        a, b = chart
        divisors = [m for m in range(1, a + 1) if a % m == 0]
        m = divisors[m_pick % len(divisors)]
        assert _outcome(a, b, m, u_exps, v_exps) == _verdict(a, b, m, u_exps, v_exps)

    def test_equivariance_solve_does_not_walk_the_group(self, monkeypatch):
        # (t, 0) at type (10^40, 1) is fixed by the whole group, so m = a;
        # one modular inverse per support exponent and one for the exponent
        # equation, not a walk over Z_a, decide the stated m
        a = 10**40
        inverses = _counted_inverses(monkeypatch)
        start = time.perf_counter()
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(a, 1), m=a)
        assert time.perf_counter() - start < 1
        assert len(inverses) <= len(g.U.num) + len(g.V.num) + 1
        assert g.weights() == (1, 1)

    def test_orbit_larger_than_an_index(self, monkeypatch):
        a = 10**40 + 1
        inverses = _counted_inverses(monkeypatch)
        start = time.perf_counter()
        g = germ_from_polynomials({1: 1}, {2: 1}, group=SingularityType(a, 1))
        assert time.perf_counter() - start < 1
        assert len(inverses) <= len(g.U.num) + len(g.V.num) + 1
        assert g.orbit_size == a


def _counted_inverses(monkeypatch):
    """The list of moduli of the pow(x, -1, n) calls that germ makes from
    now on, through a pow shadowed in its globals."""
    moduli = []

    def counted(x, e, n=None):
        if e == -1:
            moduli.append(n)
        return pow(x, e, n)

    monkeypatch.setitem(vars(germ_module), "pow", counted)
    return moduli


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
        with pytest.raises(PrecisionExhausted, match="do not fix the intersection number"):
            intersection_multiplicity(*(pair[::-1] if flip else pair))

    def test_shared_axis_rejected(self):
        # a coordinate zero to precision bounds its order below by its
        # truncation: (O(t^T), t) and (O(t^T), 2t) may be (t^(T+1), t) and
        # (t^(T+2), 2t), distinct branches, so no value is fixed and the
        # data are not identical (exit 1, not 2), on either axis
        pairs = [(germ_from_polynomials({}, {1: 1}), germ_from_polynomials({}, {2: 1, 3: 1}))]
        for trunc in (8, 32, 256):
            zero = PowerSeries.zero(trunc)
            lines = [PowerSeries({1: c}, trunc) for c in (1, 2)]
            pairs.append(tuple(CurveGerm(zero, line) for line in lines))
            pairs.append(tuple(CurveGerm(line, zero) for line in lines))
        for pair in pairs:
            with pytest.raises(PrecisionExhausted, match="do not fix the intersection number"):
                intersection_multiplicity(*pair)

    def test_chart_mismatch_rejected(self):
        g = germ_from_polynomials({1: 1}, {}, group=SingularityType(3, 1), m=3)
        h = germ_from_polynomials({}, {1: 1})
        with pytest.raises(InvalidInput):
            intersection_multiplicity(g, h)

    def test_same_branch_different_data_exhausts_precision(self):
        # (t^2, t^3) and (t^2, -t^3) parametrize one branch; every
        # blow-up keeps them together until the truncation runs out
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
        assert intersection_multiplicity(base, other, 1) == 2

    def test_matches_independent_oracle_on_sample(self):
        for (n1, u1, v1), (n2, u2, v2) in germ_pairs()[::13]:
            got = intersection_multiplicity(
                germ_from_polynomials(gaussian_terms(u1), gaussian_terms(v1)),
                germ_from_polynomials(gaussian_terms(u2), gaussian_terms(v2)),
            )
            assert got == oracle_intersection(u1, v1, u2, v2), (n1, n2)


_GAUSSIAN = st.tuples(st.integers(-2, 2), st.integers(-2, 2))
_NONZERO = _GAUSSIAN.filter(lambda c: c != (0, 0))
_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))


def _times(c, w):
    """The product of two Gaussian integers (re, im)."""
    return (c[0] * w[0] - c[1] * w[1], c[0] * w[1] + c[1] * w[0])


def _raw(terms: dict) -> dict:
    """Gaussian-integer terms as the oracle's (re, im) strings, zeros dropped."""
    return {e: (str(r), str(i)) for e, (r, i) in terms.items() if (r, i) != (0, 0)}


@st.composite
def _branch(draw, tangent):
    """Terms (n, U, V) of a branch of multiplicity n = 1..4 with tangent
    (U_n, V_n) = tangent, nonzero, and terms at n + 1; one of them is
    nonzero, so the exponents are coprime.  The sympy oracle takes about
    0.1 s on such a pair."""
    n = draw(st.integers(1, 4))
    u = {n: tangent[0], n + 1: draw(_GAUSSIAN)}
    v = {n: tangent[1], n + 1: draw(_GAUSSIAN)}
    assume(u[n + 1] != (0, 0) or v[n + 1] != (0, 0))
    return n, u, v


@st.composite
def _branch_pair(draw):
    """Two branches in a chart of type (1, 0) or (4, b) and a translate k
    of the second, with tangents drawn independently."""
    a, b = draw(st.sampled_from([(1, 0), (4, 0), (4, 1), (4, 3)]))
    k = draw(st.integers(0, a - 1))
    t1, t2 = ((draw(_GAUSSIAN), draw(_GAUSSIAN)) for _ in range(2))
    assume(((0, 0), (0, 0)) not in (t1, t2))
    return SingularityType(a, b), k, draw(_branch(t1)), draw(_branch(t2))


def _power(c, e):
    """A Gaussian integer (re, im) to the power e >= 0."""
    out = (1, 0)
    for _ in range(e):
        out = _times(out, c)
    return out


@st.composite
def _leading_pair(draw):
    """Two branches (U, U's truncation, V, V's truncation) in a chart of
    type (1, 0), (2, 1) or (4, b), and a translate k of the second.  Each
    coordinate has an order 1..4, a nonzero lead and one more term, and is
    stored below 32.  In half the draws the second branch takes the
    first's orders and leads times c^order, rotated back by mu^-k, so
    that its translate has the first's Newton edge and edge coefficient.
    One coordinate of a branch may instead be zero to precision below a
    truncation 1..6."""
    a, b = draw(st.sampled_from([(1, 0), (2, 1), (4, 0), (4, 1), (4, 3)]))
    k = draw(st.integers(0, a - 1))
    q = 4 * k // a
    orders, leads = (draw(st.integers(1, 4)), draw(st.integers(1, 4))), (draw(_NONZERO), draw(_NONZERO))
    if draw(st.booleans()):
        c = draw(_NONZERO)
        leads2 = tuple(_times(_POWERS_OF_I[-q * w % 4], _times(_power(c, o), lead))
                       for o, lead, w in zip(orders, leads, (1, b)))
        shapes = ((orders, leads), (orders, leads2))
    else:
        orders2 = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
        shapes = ((orders, leads), (orders2, (draw(_NONZERO), draw(_NONZERO))))
    branches = []
    for (ou, ov), (lu, lv) in shapes:
        u, v = {ou: lu, ou + 1: draw(_GAUSSIAN)}, {ov: lv, ov + 1: draw(_GAUSSIAN)}
        tu = tv = 32
        cut = draw(st.sampled_from(["", "", "U", "V"]))
        if cut == "U":
            u, tu = {}, draw(st.integers(1, 6))
        elif cut == "V":
            v, tv = {}, draw(st.integers(1, 6))
        branches.append((u, tu, v, tv))
    return SingularityType(a, b), k, *branches


def _rotated_terms(terms: dict, q: int) -> dict:
    """terms times i^q, rotated here, not by the library."""
    return {e: _times(_POWERS_OF_I[q % 4], c) for e, c in terms.items()}


def _as_germ(u, v, group, trunc=32):
    """The germ (u, v) at m = 1, which every jet admits: some completion
    is fixed by no translate."""
    return CurveGerm(PowerSeries(gaussian_terms(_raw(u)), trunc),
                     PowerSeries(gaussian_terms(_raw(v)), trunc), group)


def _leading_value(first, second):
    """(value, shared) from the leading terms of two branches given as
    (U, U's truncation, V, V's truncation), computed over Q(i) by
    GaussianRational: value min(a1*b2, a2*b1) when the data fix it, or
    a1*b2 with shared True when both edges and edge coefficients agree;
    (None, False) when the data leave the count open."""
    (a1, x1), (b1, y1), (a2, x2), (b2, y2) = (
        (min(_raw(s)), True) if _raw(s) else (trunc, False)
        for u, tu, v, tv in (first, second) for s, trunc in ((u, tu), (v, tv))
    )
    x, y = a1 * b2, a2 * b1
    if x1 and y2 and x < y:
        return x, False
    if x2 and y1 and y < x:
        return y, False
    if x1 and y1 and x2 and y2:
        g = math.gcd(a1, b1)

        def lead(terms):
            raw = _raw(terms)
            return GaussianRational.of(*raw[min(raw)])

        def edge(u, v):
            return lead(v) ** (a1 // g) / lead(u) ** (b1 // g)

        return x, edge(first[0], first[2]) == edge(second[0], second[2])
    return None, False


def _completed(branch):
    """Polynomial data of one completion: a coordinate zero to precision
    below T is taken as t^T."""
    u, tu, v, tv = branch
    return _raw(u) or {tu: ("1", "0")}, _raw(v) or {tv: ("1", "0")}


def _local_oracle(first, second):
    """oracle_intersection on the two branches, in the order in which the
    second curve passes through the origin only at t = 0."""
    for one, other in ((first, second), (second, first)):
        try:
            return oracle_intersection(*one, *other)
        except ValueError as exc:
            if "away from t = 0" not in str(exc):
                raise
    assume(False)


_UNRESOLVED = (PrecisionExhausted, _UNFIXED_PAIR)


def _blow_ups(fn, *args):
    """fn(*args), or (type, message) of the error it raises, and the
    number of strict transforms germ._blow_up made."""
    with mock.patch.object(germ_module, "_blow_up", wraps=_blow_up) as blow_up:
        try:
            got = fn(*args)
        except (ArithmeticError, ValueError) as exc:
            got = (type(exc), str(exc))
    return got, blow_up.call_count


class TestLeadingTerms:
    """Two branches meet min(a1*b2, a2*b1) times, a = ord U and b = ord V,
    when the products differ or the edge coefficients do: read off the
    leading terms with no blow-up.  Branches sharing their Newton edge
    and its coefficient are blown up; data that bound an order only from
    below are blown up only where they fix the tangent."""

    @settings(max_examples=50, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_branch_pair())
    def test_distinct_tangents_meet_n1_n2_times(self, case):
        group, k, (n1, u1, v1), (n2, u2, v2) = case
        q = 4 * k // group.a
        ru2, rv2 = _rotated_terms(u2, q), _rotated_terms(v2, q * group.b)
        assume(_times(u1[n1], rv2[n2]) != _times(v1[n1], ru2[n2]))
        try:
            want = oracle_intersection(_raw(u1), _raw(v1), _raw(ru2), _raw(rv2))
        except ValueError:  # the second curve meets the origin again
            assume(False)
        g1, g2 = _as_germ(u1, v1, group), _as_germ(u2, v2, group)
        assert want == n1 * n2
        assert _blow_ups(intersection_multiplicity, g1, g2, k) == (want, 0)
        assert _blow_ups(intersection_multiplicity, g2, g1, -k) == (want, 0)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_leading_pair())
    def test_leading_terms_match_the_oracle(self, case):
        group, k, first, second = case
        g1, g2 = (CurveGerm(PowerSeries(gaussian_terms(_raw(u)), tu),
                            PowerSeries(gaussian_terms(_raw(v)), tv), group)
                  for u, tu, v, tv in (first, second))
        got, blown = _blow_ups(intersection_multiplicity, g1, g2, k)
        assume(not isinstance(got, tuple) or got[0] is not DistinctBranchesRequired)
        q = 4 * k // group.a
        u2, tu2, v2, tv2 = second
        rotated = (_rotated_terms(u2, q), tu2, _rotated_terms(v2, q * group.b), tv2)
        value, shared = _leading_value(first, rotated)
        if value is not None and not shared:
            assert (got, blown) == (value, 0)
            assert _blow_ups(intersection_multiplicity, g2, g1, -k) == (value, 0)
        if shared:
            assert blown >= 1
        if isinstance(got, int):
            assert got == _local_oracle(_completed(first), _completed(rotated))
            assert not shared or got > value

    def test_kernel_value_on_a_coordinate_zero_to_precision(self):
        # (O(t^2), i t^2) against (i t^3, i t^2): the completion U = t^2 + t^3
        # meets the second branch 4 times and U = t^3 meets it 6 times, so
        # the data fix no count, and the first branch no tangent
        g1 = CurveGerm(series({}, 2), PowerSeries({2: I}, 32))
        g2 = CurveGerm(PowerSeries({3: I}, 32), PowerSeries({2: I}, 32))
        completions = ({2: ONE, 3: ONE}, {3: ONE})
        assert [oracle_intersection(u, {2: I_UNIT}, {3: I_UNIT}, {2: I_UNIT}) for u in completions] == [4, 6]
        for pair in ((g1, g2), (g2, g1)):
            assert _blow_ups(intersection_multiplicity, *pair) == (_UNRESOLVED, 0)

    # germs given as (U, U's truncation, V, V's truncation); in each pair
    # one germ stores V only below its multiplicity n, so b = ord V is
    # only bounded below; the count is read off the leading terms when
    # that bound decides it, and otherwise that germ has no fixed
    # tangent to blow up at, in either argument order
    @pytest.mark.parametrize("first, second, want", [
        (({2: 1, 3: 1}, 8, {}, 2), ({1: 1}, 8, {1: 1}, 8), _UNRESOLVED),
        (({2: 1, 3: 1}, 8, {}, 2), ({}, 8, {1: 1}, 8), 2),
        (({2: 1}, 8, {}, 2), ({}, 8, {2: 1, 3: 1}, 8), 4),
        (({3: 1, 4: 1}, 8, {}, 3), ({1: 1}, 8, {1: 2}, 8), _UNRESOLVED),
        (({1: 1}, 8, {}, 1), ({1: 1}, 8, {1: 1}, 8), _UNRESOLVED),
        (({1: 1}, 8, {1: 1}, 8), ({1: 1}, 8, {}, 1), _UNRESOLVED),
    ])
    def test_an_unfixed_tangent_is_not_blown_up(self, first, second, want):
        g1, g2 = (CurveGerm(series(u, tu), series(v, tv)) for u, tu, v, tv in (first, second))
        for pair in ((g1, g2), (g2, g1)):
            assert _blow_ups(intersection_multiplicity, *pair) == (want, 0)

    @pytest.mark.parametrize("trunc", [16, 32])
    def test_plain_polynomial_pair_on_a_shared_edge(self, trunc):
        # (t^4, -t^7) and (t^4 - 2t^5, -t^7) share the edge of direction
        # (4, 7) and its coefficient; a Laurent determinant that skipped
        # entries zero to precision answered 28 on them
        u1, v1 = {4: ONE}, {7: MINUS_ONE}
        u2, v2 = {4: ONE, 5: ("-2", "0")}, {7: MINUS_ONE}
        g1, g2 = (germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=trunc)
                  for u, v in ((u1, v1), (u2, v2)))
        assert intersection_multiplicity(g1, g2) == intersection_multiplicity(g2, g1) == 29
        assert oracle_intersection(u1, v1, u2, v2) == 29


def _reparametrized(terms: dict, c: tuple, top: int) -> dict:
    """Gaussian-integer terms of P(t + c t^2) below t^top from those of P,
    with (t + c t^2)^e = sum_j binom(e, j) c^j t^(e + j)."""
    out: dict[int, tuple] = {}
    for e, coeff in terms.items():
        for j in range(min(e, top - 1 - e) + 1):
            r, i = _times(coeff, _power(c, j))
            r0, i0 = out.get(e + j, (0, 0))
            out[e + j] = (r0 + math.comb(e, j) * r, i0 + math.comb(e, j) * i)
    return out


@st.composite
def _shared_edge_pair(draw):
    """Two branches that share their Newton edge and its coefficient, as
    Gaussian-integer terms (U1, V1, U2, V2): the second is the first with
    one term added above the edge, and the first may be reparametrized by
    t -> t + c t^2 below t^6, which keeps both.  Every degree is at most
    5, where the sympy oracle takes well under a second.  Also a chart of
    type (1, 0), (2, 1) or (4, b) and a translate k: the second germ is
    stored as its image under mu^-k, so that its translate by k is
    (U2, V2)."""
    a, b = draw(st.sampled_from([(1, 0), (2, 1), (4, 0), (4, 1), (4, 3)]))
    k = draw(st.integers(0, a - 1))
    ou, ov = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    u1 = {ou: draw(_NONZERO), ou + 1: draw(_GAUSSIAN)}
    v1 = {ov: draw(_NONZERO), ov + 1: draw(_GAUSSIAN)}
    u2, v2 = dict(u1), dict(v1)
    target, order = draw(st.sampled_from([(u2, ou), (v2, ov)]))
    e = order + draw(st.integers(1, 2))
    target[e] = _gadd(target.get(e, (0, 0)), draw(_NONZERO))
    c = draw(_GAUSSIAN)
    if c != (0, 0):
        u1, v1 = _reparametrized(u1, c, 6), _reparametrized(v1, c, 6)
    return SingularityType(a, b), k, (u1, v1, u2, v2)


def _stored_translate(group, k, u, v):
    """Terms of the germ whose translate by k is (u, v)."""
    q = 4 * k // group.a
    return _rotated_terms(u, -q), _rotated_terms(v, -q * group.b)


def _pair_oracle(u1, v1, u2, v2):
    """_local_oracle on two branches given as terms, discarding pairs
    that parametrize one curve."""
    try:
        return _local_oracle((_raw(u1), _raw(v1)), (_raw(u2), _raw(v2)))
    except ValueError as exc:
        assume("coincide" not in str(exc))
        raise


_REAL = st.integers(-2, 2)


@st.composite
def _shared_factor_branch(draw):
    """Real terms (U, V) of a branch whose orders share a factor, with two
    more terms above those orders, the lot maybe reparametrized by
    t -> t + c t^2 (cut 7 past the larger order); the exponents are
    coprime."""
    g = draw(st.sampled_from([2, 3]))
    a, b = (g * x for x in draw(st.sampled_from([(1, 2), (2, 1), (2, 3), (3, 2), (1, 3)])))
    u, v = {a: (draw(_REAL.filter(bool)), 0)}, {b: (draw(_REAL.filter(bool)), 0)}
    for _ in range(2):
        terms, order = draw(st.sampled_from([(u, a), (v, b)]))
        terms.setdefault(order + draw(st.integers(1, 6)), (draw(_REAL.filter(bool)), 0))
    assume(math.gcd(*u, *v) == 1)
    c = (draw(_REAL), 0)
    if c != (0, 0):
        top = max(a, b) + 7
        u, v = _reparametrized(u, c, top), _reparametrized(v, c, top)
    return u, v


def _completion(terms: dict, trunc: int, rng: random.Random, top: int) -> PowerSeries:
    """The series stored below trunc, continued by random Gaussian terms
    from trunc up to top."""
    more = {e: GaussianRational.of(rng.randint(-3, 3), rng.randint(-3, 3)) for e in range(trunc, top)}
    return PowerSeries({**gaussian_terms(_raw({e: c for e, c in terms.items() if e < trunc})),
                        **more}, top)


class TestBlowUpLaws:
    """The blow-up kernel against the sympy oracles on the germs it is
    there for, and against its own answers on completions of the data."""

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_shared_edge_pair())
    def test_pairs_on_a_shared_edge_match_the_oracle(self, case):
        group, k, (u1, v1, u2, v2) = case
        g1 = _as_germ(u1, v1, group, trunc=64)
        g2 = _as_germ(*_stored_translate(group, k, u2, v2), group, trunc=64)
        want = _pair_oracle(u1, v1, u2, v2)
        got, blown = _blow_ups(intersection_multiplicity, g1, g2, k)
        assert (got, blown > 0) == (want, True)
        assert intersection_multiplicity(g2, g1, -k) == want

    @settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_shared_factor_branch())
    def test_deltas_of_shared_factor_orders_match_the_oracle(self, branch):
        # real coefficients: the sympy oracle takes seconds on Gaussian ones
        u, v = branch
        got, blown = _blow_ups(self_intersection, _as_germ(u, v, SingularityType(1, 0), trunc=48))
        assert blown > 0
        # the conductor of a branch is 2 delta: the window closes the semigroup
        assert got == oracle_delta(_raw(u), _raw(v), window=2 * got + max(u) + max(v))

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_shared_edge_pair(), st.lists(st.integers(2, 20), min_size=4, max_size=4),
           st.integers(0, 2**32))
    def test_a_resolved_pair_keeps_its_value_on_completions(self, case, truncs, seed):
        group, k, terms = case
        u1, v1, u2, v2 = terms[:2] + _stored_translate(group, k, *terms[2:])
        stored = [PowerSeries(gaussian_terms(_raw({e: c for e, c in t.items() if e < n})), n)
                  for t, n in zip((u1, v1, u2, v2), truncs)]
        assume(not (stored[0].is_zero_to_precision() and stored[1].is_zero_to_precision()))
        assume(not (stored[2].is_zero_to_precision() and stored[3].is_zero_to_precision()))
        got, _ = _blow_ups(intersection_multiplicity, CurveGerm(*stored[:2], group),
                           CurveGerm(*stored[2:], group), k)
        assume(isinstance(got, int))
        rng = random.Random(seed)
        for _ in range(3):
            done = [_completion(t, n, rng, n + 8) for t, n in zip((u1, v1, u2, v2), truncs)]
            g1, g2 = CurveGerm(*done[:2], group), CurveGerm(*done[2:], group)
            assert intersection_multiplicity(g1, g2, k) == got

    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(_shared_factor_branch(), st.lists(st.integers(2, 20), min_size=2, max_size=2),
           st.integers(0, 2**32))
    def test_a_resolved_delta_keeps_its_value_on_completions(self, branch, truncs, seed):
        stored = [PowerSeries(gaussian_terms(_raw({e: c for e, c in t.items() if e < n})), n)
                  for t, n in zip(branch, truncs)]
        assume(not (stored[0].is_zero_to_precision() and stored[1].is_zero_to_precision()))
        got, _ = _blow_ups(self_intersection, CurveGerm(*stored))
        assume(isinstance(got, int))
        rng = random.Random(seed)
        for _ in range(3):
            done = [_completion(t, n, rng, n + 8) for t, n in zip(branch, truncs)]
            assert self_intersection(CurveGerm(*done)) == got


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
        assert intersection_multiplicity(g1, g2, 1) == 4
        assert intersection_multiplicity(g2, g1, 1) == 4

    def test_global_oracle_refuses_a_second_pass(self):
        with pytest.raises(ValueError, match="away from t = 0"):
            oracle_intersection({1: ONE}, {}, *SECOND_PASS)

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(pair=st.sampled_from(germ_pairs()), flip=st.booleans())
    def test_reparametrized_second_pass_is_not_counted(self, pair, flip):
        # sigma(s) = s - s^2 fixes s = 0 and sends s = 1 to 0
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
    """A large stored truncation costs little: the leading terms settle
    what they can with no blow-up, and each blow-up divides series that
    the leading terms then read.  Each kernel case took seconds when the
    former kernel built a normal form to the full truncation; each case
    bounds its count of blow-ups next to its time."""

    @staticmethod
    def _work(fn, *args):
        """fn(*args), its wall time, and the blow-ups it made."""
        start = time.perf_counter()
        got, blown = _blow_ups(fn, *args)
        return got, time.perf_counter() - start, blown

    @pytest.mark.parametrize("u, v, want, blow_ups", [
        ({2: ONE, 3: ONE}, {3: ONE}, 1, 0),  # coprime orders (2, 3)
        ({4: ONE, 5: ONE}, {6: ONE, 7: ONE}, 8, 3),  # orders (4, 6) share 2
    ])
    def test_delta_at_truncation_250(self, u, v, want, blow_ups):
        g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=250)
        got, elapsed, blown = self._work(self_intersection, g)
        assert got == want == oracle_delta(u, v)
        assert elapsed < 0.5
        assert blown <= blow_ups

    @pytest.mark.parametrize("first, second, want, blow_ups", [
        # orders (8, 10) and (8, 9): 72 = min(8*9, 8*10)
        (({8: ONE, 9: ONE}, {10: ONE, 13: ("2", "0")}), ({8: ONE, 11: MINUS_ONE}, {9: ONE, 15: ONE}),
         72, 0),
        # one edge of direction (2, 3), lambda = 1 on both: the kernel
        # blows both up at three shared points, 26 = 16 + 4 + 4 + 2
        (({4: ONE, 5: ONE}, {6: ONE, 9: ONE}), ({4: ONE}, {6: ONE, 7: MINUS_ONE}), 26, 6),
    ])
    def test_pair_at_truncation_250(self, first, second, want, blow_ups):
        g1, g2 = (germ_from_polynomials(*map(gaussian_terms, b), trunc=250) for b in (first, second))
        for pair in ((g1, g2), (g2, g1)):
            got, elapsed, blown = self._work(intersection_multiplicity, *pair)
            assert got == want
            assert elapsed < 0.5
            assert blown <= blow_ups
        assert want == oracle_intersection(*first, *second)


class TestNormalFormPrecision:
    """Precision of the stored jets: each order is exact where a term is
    stored, so a branch stored just past its orders is resolved."""

    def test_deep_singularity_resolves_at_truncation_8(self):
        # (t^6, t^7) stored at 8: both orders are exact, and coprime
        g = germ_from_polynomials({6: 1}, {7: 1}, trunc=8)
        assert self_intersection(g) == 15


class TestBranchInvariants:
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
        # float all give the plain cusp, and the branch of orders (4, 6)
        # that the kernel blows up three times keeps its delta 8
        g = germ_from_polynomials({2: lead}, {3: 1})
        assert self_intersection(g) == 1
        g = germ_from_polynomials({4: lead}, {6: 1, 7: 1})
        assert _blow_ups(self_intersection, g) == (8, 3)

    @settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        orders=st.tuples(st.integers(2, 5), st.integers(2, 5)).filter(lambda ab: math.gcd(*ab) == 1),
        leads=st.tuples(st.integers(-3, 3).filter(bool), st.integers(-3, 3).filter(bool)),
        tails=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    )
    def test_coprime_orders_give_delta_without_the_kernel(self, orders, leads, tails):
        # real coefficients: the sympy oracle takes seconds on Gaussian ones
        (a, b), (lead_u, lead_v), (tail_u, tail_v) = orders, leads, tails
        u, v = {a: (lead_u, 0), a + 1: (tail_u, 0)}, {b: (lead_v, 0), b + 1: (tail_v, 0)}
        g = germ_from_polynomials(gaussian_terms(_raw(u)), gaussian_terms(_raw(v)))
        got, blown = _blow_ups(self_intersection, g)
        assert blown == 0
        assert got == (a - 1) * (b - 1) // 2 == oracle_delta(_raw(u), _raw(v), window=a * b + a + b)

    def test_multiple_cover_rejected(self):
        # (t^2, t^4), whose exponents share 2, is no certain double cover:
        # it may continue as (t^2, t^4 + t^33) or (t^2, t^4 + t^35), of
        # different delta, so its delta is refused as unresolved.  Each
        # blow-up spends two orders of V, so the loop ends within T/2 of them
        for trunc in (8, 32, 256):
            start = time.perf_counter()
            got, blown = _blow_ups(self_intersection, germ_from_polynomials({2: 1}, {4: 1}, trunc=trunc))
            assert time.perf_counter() - start < 1
            assert got == (PrecisionExhausted, _UNFIXED_DELTA)
            assert blown < trunc // 2
        for v, delta in (({4: 1, 33: 1}, 16), ({4: 1, 35: 1}, 17)):
            assert self_intersection(germ_from_polynomials({2: 1}, v, trunc=64)) == delta

    def test_second_coordinate_zero_to_precision_is_unresolved(self):
        # (t^2 + t^3, 0) stored at 32 is no certain multiple cover: its
        # completions by t^33 and t^35 are branches of different delta
        with pytest.raises(PrecisionExhausted) as raised:
            self_intersection(germ_from_polynomials({2: 1, 3: 1}, {}, trunc=32))
        assert str(raised.value) == _UNFIXED_DELTA
        for v, delta in (({33: 1}, 16), ({35: 1}, 17)):
            assert self_intersection(germ_from_polynomials({2: 1, 3: 1}, v, trunc=64)) == delta

    def test_matches_independent_delta_oracle_on_sample(self):
        for name in ["cusp", "e6", "e8", "quint_cusp", "two_pair", "mult6"]:
            u, v = branch(name)
            g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
            assert self_intersection(g) == oracle_delta(u, v), name

    def test_gaussian_branch_matches_the_delta_oracle(self):
        # orders (4, 6) share a factor, so the jet kernel counts it; the
        # oracle reduces its Gaussian coefficients with expand_complex
        u, v = {4: ONE, 5: I_UNIT}, {6: ONE, 7: ("1", "1")}
        g = germ_from_polynomials(gaussian_terms(u), gaussian_terms(v), trunc=48)
        assert self_intersection(g) == oracle_delta(u, v) == 8
