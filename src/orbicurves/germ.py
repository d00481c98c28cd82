"""Parametrized curve germs in a cyclic quotient chart and their exact
local invariants.

A germ is a pair of truncated power series (U(z), V(z)) over Q(i) with
zero constant terms, the two coordinates of a holomorphic map of a disc
into C^2, carried together with the local group data: the chart's cyclic
action (z1, z2) -> (mu_a z1, mu_a^b z2) and the order m of the subgroup
of Z_a preserving the image.  Both local invariants read one normal form
per branch, (s^n, W(s)) in linear coordinates: delta from W's
characteristic exponents, the local intersection number from W's local
equation (Halphen's formula).  W is built only as deep as each needs.

Exactness policy: truncation orders are tracked through every
operation, including the precision cost of divisions; any answer whose
value is not pinned down below the tracked truncation raises
PrecisionExhausted instead of guessing.  Coefficients never leave Q(i):
a series stores them as Gaussian-integer numerators over one positive
integer denominator, so its arithmetic runs on integers.
Group translates whose coefficients would need other roots of unity
are kept symbolic (an integer twist on the germ) and materialize only
when the needed root lies in {1, i, -1, -i}.

Set-level comparisons between translates (orbit distinctness, same
branch detection) use linear reparametrizations z -> c z with c a root
of unity, solved exactly as congruences on support exponents.  This is
complete for germs whose setwise symmetries are linear, which covers
every germ shape appearing here; germs engineered with nonlinear
symmetries could fool the distinctness check and are out of scope.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decode import MAX_PRECISION, int_, list_, obj, parse_rational, rational
from .errors import (
    DistinctBranchesRequired,
    EquivarianceViolated,
    InvalidInput,
    MultiplyCovered,
    PrecisionExhausted,
    UnrepresentableCoefficients,
    ZeroToPrecision,
)
from .exact import (
    GR_ONE,
    GR_ZERO,
    GaussianRational,
    fourth_root_power,
)
from .lens import SingularityType

DEFAULT_TRUNCATION = 32


def _tmin(*truncs):
    """Minimum of truncation orders, None meaning exact (infinite)."""
    finite = [t for t in truncs if t is not None]
    return min(finite) if finite else None


class PowerSeries:
    """Univariate power series over Q(i), either exact polynomial data
    (trunc None) or known only below a finite truncation order.

    Coefficients are Gaussian-integer numerators num[e] = (re, im) over
    one positive integer denominator den, with the gcd of den and every
    numerator part divided out; GaussianRational appears only at the
    boundary (constructor, coeff, JSON, str).  Equality compares
    coefficients below the smaller truncation, which is the only
    comparison the data supports.
    """

    __slots__ = ("num", "den", "trunc", "_inverse")

    def __init__(self, terms, trunc=DEFAULT_TRUNCATION):
        self._set(*_numerators({e: (c.re, c.im) for e, c in dict(terms).items()}), trunc)

    def _set(self, num: dict, den: int, trunc) -> None:
        """Store num/den below trunc: zero terms and terms at or above
        trunc are dropped and the content gcd is divided out."""
        if trunc is not None and trunc < 1:
            raise InvalidInput(f"truncation must be >= 1, got {trunc}")
        clean = {}
        g = den
        for e, c in num.items():
            if e < 0:
                raise InvalidInput(f"negative exponent {e}")
            if (trunc is None or e < trunc) and (c[0] or c[1]):
                clean[e] = c
                if g != 1:
                    g = math.gcd(g, c[0], c[1])
        if g != 1:  # an empty series ends with den = g // g = 1
            den //= g
            clean = {e: (r // g, i // g) for e, (r, i) in clean.items()}
        self.num, self.den, self.trunc, self._inverse = clean, den, trunc, None

    @staticmethod
    def zero(trunc=DEFAULT_TRUNCATION) -> "PowerSeries":
        return _series({}, 1, trunc)

    def support(self) -> list[int]:
        return sorted(self.num)

    def coeff(self, e: int) -> GaussianRational:
        c = self.num.get(e)
        if c is None:
            return GR_ZERO
        return GaussianRational(Fraction(c[0], self.den), Fraction(c[1], self.den))

    def is_zero_to_precision(self) -> bool:
        return not self.num

    def order(self) -> int:
        if not self.num:
            raise ZeroToPrecision(
                "series is identically zero"
                if self.trunc is None
                else f"series vanishes below truncation {self.trunc}"
            )
        return min(self.num)

    def with_truncation(self, trunc) -> "PowerSeries":
        """Re-truncate.  Raising the truncation asserts the stored terms
        are exact polynomial data (the caller's responsibility)."""
        return _series(self.num, self.den, trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        cut = _tmin(self.trunc, other.trunc)
        da, db = self.den, other.den
        a = {e: (r * db, i * db) for e, (r, i) in self.num.items() if cut is None or e < cut}
        b = {e: (r * da, i * da) for e, (r, i) in other.num.items() if cut is None or e < cut}
        return a == b

    __hash__ = None

    def _combine(self, other: "PowerSeries", sign: int) -> "PowerSeries":
        """self + sign * other over the lcm of the denominators."""
        g = math.gcd(self.den, other.den)
        fa, fb = other.den // g, sign * (self.den // g)
        out = {e: (r * fa, i * fa) for e, (r, i) in self.num.items()}
        for e, (r, i) in other.num.items():
            if e in out:
                r0, i0 = out[e]
                out[e] = (r0 + r * fb, i0 + i * fb)
            else:
                out[e] = (r * fb, i * fb)
        return _series(out, self.den * fa, _tmin(self.trunc, other.trunc))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, 1)

    def __neg__(self) -> "PowerSeries":
        return _series({e: (-r, -i) for e, (r, i) in self.num.items()}, self.den, self.trunc)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, -1)

    def _value_floor(self):
        """A lower bound for the order of the full (unknown) series."""
        if self.num:
            return min(self.num)
        return self.trunc  # None = exactly zero, order infinite

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        if (self.trunc is None and not self.num) or (
            other.trunc is None and not other.num
        ):
            return _series({}, 1, None)
        va, vb = self._value_floor(), other._value_floor()
        # error terms: O(t^Na)*g = O(t^(Na+vb)) and f*O(t^Nb) = O(t^(Nb+va))
        trunc = _tmin(
            None if self.trunc is None else self.trunc + vb,
            None if other.trunc is None else other.trunc + va,
        )
        if not self.num or not other.num:
            return _series({}, 1, trunc)
        a, b = sorted(self.num.items()), sorted(other.num.items())
        size = a[-1][0] + b[-1][0] + 1
        if trunc is not None:
            size = min(size, trunc)
        acc_re, acc_im = [0] * size, [0] * size
        for e1, (r1, i1) in a:
            for e2, (r2, i2) in b:
                e = e1 + e2
                if e >= size:
                    break
                acc_re[e] += r1 * r2 - i1 * i2
                acc_im[e] += r1 * i2 + i1 * r2
        out = {e: (acc_re[e], acc_im[e]) for e in range(a[0][0] + b[0][0], size)}
        return _series(out, self.den * other.den, trunc)

    def _scaled(self, re: int, im: int, d: int) -> "PowerSeries":
        """self * (re + im*i) / d, for d > 0."""
        out = {e: (r * re - i * im, r * im + i * re) for e, (r, i) in self.num.items()}
        return _series(out, self.den * d, self.trunc)

    def scale(self, c: GaussianRational) -> "PowerSeries":
        k = PowerSeries({0: c}, None)
        return self._scaled(*k.num.get(0, (0, 0)), k.den)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by z^k (k may be negative if all exponents allow)."""
        trunc = None if self.trunc is None else self.trunc + k
        return _series({e + k: c for e, c in self.num.items()}, self.den, trunc)

    def invert_unit(self) -> "PowerSeries":
        """Inverse of a unit (nonzero constant term).

        Starts from 1/c = den * conj(c) / |c|^2 for c = num[0] and runs
        Newton's step g -> g * (2 - self * g), which doubles the orders
        known.  Every product is reduced by its content, so the integers
        stay the size of the reduced inverse; a recurrence over the common
        denominator c^(k+1) carries integers growing like c^k, far larger
        when c is large.
        """
        if 0 not in self.num:
            raise InvalidInput("only units (nonzero constant term) invert")
        if self.trunc is None and len(self.num) > 1:
            # the inverse of a nonconstant polynomial is an infinite series
            raise InvalidInput("truncate exact series before inverting")
        cr, ci = self.num[0]
        known = None if self.trunc is None else 1
        inv = _series({0: (self.den * cr, -self.den * ci)}, cr * cr + ci * ci, known)
        while known is not None and known < self.trunc:
            known = min(2 * known, self.trunc)
            inv = inv.with_truncation(known)
            inv = inv * (_TWO_EXACT - self * inv)
        return inv

    def _unit_inverse(self, v: int, trunc) -> "PowerSeries":
        """Inverse of self / z^v known at least below trunc (None: exactly),
        memoised at the largest truncation asked for.  A numerator known
        below trunc reads only the coefficients below trunc, so its product
        with this inverse equals its product with the inverse cut to trunc."""
        inv = self._inverse
        if inv is None or (inv.trunc is not None and (trunc is None or inv.trunc < trunc)):
            unit = self.shift(-v) if v else self
            if unit.trunc is None and trunc is not None and len(unit.num) > 1:
                unit = unit.with_truncation(trunc)
            inv = self._inverse = unit.invert_unit()
        return inv

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Exact division in the Laurent sense: requires ord(self) >=
        ord(other).  Costs ord(other) orders of truncation."""
        v = other.order()  # raises ZeroToPrecision for 0-to-precision divisor
        if self.num and self.order() < v:
            raise InvalidInput("division would produce negative exponents")
        trunc = _tmin(self.trunc, other.trunc)
        if not self.num:
            if self.trunc is None:
                return _series({}, 1, None)
            if self.trunc - v < 1:
                raise ZeroToPrecision(
                    "quotient is zero to no significant precision"
                )
            return _series({}, 1, self.trunc - v)
        num = self.shift(-v) if v else self
        if trunc is not None:
            num = num.with_truncation(trunc - v)
        return num * other._unit_inverse(v, None if trunc is None else trunc - v)

    def nth_root_of_unit_series(self, n: int) -> "PowerSeries":
        """(1 + h)^(1/n) for a series with constant term exactly 1, as the
        binomial series sum_k binom(1/n, k) h^k."""
        if self.num.get(0) != (self.den, 0):
            raise InvalidInput("series must have constant term 1")
        h = self - _ONE_EXACT
        if self.trunc is None:
            if not h.num:
                return _ONE_EXACT
            raise InvalidInput("truncate exact series before taking roots")
        out = power = _ONE_EXACT.with_truncation(self.trunc)
        top, bottom = 1, 1  # binom(1/n, k) = top / bottom
        for k in range(1, self.trunc):
            top *= 1 - (k - 1) * n
            bottom *= n * k
            g = math.gcd(top, bottom)
            top, bottom = top // g, bottom // g
            power = power * h
            if power.is_zero_to_precision():
                break
            out = out + power._scaled(top, 0, bottom)
        return out

    def __str__(self) -> str:
        if not self.num:
            body = "0"
        else:
            body = " + ".join(f"({self.coeff(e)})*z^{e}" for e in self.support())
        tail = "" if self.trunc is None else f" + O(z^{self.trunc})"
        return body + tail

    __repr__ = __str__

    @staticmethod
    def from_json(data, where: str = "series") -> "PowerSeries":
        obj(data, where, "terms", optional=("trunc",))
        trunc = int_(data.get("trunc", DEFAULT_TRUNCATION), f"{where}.trunc")
        if trunc > MAX_PRECISION:
            raise InvalidInput(
                f"series trunc must be an integer <= {MAX_PRECISION}, got {trunc!r}"
            )
        parts = {}
        for i, term in enumerate(list_(data["terms"], f"{where}.terms")):
            at = f"{where}.terms[{i}]"
            e, c = list_(term, at, length=2)
            obj(c, f"{at}[1]", optional=("re", "im"))
            parts[int_(e, f"{at}[0]")] = (
                rational(c.get("re", "0"), f"{at}[1].re"),
                rational(c.get("im", "0"), f"{at}[1].im"),
            )
        return _series(*_numerators(parts), trunc)


def _numerators(parts: dict) -> tuple[dict, int]:
    """{e: (re, im)} with int or Fraction parts -> Gaussian-integer
    numerators over the lcm of the parts' denominators."""
    den = math.lcm(*(x.denominator for c in parts.values() for x in c))
    return {e: (r.numerator * (den // r.denominator), i.numerator * (den // i.denominator))
            for e, (r, i) in parts.items()}, den


def _series(num: dict, den: int, trunc) -> PowerSeries:
    """The series sum num[e] z^e / den known below trunc (see _set)."""
    s = object.__new__(PowerSeries)
    s._set(num, den, trunc)
    return s


_ONE_EXACT = PowerSeries({0: GR_ONE}, None)
_TWO_EXACT = _series({0: (2, 0)}, 1, None)


def _solve_congruences(constraints, modulus):
    """Solve a system c*y = r (mod modulus) over the integers.

    Returns (y0, step) describing all solutions y = y0 (mod step), or
    None when the system is inconsistent.
    """
    y0, step = 0, 1
    for c, r in constraints:
        # substitute y = y0 + step*t:  c*step*t = r - c*y0 (mod modulus)
        a = (c * step) % modulus
        rhs = (r - c * y0) % modulus
        g = math.gcd(a, modulus)
        if rhs % g:
            return None
        mm = modulus // g
        t0 = (rhs // g) * pow(a // g, -1, mm) % mm
        y0 = y0 + step * t0
        step = step * mm
        y0 %= step
    return y0 % step, step


class CurveGerm:
    """One branch through the origin of a chart with cyclic action data.

    U, V: coordinate series (zero constant term, not both zero).
    group: the chart action type (a, b); a = 1 means a regular point.
    m: order of the stabilizer of the image (divides a); the germ must
       be equivariant for an injective Z_m -> Z_a, which is checked
       symbolically on support exponents.
    twist: symbolic composition with the group element k, representing
       the translate (mu_a^k U, mu_a^{k b} V).
    """

    __slots__ = ("U", "V", "group", "m", "twist", "_rho_exponent")

    def __init__(self, U: PowerSeries, V: PowerSeries,
                 group: SingularityType = SingularityType(1, 0), m: int = 1, twist: int = 0):
        if U.is_zero_to_precision() and V.is_zero_to_precision():
            raise InvalidInput("germ coordinates must not both vanish")
        for s in (U, V):
            if 0 in s.num:
                raise InvalidInput("germ must pass through the origin")
            if s.trunc is None:
                raise InvalidInput("germ series carry a finite truncation")
        a = group.a
        if a < 1 or m < 1 or a % m != 0:
            raise EquivarianceViolated(f"stabilizer order {m} must divide the group order {a}")
        if not 0 <= twist < max(a, 1):
            raise InvalidInput(f"twist must lie in [0, {a}), got {twist}")
        self.U = U
        self.V = V
        self.group = group
        self.m = m
        self.twist = twist
        self._rho_exponent = self._solve_equivariance()

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveGerm):
            return NotImplemented
        return (
            self.U == other.U
            and self.V == other.V
            and self.group == other.group
            and self.m == other.m
            and self.twist == other.twist
        )

    def _solve_equivariance(self) -> int:
        """Exponent s with U(mu_m z) = mu_a^s U(z), V(mu_m z) = mu_a^{sb} V(z)
        and <mu_a^s> of order exactly m; raises EquivarianceViolated.

        Such an s is k*u for k = a/m and u a unit mod m, and the
        congruences c*s = j*k (mod a) read c*u = j (mod m).  The system
        in s is solved first only to tell a germ with no s at all apart
        from one whose every s has the wrong order."""
        a, b, m = self.group.a, self.group.b, self.m
        if a == 1:
            if m != 1:
                raise EquivarianceViolated("trivial group admits only m = 1")
            return 0
        k = a // m
        exps = [(1, j) for j in self.U.support()] + [(b, j) for j in self.V.support()]
        if _solve_congruences([(c, (j * k) % a) for c, j in exps], a) is None:
            raise EquivarianceViolated(
                f"germ is not equivariant for group {self.group.to_json()} with m={m}"
            )
        sol = _solve_congruences([(c, j % m) for c, j in exps], m)
        if sol is not None and math.gcd(*sol, m) == 1:
            u, step = sol
            while math.gcd(u, m) != 1:  # ends below m: step divides m
                u += step
            return k * u
        raise EquivarianceViolated(
            f"no injective order-{m} action is compatible with the germ supports"
        )

    def weights(self) -> tuple[int, int]:
        """Weights (w1, w2) of rho(mu_m) on the chart coordinates,
        reduced mod m: rho(mu_m) acts by (mu_m^{w1} z1, mu_m^{w2} z2)."""
        if self.group.a == 1:
            return (0, 0)
        sigma = self._rho_exponent // (self.group.a // self.m)
        return (sigma % self.m, (sigma * self.group.b) % self.m)

    @property
    def orbit_size(self) -> int:
        """Number of group translates, a/m: the translates are
        translate(germ, k) for 0 <= k < orbit_size."""
        return self.group.a // self.m

    def multiplicity(self) -> int:
        orders = []
        for s in (self.U, self.V):
            if not s.is_zero_to_precision():
                orders.append(s.order())
        return min(orders)

    def materialize(self) -> tuple[PowerSeries, PowerSeries]:
        """Coordinate series of the twisted germ, when the twist's root
        of unity lies in Q(i)."""
        if self.twist == 0:
            return self.U, self.V
        a, b = self.group.a, self.group.b
        if (4 * self.twist) % a != 0:
            raise UnrepresentableCoefficients(
                f"translate by {self.twist} of a Z_{a} action needs a root of "
                "unity outside the Gaussian rationals"
            )
        quarter = (4 * self.twist) // a
        mu_u = fourth_root_power(quarter)
        mu_v = fourth_root_power(quarter * b)
        return self.U.scale(mu_u), self.V.scale(mu_v)

    @staticmethod
    def from_json(data, where: str = "germ") -> "CurveGerm":
        obj(data, where, "U", "V", optional=("group", "m", "twist"))
        return CurveGerm(
            U=PowerSeries.from_json(data["U"], f"{where}.U"),
            V=PowerSeries.from_json(data["V"], f"{where}.V"),
            group=SingularityType.from_json(data.get("group", [1, 0]), f"{where}.group"),
            m=int_(data.get("m", 1), f"{where}.m"),
            twist=int_(data.get("twist", 0), f"{where}.twist"),
        )


def germ_from_polynomials(u_terms, v_terms, group=SingularityType(1, 0), m=1,
                          trunc=DEFAULT_TRUNCATION) -> CurveGerm:
    """Convenience constructor from {exp: coeff} dicts whose values may
    be ints, Fractions, strings, or GaussianRationals.  An int is its own
    numerator over 1."""

    def conv(d):
        parts = {}
        for e, c in d.items():
            if isinstance(c, GaussianRational):
                parts[e] = (c.re, c.im)
            elif isinstance(c, str):
                parts[e] = (parse_rational(c), 0)
            elif isinstance(c, int):
                parts[e] = (c, 0)
            else:
                parts[e] = (Fraction(c), 0)
        return _series(*_numerators(parts), trunc)

    return CurveGerm(U=conv(u_terms), V=conv(v_terms), group=group, m=m)


def translate(germ: CurveGerm, k: int) -> CurveGerm:
    """The group translate by mu_a^k, kept symbolic in the twist; the
    germ itself when the twist does not change."""
    twist = (germ.twist + k) % max(germ.group.a, 1)
    return germ if twist == germ.twist else CurveGerm(germ.U, germ.V, germ.group, germ.m, twist)


def _stabilizing_twist(germ: CurveGerm) -> int:
    """Least d > 0 whose translate equals the germ as a set, testing
    linear reparametrizations z -> c z with c a root of unity.

    The translate by d is fixed iff c^j = mu_a^(d*w_j) for every support
    exponent j, with w_j = 1 on U's exponents and b on V's.  For G =
    gcd(supp) = sum l_j j any such c has c^G = mu_a^(d*tau) with tau =
    sum l_j w_j, so c^j = mu_a^(d*tau*j/G); and a c with c^G =
    mu_a^(d*tau) passes every test once d*(tau*j/G - w_j) = 0 (mod a).
    The fixing d are the multiples of one lcm over the exponents.
    """
    a, b = germ.group.a, germ.group.b
    exps = [(j, 1) for j in germ.U.support()] + [(j, b) for j in germ.V.support()]
    g = tau = 0  # invariants g = sum l_j j and tau = sum l_j w_j over the exponents so far
    for j, w in exps:
        h = math.gcd(g, j)
        x = pow(g // h, -1, j // h)  # x*g = h (mod j), so h = x*g + y*j with integer y
        g, tau = h, (x * tau + (h - x * g) // j * w) % a
    return math.lcm(*(a // math.gcd(a, tau * (j // g) - w) for j, w in exps))


def check_stabilizer(germ: CurveGerm) -> None:
    """Raise EquivarianceViolated if a translate by fewer than a/m steps
    fixes the germ, i.e. the stated stabilizer order m is too small."""
    size = germ.orbit_size
    if size > 1 and (d := _stabilizing_twist(germ)) < size:
        raise EquivarianceViolated(
            f"translate by {d} fixes the germ; stated stabilizer order "
            f"{germ.m} is too small"
        )


def _same_data(g1: CurveGerm, g2: CurveGerm) -> bool:
    return (
        g1.group == g2.group
        and (g1.twist - g2.twist) % max(g1.group.a, 1) == 0
        and (g1.U.trunc, g1.V.trunc) == (g2.U.trunc, g2.V.trunc)
        and g1.U == g2.U
        and g1.V == g2.V
    )


def _series_det(matrix: list[list[PowerSeries]]) -> PowerSeries:
    """Determinant of a matrix of truncated series by elimination over
    formal Laurent series, pivoting on minimal valuation.  Truncation
    bookkeeping rides along every division, so the result's truncation
    honestly bounds what the input data determines."""
    n = len(matrix)
    m = [row[:] for row in matrix]
    sign = 1
    pivots: list[PowerSeries] = []
    for k in range(n):
        best, best_ord = None, None
        for i in range(k, n):
            entry = m[i][k]
            if entry.is_zero_to_precision():
                continue
            o = entry.order()
            if best_ord is None or o < best_ord:
                best, best_ord = i, o
        if best is None:
            # column vanished to precision: det is zero below the weakest
            # remaining truncation, scaled through the pivots found so far
            t = _tmin(*(m[i][k].trunc for i in range(k, n)))
            acc = PowerSeries.zero(t if t is not None else DEFAULT_TRUNCATION)
            for p in pivots:
                acc = acc * p
            return acc
        if best != k:
            m[k], m[best] = m[best], m[k]
            sign = -sign
        pivot = m[k][k]
        pivots.append(pivot)
        # divide memoises the pivot's inverse: one inversion per column
        for i in range(k + 1, n):
            if m[i][k].is_zero_to_precision():
                continue
            factor = m[i][k].divide(pivot)
            for j in range(k + 1, n):
                m[i][j] = m[i][j] - factor * m[k][j]
    det = pivots[0] if sign > 0 else -pivots[0]
    for p in pivots[1:]:
        det = det * p
    return det


def _swaps_coordinates(u: PowerSeries, v: PowerSeries) -> bool:
    """Whether the normal form puts z2 first: z1 is zero to precision or of higher order."""
    return u.is_zero_to_precision() or (not v.is_zero_to_precision() and v.order() < u.order())


def _inverse_lead(u: PowerSeries, n: int) -> tuple[int, int, int]:
    """1/lead as (re, im, d), meaning (re + im*i)/d, for lead the z^n coefficient of u."""
    lr, li = u.num[n]  # lead = (lr + li*i) / u.den, and 1/lead = u.den * conj / norm
    return u.den * lr, -u.den * li, lr * lr + li * li


def intersection_multiplicity(g1: CurveGerm, g2: CurveGerm) -> int:
    """Local intersection multiplicity of two distinct branches, by
    Halphen's formula (Casas-Alvero, Singularities of Plane Curves, 2000;
    Wall, Singular Points of Plane Curves, 2004).  In its normal form
    (s^n, W(s)), after the coordinate swap of characteristic_exponents
    and z1 -> z1/lead, the second branch has the local equation
    F(X, Y) = det(Y*I - W(C)), C the companion matrix of s^n - X, and the
    count is the t-order of F(U1(t)/lead, V1(t)).  Every root of s^n = X
    tends to 0, so a second pass of a curve through the origin is not
    counted and the value is symmetric.  W is deepened until the
    determinant is nonzero to precision.

    The branch of larger multiplicity n is the one put in normal form (on
    a tie, g2).  F has n factors Y - W(zeta s), one per root of s^n = X,
    whose orders in t add up to the count, so the larger n gives factors
    of lower order, which the substituted branch's stored truncation
    covers.  Germs that agree below the smaller stored truncation are
    not identical data: their determinant vanishes to precision, and the
    call raises PrecisionExhausted (exit 1).
    """
    if g1.group != g2.group:
        raise InvalidInput("germs live in different charts")
    if _same_data(g1, g2):
        raise DistinctBranchesRequired("the two germs carry identical data")
    if g1.multiplicity() > g2.multiplicity():
        g1, g2 = g2, g1
    u1, v1 = g1.U, g1.V
    u2, v2 = translate(g2, -g1.twist).materialize()

    if u1.is_zero_to_precision() and u2.is_zero_to_precision():
        raise DistinctBranchesRequired("both germs parametrize the z2 axis")
    if v1.is_zero_to_precision() and v2.is_zero_to_precision():
        raise DistinctBranchesRequired("both germs parametrize the z1 axis")

    if _swaps_coordinates(u2, v2):
        u1, v1, u2, v2 = v1, u1, v2, u2
    n = u2.order()
    x = u1._scaled(*_inverse_lead(u2, n))
    for w in _normal_forms(u2, v2, n):
        det = _series_det(_local_equation_matrix(x, v1, w, n))
        if not det.is_zero_to_precision():
            return det.order()
    raise PrecisionExhausted(
        "resultant vanishes to the available truncation; check that the "
        "branches are distinct"
    )


def _local_equation_matrix(x: PowerSeries, y: PowerSeries, w: PowerSeries, n: int) -> list:
    """y*I - W(C) at (x, y), C the companion matrix of s^n - x.

    The term w_k s^k of W sends s^j to w_k x^q s^i for k + j = q*n + i,
    so x^q is formed only for the q that W's terms reach.  A term at or
    past W's truncation T would enter entry (i, j) at a power
    q >= ceil((T + j - i)/n) of x: the entry is known only below that q
    times the order of x.
    """
    if w.trunc < n:
        raise PrecisionExhausted("normal form is known only below the multiplicity")
    powers = [_ONE_EXACT]
    rows = [[y if i == j else PowerSeries.zero(None) for j in range(n)] for i in range(n)]
    for k, (r, im) in w.num.items():
        for j in range(n):
            q, i = divmod(k + j, n)
            while len(powers) <= q:
                powers.append(powers[-1] * x)
            rows[i][j] = rows[i][j] - powers[q]._scaled(r, im, w.den)
    floor = x._value_floor()
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            cut = (w.trunc + j - i + n - 1) // n * floor
            row[j] = entry.with_truncation(_tmin(entry.trunc, cut))
    return rows


def _normalized_second_coordinate(u: PowerSeries, v: PowerSeries, n: int,
                                  depth: int) -> PowerSeries:
    """Rewrite the branch so the first coordinate is exactly t^n and
    return the second coordinate in the new parameter, known below
    min(depth, what the data determines).

    The rescaling z1 -> z1/lead is a linear change of coordinates on
    C^2, so it leaves the characteristic exponents and delta unchanged
    and no n-th root of lead is needed.
    Uses eta(t) = t * unit^(1/n) with eta^n = U/lead, then solves
    V = W(eta) for W by a triangular pass; no series reversion needed.
    When U is the single term lead*t^n, eta = t and W is V.  The unit is
    cut to the depth before its root is taken, so the work follows the
    depth asked for, not the stored truncation.

    W is known below _reach(u, v, n, depth): the unit U/(lead t^n) is
    known below r = u.trunc - n, so eta carries a relative error O(t^r)
    and W(eta) moves by O(t^(ord W + r)).
    """
    r = u.trunc - n
    bound = _reach(u, v, n, depth)
    if bound < 2:  # depth is at least 2: the data fall short
        raise PrecisionExhausted(
            "truncation too small to renormalize the first coordinate"
        )
    if len(u.num) == 1:
        return v.with_truncation(bound)
    unit = u.shift(-n)._scaled(*_inverse_lead(u, n)).with_truncation(min(r, depth))  # constant term 1
    eta = unit.nth_root_of_unit_series(n).shift(1)
    eta_pows: list[PowerSeries] = [_ONE_EXACT.with_truncation(bound)]
    for _ in range(bound - 1):
        eta_pows.append(eta_pows[-1] * eta)
    residual = v.with_truncation(bound)
    w = PowerSeries.zero(bound)
    for k in range(1, bound):
        c = residual.num.get(k)
        if c is None:
            continue
        # eta^k = t^k + O(t^(k+1)), so c / residual.den is W's k-th coefficient
        w = w + _series({k: c}, residual.den, None)
        residual = residual - eta_pows[k]._scaled(*c, residual.den)
    return w


def _reach(u: PowerSeries, v: PowerSeries, n: int, depth=None) -> int:
    """How deep the data determine W, cut to depth: min(v.trunc, depth,
    ord W + u.trunc - n), where ord W = ord V, since eta has order 1; a V
    zero to precision gives v.trunc."""
    return _tmin(v.trunc, depth, v._value_floor() + u.trunc - n)


def _normal_forms(u: PowerSeries, v: PowerSeries, n: int):
    """W at depths 2n, 4n, 8n, ... up to what the data determine, at most
    v.trunc; each consumer stops at the first W that settles its answer."""
    depth, reach = 2 * n, _reach(u, v, n)
    while depth < reach:
        yield _normalized_second_coordinate(u, v, n, depth)
        depth *= 2
    yield _normalized_second_coordinate(u, v, n, depth)


def characteristic_exponents(germ: CurveGerm) -> tuple[int, list[int]]:
    """Characteristic data (beta0; beta1..betag) of an irreducible
    branch, read from the support of the second coordinate after the
    first is normalized to a pure monomial, deepened until the gcd is 1."""
    u, v = (germ.V, germ.U) if _swaps_coordinates(germ.U, germ.V) else (germ.U, germ.V)
    n = u.order()
    if n == 1:
        return 1, []
    if v.is_zero_to_precision():  # germ series are never exact, so never a certain cover
        raise PrecisionExhausted(
            "second coordinate vanishes to precision; data cannot separate "
            "a high-contact branch from a multiple cover"
        )
    for w in _normal_forms(u, v, n):
        e, betas = n, []
        for k in w.support():
            if k % e:
                betas.append(k)
                e = math.gcd(e, k)
                if e == 1:
                    return n, betas
    raise PrecisionExhausted(
        "characteristic exponents do not resolve below the truncation"
    )


def _delta_from_characteristic(beta0: int, betas: list[int]) -> int:
    e_prev = beta0
    mu = 1 - beta0
    for beta in betas:
        e_next = math.gcd(e_prev, beta)
        mu += (e_prev - e_next) * beta
        e_prev = e_next
    if mu % 2 != 0:
        raise ArithmeticError("branch Milnor number must be even")
    return mu // 2


def self_intersection(germ: CurveGerm) -> int:
    """Local self-intersection (delta invariant) of one branch: the
    number of double points concentrated at the singularity.

    Computed from the characteristic exponents of the normalized
    parametrization.  Twists scale coordinates by units and never
    change delta.
    """
    exps = [e for s in (germ.U, germ.V) for e in s.support()]
    g = math.gcd(*exps)
    if g > 1:
        raise MultiplyCovered(
            f"parameter exponents share a factor {g}; not an irreducible branch"
        )
    if germ.multiplicity() == 1:
        return 0
    beta0, betas = characteristic_exponents(germ)
    return _delta_from_characteristic(beta0, betas)
