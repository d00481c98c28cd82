"""Parametrized curve germs in a cyclic quotient chart and their exact
local invariants.

A germ is a pair of truncated power series (U(z), V(z)) over Q(i) with
zero constant terms, the two coordinates of a holomorphic map of a disc
into C^2, carried together with the local group data: the chart's cyclic
action (z1, z2) -> (mu_a z1, mu_a^b z2) and the order m of the subgroup
of Z_a preserving the image.  Both local invariants are read off the
leading terms first, from a = ord U and b = ord V and the leading
coefficients (Halphen's formula; Wall, Singular Points of Plane Curves,
2004): a branch with coprime a and b has delta (a-1)(b-1)/2, and two
branches whose Newton edges differ in slope or in edge coefficient meet
min(a1*b2, a2*b1) times.

Both invariants are also sums over infinitely near points by Noether's
formulas (Casas-Alvero, Singularities of Plane Curves, 2000, ch. 3):
I = sum m1*m2 over the points two branches share, and delta = sum
m(m-1)/2 over the points of one branch.  So each invariant is one loop:
while the leading-term rule does not settle the germ, blow up the
origin at the tangent, add the point's term and pass to the strict
transforms.  A tangent that the stored jets do not fix raises
PrecisionExhausted, and so, in the end, does a pair that the stored
jets do not separate: every blow-up spends truncation.

Exactness policy: a series is a jet, known only below an integer
truncation >= 1, and truncation orders are tracked through every
operation, including the precision cost of divisions; a constant enters
at the truncation of the series it meets.  Any answer whose value is
not pinned down below the tracked truncation raises PrecisionExhausted
instead of guessing.  An order is exact only where a
series stores a term; a series zero to precision bounds it below by its
truncation.  Coefficients never leave Q(i):
a series stores them as Gaussian-integer numerators over one positive
integer denominator, so its arithmetic runs on integers.
A group translate is not a germ of its own: intersection_multiplicity
(g1, g2, k) rotates one germ's numerators by a power of mu_a, which it
can do only when mu_a^k lies in {1, i, -1, -i}.

A germ's stated stabilizer order m is, like every value here, a
question about the jet: the constructor rejects m only when no
completion of the stored terms has it, that is when the germ is not
equivariant for an injective Z_m -> Z_a.  A jet that passes, stored
below T with exponent k*u (k = a/m), has the completion adding z^j +
z^(j+m) to U, j >= T and j = u (mod m), of stabilizer exactly m.  So
(t + O(t^2), t + O(t^2)) at type (4, 1) builds with m = 1, 2 and 4,
and a common factor of the stored exponents, as in (t^2, t^4), is no
multiple cover: self_intersection raises PrecisionExhausted.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .decode import MAX_PRECISION, int_, list_, obj, rational
from .errors import (
    DistinctBranchesRequired,
    EquivarianceViolated,
    InvalidInput,
    PrecisionExhausted,
    UnrepresentableCoefficients,
    ZeroToPrecision,
)
from .exact import GR_ZERO, GaussianRational
from .lens import SingularityType

DEFAULT_TRUNCATION = 32


class PowerSeries:
    """Univariate power series over Q(i) known only below an integer
    truncation trunc >= 1: the stored terms plus O(z^trunc), a jet.

    Coefficients are Gaussian-integer numerators num[e] = (re, im) over
    one positive integer denominator den, with the gcd of den and every
    numerator part divided out; GaussianRational appears only at the
    boundary (coeff, JSON, str), and the constructor reads each term
    through _coefficient.  Equality compares coefficients below the
    smaller truncation, which is the only comparison the data supports.
    """

    __slots__ = ("num", "den", "trunc", "_inverse")

    def __init__(self, terms, trunc=DEFAULT_TRUNCATION):
        parts = {int_(e, "series exponent"): _coefficient(c) for e, c in dict(terms).items()}
        self._set(*_numerators(parts), trunc)

    def _set(self, num: dict, den: int, trunc: int) -> None:
        """Store num/den below trunc: zero terms and terms at or above
        trunc are dropped and the content gcd is divided out."""
        if type(trunc) is not int or trunc < 1:
            raise InvalidInput(f"truncation must be >= 1, got {trunc!r}")
        clean = {}
        g = den
        for e, c in num.items():
            if e < 0:
                raise InvalidInput(f"negative exponent {e}")
            if e < trunc and (c[0] or c[1]):
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
            raise ZeroToPrecision(f"series vanishes below truncation {self.trunc}")
        return min(self.num)

    def with_truncation(self, trunc: int) -> "PowerSeries":
        """The stored terms below trunc, known below trunc.  Raising the
        truncation asserts that every term between the old and the new
        truncation is zero (the caller's responsibility)."""
        return _series(self.num, self.den, trunc)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PowerSeries):
            return NotImplemented
        cut = min(self.trunc, other.trunc)
        da, db = self.den, other.den
        a = {e: (r * db, i * db) for e, (r, i) in self.num.items() if e < cut}
        b = {e: (r * da, i * da) for e, (r, i) in other.num.items() if e < cut}
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
        return _series(out, self.den * fa, min(self.trunc, other.trunc))

    def __add__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, 1)

    def __neg__(self) -> "PowerSeries":
        return _series({e: (-r, -i) for e, (r, i) in self.num.items()}, self.den, self.trunc)

    def __sub__(self, other: "PowerSeries") -> "PowerSeries":
        return self._combine(other, -1)

    def _value_floor(self) -> int:
        """A lower bound for the order of the full (unknown) series."""
        return min(self.num) if self.num else self.trunc

    def __mul__(self, other: "PowerSeries") -> "PowerSeries":
        va, vb = self._value_floor(), other._value_floor()
        # error terms: O(t^Na)*g = O(t^(Na+vb)) and f*O(t^Nb) = O(t^(Nb+va))
        trunc = min(self.trunc + vb, other.trunc + va)
        if not self.num or not other.num:
            return _series({}, 1, trunc)
        a, b = sorted(self.num.items()), sorted(other.num.items())
        size = min(a[-1][0] + b[-1][0] + 1, trunc)
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

    def scale(self, c) -> "PowerSeries":
        """self * c, for a coefficient c read as the constructor reads one."""
        num, den = _numerators({0: _coefficient(c)})
        return self._scaled(*num[0], den)

    def shift(self, k: int) -> "PowerSeries":
        """Multiply by z^k (k may be negative if all exponents allow)."""
        return _series({e + k: c for e, c in self.num.items()}, self.den, self.trunc + k)

    def invert_unit(self) -> "PowerSeries":
        """Inverse of a unit (nonzero constant term).

        Starts from 1/c = den * conj(c) / |c|^2 for c = num[0], which is
        the whole inverse of a constant, and runs Newton's step
        g -> g * (2 - self * g), which doubles the orders known.  Every
        product is reduced by its content, so the integers stay the size
        of the reduced inverse; a recurrence over the common
        denominator c^(k+1) carries integers growing like c^k, far larger
        when c is large.
        """
        if 0 not in self.num:
            raise InvalidInput("only units (nonzero constant term) invert")
        cr, ci = self.num[0]
        known = self.trunc if len(self.num) == 1 else 1
        inv = _series({0: (self.den * cr, -self.den * ci)}, cr * cr + ci * ci, known)
        while known < self.trunc:
            known = min(2 * known, self.trunc)
            inv = inv.with_truncation(known)
            inv = inv * (_series({0: (2, 0)}, 1, known) - self * inv)
        return inv

    def _unit_inverse(self, v: int) -> "PowerSeries":
        """Inverse of self / z^v, known below self.trunc - v and memoised.
        A quotient by self reads its coefficients only below that."""
        if self._inverse is None:
            self._inverse = (self.shift(-v) if v else self).invert_unit()
        return self._inverse

    def divide(self, other: "PowerSeries") -> "PowerSeries":
        """Exact division in the Laurent sense: requires ord(self) >=
        ord(other).  Keeps relative precision: for v = ord(other) the
        quotient q is known below min(T_self - v, T_other - v + ord q)."""
        v = other.order()  # raises ZeroToPrecision for 0-to-precision divisor
        if self.num and self.order() < v:
            raise InvalidInput("division would produce negative exponents")
        if not self.num:
            if self.trunc - v < 1:
                raise ZeroToPrecision("quotient is zero to no significant precision")
            return _series({}, 1, self.trunc - v)
        num = self.shift(-v) if v else self
        return num * other._unit_inverse(v)

    def nth_root_of_unit_series(self, n: int) -> "PowerSeries":
        """(1 + h)^(1/n) for a series with constant term exactly 1, as the
        binomial series sum_k binom(1/n, k) h^k.  No code of the package
        calls it; it stays for the benchmark's tracer (bench/tracer.py)."""
        if self.num.get(0) != (self.den, 0):
            raise InvalidInput("series must have constant term 1")
        out = power = _series({0: (1, 0)}, 1, self.trunc)
        h = self - out
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
        body = " + ".join(f"({self.coeff(e)})*z^{e}" for e in self.support()) or "0"
        return f"{body} + O(z^{self.trunc})"

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


def _coefficient(c) -> tuple:
    """The (re, im) parts of a GaussianRational or of a real value, each
    part read by GaussianRational.of: an int, a Fraction or an "a/b"
    string."""
    re, im = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
    c = GaussianRational.of(re, im)
    return c.re, c.im


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


def _stabilizer_exponent(U: PowerSeries, V: PowerSeries, group: SingularityType, m: int) -> int:
    """The exponent s in [0, a) with U(mu_m z) = mu_a^s U(z) and
    V(mu_m z) = mu_a^(sb) V(z), k = a/m: rho(mu_m) scales z^j by
    mu_a^(kj), so a U exponent j needs kj = s (mod a) and a V exponent
    kj = s*b.  Raises EquivarianceViolated unless exactly one s remains
    and gcd(s, a) = k.  When b = 0 only U's exponents fix s, and with
    none s = k, the least exponent of an injective action."""
    a, b = group.a, group.b
    k = a // m
    shifts = {k * j % a for j in U.num}
    if b:  # SingularityType makes a nonzero b a unit mod a
        b_inv = pow(b, -1, a)
        shifts.update(k * j * b_inv % a for j in V.num)
    if len(shifts) > 1 or (not b and any(k * j % a for j in V.num)):
        raise EquivarianceViolated(
            f"germ is not equivariant for group {group.to_json()} with m={m}"
        )
    s = shifts.pop() if shifts else k % a
    if math.gcd(s, a) != k:
        raise EquivarianceViolated(
            f"no injective order-{m} action is compatible with the germ supports"
        )
    return s


class CurveGerm:
    """One branch through the origin of a chart with cyclic action data.

    U, V: coordinate series (zero constant term, not both zero).
    group: the chart action type (a, b); a = 1 means a regular point.
    m: order of the stabilizer of the image (divides a).  The
       constructor checks once (_stabilizer_exponent) that the germ is
       equivariant for an injective Z_m -> Z_a, all a stored jet settles.
    """

    __slots__ = ("U", "V", "group", "m", "_rho_exponent")

    def __init__(self, U: PowerSeries, V: PowerSeries,
                 group: SingularityType = SingularityType(1, 0), m: int = 1):
        if U.is_zero_to_precision() and V.is_zero_to_precision():
            raise InvalidInput("germ coordinates must not both vanish")
        for s in (U, V):
            if 0 in s.num:
                raise InvalidInput("germ must pass through the origin")
        a = group.a
        if a < 1 or m < 1 or a % m != 0:
            raise EquivarianceViolated(f"stabilizer order {m} must divide the group order {a}")
        self.U = U
        self.V = V
        self.group = group
        self.m = m
        self._rho_exponent = _stabilizer_exponent(U, V, group, m)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CurveGerm):
            return NotImplemented
        return (
            self.U == other.U
            and self.V == other.V
            and self.group == other.group
            and self.m == other.m
        )

    def weights(self) -> tuple[int, int]:
        """Weights (w1, w2) of rho(mu_m) on the chart coordinates,
        reduced mod m: rho(mu_m) acts by (mu_m^{w1} z1, mu_m^{w2} z2)."""
        sigma = self._rho_exponent // (self.group.a // self.m)
        return (sigma % self.m, (sigma * self.group.b) % self.m)

    @property
    def orbit_size(self) -> int:
        """Number of group translates, a/m: the translates are
        (mu_a^k U, mu_a^{kb} V) for 0 <= k < orbit_size."""
        return self.group.a // self.m

    @staticmethod
    def from_json(data, where: str = "germ") -> "CurveGerm":
        obj(data, where, "U", "V", optional=("group", "m"))
        return CurveGerm(
            U=PowerSeries.from_json(data["U"], f"{where}.U"),
            V=PowerSeries.from_json(data["V"], f"{where}.V"),
            group=SingularityType.from_json(data.get("group", [1, 0]), f"{where}.group"),
            m=int_(data.get("m", 1), f"{where}.m"),
        )


def germ_from_polynomials(u_terms, v_terms, group=SingularityType(1, 0), m=1,
                          trunc=DEFAULT_TRUNCATION) -> CurveGerm:
    """The germ of the {exp: coeff} dicts u_terms and v_terms, each a
    PowerSeries known below trunc, so each coefficient is read as the
    PowerSeries constructor reads one."""
    return CurveGerm(PowerSeries(u_terms, trunc), PowerSeries(v_terms, trunc), group, m)


_POWERS_OF_I = ((1, 0), (0, 1), (-1, 0), (0, -1))  # i^q for q mod 4, as (re, im)


def _rotated(germ: CurveGerm, k: int) -> tuple[PowerSeries, PowerSeries]:
    """Coordinate series (mu_a^k U, mu_a^{kb} V) of the translate by k,
    when mu_a^k = i^(4k/a) lies in Q(i).  Z_a is abelian, so a translate
    of an equivariant germ is equivariant for the same action: nothing is
    checked again."""
    a, b = germ.group.a, germ.group.b
    k %= a
    if 4 * k % a:
        raise UnrepresentableCoefficients(
            f"translate by {k} of a Z_{a} action needs a root of "
            "unity outside the Gaussian rationals"
        )
    q = 4 * k // a
    return tuple(
        s if p % 4 == 0 else s._scaled(*_POWERS_OF_I[p % 4], 1)
        for s, p in ((germ.U, q), (germ.V, q * b))
    )


def _times(c: tuple, w: tuple) -> tuple:
    """The product of two Gaussian integers (re, im)."""
    return c[0] * w[0] - c[1] * w[1], c[0] * w[1] + c[1] * w[0]


def _edge_coefficient(u: PowerSeries, v: PowerSeries, p: int, q: int) -> tuple:
    """lambda = V_lead^p / U_lead^q as Z[i] numerator and denominator:
    a branch with (ord U, ord V) proportional to (p, q) satisfies
    V^p = lambda U^q to leading order."""
    v_lead, u_lead = v.num[min(v.num)], u.num[min(u.num)]  # over v.den and u.den
    lam_num, lam_den = (u.den ** q, 0), (v.den ** p, 0)
    for _ in range(p):
        lam_num = _times(lam_num, v_lead)
    for _ in range(q):
        lam_den = _times(lam_den, u_lead)
    return lam_num, lam_den


def _leading_count(u1: PowerSeries, v1: PowerSeries, u2: PowerSeries, v2: PowerSeries) -> int | None:
    """I((u1, v1), (u2, v2)) read off the leading terms, or None where
    they do not fix it.

    A branch with a = ord U and b = ord V has one Newton edge, from
    (b, 0) to (0, a), so the other branch meets it min(a1*b2, a2*b1)
    times when the two products differ (Halphen's formula; Wall 2004).
    When they are equal the edges share the primitive direction (p, q),
    and the count is a1*b2 unless the edge coefficients lambda agree.
    An order is exact when the series stores a term; a series zero to
    precision only bounds it below by its truncation, so a product is
    used only when it is exact and below the other's bound."""
    a1, b1, a2, b2 = (s._value_floor() for s in (u1, v1, u2, v2))
    x, y = a1 * b2, a2 * b1
    x_exact, y_exact = bool(u1.num and v2.num), bool(u2.num and v1.num)
    if x_exact and x < y:
        return x
    if y_exact and y < x:
        return y
    if x_exact and y_exact:  # x == y
        g = math.gcd(a1, b1)
        (n1, d1), (n2, d2) = (_edge_coefficient(u, v, a1 // g, b1 // g)
                              for u, v in ((u1, v1), (u2, v2)))
        if _times(n1, d2) != _times(n2, d1):
            return x
    return None


_UNFIXED_PAIR = ("the stored jets do not fix the intersection number; "
                 "check that the branches are distinct")
_UNFIXED_DELTA = "the stored jets do not fix the delta invariant of the branch"


def _tangent(u: PowerSeries, v: PowerSeries) -> tuple | None:
    """The tangent of the branch (u, v) as a point (re, im, d) of P^1:
    the slope c = V_lead/U_lead = (re + im*i)/d for d > 0, reduced, so
    (0, 0, 1) is the z1 axis; (1, 0, 0) is the z2 axis.  None when the
    stored jets do not fix it.  An order is exact where a term is stored;
    a series zero to precision bounds it below by its truncation."""
    a, b = u._value_floor(), v._value_floor()
    if u.num and a < b:
        return 0, 0, 1
    if v.num and b < a:
        return 1, 0, 0
    if not (u.num and v.num):
        return None
    num, (dr, di) = _edge_coefficient(u, v, 1, 1)  # c = num / (dr + di*i)
    re, im = _times(num, (dr, -di))
    d = dr * dr + di * di
    g = math.gcd(re, im, d)
    return re // g, im // g, d // g


def _blow_up(u: PowerSeries, v: PowerSeries, tangent: tuple) -> tuple[PowerSeries, PowerSeries]:
    """The strict transform of (u, v) at the point of its tangent on the
    exceptional divisor: (u, v/u - c), or (u/v, v) for the z2 axis."""
    re, im, d = tangent
    if not d:
        return u.divide(v), v
    q = v.divide(u)
    return u, q - _series({0: (re, im)}, d, q.trunc)


def _multiplicity(u: PowerSeries, v: PowerSeries) -> int:
    """Multiplicity of the branch at a point whose tangent is fixed,
    where the smaller order is exact."""
    return min(u._value_floor(), v._value_floor())


def intersection_multiplicity(g1: CurveGerm, g2: CurveGerm, k: int = 0) -> int:
    """Local intersection multiplicity I(g1, mu_a^k g2) of g1 and the
    group translate by k of g2, two distinct branches.

    One Noether loop: while the leading terms do not fix the count
    (_leading_count), the branches share their tangent, add m1*m2 and
    are blown up there.  Branches whose Newton edges differ in slope, or
    share it with distinct edge coefficients, meet min(a1*b2, a2*b1)
    times, a = ord U and b = ord V, with no blow-up; two distinct
    tangent lines are one such case.

    Identical data, compared after the rotation and at equal stored
    truncations, raise DistinctBranchesRequired, so one orbit given
    twice exits 2.  Germs that agree below the smaller stored truncation
    are not identical data, and neither are two germs of one axis whose
    other coordinate is zero to precision: the blow-ups spend the
    truncation without separating them, and the call raises
    PrecisionExhausted (exit 1).
    """
    if g1.group != g2.group:
        raise InvalidInput("germs live in different charts")
    u1, v1 = g1.U, g1.V
    u2, v2 = _rotated(g2, k)
    if (u1.trunc, v1.trunc) == (u2.trunc, v2.trunc) and u1 == u2 and v1 == v2:
        raise DistinctBranchesRequired("the two germs carry identical data")
    total = 0
    while (count := _leading_count(u1, v1, u2, v2)) is None:
        tangent = _tangent(u1, v1)
        if tangent is None or tangent != _tangent(u2, v2):
            raise PrecisionExhausted(_UNFIXED_PAIR)
        total += _multiplicity(u1, v1) * _multiplicity(u2, v2)
        u1, v1 = _blow_up(u1, v1, tangent)
        u2, v2 = _blow_up(u2, v2, tangent)
    return total + count


def _leading_delta(u: PowerSeries, v: PowerSeries) -> int | None:
    """delta of the branch (u, v) read off the leading terms, or None
    where they do not fix it: 0 at multiplicity 1, and (a-1)(b-1)/2 for
    exact coprime orders a = ord U and b = ord V, the one characteristic
    pair being (min, max) of the two."""
    if 1 in u.num or 1 in v.num:
        return 0
    if u.num and v.num:
        a, b = min(u.num), min(v.num)
        if math.gcd(a, b) == 1:
            return (a - 1) * (b - 1) // 2
    return None


def self_intersection(germ: CurveGerm) -> int:
    """Local self-intersection (delta invariant) of one branch: the
    number of double points concentrated at the singularity.

    One Noether loop: while the leading terms do not fix the rest
    (_leading_delta), add m(m-1)/2 and blow the branch up at its
    tangent.  A group translate scales the coordinates by units, so
    every branch of an orbit has the same delta.  Stored exponents with
    a common factor, as (t^2, t^4), end in PrecisionExhausted.
    """
    u, v = germ.U, germ.V
    total = 0
    while (rest := _leading_delta(u, v)) is None:
        tangent = _tangent(u, v)
        if tangent is None:
            raise PrecisionExhausted(_UNFIXED_DELTA)
        m = _multiplicity(u, v)
        total += m * (m - 1) // 2
        u, v = _blow_up(u, v, tangent)
    return total + rest
