"""Exact scalar arithmetic: Gaussian rationals and the fourth roots of
unity.

The report values downstream (genus formulas, the index, the
coefficients of germ series at the API and JSON boundary) are built on
these scalars; series arithmetic itself runs on integers in germ.py.
No floating point appears anywhere; rationals are stdlib Fractions
(arbitrary-precision integers, canonical reduced form with positive
denominator) and Gaussian rationals are pairs of them.  The "a/b" text
of a rational lives in decode, next to its parser.  The lens-space
congruences need only integers, and their modular inverse lives in
lens, so the lens commands load neither this module nor fractions.
"""

from __future__ import annotations

from fractions import Fraction


class GaussianRational:
    """Element of Q(i): re + im*i with exact rational parts.

    Supports field arithmetic; comparisons are exact equality only (the
    field has no useful order).
    """

    __slots__ = ("re", "im")

    def __init__(self, re: Fraction, im: Fraction):
        self.re = re
        self.im = im

    def __eq__(self, other) -> bool:
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return self.re == other.re and self.im == other.im

    @staticmethod
    def of(re, im=0) -> "GaussianRational":
        return GaussianRational(Fraction(re), Fraction(im))

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re + other.re, self.im + other.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other: "GaussianRational") -> "GaussianRational":
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    def __truediv__(self, other: "GaussianRational") -> "GaussianRational":
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm(self) -> Fraction:
        """Field norm re^2 + im^2 (a nonnegative rational)."""
        return self.re * self.re + self.im * self.im

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def __pow__(self, k: int) -> "GaussianRational":
        if k < 0:
            return GR_ONE / self.__pow__(-k)
        out = GR_ONE
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}*i"



GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)

# mu_4^k for k mod 4: the only roots of unity inside Q(i).
FOURTH_ROOTS = (GR_ONE, GR_I, -GR_ONE, -GR_I)


def fourth_root_power(k: int) -> GaussianRational:
    """i^k as an exact Gaussian rational."""
    return FOURTH_ROOTS[k % 4]
