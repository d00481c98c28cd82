"""Exact scalar arithmetic: rationals, Gaussian rationals and the
fourth roots of unity.

The report values downstream (genus formulas, the index, the
coefficients of germ series at the API and JSON boundary) are built on
these scalars; series arithmetic itself runs on integers in germ.py.
No floating point appears anywhere; rationals are stdlib Fractions
(arbitrary-precision integers, canonical reduced form with positive
denominator) and Gaussian rationals are pairs of them.  The lens-space
congruences need only integers, and their modular inverse lives in
lens, so the lens commands load neither this module nor fractions.
"""

from __future__ import annotations

import sys
from fractions import Fraction


def format_rational(x) -> str:
    """Canonical textual form of an int or Fraction: "a/b" with b > 1,
    plain "a" for integers.  A side longer than the interpreter writes
    (sys.get_int_max_str_digits) is an OverflowError.

    >>> format_rational(Fraction(-26, 14))
    '-13/7'
    >>> format_rational(Fraction(10, 2))
    '5'
    """
    try:
        return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise OverflowError(f"cannot print a report value of more than {limit} digits") from None


def is_integer(x) -> bool:
    """True iff the int or Fraction is an integer.

    >>> is_integer(Fraction(13, 35))
    False
    >>> is_integer(Fraction(14, 7))
    True
    """
    return x.denominator == 1


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
            return format_rational(self.re)
        if self.re == 0:
            return f"{format_rational(self.im)}*i"
        sign = "+" if self.im > 0 else "-"
        return f"{format_rational(self.re)}{sign}{format_rational(abs(self.im))}*i"



GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
GR_I = GaussianRational.of(0, 1)

# mu_4^k for k mod 4: the only roots of unity inside Q(i).
FOURTH_ROOTS = (GR_ONE, GR_I, -GR_ONE, -GR_I)


def fourth_root_power(k: int) -> GaussianRational:
    """i^k as an exact Gaussian rational."""
    return FOURTH_ROOTS[k % 4]
