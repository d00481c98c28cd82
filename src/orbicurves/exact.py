"""Exact scalar arithmetic: Gaussian rationals.

Only germ imports this module: a GaussianRational is a germ series
coefficient at the API boundary (PowerSeries.coeff, and the terms handed
to PowerSeries, whose real values GaussianRational.of reads).  Series
arithmetic, group translates included and the blow-ups of the germ
invariants, runs on integers in germ, and the report values are stdlib
Fractions, so no report is built on these scalars.  No floating point appears anywhere: a Gaussian
rational is a pair of Fractions, and of rejects a float or a bool part.
The "a/b" text of a rational lives in decode, next to its parser.
"""

from __future__ import annotations

from fractions import Fraction

from .decode import parse_rational
from .errors import InvalidInput


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
        """re + im*i from parts that are ints, Fractions or "a/b" strings:
        a float or a bool part, or any other, is InvalidInput."""
        return GaussianRational(_rational(re), _rational(im))

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


def _rational(x) -> Fraction:
    """x as an exact rational: no binary expansion, no truth value."""
    if isinstance(x, str):
        return parse_rational(x)
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise InvalidInput(f'a coefficient is an int, a Fraction or an "a/b" string, got {x!r}')


GR_ZERO = GaussianRational.of(0)
GR_ONE = GaussianRational.of(1)
