"""Closed orbifold Riemann surfaces and their basic invariants.

A surface here is |Sigma| (genus g) with finitely many cone points of
orders m_i, carried with a global multiplicity m_Sigma >= 1 (the
generic isotropy: m_Sigma = 1 for a reduced surface).  Cone orders are
required to be proper multiples of m_Sigma, so the reduction of the
surface divides all local structure.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .decode import int_, list_, obj
from .errors import InvalidParameters


class OrbifoldSurface:
    __slots__ = ("m_sigma", "genus", "orders")

    def __init__(self, m_sigma: int, genus: int, orders=()):
        if m_sigma < 1:
            raise InvalidParameters(f"multiplicity must be >= 1, got {m_sigma}")
        if genus < 0:
            raise InvalidParameters(f"genus must be >= 0, got {genus}")
        self.m_sigma = m_sigma
        self.genus = genus
        self.orders = tuple(orders)
        for m in self.orders:
            if m <= m_sigma:
                raise InvalidParameters(
                    f"cone order {m} must exceed the surface multiplicity {m_sigma}"
                )
            if m % m_sigma != 0:
                raise InvalidParameters(
                    f"cone order {m} must be a multiple of the surface multiplicity {m_sigma}"
                )

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrbifoldSurface):
            return NotImplemented
        return (
            self.m_sigma == other.m_sigma
            and self.genus == other.genus
            and self.orders == other.orders
        )

    def is_reduced(self) -> bool:
        return self.m_sigma == 1

    @staticmethod
    def from_json(data, where: str = "domain") -> "OrbifoldSurface":
        obj(data, where, "genus", optional=("m_sigma", "orders"))
        return OrbifoldSurface(
            m_sigma=int_(data.get("m_sigma", 1), f"{where}.m_sigma"),
            genus=int_(data["genus"], f"{where}.genus"),
            orders=list_(data.get("orders", []), f"{where}.orders", item=int_),
        )


def orbifold_genus(surface: OrbifoldSurface) -> Fraction:
    """Genus of the orbifold surface as a rational number.

    g_Sigma = g/m_Sigma + sum_i (1/(2 m_Sigma) - 1/(2 m_i)); each cone
    point adds the defect between a generic point and its own order.
    Every term is an integer over 2 lcm(m_Sigma, m_1, ...).
    """
    ms = surface.m_sigma
    den = 2 * lcm(ms, *surface.orders)
    num = surface.genus * (den // ms)
    for m in surface.orders:
        num += den // (2 * ms) - den // (2 * m)
    return Fraction(num, den)


def tangent_c1(surface: OrbifoldSurface) -> Fraction:
    """Pairing of c_1 of the orbifold tangent bundle with the surface.

    Equal to 2/m_Sigma - 2*g_Sigma; for a reduced surface this is the
    familiar 2 - 2g - sum_i (1 - 1/m_i).
    """
    return Fraction(2, surface.m_sigma) - 2 * orbifold_genus(surface)
