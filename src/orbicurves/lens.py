"""Lens spaces, cyclic quotient singularity types, and the cobordism
congruence obstruction.

A lens space L(p, q) is the quotient of the 3-sphere by the Z_p action
(z1, z2) -> (mu z1, mu^q z2).  The cone on it is the cyclic quotient
singularity of type (p, q), whose isolated singular point has local
group Z_p acting on C^2 with weights (1, q).

The obstruction computed here answers: for which q' can the standard
singular symplectic filling machinery connect L(p, q) to L(p, q')?  The
answer is an integrality test on a rational index d (chern_index
evaluates it).  With r = (1 - l*p)/(p+q), so that r = q^{-1} (mod p),
the two cases give d_A = 2 + (r - l')/p and d_B = 2 + (r - q')/p, hence
case A holds iff q' = q and case B iff q*q' = 1 (mod p).  This module
uses that closed form; chern_index.index_integrality_scan is its oracle.
cobordism_congruence returns its record as the report's own dict.
"""

from __future__ import annotations

import math

from .decode import int_, list_
from .errors import InvalidInput, InvalidParameters, NotCoprime


def mod_inverse(a: int, n: int) -> int:
    """Inverse of a modulo n, in the range [1, n-1].

    Requires n >= 2 and gcd(a, n) = 1; raises NotCoprime otherwise.

    >>> mod_inverse(5, 7)
    3
    >>> mod_inverse(2, 5)
    3
    """
    if n < 2:
        raise InvalidInput(f"modulus must be >= 2, got {n}")
    if math.gcd(a, n) != 1:
        raise NotCoprime(f"{a} is not invertible mod {n}")
    return pow(a, -1, n)


class SingularityType:
    """Cyclic quotient singularity data (a, b): Z_a acting on C^2 by
    (z1, z2) -> (mu_a z1, mu_a^b z2).  a = 1 means a regular point.
    Two types are equal when their data are."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int):
        if a < 1:
            raise InvalidParameters(f"group order must be >= 1, got a={a}")
        if not 0 <= b < a:
            raise InvalidParameters(f"weight must satisfy 0 <= b < a, got (a, b)=({a}, {b})")
        if a > 1 and b > 0 and math.gcd(a, b) != 1:
            raise InvalidParameters(
                f"weights of an isolated singularity must be coprime, got ({a}, {b})"
            )
        self.a = a
        self.b = b

    def __eq__(self, other) -> bool:
        if not isinstance(other, SingularityType):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    @property
    def order(self) -> int:
        return self.a

    def is_trivial(self) -> bool:
        return self.a == 1

    def to_json(self):
        return [self.a, self.b]

    @staticmethod
    def from_json(data, where: str = "group") -> "SingularityType":
        return SingularityType(*list_(data, where, item=int_, length=2))


def _check_lens_params(p: int, q: int, name: str = "q") -> None:
    if p < 2:
        raise InvalidParameters(f"lens space order must be >= 2, got p={p}")
    if not 0 < q < p:
        raise InvalidParameters(f"{name} must satisfy 0 < {name} < p, got {q}")
    if math.gcd(p, q) != 1:
        raise InvalidParameters(f"p and {name} must be coprime, got ({p}, {q})")


class LensSpace:
    """L(p, q) with the canonical parameter range 0 < q < p, gcd(p,q)=1."""

    __slots__ = ("p", "q")

    def __init__(self, p: int, q: int):
        _check_lens_params(p, q)
        self.p = p
        self.q = q

    def cone_type(self) -> SingularityType:
        return SingularityType(self.p, self.q)


def lens_equivalent(l1: LensSpace, l2: LensSpace, oriented: bool = False) -> bool:
    """Diffeomorphism classification of lens spaces.

    Unoriented: L(p, q) ~ L(p, q') iff q' = +-q^{+-1} (mod p).
    Oriented (orientation-preserving): only q' = q^{+-1} (mod p).
    """
    if l1.p != l2.p:
        return False
    p, q, qp = l1.p, l1.q, l2.q
    candidates = {q % p, mod_inverse(q, p)}
    if not oriented:
        candidates |= {(-q) % p, (-mod_inverse(q, p)) % p}
    return qp % p in candidates


def cobordism_congruence(p: int, q: int, qprime: int) -> dict:
    """Integrality obstruction for connecting L(p, q) to L(p, q'), as
    the report's congruence record: a dict with keys p, q, qprime, l, r,
    lprime, caseA_integral, caseB_integral, allowed, in that order.

    l is the inverse of p mod p+q, r the exact integer (1 - l*p)/(p+q),
    l' the inverse of q' mod p.  The two cases correspond to the two
    candidate local forms of a holomorphic annulus limit at the second
    cone point: case A with weights (l', 1) where l'*q' = 1 (mod p), case
    B with weights (1, q'); caseA/caseB record integrality of the index
    for each, and allowed means at least one passes.  Since
    d_A = 2 + (r - l')/p and d_B = 2 + (r - q')/p with r = q^{-1}
    (mod p), caseA is q' = q and caseB is q*q' = 1 (mod p).
    """
    _check_lens_params(p, q)
    _check_lens_params(p, qprime, name="q'")
    l = mod_inverse(p, p + q)
    num = 1 - l * p
    if num % (p + q) != 0:
        raise ArithmeticError("1 - l*p must be divisible by p+q")
    r = num // (p + q)
    case_a = qprime == q
    case_b = (q * qprime) % p == 1
    return {
        "p": p,
        "q": q,
        "qprime": qprime,
        "l": l,
        "r": r,
        "lprime": mod_inverse(qprime, p),
        "caseA_integral": case_a,
        "caseB_integral": case_b,
        "allowed": case_a or case_b,
    }


def allowed_q_set(p: int, q: int) -> list[int]:
    """All q' in (0, p) passing the congruence test, ascending: q and
    q^{-1} mod p."""
    _check_lens_params(p, q)
    return sorted({q, mod_inverse(q, p)})
