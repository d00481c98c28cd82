"""Shared exception types.

Every computational failure mode gets its own class so callers (and the
CLI's exit-code mapping) can react without string matching.  Input-shape
problems derive from ValueError, precision problems from ArithmeticError.
"""


class InvalidInput(ValueError):
    """Malformed or inconsistent input data."""


class NotCoprime(InvalidInput):
    """A modular inverse was requested for non-coprime arguments."""


class InvalidParameters(InvalidInput):
    """Parameters outside the documented domain (e.g. non-coprime p, q)."""


class ZeroToPrecision(ArithmeticError):
    """A truncated series vanishes below its truncation order; its true
    order, if any, is not determined by the data."""


class PrecisionExhausted(ArithmeticError):
    """A result's order or value is not fixed by the stored truncations:
    some completion of the series would change it.  The CLI exits 1."""


class DistinctBranchesRequired(InvalidInput):
    """An intersection number was requested for two copies of the same
    branch."""


class EquivarianceViolated(InvalidInput):
    """Germ data is not equivariant for its stated local group action,
    or stated stabilizer data is inconsistent with the germ."""


class UnrepresentableCoefficients(ArithmeticError):
    """A requested group translate needs a root of unity outside the
    Gaussian rationals, so its coefficients cannot be formed exactly."""


class AmbientMismatch(InvalidInput):
    """Two curve configurations refer to different ambient models."""


class AdjunctionViolated(ArithmeticError):
    """A computation produced genus bookkeeping that cannot belong to a
    curve.  The adjunction and intersection reports never raise it;
    embeddedness_verdict does, for a report whose identity fails or
    whose defect is negative."""


class Disallowed(InvalidInput):
    """Construction requested for parameters excluded by the congruence
    obstruction."""


class WeightOutOfRange(InvalidInput):
    """An equivariant weight vector is inconsistent with its point order
    or the bundle rank."""


class MalformedTable(InvalidInput):
    """A finite-group multiplication table or homomorphism table is not
    what it claims to be."""

