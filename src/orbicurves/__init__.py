"""Exact invariants of curve configurations in cyclic-quotient
orbifolds: lens-space arithmetic, curve-germ intersection theory over
the Gaussian rationals, weighted chain complexes, and the adjunction
bookkeeping that ties them together.

Everything is computed in exact arithmetic: rationals are
fractions.Fraction, series coefficients are Gaussian-integer numerators
over one positive integer denominator per series, and truncation orders
are tracked through every operation.

The package itself exports nothing: import each name from the module
that defines it, e.g. ``from orbicurves.germ import CurveGerm``.
"""
