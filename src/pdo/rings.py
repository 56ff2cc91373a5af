"""Coefficient-ring handles used by the series engine.

A handle bundles a coefficient domain with the derivation of the operator
rings, ``delta = -deriv/2`` (deriv is d/dz on Q(z), the formal derivative on
a graded ring), which drives the quadratic commutation law, and with ``sum``,
the one summation every accumulation goes through.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import NotAUnit, RingMismatch
from .graded import GradedElem, GradedRingSpec
from .ratfunc import RatFunc

__all__ = ["QzRing", "GradedRing", "QZ", "ring_of"]


class QzRing:
    """Q(z) with d = -d/dz."""

    is_graded = False

    def zero(self) -> RatFunc:
        return RatFunc(())

    def one(self) -> RatFunc:
        return RatFunc.const(1)

    def coerce(self, x) -> RatFunc:
        if isinstance(x, RatFunc):
            return x
        return RatFunc.const(Fraction(x))

    def sum(self, terms: Iterable[RatFunc]) -> RatFunc:
        return RatFunc.sum(terms)

    def is_zero(self, f: RatFunc) -> bool:
        return f.is_zero()

    def is_unit(self, f: RatFunc) -> bool:
        return not f.is_zero()

    def inv(self, f: RatFunc) -> RatFunc:
        return f.inverse()

    def delta(self, f: RatFunc) -> RatFunc:
        return f.deriv() * Fraction(-1, 2)

    def delta_nilpotency(self, f: RatFunc) -> int | None:
        """Least u with delta^u(f) = 0, or None when no power vanishes."""
        if f.is_zero():
            return 0
        if f.is_polynomial():
            return f.poly_degree() + 1
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QzRing)

    def __hash__(self) -> int:
        return hash("QzRing")

    def __repr__(self) -> str:
        return "QzRing()"


QZ = QzRing()


class GradedRing:
    """A free differential graded ring with d = -(formal derivative)."""

    is_graded = True

    def __init__(self, spec: GradedRingSpec):
        self.spec = spec

    def zero(self) -> GradedElem:
        return self.spec.zero()

    def one(self) -> GradedElem:
        return self.spec.one()

    def coerce(self, x) -> GradedElem:
        if isinstance(x, GradedElem):
            if x.spec != self.spec:
                raise RingMismatch("element belongs to a different graded ring")
            return x
        return self.spec.scalar(Fraction(x))

    def sum(self, terms: Iterable[GradedElem]) -> GradedElem:
        return GradedElem.sum(self.spec, terms)

    def is_zero(self, f: GradedElem) -> bool:
        return f.is_zero()

    def is_unit(self, f: GradedElem) -> bool:
        if len(f.terms) != 1:
            return False
        try:
            f.inv_unit()
            return True
        except NotAUnit:
            return False

    def inv(self, f: GradedElem) -> GradedElem:
        return f.inv_unit()

    def delta(self, f: GradedElem) -> GradedElem:
        return f.deriv() * Fraction(-1, 2)

    def delta_nilpotency(self, f: GradedElem) -> int | None:
        if f.is_zero():
            return 0
        if f.is_scalar():
            return 1
        return None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedRing) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(("GradedRing", self.spec))

    def __repr__(self) -> str:
        return f"GradedRing({self.spec!r})"


def ring_of(f, ring=None):
    """`ring` when given, else the handle of the domain `f` belongs to."""
    if ring is not None:
        return ring
    if isinstance(f, RatFunc):
        return QZ
    return GradedRing(f.spec)
