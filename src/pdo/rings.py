"""Coefficient-ring handles used by the series engine.

A handle holds what Q(z) and a free graded differential ring differ in:
zero and one, coercion of scalars, units and their inverses, and which
elements have a vanishing derivative (``deriv_terminates``, which decides
whether a product of exact series is finite), plus ``sum``, the one
summation every accumulation goes through.  Elements answer ``is_zero``
and ``deriv`` themselves.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable

from .errors import NotAUnit, RingMismatch
from .frozen import Frozen
from .graded import GradedElem, GradedRingSpec
from .ratfunc import RatFunc

__all__ = ["QzRing", "GradedRing", "QZ", "ring_of"]


class QzRing:
    """Q(z) with the derivation d/dz."""

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

    def is_unit(self, f: RatFunc) -> bool:
        return not f.is_zero()

    def inv(self, f: RatFunc) -> RatFunc:
        return f.inverse()

    def deriv_terminates(self, f: RatFunc) -> bool:
        """Whether some derivative of f vanishes: f is a polynomial."""
        return f.is_polynomial()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, QzRing)

    def __hash__(self) -> int:
        return hash("QzRing")

    def __repr__(self) -> str:
        return "QzRing()"


QZ = QzRing()


class GradedRing(Frozen):
    """A free differential graded ring with its formal derivative."""

    __slots__ = ("spec",)
    is_graded = True

    def __init__(self, spec: GradedRingSpec):
        object.__setattr__(self, "spec", spec)

    def __reduce__(self):
        return GradedRing, (self.spec,)

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

    def is_unit(self, f: GradedElem) -> bool:
        try:
            f.inv_unit()
            return True
        except NotAUnit:
            return False

    def inv(self, f: GradedElem) -> GradedElem:
        return f.inv_unit()

    def deriv_terminates(self, f: GradedElem) -> bool:
        """Whether some derivative of f vanishes: in a free differential
        ring, only the scalars."""
        return f.is_scalar()

    def __eq__(self, other: object) -> bool:
        return isinstance(other, GradedRing) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(("GradedRing", self.spec))

    def __repr__(self) -> str:
        return f"GradedRing({self.spec!r})"


def ring_of(f, ring=None):
    """`ring` when given, else the handle of the domain `f` belongs to;
    plain scalars belong to Q(z)."""
    if ring is not None:
        return ring
    if isinstance(f, (RatFunc, int, Fraction)):
        return QZ
    if isinstance(f, GradedElem):
        return GradedRing(f.spec)
    raise TypeError(f"no coefficient ring for a value of type {type(f).__name__}")
