"""Truncated skew Laurent series in y over a coefficient ring.

The single commutation engine implements y^i f = sum_u c_i(u) delta^u(f)
y^{i+2u} with delta = -d/2, d the coefficient ring's derivation ``deriv``; the
even-exponent subring is the x-series ring via x = y^2, whose law
x^m f = sum_u b_m(u) (2 delta)^u(f) x^{m+u} is the even specialisation.

Precision contract: ``order = None`` is the EXACT sentinel, meaning every
omitted coefficient is identically zero.  All other series carry a finite
truncation order N and represent their class modulo O(y^N).  Products of
EXACT operands stay EXACT only when every invoked commutation series
terminates; otherwise the engine refuses and asks for a truncation order.

Every accumulation of coefficients (products, series sums, the action, the
lifts and the invariant expansions built on them) goes through the ring's
``sum``, which canonicalises once per result: a Q(z) sum is reduced over the
lcm of its denominators instead of after every addition, and a graded sum
merges term maps without re-validating canonical monomials.  Series values
are immutable and hashable: ``coeffs`` is a read-only mapping.

The inverse is one Newton iteration x <- x + x(1 - q x) at doubling
precision.  It uses only the ring axioms, so it holds in the skew ring.
"""

from __future__ import annotations

import math
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping

from .errors import (
    BadRoot,
    NotInvertible,
    OddValuation,
    OrderUnresolvable,
    RingMismatch,
)
from .frozen import Frozen

EXACT = None

__all__ = [
    "EXACT",
    "PDSeries",
    "series_mul",
    "series_inverse",
    "series_sqrt",
    "split_even_odd",
]


class PDSeries(Frozen):
    """Skew Laurent series: {exponent: coefficient} plus a truncation order."""

    __slots__ = ("ring", "coeffs", "order")

    def __init__(self, ring, coeffs: Mapping[int, object], order: int | None = EXACT):
        clean = {}
        for n, c in coeffs.items():
            c = ring.coerce(c)
            if not c.is_zero() and (order is None or n < order):
                clean[n] = c
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "coeffs", MappingProxyType(clean))
        object.__setattr__(self, "order", order)

    def __reduce__(self):
        return PDSeries, (self.ring, dict(self.coeffs), self.order)

    # -- constructors --

    @classmethod
    def monomial(cls, ring, coeff, exp: int, order: int | None = EXACT) -> "PDSeries":
        return cls(ring, {exp: coeff}, order)

    @classmethod
    def sum(cls, ring, parts: Iterable["PDSeries"], order: int | None = EXACT) -> "PDSeries":
        """The sum of series over `ring`, truncated at the least of `order` and
        the parts' orders; one ``ring.sum`` per exponent."""
        by_exp: dict[int, list] = {}
        for part in parts:
            if part.ring != ring:
                raise RingMismatch("series over different coefficient rings")
            order = _min_order(order, part.order)
            for n, c in part.coeffs.items():
                by_exp.setdefault(n, []).append(c)
        out = {n: ring.sum(cs) for n, cs in by_exp.items() if order is None or n < order}
        return cls(ring, out, order)

    @classmethod
    def one(cls, ring) -> "PDSeries":
        return cls.monomial(ring, ring.one(), 0)

    @classmethod
    def zero(cls, ring, order: int | None = EXACT) -> "PDSeries":
        return cls(ring, {}, order)

    # -- structure --

    @property
    def valuation(self):
        """Lowest exponent with nonzero coefficient; order for a truncated
        zero series, +inf for the exact zero series."""
        if self.coeffs:
            return min(self.coeffs)
        return self.order if self.order is not None else math.inf

    def coeff(self, n: int):
        return self.coeffs.get(n, self.ring.zero())

    def leading(self):
        if not self.coeffs:
            raise ValueError("zero series has no leading coefficient")
        return self.coeffs[self.valuation]

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_exact(self) -> bool:
        return self.order is None

    def support(self) -> list[int]:
        return sorted(self.coeffs)

    def truncate(self, order: int) -> "PDSeries":
        new_order = order if self.order is None else min(order, self.order)
        return PDSeries(self.ring, self.coeffs, new_order)

    # -- linear operations --

    def _check_ring(self, other: "PDSeries") -> None:
        if self.ring != other.ring:
            raise RingMismatch("series over different coefficient rings")

    def __add__(self, other: "PDSeries") -> "PDSeries":
        return PDSeries.sum(self.ring, (self, other))

    def __neg__(self) -> "PDSeries":
        return PDSeries(self.ring, {n: -c for n, c in self.coeffs.items()}, self.order)

    def __sub__(self, other: "PDSeries") -> "PDSeries":
        return self + (-other)

    def scale_left(self, c) -> "PDSeries":
        """Left multiplication by a coefficient: c * sum f_n y^n = sum (c f_n) y^n."""
        c = self.ring.coerce(c)
        return PDSeries(
            self.ring, {n: c * f for n, f in self.coeffs.items()}, self.order
        )

    def __mul__(self, other: "PDSeries") -> "PDSeries":
        return series_mul(self, other)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PDSeries):
            return NotImplemented
        return (
            self.ring == other.ring
            and self.order == other.order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.ring, self.order, frozenset(self.coeffs.items())))

    def agree(self, other: "PDSeries", upto: int | None = None) -> bool:
        """Coefficientwise equality below min(orders, upto)."""
        self._check_ring(other)
        bound = _min_order(self.order, other.order)
        if upto is not None:
            bound = upto if bound is None else min(bound, upto)
        if bound is None:
            return self.coeffs == other.coeffs
        for n in set(self.coeffs) | set(other.coeffs):
            if n < bound and self.coeff(n) != other.coeff(n):
                return False
        return True

    def __repr__(self) -> str:
        parts = [f"({c})*y^{n}" for n, c in sorted(self.coeffs.items())]
        body = " + ".join(parts) if parts else "0"
        tail = "" if self.order is None else f" + O(y^{self.order})"
        return body + tail


def _min_order(a: int | None, b: int | None) -> int | None:
    if a is None:
        return b
    if b is None:
        return a
    return min(a, b)


def series_mul(p: PDSeries, q: PDSeries) -> PDSeries:
    """Product of skew series, exact to order min(N_p + v_q, N_q + v_p).

    y^i f * y^j g = sum_u a_i(u) d^u(g) y^{i+j+2u} with a_i(u) = c_i(u)
    (-1/2)^u f.  Each a_i and each derivative chain d^u(g) is extended lazily
    and at most once per operand coefficient, a_i by the step ratio
    a_i(u) / a_i(u-1) = -(i+2u-2)/(2u); a zero entry ends either chain.

    The result is EXACT only when both inputs are EXACT and every commutation
    series terminates (left exponent even and nonpositive, or a derivative
    of the moved coefficient vanishing); otherwise EXACT inputs must be
    truncated first.
    """
    p._check_ring(q)
    ring = p.ring
    vp, vq = p.valuation, q.valuation
    np_ = math.inf if p.order is None else p.order
    nq_ = math.inf if q.order is None else q.order
    target = min(np_ + vq, nq_ + vp)
    exact = target == math.inf

    left = {i: [f] for i, f in p.coeffs.items()}  # a_i(0), a_i(1), ...
    right = {j: [g] for j, g in q.coeffs.items()}  # g, d(g), d^2(g), ...
    # the products a_i(u) d^u(g) of each exponent, formed only inside its sum
    terms: dict[int, list] = {}
    for i, a in left.items():
        for j, b in right.items():
            if exact and not (i <= 0 and i % 2 == 0 or ring.deriv_terminates(b[0])):
                raise OrderUnresolvable(
                    "product of exact series is an infinite series; "
                    "truncate an operand to a finite order first"
                )
            u = 0
            while exact or i + j + 2 * u < target:
                if len(a) == u:
                    a.append(a[-1] * Fraction(-(i + 2 * u - 2), 2 * u))
                if a[u].is_zero():
                    break
                if len(b) == u:
                    b.append(b[-1].deriv())
                if b[u].is_zero():
                    break
                terms.setdefault(i + j + 2 * u, []).append((a[u], b[u]))
                u += 1
    out = {n: ring.sum(x * y for x, y in ts) for n, ts in terms.items()}
    return PDSeries(ring, out, EXACT if exact else int(target))


def series_inverse(q: PDSeries, order: int | None = None) -> PDSeries:
    """Two-sided inverse to truncation: q * inv(q) = 1 + O(y^{N - v}).

    The leading coefficient must be a unit.  For a truncated input the
    result has valuation -v and order N - 2v; an EXACT input needs either
    an explicit result `order` or a terminating monomial shape.

    Newton iteration x <- x + x(1 - q x) from x = f^{-1} y^{-v}, f the
    leading coefficient: if q x = 1 - e then q(x + x e) = 1 - e^2 by the
    ring axioms alone, and valuations add (c_i(0) = 1), so each step doubles
    the precision in the skew ring too.  x is kept exact (a polynomial), so
    every product is known to the new precision.
    """
    if q.is_zero():
        raise NotInvertible("zero series is not invertible")
    ring = q.ring
    v = q.valuation
    f = q.coeffs[v]
    if not ring.is_unit(f):
        raise NotInvertible("leading coefficient is not a unit")
    f_inv = ring.inv(f)

    if q.order is None and order is None:
        if len(q.coeffs) == 1:
            # y^{-v} f^{-1}; stays exact when the commutation terminates
            return series_mul(
                PDSeries.monomial(ring, ring.one(), -v),
                PDSeries.monomial(ring, f_inv, 0),
            )
        raise OrderUnresolvable(
            "inverse of an exact non-monomial series is infinite; pass a result order"
        )

    result_order = q.order - 2 * v if q.order is not None else order
    if order is not None:
        result_order = min(result_order, order)
    rel = result_order + v  # relative precision of the unit part
    if rel <= 0:
        return PDSeries.zero(ring, result_order)

    x, prec = PDSeries.monomial(ring, f_inv, -v), 1
    while prec < rel:
        prec = min(2 * prec, rel)
        e = PDSeries.one(ring) - series_mul(q.truncate(v + prec), x)
        x = PDSeries(ring, (x + series_mul(x, e)).coeffs)
    return x.truncate(result_order)


def series_sqrt(q: PDSeries, e, order: int | None = None) -> PDSeries:
    """The square root of q with leading coefficient e at exponent v/2.

    The caller supplies e with e^2 equal to the leading coefficient (no root
    finding happens in the coefficient ring); the other root is the negation.
    Coefficients are determined one exponent at a time from
    e_{n-w} = (2e)^{-1} (q_n - h_n), h_n the already-known part of z^2.
    """
    if q.is_zero():
        raise BadRoot("zero series has no square-root normal form")
    ring = q.ring
    v = q.valuation
    if v % 2 != 0:
        raise OddValuation(f"valuation {v} is odd")
    e = ring.coerce(e)
    if e * e != q.coeffs[v]:
        raise BadRoot("e^2 does not equal the leading coefficient")
    if not ring.is_unit(e):
        raise BadRoot("leading root must be a unit")
    w = v // 2

    if q.order is None and order is None:
        if len(q.coeffs) == 1 and e.deriv().is_zero():
            return PDSeries.monomial(ring, e, w)
        raise OrderUnresolvable(
            "square root of an exact series is infinite; pass a result order"
        )

    result_order = q.order - w if q.order is not None else order
    if order is not None:
        result_order = min(result_order, order)
    work = result_order + w

    z = PDSeries.monomial(ring, e, w, result_order)
    square = series_mul(z, z)
    two_e_inv = ring.inv(e + e)
    for n in range(2 * w + 1, work):
        need = q.coeff(n) - square.coeff(n)
        if need.is_zero():
            continue
        t = PDSeries.monomial(ring, two_e_inv * need, n - w, result_order)
        square = PDSeries.sum(ring, (square, series_mul(z, t), series_mul(t, z), series_mul(t, t)))
        z = z + t
    return z


def split_even_odd(q: PDSeries) -> tuple[PDSeries, PDSeries]:
    """Decompose q = q_even + q_odd by exponent parity; both inherit the order."""
    even = {n: c for n, c in q.coeffs.items() if n % 2 == 0}
    odd = {n: c for n, c in q.coeffs.items() if n % 2 != 0}
    return (
        PDSeries(q.ring, even, q.order),
        PDSeries(q.ring, odd, q.order),
    )
