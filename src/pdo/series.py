"""Truncated skew Laurent series in y over a coefficient ring.

The single commutation engine implements y^i f = sum_u c_i(u) delta^u(f)
y^{i+2u} with delta = -d/2, d the coefficient ring's derivation ``deriv``; the
even-exponent subring is the x-series ring via x = y^2, whose law
x^m f = sum_u b_m(u) (2 delta)^u(f) x^{m+u} is the even specialisation.

A coefficient ring is ``QZ`` (the class ``RatFunc``) or a
``GradedRingSpec``.  The ring gives ``zero``, ``one``, ``coerce``, ``sum``
and ``dot`` (the sum of the products of pairs); its elements answer
``is_zero``, ``deriv``, ``inverse`` (raising ``NotAUnit``) and
``deriv_terminates``, which says whether some derivative vanishes and so
whether a product of exact series is finite.

Precision contract: ``order = None`` is the EXACT sentinel, meaning every
omitted coefficient is identically zero.  All other series carry a finite
truncation order N and represent their class modulo O(y^N).  Products of
EXACT operands stay EXACT only when every invoked commutation series
terminates; otherwise the engine refuses and asks for a truncation order.

Every accumulation of coefficients (products, series sums, the action, the
lifts and the invariant expansions built on them) goes through the ring's
``sum``, or its ``dot`` when the terms are products, which canonicalises
once per result: a Q(z) sum is reduced over the lcm of its denominators
instead of after every addition, a graded sum merges term maps without
re-validating canonical monomials, and a graded dot multiplies each pair's
numerators straight into one accumulator without forming the products.
Series values are immutable and hashable: ``coeffs`` is a read-only mapping.

The inverse and the square root are solved one exponent at a time, each
known part one ``ring.dot`` (relaxed evaluation in its naive quadratic form:
van der Hoeven, "Relax, but don't be too lazy", J. Symb. Comp. 34, 2002).
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import islice
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .errors import (
    BadRoot,
    NotAUnit,
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
    "derivs",
    "deriv_n",
]


def derivs(f) -> Iterator:
    """f, f', f'', ...: one ``deriv`` per entry, taken when the entry is read.
    Zipped with a bounded sequence it goes last, so no entry is formed past it."""
    while True:
        yield f
        f = f.deriv()


def deriv_n(f, n: int):
    """The n-th derivative f^(n), n >= 0."""
    return next(islice(derivs(f), n, None))


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

    def truncate(self, order: int) -> "PDSeries":
        return PDSeries(self.ring, self.coeffs, _min_order(order, self.order))

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
        bound = _min_order(_min_order(self.order, other.order), upto)
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
    and at most once per operand coefficient, a_i by its step ratio
    ``_comm_ratio`` and d^u(g) from ``derivs(g)``; a zero entry ends either chain.

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
    right = {j: _right_chain(g) for j, g in q.coeffs.items()}  # g, d(g), d^2(g), ...
    # the factor pairs (a_i(u), d^u(g)) of each exponent, multiplied only
    # inside its ring.dot
    terms: dict[int, list] = {}
    for i, a in left.items():
        for j, b in right.items():
            if exact and not (i <= 0 and i % 2 == 0 or q.coeffs[j].deriv_terminates()):
                raise OrderUnresolvable(
                    f"series_mul: the product of the exact terms y^{i} and y^{j} is an "
                    "infinite series; truncate an operand to a finite order first"
                )
            u = 0
            while exact or i + j + 2 * u < target:
                pair = _chain_pair(i, a, b, u)
                if pair is None:
                    break
                terms.setdefault(i + j + 2 * u, []).append(pair)
                u += 1
    out = {n: ring.dot(ts) for n, ts in terms.items()}
    return PDSeries(ring, out, EXACT if exact else int(target))


def _comm_ratio(i: int, u: int) -> tuple[int, int]:
    """c_i(u) / (-2 c_i(u-1)), the step of c_i(u) (-1/2)^u, as (numerator, denominator)."""
    return -(i + 2 * u - 2), 2 * u


def _right_chain(g) -> tuple[list, Iterator]:
    """The entries of ``derivs(g)`` read so far, [g], and the rest of it."""
    return [g], islice(derivs(g), 1, None)


def _chain_pair(i: int, a: list, right: tuple[list, Iterator], u: int):
    """The factors (a_i(u), d^u(g)) of one commutation term, or None once
    either is zero.

    `a` = [a_i(0), a_i(1), ...] is the left chain of f at exponent i,
    a_i(u) = c_i(u) (-1/2)^u f; `right` is the `_right_chain` of g, whose list
    b = [g, d(g), ...] grows from ``derivs(g)``.  Both lists grow in place as
    far as `u` needs and never past a zero entry, after which all are zero.
    """
    while len(a) <= u and not a[-1].is_zero():
        a.append(a[-1] * Fraction(*_comm_ratio(i, len(a))))
    if len(a) <= u or a[u].is_zero():
        return None
    b, rest = right
    while len(b) <= u and not b[-1].is_zero():
        b.append(next(rest))
    if len(b) <= u or b[u].is_zero():
        return None
    return a[u], b[u]


def _known_dot(ring, left: dict, right: dict, n: int):
    """The y^n coefficient of the product of the known coefficients, as one
    ``ring.dot``.  `left` and `right` map each known exponent, in ascending
    order, to its chain as in `_chain_pair`, which extends it in place."""
    pairs = []
    for i in left:
        for j in right:
            if i + j > n:
                break
            if (n - i - j) % 2 == 0:
                pair = _chain_pair(i, left[i], right[j], (n - i - j) // 2)
                if pair is not None:
                    pairs.append(pair)
    return ring.dot(pairs)


def series_inverse(q: PDSeries, order: int | None = None) -> PDSeries:
    """Two-sided inverse to truncation: q * inv(q) = 1 + O(y^{N - v}).

    The leading coefficient must be a unit.  For a truncated input the
    result has valuation -v and order N - 2v; an EXACT input needs either
    an explicit result `order` or a monomial whose inverse y^{-v} f^{-1}
    is a finite series.

    Solved one exponent at a time from x * q = 1: the unknown x_{n-v}
    enters the y^n coefficient only as x_{n-v} f with u = 0, f the leading
    coefficient, so x_{n-v} = -h_n f^{-1} for n >= 1, h_n = `_known_dot`.
    In this orientation only q's fixed coefficients are differentiated,
    each once for all n, and a new left chain entry is a rational scaling.
    A left inverse of a unit is its two-sided inverse.
    """
    if q.is_zero():
        raise NotInvertible("zero series is not invertible")
    ring = q.ring
    v = q.valuation
    try:
        f_inv = q.coeffs[v].inverse()
    except NotAUnit:
        raise NotInvertible("leading coefficient is not a unit") from None

    if q.order is None and order is None:
        if len(q.coeffs) == 1 and (v >= 0 and v % 2 == 0 or f_inv.deriv_terminates()):
            return series_mul(
                PDSeries.monomial(ring, ring.one(), -v),
                PDSeries.monomial(ring, f_inv, 0),
            )
        raise OrderUnresolvable(
            f"series_inverse: the inverse of the exact series at y^{v} is infinite; "
            "pass a result order"
        )

    result_order = _min_order(None if q.order is None else q.order - 2 * v, order)
    left = {-v: [f_inv]}  # the chains of the known coefficients of x
    right = {j: _right_chain(c) for j, c in sorted(q.coeffs.items())}
    for n in range(1, result_order + v):
        need = _known_dot(ring, left, right, n)
        if not need.is_zero():
            left[n - v] = [-need * f_inv]
    return PDSeries(ring, {j: a[0] for j, a in left.items()}, result_order)


def series_sqrt(q: PDSeries, e, order: int | None = None) -> PDSeries:
    """The square root of q with leading coefficient e at exponent v/2.

    The caller supplies e with e^2 equal to the leading coefficient (no root
    finding happens in the coefficient ring); the other root is the negation.
    Solved one exponent at a time from z_{n-w} = (2e)^{-1} (q_n - h_n),
    w = v/2: the unknown z_{n-w} enters the y^n coefficient of z^2 only
    through z_{n-w} e and e z_{n-w} with u = 0, so h_n, the sum of
    a_i(u) d^u(z_j) over known z_i, z_j with i + j + 2u = n, is one
    `_known_dot`: about the work of a single product z * z.
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
    try:
        two_e_inv = (e + e).inverse()
    except NotAUnit:
        raise BadRoot("leading root must be a unit") from None
    w = v // 2

    if q.order is None and order is None:
        if len(q.coeffs) == 1 and (w == 0 or e.deriv().is_zero()):
            return PDSeries.monomial(ring, e, w)
        raise OrderUnresolvable(
            f"series_sqrt: the square root of the exact series at y^{v} is infinite; "
            "pass a result order"
        )

    result_order = _min_order(None if q.order is None else q.order - w, order)
    left, right = {w: [e]}, {w: _right_chain(e)}  # the chains of the known coefficients
    for n in range(2 * w + 1, result_order + w):
        need = q.coeff(n) - _known_dot(ring, left, right, n)
        if not need.is_zero():
            c = two_e_inv * need
            left[n - w], right[n - w] = [c], _right_chain(c)
    return PDSeries(ring, {j: a[0] for j, a in left.items()}, result_order)


def split_even_odd(q: PDSeries) -> tuple[PDSeries, PDSeries]:
    """Decompose q = q_even + q_odd by exponent parity; both inherit the order."""
    even = {n: c for n, c in q.coeffs.items() if n % 2 == 0}
    odd = {n: c for n, c in q.coeffs.items() if n % 2 != 0}
    return (
        PDSeries(q.ring, even, q.order),
        PDSeries(q.ring, odd, q.order),
    )
