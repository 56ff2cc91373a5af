"""Exact rational coefficient families.

Every scalar in the library is a ``fractions.Fraction``.  This module holds
the closed-form combinatorial coefficients that drive the commutation laws,
the group action on powers of the series variable, and the lifting maps:

* ``comm_coeff_c(i, u)`` -- commutation of a coefficient past ``y^i``,
* ``comm_coeff_b(m, u)`` -- its even-exponent specialisation for ``x^m``,
* ``omega(k, u)``        -- action of a homography on ``y^k``,
* ``rho(u)``             -- leading expansion coefficients of the acted ``y``,
* ``lift_coeff(m, n)``   -- coefficients of the weight-``m`` lifting map,
* ``gamma_tuple(...)``   -- tuple coefficients of the invariant power forms.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations as _combinations
from itertools import product as _cartesian
from math import factorial
from typing import Iterable, Sequence

from .errors import EdgeCaseA1, NegativeOddWeight

__all__ = [
    "gbinom",
    "recip_factorial",
    "comm_coeff_c",
    "comm_coeff_b",
    "omega",
    "rho",
    "lift_coeff",
    "gamma_tuple",
    "compositions",
]


def gbinom(a: int, b: int) -> Fraction:
    """Generalized binomial coefficient C(a, b) for any integer a.

    Defined by the falling factorial a(a-1)...(a-b+1)/b!; zero for b < 0.
    """
    if b < 0:
        return Fraction(0)
    num = 1
    for j in range(b):
        num *= a - j
    return Fraction(num, factorial(b))


def recip_factorial(n: int) -> Fraction:
    """1/n! with the hypergeometric convention 1/n! = 0 for n < 0."""
    if n < 0:
        return Fraction(0)
    return Fraction(1, factorial(n))


def comm_coeff_c(i: int, u: int) -> Fraction:
    """Coefficient c_i(u) in the commutation y^i f = sum_u c_i(u) d^u(f) y^{i+2u}.

    c_i(u) = (1/u!) * prod_{j=0}^{u-1} (i + 2j), with c_i(0) = 1.  The same
    formula serves every integer exponent i; for even i <= 0 the product
    terminates (c_i(u) = 0 once u > -i/2), which is what makes left
    multiplication by nonpositive even powers exact.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    num = 1
    for j in range(u):
        num *= i + 2 * j
    return Fraction(num, factorial(u))


def comm_coeff_b(m: int, u: int) -> Fraction:
    """Coefficient b_m(u) = C(m+u-1, u) in x^m f = sum_u b_m(u) d^u(f) x^{m+u}.

    Even-exponent specialisation of the quadratic law: b_m(u) = c_{2m}(u)/2^u.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    return gbinom(m + u - 1, u)


def omega(k: int, u: int) -> Fraction:
    """Coefficient omega_k(u) of the homographic action on y^k.

    omega_k(0) = 1 and omega_k(u) = (1/(4^u u!)) prod_{i=0}^{u-1} (k+2i)(k+2i+2).
    The action of a matrix with lower-left entry c sends y^k to
    sum_u omega_k(u) (cz+d)^{-k} (c/(cz+d))^u y^{k+2u}.
    """
    if u < 0:
        raise ValueError("u must be >= 0")
    num = 1
    for i in range(u):
        num *= (k + 2 * i) * (k + 2 * i + 2)
    return Fraction(num, 4**u * factorial(u))


def rho(u: int) -> Fraction:
    """rho_u = (2u-1)!(2u-2)! / (16^{u-1} ((u-1)!)^3), the positive branch.

    These are the expansion coefficients of the image of y under a
    homography; rho_1 = +1 fixes the sign of the square root.
    """
    if u < 1:
        raise ValueError("u must be >= 1")
    return Fraction(
        factorial(2 * u - 1) * factorial(2 * u - 2),
        16 ** (u - 1) * factorial(u - 1) ** 3,
    )


def lift_coeff(m: int, n: int) -> Fraction:
    """Coefficient alpha_m(n) of f^{(n)} y^{m+2n} in the weight-m lifting map.

    alpha_m(n) = ((-1)^n / (4^n n!)) prod_{i=0}^{n-1} (m+2i)(m+2i+2)/(m+i),
    valid for m >= 0 and for negative even m (where the numerator vanishes
    before the denominator pole, so the lift is polynomial: alpha_{-2k}(n) = 0
    for all n >= k).  No lifting map exists at negative odd weight.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if m < 0 and m % 2 != 0:
        raise NegativeOddWeight(f"no lifting map at negative odd weight {m}")
    acc = Fraction((-1) ** n, 4**n * factorial(n))
    for i in range(n):
        top = (m + 2 * i) * (m + 2 * i + 2)
        if top == 0:
            return Fraction(0)
        acc *= Fraction(top, m + i)
    return acc


def compositions(total: int, parts: int) -> Iterable[tuple[int, ...]]:
    """All tuples of `parts` nonnegative integers summing to `total`, in
    lexicographic order: stars and bars, with the parts read off the gaps
    between `parts - 1` bars placed among `total + parts - 1` slots."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    slots = total + parts - 1
    for bars in _combinations(range(slots), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, slots)))


def _bounded_compositions(total: int, bounds: Sequence[int]) -> Iterable[tuple[int, ...]]:
    """Tuples b with sum(b) == total and 0 <= b_j <= bounds[j]."""
    for b in _cartesian(*(range(t + 1) for t in bounds)):
        if sum(b) == total:
            yield b


def gamma_tuple(k: int, i: int, t: Sequence[int], method: str = "A2") -> Fraction:
    """Tuple coefficient gamma_i(t_1, ..., t_k) of the invariant power expansion.

    Method "A2" (valid for every k >= 1) evaluates

        gamma_i(t) = sum_{r=0}^{i} (-1)^r (2k+2i-2-r)!/(k+i-1-r)!
                     * sum_{b_1+...+b_k=r, 0<=b_j<=t_j} prod_j C(t_j+1, b_j).

    Method "A1" evaluates the Kronecker-delta form

        gamma_i(t) = (k+i-1)! * sum_{a_j in {0, t_j+1}}
                     C(k+i-2, a_1+...+a_k-1) * prod_{a_j=0} (-1)^{t_j},

    whose derivation implicitly assumes k >= 2 (the k = 1, i = 0 case
    degenerates), so it is refused for k < 2.
    """
    t = tuple(t)
    if len(t) != k or any(x < 0 for x in t):
        raise ValueError("t must be a tuple of k nonnegative integers")
    if sum(t) != i:
        raise ValueError("entries of t must sum to i")
    if method == "A2":
        acc = Fraction(0)
        for r in range(i + 1):
            inner = Fraction(0)
            for b in _bounded_compositions(r, t):
                term = Fraction(1)
                for tj, bj in zip(t, b):
                    term *= gbinom(tj + 1, bj)
                inner += term
            acc += (-1) ** r * Fraction(
                factorial(2 * k + 2 * i - 2 - r), factorial(k + i - 1 - r)
            ) * inner
        return acc
    if method == "A1":
        if k < 2:
            raise EdgeCaseA1("method A1 requires k >= 2")
        acc = Fraction(0)
        for choice in _cartesian((False, True), repeat=k):
            s = sum(t[j] + 1 for j in range(k) if choice[j])
            sign = 1
            for j in range(k):
                if not choice[j] and t[j] % 2 == 1:
                    sign = -sign
            acc += sign * gbinom(k + i - 2, s - 1)
        return factorial(k + i - 1) * acc
    raise ValueError(f"unknown method {method!r}")
