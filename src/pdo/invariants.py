"""Structure of the invariant rings over a graded coefficient ring.

With an invertible weight-2 generator chi, the nonnegative even-support
invariants form a skew power series ring in u = x*chi over the weight-0
subring, with derivation D = -chi^{-1} d/dz; rewriting an invariant in
powers of u, expanding the powers of u as modular-form families (the
g-forms), and decomposing arbitrary invariants are all implemented here.
With an invertible weight-1 generator xi, the square root v of y^2 xi^2
uniformises the full invariant ring.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Sequence

from .coeffs import compositions, gamma_tuple, gbinom
from .errors import NotAUnit, NotHomogeneous, NotInvariant, OrderUnresolvable
from .graded import GradedElem, GradedRingSpec
from .lift import WeightedFamily, psi_inverse
from .rankin import rc_bracket
from .series import PDSeries, _min_order, series_inverse, series_mul, series_sqrt

__all__ = [
    "find_unit_generator",
    "weight0_derivation",
    "u_power",
    "g_forms",
    "g_closed",
    "decompose_even",
    "rewrite_in_u",
    "v_uniformizer",
    "is_invariant",
]


def find_unit_generator(spec: GradedRingSpec, weight: int) -> GradedElem:
    """The first invertible generator of the given weight."""
    for g in spec.generators:
        if g.weight == weight and g.invertible:
            return spec.gen(g.name)
    raise NotAUnit(f"no invertible weight-{weight} generator in {spec!r}")


def weight0_derivation(a: GradedElem, chi: GradedElem | None = None) -> GradedElem:
    """D(a) = -chi^{-1} da/dz, the derivation of the weight-0 subring."""
    if chi is None:
        chi = find_unit_generator(a.spec, 2)
    return -(chi.inverse() * a.deriv())


def u_power(k: int, order: int, ring: GradedRingSpec) -> PDSeries:
    """(x*chi)^k truncated at `order`, by repeated products of

        u = x*chi = sum_n (-1)^n chi^(n) y^{2+2n}.

    u is truncated at order - 2(k-1), so that each partial power u^j, of
    valuation 2j, is known to order - 2(k-j) and u^k to `order`.  Every
    coefficient of u is one monomial, so each product is cheap; the closed
    multinomial sum over compositions, of C(n+k-1, k-1) products at x^{k+n},
    is what the tests compare against.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    chi = find_unit_generator(ring, 2)
    if k == 0:
        return PDSeries.one(ring)
    if order <= 2 * k:
        return PDSeries.zero(ring, order)
    coeffs, c = {}, chi
    for n in range(2, order - 2 * (k - 1), 2):
        coeffs[n], c = c, -c.deriv()
    u = power = PDSeries(ring, coeffs, order - 2 * (k - 1))
    for _ in range(k - 1):
        power = series_mul(power, u)
    return power


def _scaled_product(scale: Fraction, t: Sequence[int], derivs: list, ring: GradedRingSpec):
    """scale * prod_j chi^(t_j)/(t_j+1)!, with derivs[j] = chi^(j)."""
    term = ring.one()
    for tj in t:
        term = term * derivs[tj]
        scale /= factorial(tj + 1)
    return scale * term


def g_forms(k: int, n_max: int, ring: GradedRingSpec) -> dict[int, GradedElem]:
    """The modular forms g_{k, 2n} (k <= n <= n_max) peeled from u^k.

    Returned keyed by weight 2n, zeros included; each nonzero entry is
    homogeneous of its key weight.
    """
    return _peel(u_power(k, 2 * n_max + 1, ring), k, n_max)


def _peel(power: PDSeries, k: int, n_max: int) -> dict[int, GradedElem]:
    """The g_{k, 2n} (k <= n <= n_max) of u^k = `power`, known to 2 n_max + 1."""
    fam = psi_inverse(power, 2 * n_max + 1)
    return {2 * n: fam.component(2 * n) for n in range(k, n_max + 1)}


def g_closed(k: int, i: int, ring: GradedRingSpec) -> GradedElem:
    """Closed form of g_{k, 2k+2i} via the tuple coefficients:

        g_{k,2k+2i} = (-1)^i ((k+i)!(k+i-1)!/((2k+2i-2)! k!))
                      sum_{t_1+...+t_k=i} gamma_i(t) prod_j chi^(t_j)/(t_j+1)!.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    chi = find_unit_generator(ring, 2)
    derivs = [chi]
    while len(derivs) <= i:
        derivs.append(derivs[-1].deriv())
    total = ring.sum(
        _scaled_product(gamma, t, derivs, ring)
        for t in compositions(i, k)
        if (gamma := gamma_tuple(k, i, t, "A2")) != 0
    )
    pref = Fraction(
        (-1) ** i * factorial(k + i) * factorial(k + i - 1),
        factorial(2 * k + 2 * i - 2) * factorial(k),
    )
    return pref * total


def decompose_even(a: Sequence[GradedElem], order: int, ring: GradedRingSpec) -> WeightedFamily:
    """The weighted family of q = sum_k a_k u^k from weight-0 coefficients a_k:

        f_{2m} = (-1)^m ((m-1)!/(2m-2)!) sum_{k<=n<=m, n>=1} (-1)^n
                 ((2n-1)!(m-n)!/((n-1)!(m+n-1))) C(m, m-n) [a_k, g_{k,2n}]_{m-n}

    for m >= 1, with f_0 = a_0 (the n = 0 terms of the displayed double sum
    degenerate and are dropped; the convention is validated against the
    peeling oracle).
    """
    a = [ring.coerce(x) for x in a]
    for j, x in enumerate(a):
        if not x.is_zero() and not x.is_homogeneous(0):
            raise NotHomogeneous(f"coefficient a_{j} must have weight 0")
    m_max = (order - 1) // 2
    # one chain u, u^2, ..., each known to 2 m_max + 1: a product per power
    u = u_power(1, 2 * m_max + 1, ring)
    power = PDSeries.one(ring)
    gtabs = {}
    for k, ak in enumerate(a):
        if k:
            power = series_mul(power, u)
        if not ak.is_zero():
            gtabs[k] = _peel(power, k, m_max)
    comps: dict[int, GradedElem] = {}
    if a and not a[0].is_zero():
        comps[0] = a[0]
    for m in range(1, m_max + 1):
        gs = (
            (k, n, gtab.get(2 * n, ring.zero()))
            for k, gtab in gtabs.items()
            for n in range(max(k, 1), m + 1)
        )
        acc = ring.sum(
            Fraction((-1) ** n)
            * Fraction(factorial(2 * n - 1) * factorial(m - n))
            / Fraction(factorial(n - 1) * (m + n - 1))
            * gbinom(m, m - n)
            * rc_bracket(a[k], g, 0, 2 * n, m - n)
            for k, n, g in gs
            if not g.is_zero()
        )
        pref = Fraction((-1) ** m * factorial(m - 1), factorial(2 * m - 2))
        comps[2 * m] = pref * acc
    return WeightedFamily(ring, comps)


def is_invariant(q: PDSeries) -> bool:
    """Weight-homogeneity: the y^j coefficient has weight j (graded model)."""
    for n, c in q.coeffs.items():
        if not c.is_homogeneous(n):
            return False
    return True


def rewrite_in_u(q: PDSeries, order: int | None = None) -> list[GradedElem]:
    """Expand an invariant q = sum_k a_k u^k and return (a_0, a_1, ...).

    Requires even support, valuation >= 0 and weight-homogeneity; each a_k is
    a weight-0 element.  Peeling right-multiplies by the inverse of u.
    """
    ring = q.ring
    if not isinstance(ring, GradedRingSpec):
        raise NotInvariant("rewriting in u works over a graded ring")
    if any(n % 2 != 0 for n in q.coeffs) or (q.coeffs and q.valuation < 0):
        raise NotInvariant("input must have even support and valuation >= 0")
    if not is_invariant(q):
        raise NotInvariant("coefficient weights must equal exponents")
    bound = _min_order(q.order, order)
    if bound is None:
        top = max(q.coeffs, default=0)
        raise OrderUnresolvable(f"rewrite_in_u: an exact series up to y^{top} needs a finite working order")
    u = u_power(1, max(bound, 3), ring)  # u = chi y^2 + O(y^3) at least, so a unit
    uinv = series_inverse(u)
    out: list[GradedElem] = []
    current = q.truncate(bound)
    k = 0
    while 2 * k < bound:
        a = current.coeff(0)
        out.append(a)
        current = series_mul(current - PDSeries.monomial(ring, a, 0), uinv)
        k += 1
        if current.is_zero():
            break
    while out and out[-1].is_zero():
        out.pop()
    if not out:
        out = [ring.zero()]
    return out


def v_uniformizer(order: int, ring: GradedRingSpec) -> PDSeries:
    """The odd uniformizer v = sqrt(y^2 xi^2) with leading coefficient xi."""
    xi = find_unit_generator(ring, 1)
    q = series_mul(
        PDSeries.monomial(ring, ring.one(), 2, order + 1),
        PDSeries.monomial(ring, xi * xi, 0),
    )
    return series_sqrt(q, xi)
