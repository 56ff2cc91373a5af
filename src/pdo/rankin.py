"""Rankin-Cohen brackets and the transferred star product.

The star product of two homogeneous coefficients is computed by lifting both
to operator series, multiplying, and peeling the product back into a weighted
family.  Every component is a rational multiple of the corresponding bracket;
the universal multipliers alpha_n(k, l) are extracted by running the product
on free generators and solving against the bracket -- a failed
proportionality is a hard error, since it would falsify the transfer at the
working truncation.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from .coeffs import gbinom
from .errors import BracketMismatch, EdgeCaseWeightZero, NotHomogeneous
from .graded import GradedElem, GradedRingSpec, Generator
from .lift import WeightedFamily, psi, psi_assemble, psi_inverse, ring_of
from .series import series_mul

__all__ = [
    "rc_bracket",
    "star",
    "star_families",
    "alpha_table",
    "alpha_weight0",
    "star_via_brackets",
]


def rc_bracket(f, g, k: int, l: int, n: int):
    """The n-th Rankin-Cohen bracket of weight-(k, l) coefficients:

        [f, g]_n = sum_{j=0}^{n} (-1)^j C(k+n-1, n-j) C(l+n-1, j) f^(j) g^(n-j).

    Works over either coefficient domain; for homogeneous graded inputs the
    result is homogeneous of weight k + l + 2n.
    """
    if n < 0:
        raise ValueError(f"bracket index must be >= 0, got {n}")
    derivs_f = [f]
    for _ in range(n):
        derivs_f.append(derivs_f[-1].deriv())
    derivs_g = [g]
    for _ in range(n):
        derivs_g.append(derivs_g[-1].deriv())
    return ring_of(f).sum(
        (-1) ** j
        * gbinom(k + n - 1, n - j)
        * gbinom(l + n - 1, j)
        * (derivs_f[j] * derivs_g[n - j])
        for j in range(n + 1)
    )


def star(f: GradedElem, g: GradedElem, order: int) -> WeightedFamily:
    """f * g = (peel)(psi_k(f) . psi_l(g)) as a weighted family from k + l."""
    ring = f.spec
    k = _weight(f)
    l = _weight(g)
    if k < 0 or l < 0:
        raise NotHomogeneous("star is defined at nonnegative weights")
    lifted = series_mul(psi(k, f, order, ring=ring), psi(l, g, order, ring=ring))
    return psi_inverse(lifted, order)


def star_families(A: WeightedFamily, B: WeightedFamily, order: int) -> WeightedFamily:
    """Bilinear extension of the star product to weighted families."""
    lifted = series_mul(psi_assemble(A, order), psi_assemble(B, order))
    return psi_inverse(lifted, order)


def _weight(f: GradedElem) -> int:
    if f.is_zero():
        raise NotHomogeneous("weight of zero input is undefined")
    return f.weight()


def alpha_weight0(j: int, l: int) -> Fraction:
    """Closed form for the multiplier alpha_j(0, l) at even l = 2n >= 2:

        alpha_j(0, 2n) = (-1)^j (n+j-1)! (2n-1)! j! / ((2n+2j-2)! (n-1)! (2n+j-1))
                         * C(n+j, j).
    """
    if l <= 0 or l % 2 != 0:
        raise EdgeCaseWeightZero("the weight-0 column is available for even l >= 2 only")
    n = l // 2
    return (
        Fraction((-1) ** j)
        * Fraction(factorial(n + j - 1) * factorial(2 * n - 1) * factorial(j))
        / Fraction(factorial(2 * n + 2 * j - 2) * factorial(n - 1) * (2 * n + j - 1))
        * gbinom(n + j, j)
    )


def alpha_table(k: int, l: int, n_max: int) -> list[Fraction]:
    """The universal star multipliers alpha_n(k, l) for 0 <= n <= n_max.

    For k, l >= 1: extracted from the star product of free generators of
    weights k and l, with an exact proportionality check of every component
    against its bracket.  The (0, even) column comes from the closed form;
    other zero weights have no free extraction.
    """
    if k == 0:
        return [alpha_weight0(j, l) for j in range(n_max + 1)]
    if l == 0:
        raise EdgeCaseWeightZero("no free extraction with a weight-0 right factor")
    if k < 1 or l < 1:
        raise ValueError("weights must be nonnegative")
    spec = GradedRingSpec([Generator("F", k), Generator("G", l)])
    F = spec.gen("F")
    G = spec.gen("G")
    order = k + l + 2 * n_max + 1
    fam = star(F, G, order)
    out = []
    for n in range(n_max + 1):
        comp = fam.component(k + l + 2 * n)
        bracket = rc_bracket(F, G, k, l, n)
        # read alpha off the F * G^(n) monomial, then require exact proportionality
        mono = (((0, 0, 1), (1, n, 1)))
        denom = bracket.coefficient(mono)
        if denom == 0:
            raise BracketMismatch(f"bracket [F,G]_{n} vanishes on its pivot monomial")
        a = comp.coefficient(mono) / denom
        if comp != a * bracket:
            raise BracketMismatch(
                f"component at offset {n} of the star product is not "
                f"proportional to the bracket (weights {k}, {l})"
            )
        out.append(a)
    return out


def star_via_brackets(f: GradedElem, g: GradedElem, n_max: int) -> WeightedFamily:
    """sum_n alpha_n(k, l) [f, g]_n as a weighted family (cross-check path)."""
    ring = f.spec
    k = _weight(f)
    l = _weight(g)
    table = alpha_table(k, l, n_max)
    comps = {}
    for n, a in enumerate(table):
        comps[k + l + 2 * n] = a * rc_bracket(f, g, k, l, n)
    return WeightedFamily(ring, comps)
