"""Rankin-Cohen brackets and the transferred star product.

The star product of two homogeneous coefficients is the peeled product of
their lifts.  Each component is a universal bilinear differential
expression in the two factors, fixed by their weights, so it is computed
once on free generators F, G of those weights and evaluated at the actual
factors.  Every component is a rational multiple alpha_n(k, l) of the
corresponding bracket (the transfer theorem, which the ``STAR`` verify
suite checks); ``alpha_table`` computes these multipliers by a scalar
recursion in the quotient F' = 0, without forming the free product.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import comb, factorial, gcd

from .coeffs import _lift_ratio, _ratio_products, gbinom
from .errors import EdgeCaseWeightZero, NotHomogeneous
from .graded import GradedElem, GradedRingSpec, Generator
from .lift import WeightedFamily, psi, psi_assemble, psi_inverse, ring_of
from .series import _comm_ratio, derivs, series_mul

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
    df, dg = (list(islice(derivs(h), n + 1)) for h in (f, g))
    return ring_of(f).dot(_bracket_pairs(df, dg, k, l, n))


def _bracket_pairs(df: list, dg: list, k: int, l: int, n: int, scale: Fraction | int = 1):
    """The pairs (scale * c_j f^(j), g^(n-j)) whose ``ring.dot`` is
    scale * [f, g]_n, read off the derivative chains df = [f, f', ...] and
    dg = [g, g', ...]; the j with c_j = 0 are left out."""
    for j in range(n + 1):
        if c := (-1) ** j * gbinom(k + n - 1, n - j) * gbinom(l + n - 1, j):
            yield scale * c * df[j], dg[n - j]


def star(f: GradedElem, g: GradedElem, order: int | None) -> WeightedFamily:
    """f * g = (peel)(psi_k(f) . psi_l(g)) as a weighted family from k + l.

    Component k + l + 2n is a universal bilinear expression
    sum_{a+b=n} beta(a, b) f^(a) g^(b), fixed by (k, l) alone.  It is read off
    the star product of free generators F, G of weights k, l and evaluated at
    (f, g): sending F -> f, G -> g is a differential-ring homomorphism, which
    commutes with psi, series_mul and psi_inverse, so the result is the one
    the lifts of f and g would give.  Each component is one ``ring.dot`` of
    the pairs (beta f^(a), g^(b)) over one derivative chain of each input.
    """
    ring = f.spec
    k = _weight(f)
    l = _weight(g)
    if k < 0 or l < 0:
        raise NotHomogeneous("star is defined at nonnegative weights")
    g = ring.coerce(g)
    free = _free_star(k, l, order)
    top = (max(free.components, default=k + l) - k - l) // 2
    df, dg = (list(islice(derivs(h), top + 1)) for h in (f, g))
    return WeightedFamily(ring, {
        m: ring.dot((beta * df[a], dg[b]) for ((_, a, _), (_, b, _)), beta in comp.terms.items())
        for m, comp in free.items()
    })


def _free_star(k: int, l: int, order: int | None) -> WeightedFamily:
    """F * G for free generators F, G of weights k, l: the peeled product of
    their lifts over the ring ``[F:k, G:l]``.  Every monomial of component
    k + l + 2n is F^(a) G^(b) with a + b = n."""
    spec = GradedRingSpec([Generator("F", k), Generator("G", l)])
    lifted = series_mul(psi(k, spec.gen("F"), order), psi(l, spec.gen("G"), order))
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

    For k, l >= 1, in the quotient by the differential ideal (F', F'', ...)
    of free generators F, G of weights k, l.  The quotient map is a
    differential-ring homomorphism, so it commutes with psi, series_mul and
    psi_inverse, and it keeps the monomials F*G^(N); there psi_k(F) = F y^k,
    and every series coefficient is a scalar multiple of one F*G^(N):

        q_N     = sum_{n+u=N} a_l(n) s_k(u)                  (F y^k . psi_l(G))
        beta_N  = q_N - sum_{n<N} beta_n a_{k+l+2n}(N-n)      (the peel)
        alpha_N = beta_N / C(k+N-1, N)                        (over F*G^(N) in [F, G]_N)

    with a_m the lift coefficients of psi_m and s_k(u) = c_k(u) (-1/2)^u the
    commutation factors of F y^k . G^(n), c_k(u) as in ``comm_coeff_c``.  That
    the whole component is alpha_N [F, G]_N is the transfer theorem, checked by
    the ``STAR`` verify suite.  The (0, even) column comes from the closed
    form; other zero weights have no free extraction.

    The recursion runs on integers: a_l, s_k and each peeled row a_m are
    numerators over one denominator, stepped by their ratios, and the rest
    is kept over one running denominator.
    """
    if k < 0 or l < 0:
        raise ValueError(f"weights must be nonnegative, got ({k}, {l})")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if k == 0:
        return [alpha_weight0(j, l) for j in range(n_max + 1)]
    if l == 0:
        raise EdgeCaseWeightZero("no free extraction with a weight-0 right factor")
    a_l, den_l = _ratio_products([_lift_ratio(l, n) for n in range(1, n_max + 1)])
    s_k, den_k = _ratio_products([_comm_ratio(k, u) for u in range(1, n_max + 1)])
    # rest[N] / den: q_N less the lifts of the components peeled so far
    rest = [sum(a_l[n] * s_k[N - n] for n in range(N + 1)) for N in range(n_max + 1)]
    den = den_l * den_k
    out = []
    for n in range(n_max + 1):
        beta = rest[n]
        out.append(Fraction(beta, den * comb(k + n - 1, n)))
        # rest[n+t] -= beta a_m(t) / den with a_m(t) = row[t] / den_m: rescale
        # by den_m less what it shares with beta
        row, den_m = _ratio_products([_lift_ratio(k + l + 2 * n, t) for t in range(1, n_max - n + 1)])
        h = gcd(beta, den_m)
        for t in range(1, n_max - n + 1):
            rest[n + t] = rest[n + t] * (den_m // h) - beta // h * row[t]
        den *= den_m // h
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
