"""Structure of the invariant rings over a graded coefficient ring.

With an invertible weight-2 generator chi, the nonnegative even-support
invariants form a skew power series ring in u = x*chi over the weight-0
subring, with derivation D = -chi^{-1} d/dz; rewriting an invariant in
powers of u, expanding the powers of u as modular-form families (the
g-forms), and decomposing arbitrary invariants are all implemented here.
With an invertible weight-1 generator xi, the square root v of y^2 xi^2
uniformises the full invariant ring.

The g-forms g_{k,2n} of u^k are read off their closed formula, a sum over
the partitions of n - k into at most k parts, by one partition walk per
weight that forms no power of u (``g_forms``, which ``decompose_even``
uses); ``g_closed`` sums the same formula term by term as the reference,
and peeling u^k with ``psi_inverse`` is the tests' oracle.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from math import comb, factorial, prod
from operator import mul
from typing import Iterator, Sequence

from .coeffs import gamma_tuple
from .errors import NotAUnit, NotHomogeneous, NotInvariant, OrderUnresolvable
from .graded import GradedElem, GradedRingSpec
from .lift import WeightedFamily
from .rankin import _bracket_pairs, alpha_weight0
from .series import PDSeries, _min_order, derivs, series_mul, series_sqrt

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


def _unit_index(spec: GradedRingSpec, weight: int) -> int:
    """The index of the first invertible generator of the given weight."""
    for j, g in enumerate(spec.generators):
        if g.weight == weight and g.invertible:
            return j
    raise NotAUnit(f"no invertible weight-{weight} generator in {spec!r}")


def find_unit_generator(spec: GradedRingSpec, weight: int) -> GradedElem:
    """The first invertible generator of the given weight."""
    return spec.gen(spec.generators[_unit_index(spec, weight)].name)


def weight0_derivation(a: GradedElem, chi: GradedElem | None = None) -> GradedElem:
    """D(a) = -chi^{-1} da/dz, the derivation of the weight-0 subring."""
    if chi is None:
        chi = find_unit_generator(a.spec, 2)
    return -(chi.inverse() * a.deriv())


def _u_powers(order: int, ring: GradedRingSpec, read: int | None = None) -> Iterator[PDSeries]:
    """1, u, u^2, ... by repeated products, with

        u = x*chi = sum_n (-1)^n chi^(n) y^{2+2n}

    truncated at `order`, so that u^j, of valuation 2j, is known to
    min(order + 2(j-1), read); `read`, the order the caller reads, defaults
    to `order`.  Each product is formed only to `read`, and only when it is
    asked for; every coefficient of u is one monomial, so each is cheap.
    """
    read = order if read is None else read
    chi = find_unit_generator(ring, 2)
    coeffs = {2 + 2 * n: -d if n % 2 else d for n, d in zip(range((order - 1) // 2), derivs(chi))}
    step = lambda power, u: series_mul(power.truncate(read - 2), u)
    return chain([PDSeries.one(ring)], accumulate(repeat(PDSeries(ring, coeffs, order)), step))


def u_power(k: int, order: int, ring: GradedRingSpec) -> PDSeries:
    """(x*chi)^k truncated at `order`: the k-th power of u truncated at
    order - 2(k-1), in k-1 products.  The closed multinomial sum over
    compositions, of C(n+k-1, k-1) products at x^{k+n}, is the tests' oracle.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    powers = _u_powers(order - 2 * (k - 1), ring, order)
    if k and order <= 2 * k:
        return PDSeries.zero(ring, order)
    return next(islice(powers, k, None))


def g_forms(k: int, n_max: int, ring: GradedRingSpec) -> dict[int, GradedElem]:
    """The modular forms g_{k, 2n} (k <= n <= n_max) of u^k, by the closed
    formula that ``g_closed`` evaluates term by term:

        g_{k,2k+2i} = pref(k, i) sum_t orderings(t) gamma_i(t) prod_j chi^(t_j)/(t_j+1)!

    over the partitions t of i into at most k parts.  One walk per weight
    takes the parts largest first and carries gamma_i down it as a linear
    functional, so that a partition's leaf reads its gamma off one entry and
    each entry is built from integer numerators, with no series product.
    Peeling u^k with ``psi_inverse`` is the tests' oracle.

    Returned keyed by weight 2n, zeros included; each nonzero entry is
    homogeneous of its key weight.
    """
    if k < 0:
        raise ValueError("k must be >= 0")
    idx = _unit_index(ring, 2)
    if k == 0:
        return {2 * n: ring.one() if n == 0 else ring.zero() for n in range(n_max + 1)}
    fact = list(accumulate(range(1, 2 * n_max + 1), mul, initial=1))
    rows = [[comb(t + 1, b) for b in range(t + 1)] for t in range(n_max - k + 1)]
    keys = [ring._pack(((idx, t, 1),))[0] for t in range(n_max - k + 1)]
    return {2 * n: _g_form(k, n - k, keys, ring, fact, rows) for n in range(k, n_max + 1)}


def _g_form(k: int, i: int, keys: list[int], ring: GradedRingSpec, fact: list[int], rows: list[list[int]]) -> GradedElem:
    """g_{k,2k+2i} by one walk over the partitions of i into at most k parts.

    gamma_i(t) = <F, prod_j P_{t_j}> with F_r = (-1)^r (2n-2-r)!/(n-1-r)!,
    n = k+i, and P_t(x) = sum_{b<=t} C(t+1, b) x^b (`rows[t]`); since
    <F, Q P_t> = <F * P_t, Q> with (F * P)_a = sum_b F_{a+b} P_b, each part
    taken replaces the functional by its product with P_t, truncated to the
    degree the rest of i can reach, and a leaf's gamma is its entry 0.  A node
    also carries the runs (part, multiplicity) taken, largest first, and
    prod_j (t_j+1)! prod_v m_v! over them; at a leaf, the k - parts zero
    parts give the monomial its chi^(0) factor and the orderings their last
    multiplicity.  `keys[t]` is the packed monomial chi^(t).
    """
    n = k + i
    num: dict[int, int] = {}
    stack = [(i, 0, i, [(-1) ** r * fact[2 * n - 2 - r] // fact[n - 1 - r] for r in range(i + 1)], (), 1)]
    while stack:
        rest, parts, top, fun, runs, den = stack.pop()
        if not rest:
            zeros = k - parts
            key = zeros * keys[0] + sum(m * keys[t] for t, m in runs)
            num[key] = fun[0] * (fact[k] * fact[n] // (den * fact[zeros]))
            continue
        # the parts left, each <= t, must still cover the rest of i
        for t in range(-(-rest // (k - parts)), min(rest, top) + 1):
            new = [sum(map(mul, rows[t], fun[a : a + t + 1])) for a in range(rest - t + 1)]
            m = runs[-1][1] + 1 if runs and runs[-1][0] == t else 1
            runs_t = (*runs[: len(runs) - (m > 1)], (t, m))
            stack.append((rest - t, parts + 1, t, new, runs_t, den * fact[t + 1] * m))
    # pref(k, i) orderings(t) / prod_j (t_j+1)! = scale * k! n! / (prod_j (t_j+1)! prod_v m_v!)
    scale = Fraction((-1) ** i * fact[n - 1], fact[2 * n - 2] * fact[k])
    # every exponent is a multiplicity or the number of zero parts, at most k
    return GradedElem._raw(ring, {m: c * scale.numerator for m, c in num.items()}, scale.denominator, k)


def _partitions(n: int, parts: int, top: int) -> Iterator[tuple[int, ...]]:
    """Nonincreasing tuples of at most `parts` positive integers <= top that
    sum to n; each level of recursion takes one part."""
    if n == 0:
        yield ()
    elif parts:
        for first in range(min(n, top), -(-n // parts) - 1, -1):
            for rest in _partitions(n - first, parts - 1, first):
                yield (first, *rest)


def g_closed(k: int, i: int, ring: GradedRingSpec) -> GradedElem:
    """Closed form of g_{k, 2k+2i} via the tuple coefficients:

        g_{k,2k+2i} = (-1)^i ((k+i)!(k+i-1)!/((2k+2i-2)! k!))
                      sum_{t_1+...+t_k=i} gamma_i(t) prod_j chi^(t_j)/(t_j+1)!.

    Both factors of the sum are symmetric in t, so it runs over the
    partitions of i into at most k parts, padded with zeros to k entries,
    each weighted by its number of orderings k!/prod_v m_v!.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if i < 0:
        raise ValueError("i must be >= 0")
    dchi = list(islice(derivs(find_unit_generator(ring, 2)), i + 1))
    terms = []
    for part in _partitions(i, k, i):
        t = part + (0,) * (k - len(part))
        if gamma := gamma_tuple(k, i, t, "A2"):
            orderings = factorial(k) // prod(map(factorial, Counter(t).values()))
            scale = gamma * orderings / prod(factorial(tj + 1) for tj in t)
            terms.append(scale * prod((dchi[tj] for tj in t), start=ring.one()))
    pref = Fraction(
        (-1) ** i * factorial(k + i) * factorial(k + i - 1),
        factorial(2 * k + 2 * i - 2) * factorial(k),
    )
    return pref * ring.sum(terms)


def decompose_even(a: Sequence[GradedElem], order: int, ring: GradedRingSpec) -> WeightedFamily:
    """The weighted family of q = sum_k a_k u^k from weight-0 coefficients a_k:

        f_{2m} = sum_{k, n<=m} alpha_{m-n}(0, 2n) [a_k, g_{k,2n}]_{m-n}

    for m >= 1, with f_0 = a_0 (the n = 0 terms of the displayed double sum
    degenerate and are dropped; the convention is validated against the
    peeling oracle).
    """
    a = [ring.coerce(x) for x in a]
    for j, x in enumerate(a):
        if not x.is_zero() and not x.is_homogeneous(0):
            raise NotHomogeneous(f"coefficient a_{j} must have weight 0")
    m_max = (order - 1) // 2
    _unit_index(ring, 2)  # u = x*chi needs the weight-2 unit even when every a_k is zero
    gtabs = {k: g_forms(k, m_max, ring) for k, ak in enumerate(a) if not ak.is_zero()}
    # one derivative chain per a_k and per nonzero g_{k,2n}; a weight-0 bracket
    # of order N >= 1 has no a_k g^(N) term, so g_{k,2n} is read to its
    # (m_max-n-1)-th derivative at most, and a_k (k <= m_max) to its (m_max-max(k,1))-th
    da = {k: list(islice(derivs(a[k]), max(m_max + 1 - max(k, 1), 0))) for k in gtabs}
    dg = {
        (k, n): list(islice(derivs(g), max(m_max - n, 1)))
        for k, gtab in gtabs.items()
        for n in range(max(k, 1), m_max + 1)
        if not (g := gtab[2 * n]).is_zero()
    }
    comps: dict[int, GradedElem] = {}
    if a and not a[0].is_zero():
        comps[0] = a[0]
    for m in range(1, m_max + 1):
        pairs = []
        for (k, n), dgn in dg.items():
            if n <= m:
                pairs.extend(_bracket_pairs(da[k], dgn, 0, 2 * n, m - n, alpha_weight0(m - n, 2 * n)))
        comps[2 * m] = ring.dot(pairs)
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
    a weight-0 element.  Peeling on the left, a_k = [y^{2k}](q - sum_{j<k}
    a_j u^j) chi^{-k}, needs u^k only to the working order, and never the
    inverse of u.
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
    chi = find_unit_generator(ring, 2)
    out: list[GradedElem] = []
    current = q.truncate(bound)
    for k, power in zip(range((bound + 1) // 2), _u_powers(bound, ring)):
        out.append(current.coeff(2 * k) * chi**-k)
        current = current - power.scale_left(out[-1])
        if current.is_zero():
            break
    while out and out[-1].is_zero():
        out.pop()
    return out or [ring.zero()]


def v_uniformizer(order: int, ring: GradedRingSpec) -> PDSeries:
    """The odd uniformizer v = sqrt(y^2 xi^2) with leading coefficient xi;
    known to O(y^order), where it is zero for order <= 1."""
    xi = find_unit_generator(ring, 1)
    if order <= 1:
        return PDSeries.zero(ring, order)
    q = series_mul(
        PDSeries.monomial(ring, ring.one(), 2, order + 1),
        PDSeries.monomial(ring, xi * xi, 0),
    )
    return series_sqrt(q, xi)
