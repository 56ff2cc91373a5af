"""The homographic action of SL(2, Q) on Q(z), extended to the operator rings.

The weight-k slash action on functions is f|_k g = (cz+d)^{-k} f((az+b)/(cz+d)).
On series the action is determined by its values on powers of y,

    y^k . g = sum_u omega_k(u) (cz+d)^{-k} (c/(cz+d))^u y^{k+2u},

and extends coefficientwise; general (p, r)-cocycle extensions parametrise
all other ways of extending the action from functions to operators.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache, reduce
from itertools import accumulate, product, repeat
from operator import matmul, mul
from typing import TYPE_CHECKING, Callable, NamedTuple, Sequence

from .coeffs import omega
from .errors import NotAUnit, OrderUnresolvable
from .ratfunc import QZ, GMatrix, RatFunc, mobius_compose
from .series import EXACT, PDSeries, _min_order

if TYPE_CHECKING:
    from .verify import SuiteReport

__all__ = [
    "slash",
    "act_y_power",
    "act_series",
    "CocyclePair",
    "modular_pair",
    "coboundary_pair",
    "kappa_pair",
    "act_x_inverse_generic",
    "check_cocycles",
]


def slash(f: RatFunc, k: int, g: GMatrix) -> RatFunc:
    """Weight-k right action (cz+d)^{-k} * f((az+b)/(cz+d))."""
    return g.s() ** (-k) * mobius_compose(f, g)


@lru_cache(maxsize=4096)
def act_y_power(k: int, g: GMatrix, order: int | None = None) -> PDSeries:
    """The series y^k . g over Q(z).

    EXACT whenever the expansion terminates (c = 0, or k nonpositive even,
    where omega_k eventually vanishes); otherwise truncated at `order`.
    Results are memoized; series are treated as immutable throughout.
    """
    s = g.s()
    s_pow = s ** (-k)
    if g.c == 0:
        return PDSeries.monomial(QZ, s_pow, k)
    terminates = k <= 0 and k % 2 == 0
    if not terminates and order is None:
        raise OrderUnresolvable(f"act_y_power: y^{k} . {g!r} is an infinite series; pass an order")
    # (cz+d)^{-k} (c/(cz+d))^u, one product per exponent; at nonpositive even k,
    # omega_k(u) vanishes past exponent 0, and PDSeries drops a zero coefficient
    terms = accumulate(repeat(RatFunc.const(g.c) / s), mul, initial=s_pow)
    exps = range(k, 1 if terminates else order, 2)
    out = {n: omega(k, (n - k) // 2) * t for n, t in zip(exps, terms)}
    return PDSeries(QZ, out, EXACT if terminates else order)


def act_series(q: PDSeries, g: GMatrix, order: int | None = None) -> PDSeries:
    """The action q . g = sum_n (f_n . g) (y^n . g), correct to the input's order.

    Valuation is preserved.  EXACT inputs stay EXACT when every exponent has a
    terminating action (all nonpositive even, or c = 0); otherwise `order`
    supplies the truncation.
    """
    if q.ring != QZ:
        raise ValueError("the homographic action is implemented over Q(z)")
    target = _min_order(q.order, order)
    parts = (act_y_power(n, g, target).scale_left(mobius_compose(f, g)) for n, f in q.coeffs.items())
    return PDSeries.sum(QZ, parts, target)


PFunc = Callable[[GMatrix], RatFunc]
RFunc = Callable[[GMatrix], RatFunc]


class CocyclePair(NamedTuple):
    """A candidate extension datum (p, r) for the action on the x-series ring.

    p must be a unit-valued 1-cocycle and r must satisfy the twisted additive
    law r_{gg'} = r_{g'} + p_{g'}^{-1} (r_g . g'); neither is enforced by
    construction -- run ``check_cocycles``.
    """

    p: PFunc
    r: RFunc
    name: str = ""


def kappa_pair(kappa: Fraction | int) -> CocyclePair:
    """The invariant-scaled family: p = (cz+d)^2, r_g = kappa * 2c/(cz+d)."""
    kappa = Fraction(kappa)

    def r(g: GMatrix) -> RatFunc:
        return RatFunc.const(2 * kappa * g.c) / g.s()

    return CocyclePair(lambda g: g.s() ** 2, r, f"kappa={kappa}")


def modular_pair() -> CocyclePair:
    """p = (cz+d)^2, r = 0: the canonical modular extension, kappa = 0."""
    return kappa_pair(0)._replace(name="modular")


def coboundary_pair() -> CocyclePair:
    """p = (cz+d)^2, r_g = -p_g^{-1} d(p_g) with d = -d/dz, i.e. r_g = p_g^{-1} (p_g)'.

    As p'/p = 2c/(cz+d), this is kappa = 1.  It is the choice that moves the
    coefficient to the other side: x^{-1}.g = p_g x^{-1} - d(p_g) = x^{-1} p_g.
    """
    return kappa_pair(1)._replace(name="coboundary")


def act_x_inverse_generic(g: GMatrix, cp: CocyclePair) -> PDSeries:
    """The image x^{-1}.g = p_g x^{-1} + p_g r_g as an exact series."""
    p = cp.p(g)
    if p.is_zero():
        raise NotAUnit("p_gamma must be a unit of Q(z)")
    return PDSeries(QZ, {-2: p, 0: p * cp.r(g)}, EXACT)


def check_cocycles(cp: CocyclePair, gens: Sequence[GMatrix], depth: int) -> SuiteReport:
    """Verify the two extension laws on all words of length <= depth in gens.

    Checks p_{gg'} = (p_g . g') p_{g'} and r_{gg'} = r_{g'} + p_{g'}^{-1}(r_g . g')
    for every pair of words whose concatenation still has length <= depth,
    two checks per pair, p-law first; the first violation is reported, not raised.
    """
    # imported here, so that the action commands load no verify module
    from .verify import _run

    if depth < 1:
        raise ValueError("depth must be >= 1")
    words = [
        (reduce(matmul, (gens[i] for i in w), GMatrix.identity()), w)
        for n in range(depth + 1)
        for w in product(range(len(gens)), repeat=n)
    ]

    def cases():
        for m1, w1 in words:
            for m2, w2 in words:
                if len(w1) + len(w2) <= depth:
                    g = m1 @ m2
                    at = f"at words {w1} * {w2}"
                    yield f"p-cocycle law {at}", cp.p(g), mobius_compose(cp.p(m1), m2) * cp.p(m2)
                    yield (f"r-compatibility law {at}", cp.r(g),
                           cp.r(m2) + cp.p(m2).inverse() * mobius_compose(cp.r(m1), m2))

    return _run(cp.name, f"{len(gens)} generators, words of length <= {depth}", cases())
