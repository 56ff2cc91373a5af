"""Lifting maps from weighted coefficients to invariant series.

psi_m sends a weight-m coefficient f to sum_n alpha_m(n) f^{(n)} y^{m+2n};
assembling the psi_m over a weighted family and peeling them back by
valuation realises the transfer isomorphism between products of weight
spaces and series of nonnegative valuation.  The negative-even maps are
polynomial (hence exact); at negative odd weight no lifting map with unit
leading coefficient exists, which ``negodd_nonexistence`` certifies by
solving the equivariance constraints as an exact linear system.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

from .coeffs import gbinom, lift_coeff, omega
from .errors import (
    NegativeOddWeight,
    NotAUnit,
    NotHomogeneous,
    OrderUnresolvable,
    ParityMismatch,
    ValuationTooLow,
)
from .frozen import Frozen
from .graded import GradedElem
from .ratfunc import QZ, GMatrix, RatFunc
from .series import EXACT, PDSeries, _min_order, series_inverse, series_mul
from .action import act_series, slash

__all__ = [
    "WeightedFamily",
    "psi",
    "psi_neg_via_xi",
    "pi_k",
    "psi_inverse",
    "psi_assemble",
    "closed_pairs",
    "equivariance_residual",
    "negodd_nonexistence",
    "NegOddReport",
]


def ring_of(f, ring=None):
    """`ring` when given, else the ring `f` belongs to; plain scalars
    belong to Q(z)."""
    if ring is not None:
        return ring
    if isinstance(f, GradedElem):
        return f.spec
    if isinstance(f, (RatFunc, int, Fraction)):
        return QZ
    raise TypeError(f"no coefficient ring for a value of type {type(f).__name__}")


class WeightedFamily(Frozen):
    """A finitely supported map weight -> coefficient-ring element.

    In the graded model each nonzero component must be homogeneous of its
    index weight; over Q(z) the indices are formal.  Values are immutable:
    ``components`` is a read-only mapping.
    """

    __slots__ = ("ring", "components", "start")

    def __init__(self, ring, components: Mapping[int, object], start: int | None = None):
        clean = {}
        for m, f in components.items():
            f = ring.coerce(f)
            if not f.is_zero():
                clean[m] = f
        start = min(clean) if clean else (start if start is not None else 0)
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "components", MappingProxyType(clean))
        object.__setattr__(self, "start", start)

    def __reduce__(self):
        return WeightedFamily, (self.ring, dict(self.components), self.start)

    def component(self, m: int):
        return self.components.get(m, self.ring.zero())

    def items(self):
        return sorted(self.components.items())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedFamily):
            return NotImplemented
        return self.ring == other.ring and self.components == other.components

    def __hash__(self) -> int:
        return hash((self.ring, frozenset(self.components.items())))

    def agree(self, other: "WeightedFamily", upto: int) -> bool:
        for m in set(self.components) | set(other.components):
            if m < upto and self.component(m) != other.component(m):
                return False
        return True

    def __repr__(self) -> str:
        inner = ", ".join(f"{m}: {f}" for m, f in self.items())
        return f"WeightedFamily({{{inner}}})"


def psi(m: int, f, order: int | None = None, ring=None) -> PDSeries:
    """The weight-m lifting map: sum_n alpha_m(n) f^{(n)} y^{m+2n}.

    Defined for m >= 0 and negative even m; the latter is a polynomial map,
    so the result is EXACT (as it is for m = 0, the constant embedding).
    In the graded model f must be homogeneous of weight m.
    """
    if m < 0 and m % 2 != 0:
        raise NegativeOddWeight(f"no lifting map at weight {m}")
    ring = ring_of(f, ring)
    f = ring.coerce(f)
    if isinstance(f, GradedElem) and not f.is_zero() and not f.is_homogeneous(m):
        raise NotHomogeneous(f"lifting a weight-{m} coefficient needs weight-{m} input")
    exact = m <= 0 and m % 2 == 0
    if not exact and order is None:
        raise OrderUnresolvable(f"psi at weight {m} is an infinite series; pass an order")
    # alpha_m(n) = alpha_m(n-1) * -(m+2n-2)(m+2n) / (4n(m+n-1)) from
    # alpha_m(0) = 1; its first zero, at n = -m/2 for m < 0 and n = 1 for
    # m = 0, ends the exact lifts, and for m > 0 it never vanishes
    out = {}
    n, a, deriv = 0, Fraction(1), f
    while exact or m + 2 * n < order:
        if n:
            top = -(m + 2 * n - 2) * (m + 2 * n)
            if top == 0:
                break
            a *= Fraction(top, 4 * n * (m + n - 1))
            deriv = deriv.deriv()
        out[m + 2 * n] = a * deriv
        n += 1
    return PDSeries(ring, out, EXACT if exact else order)


def psi_neg_via_xi(k: int, f, xi, order: int, ring=None) -> PDSeries:
    """Negative-weight lift psi_{-k}(f) = psi_{2k}(xi^{2k})^{-1} psi_k(f xi^{2k}).

    Needs an invertible weight-1 unit xi; the result has valuation -k with
    leading coefficient f.
    """
    if k <= 0:
        raise ValueError("k must be positive")
    ring = ring_of(f, ring)
    xi, f = ring.coerce(xi), ring.coerce(f)
    try:
        xi.inverse()
    except NotAUnit:
        raise NotAUnit("xi must be an invertible unit") from None
    if isinstance(xi, GradedElem):
        if not xi.is_homogeneous(1):
            raise NotHomogeneous("xi must have weight 1")
        if not f.is_zero() and not f.is_homogeneous(-k):
            raise NotHomogeneous(f"input must be homogeneous of weight {-k}")
    xi2k = xi ** (2 * k)
    denom = psi(2 * k, xi2k, order + 3 * k, ring=ring)
    numer = psi(k, f * xi2k, order + 2 * k, ring=ring)
    return series_mul(series_inverse(denom), numer)


def pi_k(q: PDSeries, k: int):
    """Coefficient of y^k (the canonical projection on valuation >= k input)."""
    if q.valuation < k:
        raise ValuationTooLow(f"valuation {q.valuation} below projection index {k}")
    return q.coeff(k)


def psi_inverse(q: PDSeries, order: int | None = None) -> WeightedFamily:
    """Peel q into its weighted family: repeatedly strip psi_m of the
    leading coefficient.  Negative peeling indices must be even."""
    bound = _min_order(q.order, order)
    current = q
    comps: dict[int, object] = {}
    while not current.is_zero():
        m = current.valuation
        if bound is not None and m >= bound:
            break
        if m < 0 and m % 2 != 0:
            raise NegativeOddWeight(f"cannot peel at negative odd exponent {m}")
        f = current.coeff(m)
        comps[m] = f
        if m > 0 and bound is None:
            raise OrderUnresolvable(f"psi_inverse: peeling weight {m} from an exact series needs an order")
        current = current - psi(m, f, bound, ring=q.ring)
    return WeightedFamily(q.ring, comps, start=0 if not comps else None)


def psi_assemble(F: WeightedFamily, order: int | None = None) -> PDSeries:
    """The transfer map: sum_m psi_m(f_m), truncated at `order`."""
    positive = sorted(m for m in F.components if m > 0)
    if positive and order is None:
        raise OrderUnresolvable(f"psi_assemble: the lifts at weights {positive} are infinite; pass an order")
    parts = (psi(m, f, order, ring=F.ring) for m, f in F.items() if order is None or m < order)
    return PDSeries.sum(F.ring, parts, order)


# -- explicit even/odd coefficient conversions --


def _even_fwd_coeff(m: int, r: int) -> Fraction:
    return (
        Fraction(factorial(m - 1) * factorial(2 * m - 2 * r - 1))
        / (factorial(m - r - 1) * factorial(2 * m - r - 1))
    ) * gbinom(-m + r - 1, r)


def _even_bwd_coeff(n: int, r: int) -> Fraction:
    return (
        Fraction(factorial(n - 1), factorial(2 * n - 2))
        * Fraction(factorial(2 * n - 2 - r), factorial(n - 1 - r))
        * gbinom(n, r)
    )


def _odd_fwd_coeff(m: int, r: int) -> Fraction:
    return (
        Fraction(factorial(2 * m + 1) * factorial(2 * m), factorial(m) ** 2)
        * Fraction((-1) ** r * factorial(m - r) ** 2)
        / (16**r * factorial(r) * factorial(2 * m - 2 * r + 1) * factorial(2 * m - r))
    )


def _odd_bwd_coeff(n: int, r: int) -> Fraction:
    # (2n)!(2n+1)!/((2n-1)! n!^2) * (2n-1-r)!(n-r)!^2/(16^r (2n-2r)! r! (2n-2r+1)!)
    # with the factorial ratio (2n-1-r)!/(2n-1)! kept as a product of ratios so
    # the n = 0 boundary stays finite.
    acc = Fraction(factorial(2 * n) * factorial(2 * n + 1), factorial(n) ** 2)
    acc *= Fraction(factorial(n - r) ** 2)
    acc /= 16**r * factorial(2 * n - 2 * r) * factorial(r) * factorial(2 * n - 2 * r + 1)
    for j in range(r):
        acc /= 2 * n - 1 - j
    return acc


# direction: (coefficient, (a, b) with input index a*s + b,
#             (c, d) with output index c*n + d, least n)
_CLOSED = {
    "even_fwd": (_even_fwd_coeff, (2, 0), (1, 0), 1),
    "even_bwd": (_even_bwd_coeff, (1, 0), (2, 0), 1),
    "odd_fwd": (_odd_fwd_coeff, (2, 1), (2, 1), 0),
    "odd_bwd": (_odd_bwd_coeff, (2, 1), (2, 1), 0),
}


def closed_pairs(direction: str, family: WeightedFamily) -> WeightedFamily:
    """Convert between a weighted family and operator coefficients in closed form.

    even_fwd : {2n: f_2n, n>=1}      -> {m: h_m}     (x-exponent coefficients)
    even_bwd : {m: h_m, m>=1}        -> {2n: f_2n}
    odd_fwd  : {2n+1: f_{2n+1}}      -> {2m+1: h_{2m+1}} (y-exponent coefficients)
    odd_bwd  : {2m+1: h_{2m+1}}      -> {2n+1: f_{2n+1}}

    Output n is sum_{lo <= s <= n} coeff(n, n - s) * (input s)^{(n - s)}.
    """
    if direction not in _CLOSED:
        raise ValueError(f"unknown direction {direction!r}")
    ring = family.ring
    keys = family.components
    if direction == "even_fwd" and any(m % 2 != 0 or m <= 0 for m in keys):
        raise ParityMismatch("even_fwd expects positive even weights")
    if direction == "even_bwd" and any(m <= 0 for m in keys):
        raise ParityMismatch("even_bwd expects positive operator exponents")
    if direction.startswith("odd") and any(m % 2 == 0 or m < 1 for m in keys):
        raise ParityMismatch(f"{direction} expects positive odd indices")
    coeff, (a, b), (c, d), lo = _CLOSED[direction]
    top = max(((m - b) // a for m in keys), default=lo - 1)
    out: dict[int, object] = {}
    for n in range(lo, top + 1):
        parts = ((n - s, family.component(a * s + b)) for s in range(lo, n + 1))
        out[c * n + d] = ring.sum(
            coeff(n, r) * f.deriv_n(r) for r, f in parts if not f.is_zero()
        )
    return WeightedFamily(ring, out)


def equivariance_residual(
    m: int, f: RatFunc, g: GMatrix, order: int, c: Fraction | int | None = None
) -> PDSeries:
    """psi_m(f|_m g) - (psi_m(f)).g, which the defining property makes zero.

    With `c` given (m = -2k only), tests the one-parameter deformation
    f -> psi_{-2k}(f) + c psi_{2k+2}(f^{(2k+1)}) instead.
    """

    def lift_map(h: RatFunc) -> PDSeries:
        base = psi(m, h, order)
        if c is None:
            return base
        if not (m < 0 and m % 2 == 0):
            raise ValueError("the deformed lift exists at negative even weight only")
        extra = psi(2 - m, h.deriv_n(1 - m), order)
        return base + extra.scale_left(Fraction(c))

    lifted = lift_map(slash(f, m, g))
    acted = act_series(lift_map(f), g, order)
    return lifted - acted


# -- nonexistence at negative odd weight --


class NegOddReport(NamedTuple):
    k: int
    order: int
    nullity: int
    forced_zero_prefix: bool
    matches_shifted_lift: bool
    generators: Sequence[GMatrix] = ()

    @property
    def ok(self) -> bool:
        return self.nullity == 1 and self.forced_zero_prefix and self.matches_shifted_lift

    def __bool__(self) -> bool:
        return self.ok


def _nullspace(rows: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Exact nullspace basis via Gauss-Jordan over Fraction."""
    mat = [row[:] for row in rows if any(row)]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -mat[i][fc]
        basis.append(vec)
    return basis


def negodd_nonexistence(
    k: int, order: int, gens: Sequence[GMatrix] | None = None
) -> NegOddReport:
    """Certify that no lifting map with unit leading term exists at weight -2k+1.

    Builds the linear constraints that equivariance against the generators
    imposes on candidate coefficients alpha(0..order), computes the exact
    nullspace, and checks: a one-dimensional solution space, alpha(r) = 0
    forced for all r < 2k, and the normalized solution equal to the
    weight-(2k+1) lift composed with the 2k-th derivative.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if gens is None:
        gens = [GMatrix(1, 1, 0, 1), GMatrix(1, 0, 1, 1)]
    m = -2 * k + 1
    ncols = order + 1
    rows: list[list[Fraction]] = []
    for g in gens:
        if g.c == 0:
            continue  # the unipotent generator imposes no constraints
        for u in range(order + 1):
            for r in range(u + 1):
                a = (
                    Fraction(factorial(u), factorial(r))
                    * gbinom(u + m - 1, u - r)
                    * (-1) ** (u - r)
                )
                b = omega(m + 2 * r, u - r)
                if a == 0 and b == 0:
                    continue
                row = [Fraction(0)] * ncols
                row[u] += a
                row[r] -= b
                rows.append(row)
    basis = _nullspace(rows, ncols)
    nullity = len(basis)
    forced = all(vec[r] == 0 for vec in basis for r in range(min(2 * k, ncols)))
    matches = False
    if nullity == 1 and forced and ncols > 2 * k and basis[0][2 * k] != 0:
        vec = basis[0]
        scale = 1 / vec[2 * k]
        matches = all(
            vec[n] * scale == lift_coeff(2 * k + 1, n - 2 * k)
            for n in range(2 * k, ncols)
        )
    return NegOddReport(k, order, nullity, forced, matches, tuple(gens))
