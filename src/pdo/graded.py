"""Free differential Laurent-polynomial ring on weighted generators.

The coefficient model for formal algebraic modular forms: each generator g
carries an integer weight w, its j-th formal derivative g^(j) has weight
w + 2j, and invertible generators may appear with negative exponents
(at derivative order 0 only).  Invariance never involves a group here;
it is the homogeneity predicate implemented by ``weight()``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Union

from .errors import NotAUnit, NotHomogeneous, RingMismatch, ZeroElement
from .frozen import Frozen

Scalar = Union[int, Fraction]

# a monomial is a sorted tuple of (gen_index, deriv_order, exponent),
# exponents nonzero, negative only for (invertible gen, deriv_order 0)
Mono = tuple[tuple[int, int, int], ...]

__all__ = ["Generator", "GradedRingSpec", "GradedElem", "GradedRing"]


class Generator(NamedTuple):
    name: str
    weight: int
    invertible: bool = False


class GradedRingSpec(Frozen):
    """An ordered list of named weighted generators, and the free graded
    ring on them.

    A spec is immutable: elements read their generators' weights through
    it, and it is part of their hash.  It is the coefficient ring of a
    series over it: ``zero``, ``one``, ``coerce``, ``sum`` and ``dot`` are
    what the series engine asks of a ring."""

    __slots__ = ("generators", "_index")

    def __init__(self, generators: Iterable[Generator | tuple]):
        gens = tuple(
            g if isinstance(g, Generator) else Generator(*g) for g in generators
        )
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_index", MappingProxyType({g.name: i for i, g in enumerate(gens)}))

    def __reduce__(self):
        return GradedRingSpec, (self.generators,)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedRingSpec):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        return f"GradedRingSpec({list(self.generators)})"

    def gen(self, name: str, deriv: int = 0) -> "GradedElem":
        idx = self._index[name]
        return GradedElem(self, {((idx, deriv, 1),): 1})

    def scalar(self, c: Scalar) -> "GradedElem":
        c = Fraction(c)
        return GradedElem._raw(self, {(): c.numerator}, c.denominator)

    def zero(self) -> "GradedElem":
        return GradedElem._raw(self, {}, 1)

    def one(self) -> "GradedElem":
        return self.scalar(1)

    def coerce(self, x: "GradedElem | Scalar") -> "GradedElem":
        """`x` as an element of this ring: an element of it as is, a scalar
        as a constant; an element of another ring raises RingMismatch."""
        if isinstance(x, GradedElem):
            if x.spec is not self and x.spec != self:
                raise RingMismatch("element belongs to a different graded ring")
            return x
        return self.scalar(x)

    def sum(self, terms: Iterable["GradedElem | Scalar"]) -> "GradedElem":
        """The sum of `terms` in this ring: the ``dot`` of one with each term,
        so the graded ring has one accumulator."""
        one = self.one()
        return self.dot((one, t) for t in terms)

    def dot(self, pairs: Iterable[tuple["GradedElem", "GradedElem"]]) -> "GradedElem":
        """The sum of the products x * y over `pairs` of elements of this
        ring, in one pass: integer numerators are multiplied into one
        accumulator over a running common denominator, which grows (rescaling
        the sum so far) only when a pair's denominator does not divide it."""
        out: dict[Mono, int] = {}
        den = 1
        for x, y in pairs:
            x, y = self.coerce(x), self.coerce(y)
            d = x._den * y._den
            if den % d:
                k = d // gcd(den, d)
                den *= k
                for m in out:
                    out[m] *= k
            k = den // d
            right = y._num.items()
            for m1, c1 in x._num.items():
                c1 *= k
                for m2, c2 in right:
                    m = _mono_mul(m1, m2)
                    c = out.get(m)
                    out[m] = c1 * c2 if c is None else c + c1 * c2
        return GradedElem._raw(self, out, den)

    @property
    def spec(self) -> "GradedRingSpec":
        """The spec itself.  Kept because the benchmark reads ``ring.spec``
        from a ring made by ``GradedRing``; library code uses the spec directly."""
        return self

    def mono_weight(self, mono: Mono) -> int:
        return sum(e * (self.generators[g].weight + 2 * j) for g, j, e in mono)

    def _check_mono(self, mono: Mono) -> None:
        for g, j, e in mono:
            if e == 0 or j < 0 or not 0 <= g < len(self.generators):
                raise ValueError(f"malformed monomial factor {(g, j, e)}")
            if e < 0 and (j != 0 or not self.generators[g].invertible):
                raise ValueError(
                    f"negative exponent needs an invertible generator at "
                    f"derivative order 0: {(g, j, e)}"
                )


def _normalize(mono: Iterable[tuple[int, int, int]]) -> Mono:
    merged: dict[tuple[int, int], int] = {}
    for g, j, e in mono:
        key = (g, j)
        merged[key] = merged.get(key, 0) + e
    return tuple(
        (g, j, e) for (g, j), e in sorted(merged.items()) if e != 0
    )


def _mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Product of two canonical monomials: one merge of the sorted factors,
    adding the exponents of a shared (gen, deriv) and dropping a zero sum."""
    if not m1:
        return m2
    if not m2:
        return m1
    out = []
    i = k = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and k < n2:
        a, b = m1[i], m2[k]
        if a[0] == b[0] and a[1] == b[1]:
            e = a[2] + b[2]
            if e:
                out.append((a[0], a[1], e))
            i += 1
            k += 1
        elif a < b:  # decided by (gen, deriv), which differ here
            out.append(a)
            i += 1
        else:
            out.append(b)
            k += 1
    return (*out, *m1[i:], *m2[k:])


def _set_slots(obj: "GradedElem", spec: GradedRingSpec, num: dict[Mono, int], den: int) -> "GradedElem":
    """Store `num / den` (den > 0) in lowest terms: zero numerators are
    dropped and the gcd of `den` and all numerators is divided out, so the
    stored form is unique and `==` is structural."""
    num = {m: c for m, c in num.items() if c}
    g = gcd(den, *num.values())
    if g != 1:
        den //= g
        num = {m: c // g for m, c in num.items()}
    object.__setattr__(obj, "spec", spec)
    object.__setattr__(obj, "_num", num)
    object.__setattr__(obj, "_den", den)
    return obj


class GradedElem(Frozen):
    """Finite Q-linear combination of monomials in generators and derivatives.

    An element is stored as integer numerators `_num` over one positive
    denominator `_den`, in lowest terms; ``terms`` is the read-only view of
    its `Fraction` coefficients.  Values are immutable.  The public
    constructor normalises and validates its input; sums, products, scalings
    and derivatives of canonical values have canonical monomials, so they
    build their results through ``_raw`` without a re-check.
    """

    __slots__ = ("spec", "_num", "_den")

    def __init__(self, spec: GradedRingSpec, terms: Mapping[Mono, Scalar]):
        clean: dict[Mono, Fraction] = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = _normalize(mono)
            spec._check_mono(mono)
            clean[mono] = clean.get(mono, 0) + c
        den = lcm(*(c.denominator for c in clean.values()))
        _set_slots(self, spec, {m: c.numerator * (den // c.denominator) for m, c in clean.items()}, den)

    @classmethod
    def _raw(cls, spec: GradedRingSpec, num: dict[Mono, int], den: int) -> "GradedElem":
        """Trusted constructor: the monomials of `num` are canonical and
        valid, and `den > 0`; the fraction is reduced here."""
        return _set_slots(object.__new__(cls), spec, num, den)

    def __reduce__(self):
        return GradedElem._raw, (self.spec, dict(self._num), self._den)

    @property
    def terms(self) -> Mapping[Mono, Fraction]:
        """The nonzero coefficients, monomial to `Fraction`, read-only."""
        d = self._den
        return MappingProxyType({m: Fraction(c, d) for m, c in self._num.items()})

    # -- predicates --

    def is_zero(self) -> bool:
        return not self._num

    def is_scalar(self) -> bool:
        return all(m == () for m in self._num)

    def deriv_terminates(self) -> bool:
        """Whether some derivative vanishes: in a free differential ring,
        only the scalars."""
        return self.is_scalar()

    def scalar_value(self) -> Fraction:
        if not self.is_scalar():
            raise ValueError("not a scalar")
        return Fraction(self._num.get((), 0), self._den)

    def coefficient(self, mono: Mono) -> Fraction:
        return Fraction(self._num.get(_normalize(mono), 0), self._den)

    # -- arithmetic --

    def __add__(self, other: "GradedElem | Scalar") -> "GradedElem":
        return self.spec.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "GradedElem":
        return GradedElem._raw(self.spec, {m: -c for m, c in self._num.items()}, self._den)

    def __sub__(self, other: "GradedElem | Scalar") -> "GradedElem":
        return self + (-self.spec.coerce(other))

    def __rsub__(self, other: Scalar) -> "GradedElem":
        return self.spec.coerce(other) - self

    def __mul__(self, other: "GradedElem | Scalar") -> "GradedElem":
        if isinstance(other, (int, Fraction)):
            p, q = other.numerator, other.denominator
            return GradedElem._raw(self.spec, {m: c * p for m, c in self._num.items()}, self._den * q)
        return self.spec.dot(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedElem":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.spec.one()
        base = self
        while True:
            if n & 1:
                out = out * base
            n >>= 1
            if not n:
                return out
            base = base * base

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, GradedElem):
            return NotImplemented
        return self.spec == other.spec and self._den == other._den and self._num == other._num

    def __hash__(self) -> int:
        # scalars compare equal to their Fraction value, so they hash alike
        if self.is_scalar():
            return hash(self.scalar_value())
        return hash((self.spec, self._den, tuple(sorted(self._num.items()))))

    def inverse(self) -> "GradedElem":
        """Inverse of a unit monomial c * prod g_i^{e_i} (derivative order 0)."""
        if len(self._num) != 1:
            raise NotAUnit("units are single monomial terms")
        (mono, c), = self._num.items()
        for g, j, e in mono:
            if j != 0 or not self.spec.generators[g].invertible:
                raise NotAUnit(f"factor {(g, j, e)} is not invertible")
        inv_mono = tuple((g, j, -e) for g, j, e in mono)
        return GradedElem._raw(self.spec, {inv_mono: self._den if c > 0 else -self._den}, abs(c))

    def deriv(self) -> "GradedElem":
        """Formal derivative: sends g^(j) to g^(j+1) by the Leibniz rule.

        A factor (g, j, e) becomes e (g, j, e-1)(g, j+1, 1), the new factor
        folded into a (g, j+1, .) right after it; exponents at j+1 >= 1 are
        positive, so the fold never cancels.
        """
        out: dict[Mono, int] = {}
        for mono, c in self._num.items():
            for pos, (g, j, e) in enumerate(mono):
                head = mono[:pos] if e == 1 else (*mono[:pos], (g, j, e - 1))
                tail = mono[pos + 1 :]
                if tail and tail[0][0] == g and tail[0][1] == j + 1:
                    bumped = (*head, (g, j + 1, tail[0][2] + 1), *tail[1:])
                else:
                    bumped = (*head, (g, j + 1, 1), *tail)
                prev = out.get(bumped)
                out[bumped] = c * e if prev is None else prev + c * e
        return GradedElem._raw(self.spec, out, self._den)

    def deriv_n(self, n: int) -> "GradedElem":
        f = self
        for _ in range(n):
            f = f.deriv()
        return f

    def weight(self) -> int:
        """Common weight of all terms; zero input and mixed weights are errors."""
        if self.is_zero():
            raise ZeroElement("weight of the zero element is undefined")
        weights = {self.spec.mono_weight(m) for m in self._num}
        if len(weights) != 1:
            raise NotHomogeneous(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def is_homogeneous(self, w: int | None = None) -> bool:
        """Whether all terms share one weight, `w` if given; zero is homogeneous of every weight."""
        weights = {self.spec.mono_weight(m) for m in self._num}
        return len(weights) <= 1 and (w is None or weights <= {w})

    def __repr__(self) -> str:
        return f"GradedElem({self})"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for mono, c in sorted(self.terms.items()):
            factors = []
            for g, j, e in mono:
                name = self.spec.generators[g].name
                s = name if j == 0 else f"{name}^({j})"
                factors.append(s if e == 1 else f"{s}^{e}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts).replace("+ -", "- ")


def GradedRing(spec: GradedRingSpec) -> GradedRingSpec:
    """The graded ring of `spec`, which is `spec` itself.  Kept because the
    benchmark builds its ring as ``GradedRing(parse_spec(...))``."""
    return spec
