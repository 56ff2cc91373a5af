"""Free differential Laurent-polynomial ring on weighted generators.

The coefficient model for formal algebraic modular forms: each generator g
carries an integer weight w, its j-th formal derivative g^(j) has weight
w + 2j, and invertible generators may appear with negative exponents
(at derivative order 0 only).  Invariance never involves a group here;
it is the homogeneity predicate implemented by ``weight()``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Mapping, Union

from .errors import NotAUnit, NotHomogeneous, ZeroElement
from .frozen import Frozen

Scalar = Union[int, Fraction]

# a monomial is a sorted tuple of (gen_index, deriv_order, exponent),
# exponents nonzero, negative only for (invertible gen, deriv_order 0)
Mono = tuple[tuple[int, int, int], ...]

__all__ = ["Generator", "GradedRingSpec", "GradedElem"]


@dataclass(frozen=True)
class Generator:
    name: str
    weight: int
    invertible: bool = False


class GradedRingSpec:
    """An ordered list of named weighted generators."""

    def __init__(self, generators: Iterable[Generator | tuple]):
        gens = tuple(
            g if isinstance(g, Generator) else Generator(*g) for g in generators
        )
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be distinct")
        self.generators = gens
        self._index = {g.name: i for i, g in enumerate(gens)}

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
        return GradedElem(self, {((idx, deriv, 1),): Fraction(1)})

    def scalar(self, c: Scalar) -> "GradedElem":
        c = Fraction(c)
        return GradedElem(self, {(): c} if c else {})

    def zero(self) -> "GradedElem":
        return GradedElem(self, {})

    def one(self) -> "GradedElem":
        return self.scalar(1)

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


def _coerce(spec: GradedRingSpec, x: "GradedElem | Scalar") -> "GradedElem":
    if isinstance(x, GradedElem):
        if x.spec is not spec and x.spec != spec:
            raise ValueError("elements of different graded rings")
        return x
    return spec.scalar(x)


def _set_slots(obj: "GradedElem", spec: GradedRingSpec, terms: dict[Mono, Fraction]) -> None:
    object.__setattr__(obj, "spec", spec)
    object.__setattr__(obj, "terms", MappingProxyType(terms))


class GradedElem(Frozen):
    """Finite Q-linear combination of monomials in generators and derivatives.

    Values are immutable: ``terms`` is a read-only mapping.  The public
    constructor normalises and validates its input; sums, products, scalings
    and derivatives of canonical values are canonical, so they build their
    results through ``_raw`` without a re-check.
    """

    __slots__ = ("spec", "terms")

    def __init__(self, spec: GradedRingSpec, terms: Mapping[Mono, Fraction]):
        clean: dict[Mono, Fraction] = {}
        for mono, c in terms.items():
            c = Fraction(c)
            if c == 0:
                continue
            mono = _normalize(mono)
            spec._check_mono(mono)
            clean[mono] = clean.get(mono, Fraction(0)) + c
        _set_slots(self, spec, {m: c for m, c in clean.items() if c != 0})

    @classmethod
    def _raw(cls, spec: GradedRingSpec, terms: dict[Mono, Fraction]) -> "GradedElem":
        """Trusted constructor: `terms` is already canonical (normalised,
        valid monomials, nonzero Fraction coefficients) and owned by the
        result."""
        obj = object.__new__(cls)
        _set_slots(obj, spec, terms)
        return obj

    def __reduce__(self):
        return GradedElem._raw, (self.spec, dict(self.terms))

    @classmethod
    def sum(cls, spec: GradedRingSpec, terms: Iterable["GradedElem | Scalar"]) -> "GradedElem":
        """The sum of `terms` in the ring `spec`: the term maps are merged and
        zeros dropped once, with no re-validation of canonical monomials."""
        out: dict[Mono, Fraction] = {}
        for t in terms:
            for m, c in _coerce(spec, t).terms.items():
                prev = out.get(m)
                out[m] = c if prev is None else prev + c
        return cls._raw(spec, {m: c for m, c in out.items() if c})

    # -- predicates --

    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return all(m == () for m in self.terms)

    def scalar_value(self) -> Fraction:
        if not self.is_scalar():
            raise ValueError("not a scalar")
        return self.terms.get((), Fraction(0))

    def coefficient(self, mono: Mono) -> Fraction:
        return self.terms.get(_normalize(mono), Fraction(0))

    # -- arithmetic --

    def __add__(self, other: "GradedElem | Scalar") -> "GradedElem":
        return GradedElem.sum(self.spec, (self, other))

    __radd__ = __add__

    def __neg__(self) -> "GradedElem":
        return GradedElem._raw(self.spec, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "GradedElem | Scalar") -> "GradedElem":
        return self + (-_coerce(self.spec, other))

    def __rsub__(self, other: Scalar) -> "GradedElem":
        return _coerce(self.spec, other) - self

    def __mul__(self, other: "GradedElem | Scalar") -> "GradedElem":
        if isinstance(other, (int, Fraction)):
            if not other:
                return GradedElem._raw(self.spec, {})
            return GradedElem._raw(self.spec, {m: c * other for m, c in self.terms.items()})
        other = _coerce(self.spec, other)
        out: dict[Mono, Fraction] = {}
        right = other.terms.items()
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = _mono_mul(m1, m2)
                c = out.get(m)
                out[m] = c1 * c2 if c is None else c + c1 * c2
        return GradedElem._raw(self.spec, {m: c for m, c in out.items() if c})

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "GradedElem":
        if n < 0:
            return self.inv_unit() ** (-n)
        out = self.spec.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = self.spec.scalar(other)
        if not isinstance(other, GradedElem):
            return NotImplemented
        return self.spec == other.spec and self.terms == other.terms

    def __hash__(self) -> int:
        # scalars compare equal to their Fraction value, so they hash alike
        if self.is_scalar():
            return hash(self.scalar_value())
        return hash((self.spec, tuple(sorted(self.terms.items()))))

    def inv_unit(self) -> "GradedElem":
        """Inverse of a unit monomial c * prod g_i^{e_i} (derivative order 0)."""
        if len(self.terms) != 1:
            raise NotAUnit("units are single monomial terms")
        (mono, c), = self.terms.items()
        for g, j, e in mono:
            if j != 0 or not self.spec.generators[g].invertible:
                raise NotAUnit(f"factor {(g, j, e)} is not invertible")
        inv_mono = tuple((g, j, -e) for g, j, e in mono)
        return GradedElem(self.spec, {inv_mono: Fraction(1) / c})

    def deriv(self) -> "GradedElem":
        """Formal derivative: sends g^(j) to g^(j+1) by the Leibniz rule.

        A factor (g, j, e) becomes e (g, j, e-1)(g, j+1, 1), the new factor
        folded into a (g, j+1, .) right after it; exponents at j+1 >= 1 are
        positive, so the fold never cancels.
        """
        out: dict[Mono, Fraction] = {}
        for mono, c in self.terms.items():
            for pos, (g, j, e) in enumerate(mono):
                head = mono[:pos] if e == 1 else (*mono[:pos], (g, j, e - 1))
                tail = mono[pos + 1 :]
                if tail and tail[0][0] == g and tail[0][1] == j + 1:
                    bumped = (*head, (g, j + 1, tail[0][2] + 1), *tail[1:])
                else:
                    bumped = (*head, (g, j + 1, 1), *tail)
                prev = out.get(bumped)
                out[bumped] = c * e if prev is None else prev + c * e
        return GradedElem._raw(self.spec, {m: c for m, c in out.items() if c})

    def deriv_n(self, n: int) -> "GradedElem":
        f = self
        for _ in range(n):
            f = f.deriv()
        return f

    def weight(self) -> int:
        """Common weight of all terms; zero input and mixed weights are errors."""
        if self.is_zero():
            raise ZeroElement("weight of the zero element is undefined")
        weights = {self.spec.mono_weight(m) for m in self.terms}
        if len(weights) != 1:
            raise NotHomogeneous(f"mixed weights {sorted(weights)}")
        return weights.pop()

    def is_homogeneous(self, w: int | None = None) -> bool:
        if self.is_zero():
            return True
        weights = {self.spec.mono_weight(m) for m in self.terms}
        if len(weights) != 1:
            return False
        return w is None or weights == {w}

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
