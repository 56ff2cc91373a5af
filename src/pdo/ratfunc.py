"""The rational function field Q(z) and SL(2, Q) homographies.

A RatFunc is stored as scalar * N(z)/D(z) with N, D primitive integer
polynomials (ascending coefficients, positive leading coefficient, coprime);
the scalar is an exact Fraction.  This keeps every gcd inside Z[z], where
the heuristic gcd GCDHEU reduces it to one integer gcd of two evaluations;
a divisibility test certifies its answer, so canonical forms stay exact,
and the primitive pseudo-remainder sequence remains as its fallback.  The
public ``num``/``den`` views present the equivalent canonical reduced form
with monic denominator, so equality is structural.

GMatrix holds a determinant-one matrix acting on Q(z) by substitution
z -> (az+b)/(cz+d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as _intgcd
from math import isqrt
from math import lcm as _intlcm
from typing import Iterable, Sequence, Union

from .errors import DivisionByZero
from .frozen import Frozen

Scalar = Union[int, Fraction]
IntPoly = tuple[int, ...]

__all__ = ["QZ", "RatFunc", "GMatrix", "mobius_compose"]


# -- integer polynomial helpers (ascending coefficients, no trailing zeros) --


def _itrim(p: list[int]) -> IntPoly:
    while p and p[-1] == 0:
        p.pop()
    return tuple(p)


def _iadd(p: IntPoly, q: IntPoly) -> IntPoly:
    n = max(len(p), len(q))
    out = [0] * n
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return _itrim(out)


def _ineg(p: IntPoly) -> IntPoly:
    return tuple(-c for c in p)


def _imul(p: IntPoly, q: IntPoly) -> IntPoly:
    if not p or not q:
        return ()
    out = [0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                out[i + j] += a * b
    return _itrim(out)


def _iscale(k: int, p: IntPoly) -> IntPoly:
    """k * p for a nonzero k, so that a trimmed p stays trimmed."""
    return tuple(k * c for c in p)


def _ilin_mul(p: list[int], a: int, b: int) -> list[int]:
    """p * (az + b), keeping one more coefficient than p even if a is 0."""
    return [b * x + a * y for x, y in zip(p + [0], [0] + p)]


def _ipow(p: IntPoly, n: int) -> IntPoly:
    out: IntPoly = (1,)
    base = p
    while True:
        if n & 1:
            out = _imul(out, base)
        n >>= 1
        if not n:
            return out
        base = _imul(base, base)


def _ideriv(p: IntPoly) -> IntPoly:
    return _itrim([i * c for i, c in enumerate(p)][1:])


def _isplit(p: IntPoly) -> tuple[int, IntPoly]:
    """(c, p/c) for nonzero p: c is the content, signed so that the
    primitive part p/c has a positive leading coefficient."""
    g = _intgcd(*p)
    if p[-1] < 0:
        g = -g
    return g, tuple(c // g for c in p)


def _iprim(p: IntPoly) -> IntPoly:
    """Primitive part with positive leading coefficient; () for zero."""
    return _isplit(p)[1] if p else ()


def _ipseudo_rem(p: IntPoly, q: IntPoly) -> IntPoly:
    """Pseudo-remainder: lc(q)^(deg p - deg q + 1) * p reduced modulo q."""
    rem = list(p)
    lq = q[-1]
    dq = len(q) - 1
    while len(rem) - 1 >= dq and any(rem):
        while rem and rem[-1] == 0:
            rem.pop()
        if len(rem) - 1 < dq:
            break
        shift = len(rem) - len(q)
        top = rem[-1]
        for i in range(len(rem)):
            rem[i] *= lq
        for i, c in enumerate(q):
            rem[shift + i] -= top * c
        rem.pop()
    return _itrim(rem)


def _iprs_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd in Z[z] via the primitive pseudo-remainder sequence."""
    a, b = _iprim(p), _iprim(q)
    while b:
        a, b = b, _iprim(_ipseudo_rem(a, b))
    return a


def _ieval(p: IntPoly, x: int) -> int:
    v = 0
    for c in reversed(p):
        v = v * x + c
    return v


def _iinterp(h: int, x: int) -> IntPoly:
    """The polynomial whose coefficients are the symmetric base-x digits of h."""
    out = []
    half = x // 2
    while h:
        h, c = divmod(h, x)
        if c > half:
            c -= x
            h += 1
        out.append(c)
    return tuple(out)


def _igcd(p: IntPoly, q: IntPoly) -> tuple[IntPoly, IntPoly, IntPoly]:
    """(g, p/g, q/g) with g the gcd in Z[z] of p and q, which must be nonzero,
    primitive and of positive leading coefficient.

    GCDHEU (Char, Geddes & Gonnet 1989): the integer gcd of p(xi) and q(xi),
    read back as the polynomial h of its symmetric base-xi digits, has as its
    primitive part a candidate g, kept only if it divides p and q exactly;
    those divisions are the cofactors.  With xi >= 2 min(|p|, |q|) + 2 (max
    norms) a kept g is the gcd G: g divides G, and (G/g)(xi) divides the
    content of h, which is at most xi/2.  A nonconstant divisor of p has its
    roots within |p| + 1 of zero, so its value at xi exceeds xi/2 once
    xi >= 2|p| + 2, and the same holds for q; as G/g divides both, G/g = 1.
    A rejected candidate moves xi up to about 2.7 xi^(5/4); after six points
    the pseudo-remainder sequence decides.
    """
    if p == q:
        return p, (1,), (1,)
    if len(p) == 1 or len(q) == 1:
        return (1,), p, q
    xi = 2 * min(max(map(abs, p)), max(map(abs, q))) + 2
    for _ in range(6):
        vp, vq = _ieval(p, xi), _ieval(q, xi)
        if vp and vq:
            g = _iprim(_iinterp(_intgcd(vp, vq), xi))
            cp = _idiv(p, g)
            cq = None if cp is None else _idiv(q, g)
            if cq is not None:
                return g, cp, cq
        xi = 73794 * xi * isqrt(isqrt(xi)) // 27011
    g = _iprs_gcd(p, q)
    return g, _idiv(p, g), _idiv(q, g)


def _idiv(p: IntPoly, g: IntPoly) -> IntPoly | None:
    """The quotient p/g if g divides p exactly in Z[z], else None."""
    if g == (1,):
        return p
    rem = list(p)
    out = [0] * (len(p) - len(g) + 1)
    lg = g[-1]
    for shift in range(len(out) - 1, -1, -1):
        c, r = divmod(rem[-1], lg)
        if r:
            return None
        out[shift] = c
        if c:
            for i, gc in enumerate(g):
                rem[shift + i] -= c * gc
        rem.pop()
    return None if any(rem) else tuple(out)


def _clear_denoms(coeffs: Sequence[Scalar]) -> tuple[IntPoly, int]:
    """Return (integer poly, L) with poly/L equal to the input."""
    fracs = [Fraction(c) for c in coeffs]
    L = 1
    for c in fracs:
        L = _intlcm(L, c.denominator)
    return _itrim([int(c * L) for c in fracs]), L


class RatFunc(Frozen):
    """Element of Q(z): a reduced fraction of polynomials.

    Canonically scalar * N/D with N, D coprime primitive integer polynomials
    of positive leading coefficient; zero is 0/1.  Supports field arithmetic,
    d/dz, and composition with homographies.  Values are immutable.

    The class is also the coefficient ring Q(z) of a series (``QZ``): its
    classmethods ``zero``, ``one``, ``coerce``, ``sum`` and ``dot`` are what
    the series engine asks of a ring.
    """

    __slots__ = ("sc", "nump", "denp")

    def __init__(self, num: Sequence[Scalar], den: Sequence[Scalar] = (1,)):
        n, ln = _clear_denoms(num)
        d, ld = _clear_denoms(den)
        if not d:
            raise ZeroDivisionError("zero denominator")
        _set_slots(self, *_reduce(Fraction(ld, ln), n, d))

    @classmethod
    def _from_int(cls, sc: Fraction, nump: IntPoly, denp: IntPoly) -> "RatFunc":
        return cls._raw(*_reduce(sc, nump, denp))

    @classmethod
    def _raw(cls, sc: Fraction, nump: IntPoly, denp: IntPoly) -> "RatFunc":
        obj = object.__new__(cls)
        _set_slots(obj, sc, nump, denp)
        return obj

    def __reduce__(self):
        return RatFunc._raw, (self.sc, self.nump, self.denp)

    # -- constructors --

    @classmethod
    def const(cls, c: Scalar) -> "RatFunc":
        c = Fraction(c)
        if c == 0:
            return cls._raw(Fraction(0), (), (1,))
        return cls._raw(c, (1,), (1,))

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls.const(0)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls.const(1)

    @classmethod
    def coerce(cls, x: "RatFunc | Scalar") -> "RatFunc":
        """`x` as an element of Q(z): a RatFunc as is, a scalar as a constant."""
        if isinstance(x, RatFunc):
            return x
        return cls.const(x)

    @classmethod
    def z(cls) -> "RatFunc":
        return cls._raw(Fraction(1), (0, 1), (1,))

    # -- canonical fraction views (monic denominator) --

    @property
    def num(self) -> tuple[Fraction, ...]:
        lead = Fraction(self.denp[-1])
        return tuple(self.sc * lead * c for c in self.nump)

    @property
    def den(self) -> tuple[Fraction, ...]:
        lead = self.denp[-1]
        return tuple(Fraction(c, lead) for c in self.denp)

    # -- predicates --

    def is_zero(self) -> bool:
        return self.sc == 0

    def is_const(self) -> bool:
        return len(self.nump) <= 1 and len(self.denp) == 1

    def const_value(self) -> Fraction:
        if not self.is_const():
            raise ValueError("not a constant")
        return self.sc * (self.nump[0] if self.nump else 0) / self.denp[0]

    def is_polynomial(self) -> bool:
        return len(self.denp) == 1

    def deriv_terminates(self) -> bool:
        """Whether some derivative vanishes: the polynomials."""
        return self.is_polynomial()

    # -- arithmetic --

    @classmethod
    def sum(cls, terms: Iterable["RatFunc | Scalar"]) -> "RatFunc":
        """The sum of `terms`, canonicalised once: the numerators are put over
        the lcm of the stored denominators, which takes gcds of denominators
        only, and the result is reduced a single time."""
        L, num, den = 1, (), (1,)  # the running sum is num / (L * den)
        last, count = None, 0
        for t in map(cls.coerce, terms):
            if t.sc == 0:
                continue
            last, count = t, count + 1
            _, cof, lift = _igcd(den, t.denp)
            den = _imul(den, lift)
            L2 = _intlcm(L, t.sc.denominator)
            num = _iadd(
                _iscale(L2 // L, _imul(num, lift)),
                _iscale(t.sc.numerator * (L2 // t.sc.denominator), _imul(t.nump, cof)),
            )
            L = L2
        if count <= 1:  # zero or one term: already canonical
            return cls.const(0) if last is None else last
        return cls._from_int(Fraction(1, L), num, den)

    @classmethod
    def dot(cls, pairs: Iterable[tuple["RatFunc", "RatFunc"]]) -> "RatFunc":
        """The sum of the products x * y over `pairs`.  Each product keeps its
        cross-reduction, which cancels common factors before the sum puts
        everything over one denominator; fusing the products into the sum
        would skip that cancellation and let the coefficients swell."""
        return cls.sum(x * y for x, y in pairs)

    def __add__(self, other: "RatFunc | Scalar") -> "RatFunc":
        return RatFunc.sum((self, other))

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc._raw(-self.sc, self.nump, self.denp)

    def __sub__(self, other: "RatFunc | Scalar") -> "RatFunc":
        return self + (-RatFunc.coerce(other))

    def __rsub__(self, other: Scalar) -> "RatFunc":
        return RatFunc.coerce(other) - self

    def __mul__(self, other: "RatFunc | Scalar") -> "RatFunc":
        if isinstance(other, (int, Fraction)):
            c = Fraction(other)
            if c == 0 or self.sc == 0:
                return RatFunc.const(0)
            return RatFunc._raw(self.sc * c, self.nump, self.denp)
        if self.sc == 0 or other.sc == 0:
            return RatFunc.const(0)
        # cross-reduction keeps the parts coprime without a full gcd
        _, n1, d2 = _igcd(self.nump, other.denp)
        _, n2, d1 = _igcd(other.nump, self.denp)
        return RatFunc._raw(self.sc * other.sc, _imul(n1, n2), _imul(d1, d2))

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.sc == 0:
            raise DivisionByZero("inverse of zero in Q(z)")
        # both parts have positive leading coefficients, so swapping them is canonical
        return RatFunc._raw(1 / self.sc, self.denp, self.nump)

    def __truediv__(self, other: "RatFunc | Scalar") -> "RatFunc":
        return self * RatFunc.coerce(other).inverse()

    def __rtruediv__(self, other: Scalar) -> "RatFunc":
        return RatFunc.coerce(other) * self.inverse()

    def __pow__(self, n: int) -> "RatFunc":
        if n < 0:
            return self.inverse() ** (-n)
        return RatFunc._raw(self.sc**n, _ipow(self.nump, n), _ipow(self.denp, n))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatFunc.const(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return (
            self.sc == other.sc
            and self.nump == other.nump
            and self.denp == other.denp
        )

    def __hash__(self) -> int:
        # constants compare equal to their Fraction value, so they hash alike
        if self.is_const():
            return hash(self.const_value())
        return hash((self.sc, self.nump, self.denp))

    def deriv(self) -> "RatFunc":
        """d/dz by the quotient rule."""
        if self.sc == 0:
            return self
        n, d = self.nump, self.denp
        top = _iadd(_imul(_ideriv(n), d), _ineg(_imul(n, _ideriv(d))))
        return RatFunc._from_int(self.sc, top, _imul(d, d))

    def deriv_n(self, n: int) -> "RatFunc":
        f = self
        for _ in range(n):
            f = f.deriv()
        return f

    def __repr__(self) -> str:
        return f"RatFunc({self})"

    def __str__(self) -> str:
        num, den = self.num, self.den
        if den == (Fraction(1),):
            return _pstr(num)
        return f"({_pstr(num)})/({_pstr(den)})"


QZ = RatFunc  # the field Q(z) as a coefficient ring


def _set_slots(obj: RatFunc, sc: Fraction, nump: IntPoly, denp: IntPoly) -> None:
    object.__setattr__(obj, "sc", sc)
    object.__setattr__(obj, "nump", nump)
    object.__setattr__(obj, "denp", denp)


def _reduce(sc: Fraction, n: IntPoly, d: IntPoly) -> tuple[Fraction, IntPoly, IntPoly]:
    """Canonicalize scalar * n/d: coprime primitive parts, positive leads."""
    if not n or sc == 0:
        return Fraction(0), (), (1,)
    (cn, n), (cd, d) = _isplit(n), _isplit(d)
    _, n, d = _igcd(n, d)
    return sc * Fraction(cn, cd), n, d


def _pstr(p: Sequence[Fraction]) -> str:
    if not p:
        return "0"
    parts = []
    for i, c in enumerate(p):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
        elif i == 1:
            parts.append(f"{c}*z" if c != 1 else "z")
        else:
            parts.append(f"{c}*z^{i}" if c != 1 else f"z^{i}")
    return " + ".join(parts).replace("+ -", "- ")


class GMatrix(Frozen):
    """Element of SL(2, Q) acting on Q(z) by homographies.

    Values are immutable, so the determinant stays 1 and a matrix keeps its
    hash as a cache key.
    """

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: Scalar, b: Scalar, c: Scalar, d: Scalar):
        for name, x in zip(self.__slots__, (a, b, c, d)):
            object.__setattr__(self, name, Fraction(x))
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError("matrix determinant must be 1")

    def __reduce__(self):
        return GMatrix, (self.a, self.b, self.c, self.d)

    @classmethod
    def identity(cls) -> "GMatrix":
        return cls(1, 0, 0, 1)

    def __matmul__(self, other: "GMatrix") -> "GMatrix":
        return GMatrix(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "GMatrix":
        return GMatrix(self.d, -self.b, -self.c, self.a)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GMatrix):
            return NotImplemented
        return (self.a, self.b, self.c, self.d) == (other.a, other.b, other.c, other.d)

    def __hash__(self) -> int:
        return hash((self.a, self.b, self.c, self.d))

    def s(self) -> RatFunc:
        """The automorphy cocycle z -> cz + d."""
        return RatFunc((self.d, self.c))

    def __repr__(self) -> str:
        return f"GMatrix[[{self.a},{self.b}],[{self.c},{self.d}]]"


def mobius_compose(f: RatFunc, g: GMatrix) -> RatFunc:
    """Right action of g on f: z -> f((az+b)/(cz+d)), reduced.

    With e = max(deg N, deg D), the stored N and D are homogenised as
    p -> sum_j p_j (az+b)^j (cz+d)^(e-j), after scaling the matrix by the
    lcm M of its entries' denominators; the factor M^e cancels between
    them.  Horner's rule in the two linear forms,
    acc <- acc (az+b) + p_j (cz+d)^(e-j) for j = e, ..., 0, with the powers
    of cz+d built once, one linear step each, takes O(e^2) coefficient
    operations in all.

    No polynomial gcd is needed, because a determinant-one substitution
    keeps the coprime N, D coprime.  A common root z0 of the two results
    with cz0+d != 0 would make (az0+b)/(cz0+d) a common root of N and D.
    At z0 = -d/c (c != 0) only the j = e terms survive, p_e (az0+b)^e,
    where az0+b = -1/c != 0, and p_e is nonzero for N or for D because e
    is the larger degree.  So dividing out the integer contents gives the
    canonical form.
    """
    if f.sc == 0:
        return f
    M = _intlcm(*(x.denominator for x in (g.a, g.b, g.c, g.d)))
    ta, tb, bc, bd = (int(x * M) for x in (g.a, g.b, g.c, g.d))
    deg = max(len(f.nump), len(f.denp)) - 1
    bot_pows = [[1]]  # bot_pows[k] = M^k (cz+d)^k, k+1 coefficients
    for _ in range(deg):
        bot_pows.append(_ilin_mul(bot_pows[-1], bc, bd))

    def homog(p: IntPoly) -> IntPoly:
        acc: list[int] = []  # after step j: deg - j + 1 coefficients
        for j in range(deg, -1, -1):
            acc = _ilin_mul(acc, ta, tb)
            c = p[j] if j < len(p) else 0
            if c:
                acc = [x + c * y for x, y in zip(acc, bot_pows[deg - j])]
        return _itrim(acc)

    (cn, n), (cd, d) = _isplit(homog(f.nump)), _isplit(homog(f.denp))
    return RatFunc._raw(f.sc * Fraction(cn, cd), n, d)
