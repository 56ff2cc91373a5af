import random
from fractions import Fraction as F
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pdo.errors import DivisionByZero, NotAUnit
from pdo import ratfunc
from pdo.ratfunc import (
    GMatrix,
    RatFunc,
    _iadd,
    _igcd,
    _imul,
    _iprim,
    _iprs_gcd,
    _iscale,
    _itrim,
    mobius_compose,
)
from pdo.series import deriv_n

z = RatFunc.z()
T = GMatrix(1, 1, 0, 1)
S = GMatrix(0, -1, 1, 0)
W = GMatrix(2, 1, 3, 2)


def rand_ratfunc(rnd: random.Random) -> RatFunc:
    num = [F(rnd.randint(-4, 4)) for _ in range(rnd.randint(1, 4))]
    den = [F(rnd.randint(-4, 4)) for _ in range(rnd.randint(1, 3))]
    if not any(num):
        num[0] = F(1)
    if not any(den):
        den[-1] = F(1)
    return RatFunc(num, den)


def test_basic_field_ops():
    assert (z**2).deriv() == 2 * z
    assert (1 / (z + 1)) * (z + 1) == RatFunc.const(1)
    assert (1 / z).deriv() == -1 / z**2
    assert z - z == RatFunc.const(0)
    assert (z + 1) * (z - 1) == z**2 - 1


def test_canonical_form_monic_denominator():
    f = RatFunc((2, 4), (4, 2))  # (2+4z)/(4+2z) = 2(1+2z)/(2(2+z))
    assert f.den[-1] == 1
    assert f == RatFunc((1, 2), (2, 1))
    g = RatFunc((1, 0, 1), (0, 2))  # (1+z^2)/(2z)
    assert g.den == (F(0), F(1))
    assert g.num == (F(1, 2), F(0), F(1, 2))


def test_zero_is_canonical():
    zero = RatFunc((0,), (1, 5))
    assert zero.is_zero()
    assert zero == RatFunc.const(0)
    assert zero.den == (F(1),)


def test_reduction_cancels_common_factors():
    f = RatFunc((-1, 0, 1), (1, 1))  # (z^2-1)/(z+1) = z-1
    assert f.is_polynomial()
    assert f == z - 1


def test_inverse_and_division():
    f = (z**2 + 3) / (z - 1)
    assert f * f.inverse() == RatFunc.const(1)
    with pytest.raises(DivisionByZero):
        RatFunc.const(0).inverse()
    # zero is not a unit: callers of inverse() catch NotAUnit in either ring
    with pytest.raises(NotAUnit):
        RatFunc.const(0).inverse()


def test_deriv_quotient_rule():
    rnd = random.Random(5)
    for _ in range(20):
        f, g = rand_ratfunc(rnd), rand_ratfunc(rnd)
        if g.is_zero():
            continue
        lhs = (f / g).deriv()
        rhs = (f.deriv() * g - f * g.deriv()) / (g * g)
        assert lhs == rhs


def test_pow_negative():
    f = z + 2
    assert f**-2 == 1 / (f * f)
    assert f**0 == RatFunc.const(1)


@pytest.mark.parametrize("n", range(18))
def test_ipow_squares_bit_length_minus_1_times(monkeypatch, n):
    p = (3, -1, 0, 2)
    expect = (1,)
    for _ in range(n):
        expect = _imul(expect, p)
    squarings = []

    def spy(a, b):
        if a is b:
            squarings.append(a)
        return _imul(a, b)

    monkeypatch.setattr(ratfunc, "_imul", spy)
    assert ratfunc._ipow(p, n) == expect
    assert len(squarings) == max(n.bit_length() - 1, 0)
    f, power = (z + 2) / (z * z - 3), RatFunc.const(1)
    for _ in range(n):
        power = power * f
    assert f**n == power


def test_mobius_examples():
    assert mobius_compose(z, T) == z + 1
    assert mobius_compose(z, S) == -1 / z
    assert mobius_compose(1 / (z - 1), T) == 1 / z


def test_mobius_right_action():
    rnd = random.Random(11)
    mats = [T, S, W, GMatrix(1, 0, 1, 1), GMatrix(F(1, 2), 0, F(3, 2), 2)]
    for _ in range(50):
        f = rand_ratfunc(rnd)
        g1 = mats[rnd.randrange(len(mats))]
        g2 = mats[rnd.randrange(len(mats))]
        assert mobius_compose(mobius_compose(f, g1), g2) == mobius_compose(f, g1 @ g2)


def test_chain_rule_quadratic_compatibility():
    # d/dz (f o g) = (cz+d)^{-2} ((df/dz) o g)
    rnd = random.Random(13)
    for _ in range(20):
        f = rand_ratfunc(rnd)
        for g in (T, S, W):
            lhs = mobius_compose(f, g).deriv()
            rhs = g.s() ** -2 * mobius_compose(f.deriv(), g)
            assert lhs == rhs


def test_cocycle_law_for_s():
    mats = [T, S, W, GMatrix(1, 0, 1, 1)]
    for g1 in mats:
        for g2 in mats:
            lhs = (g1 @ g2).s()
            rhs = mobius_compose(g1.s(), g2) * g2.s()
            assert lhs == rhs


def test_gmatrix_determinant_enforced():
    with pytest.raises(ValueError):
        GMatrix(1, 1, 1, 1)
    m = GMatrix(2, 1, 3, 2)
    assert m @ m.inverse() == GMatrix.identity()


def test_hash_and_eq_structural():
    assert hash(RatFunc((1, 2), (2, 1))) == hash(RatFunc((F(1, 2), 1), (1, F(1, 2))))
    assert RatFunc((1,)) == 1
    assert RatFunc((1, 1)) != 1
    # equal values hash alike, so constants and their Fraction find each other
    assert 3 in {RatFunc.const(3): 1} and F(1, 2) in {RatFunc.const(F(1, 2))}
    assert RatFunc.const(0) in {0}


# -- differential tests of the field operations against sympy.cancel --

fracs = st.fractions(-4, 4, max_denominator=3)


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(fracs, min_size=1, max_size=4))
    den = draw(st.lists(st.integers(-4, 4), min_size=1, max_size=3).filter(any))
    # denominators drawn from a few shared factors make the operands' gcds
    # nontrivial
    shift = draw(st.sampled_from(((1,), (-1, 1), (2, 1), (1, 0, 1))))
    return RatFunc(num, _imul(tuple(den), shift))


@st.composite
def matrices(draw):
    """SL(2, Q) elements with rational entries, c = 0 included."""
    a = draw(fracs.filter(bool))
    b, c = draw(fracs), draw(fracs)
    return GMatrix(a, b, c, (1 + b * c) / a)


def stored_fraction(f: RatFunc):
    """The stored form sc * N/D as a SymPy numerator and denominator; the
    `num` property is not used."""
    sympy = pytest.importorskip("sympy")
    zs = sympy.Symbol("z")

    def poly(p):
        return sum((sympy.Integer(c) * zs**k for k, c in enumerate(p)), sympy.Integer(0))

    return f.sc.numerator * poly(f.nump), f.sc.denominator * poly(f.denp)


def to_sympy(f: RatFunc):
    num, den = stored_fraction(f)
    return num / den


def assert_canonical(f: RatFunc) -> None:
    sympy = pytest.importorskip("sympy")
    zs = sympy.Symbol("z")
    if f.sc == 0:
        assert (f.nump, f.denp) == ((), (1,))
        return
    for p in (f.nump, f.denp):
        assert p and p[-1] > 0 and gcd(*p) == 1
    n, d = (sympy.Poly(list(reversed(p)), zs) for p in (f.nump, f.denp))
    assert sympy.gcd(n, d).degree() == 0


def assert_matches(got: RatFunc, expr) -> None:
    """`got` is canonical and equals `expr`: its stored fraction is compared
    with the reduced fraction of sympy.cancel by cross-multiplying, as
    polynomials, since cancel may leave a zero difference unevaluated."""
    sympy = pytest.importorskip("sympy")
    assert_canonical(got)
    num, den = sympy.fraction(sympy.cancel(sympy.together(expr)))
    gnum, gden = stored_fraction(got)
    assert sympy.Poly(num * gden - gnum * den, sympy.Symbol("z")).is_zero


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), ratfuncs())
def test_field_ops_match_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    zs = sympy.Symbol("z")
    ef, eg = to_sympy(f), to_sympy(g)
    assert_matches(f + g, ef + eg)
    assert_matches(f - g, ef - eg)
    assert_matches(f * g, ef * eg)
    assert_matches(f.deriv(), sympy.diff(ef, zs))
    assert_matches(deriv_n(f, 2), sympy.diff(ef, zs, 2))
    assume(not g.is_zero())
    assert_matches(f / g, ef / eg)


@settings(max_examples=40, deadline=None)
@given(ratfuncs(), matrices())
def test_mobius_compose_matches_sympy(f, g):
    sympy = pytest.importorskip("sympy")
    zs = sympy.Symbol("z")
    image = (sympy.Rational(g.a) * zs + sympy.Rational(g.b)) / (sympy.Rational(g.c) * zs + sympy.Rational(g.d))
    assert_matches(mobius_compose(f, g), to_sympy(f).subs(zs, image))


# -- mobius_compose against the former power-by-power formula --


def power_mobius_compose(f: RatFunc, g: GMatrix) -> RatFunc:
    """The former formula: sum_j p_j (az+b)^j (cz+d)^(e-j), e = max(deg N,
    deg D), with every power built afresh by repeated squaring, reduced
    through the full gcd."""

    def ipow(p, n):
        out, base = (1,), p
        while n:
            if n & 1:
                out = _imul(out, base)
            base = _imul(base, base)
            n >>= 1
        return out

    M = lcm(*(x.denominator for x in (g.a, g.b, g.c, g.d)))
    top = _itrim([int(g.b * M), int(g.a * M)])
    bot = _itrim([int(g.d * M), int(g.c * M)])
    deg = max(len(f.nump), len(f.denp)) - 1

    def homog(p):
        acc = ()
        for j, c in enumerate(p):
            acc = _iadd(acc, _iscale(c, _imul(ipow(top, j), ipow(bot, deg - j))))
        return acc

    return RatFunc._from_int(f.sc, homog(f.nump), homog(f.denp))


@st.composite
def wide_ratfuncs(draw):
    """Numerator and denominator degrees drawn from 0..24 each, so either
    may be the larger; rational numerator coefficients."""

    def poly(deg):
        c = draw(st.lists(st.integers(-(2**20), 2**20), min_size=deg + 1, max_size=deg + 1))
        return [*c[:-1], c[-1] or 1]

    num, den = (poly(draw(st.integers(0, 24))) for _ in range(2))
    return RatFunc([F(c, draw(st.integers(1, 5))) for c in num], den)


@settings(max_examples=60, deadline=None)
@given(wide_ratfuncs(), matrices())
@example(RatFunc((3, 0, 0, 0, 0, 0, 2), (1, 5)), GMatrix(F(2, 3), F(1, 2), 0, F(3, 2)))
@example(RatFunc((1, 5), (3, 0, 0, 0, 0, 0, 2)), GMatrix(F(2, 3), F(1, 2), 0, F(3, 2)))
@example(RatFunc((7, 0, 0, 0, 0, 0, 2), (1, 5)), GMatrix(F(1, 2), 0, F(3, 2), 2))
@example(RatFunc((1, 5), (7, 0, 0, 0, 0, 0, 2)), GMatrix(0, -1, 1, 0))
def test_mobius_compose_matches_power_formula(f, g):
    # the Horner form skips the gcd: the result must still be canonical
    got = mobius_compose(f, g)
    want = power_mobius_compose(f, g)
    assert (got.sc, got.nump, got.denp) == (want.sc, want.nump, want.denp)
    assert_canonical(got)


# -- the Z[z] gcd against the pseudo-remainder sequence and sympy.gcd --


def int_polys(max_deg: int):
    coeff = st.integers(-(2**100), 2**100)
    return st.lists(coeff, min_size=1, max_size=max_deg + 1).filter(any).map(lambda c: _itrim(list(c)))


@st.composite
def gcd_inputs(draw):
    """Primitive p, q with a planted common factor: degree up to 8, and
    coefficients up to about 200 bits; the factor may be 1 and either input
    may be a constant."""
    common = draw(st.one_of(st.just((1,)), int_polys(3)))
    p = _iprim(_imul(common, draw(int_polys(5))))
    q = _iprim(_imul(common, draw(int_polys(5))))
    return p, q


def sympy_gcd(p, q):
    sympy = pytest.importorskip("sympy")
    zs = sympy.Symbol("z")
    g = sympy.gcd(*(sympy.Poly(list(reversed(a)), zs) for a in (p, q)))
    return _iprim(tuple(int(c) for c in reversed(g.all_coeffs())))


def assert_gcd(p, q) -> None:
    g, cp, cq = _igcd(p, q)
    assert g == _iprs_gcd(p, q) == sympy_gcd(p, q)
    assert _imul(g, cp) == p and _imul(g, cq) == q


@settings(max_examples=60, deadline=None)
@given(gcd_inputs())
def test_igcd_matches_prs_and_sympy(case):
    assert_gcd(*case)


@pytest.mark.parametrize(
    "p, q, xi, candidate, expected",
    [
        ((-2, 1, 1, 2, 2), (2, 1, 2), 6, (2, 1), (1,)),
        ((-2, -15, 8), (-8, -63, 8), 32, (6, 16, 1), (1, 8)),
    ],
)
def test_igcd_rejects_a_wrong_first_candidate(p, q, xi, candidate, expected):
    # the first evaluation point gives a candidate that is not the gcd; the
    # divisibility test must reject it
    assert 2 * min(max(map(abs, p)), max(map(abs, q))) + 2 == xi
    h = gcd(ratfunc._ieval(p, xi), ratfunc._ieval(q, xi))
    assert _iprim(ratfunc._iinterp(h, xi)) == candidate != expected
    assert _igcd(p, q)[0] == expected
    assert_gcd(p, q)


def test_igcd_falls_back_to_prs(monkeypatch):
    # every evaluation reads 0, so no point is usable and the PRS decides
    monkeypatch.setattr(ratfunc, "_ieval", lambda p, x: 0)
    p = _imul((3, 1), (1, 2, 5))
    q = _imul((3, 1), (7, 0, 0, 2))
    assert _igcd(p, q) == ((3, 1), (1, 2, 5), (7, 0, 0, 2))
    for p, q in (((-2, 1, 1, 2, 2), (2, 1, 2)), ((-2, -15, 8), (-8, -63, 8))):
        assert_gcd(p, q)


# -- inverse and ** build their results without re-canonicalising --


@pytest.mark.parametrize("n", range(4))
def test_pow_of_zero_is_canonical(n):
    # _ipow((), n) is () for n >= 1 and (1,) for n = 0, so no zero branch is needed
    got = RatFunc.const(0) ** n
    assert_canonical(got)
    assert got == (RatFunc.const(1) if n == 0 else RatFunc.const(0))


@example(RatFunc((1, -2), (3, 0, 1)))
@example(RatFunc((F(2, 3),), (5, -1)))
@example(RatFunc.const(F(-7, 2)))
@settings(max_examples=60, deadline=None)
@given(ratfuncs())
def test_inverse_is_canonical(f):
    # nump and denp keep positive leading coefficients, so swapping them keeps
    # the form canonical whatever the sign of the scalar (negative in the examples)
    assume(not f.is_zero())
    got = f.inverse()
    assert_canonical(got)
    assert (got.sc, got.nump, got.denp) == (1 / f.sc, f.denp, f.nump)
    assert f * got == RatFunc.const(1)


def test_ratfunc_input_checks():
    with pytest.raises(ZeroDivisionError):
        RatFunc((1,), (0,))
    assert RatFunc.const(F(-3, 4)).const_value() == F(-3, 4)
    with pytest.raises(ValueError):
        z.const_value()
