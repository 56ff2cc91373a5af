"""Differential tests of the summation primitive (``RatFunc.sum``,
``GradedRingSpec.sum``, ``ring.sum``, ``PDSeries.sum``), of its fused form
``ring.dot``, and of the series product built on them, against independent
references."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdo.errors import OrderUnresolvable
from pdo.graded import GradedElem, GradedRingSpec, Generator
from pdo.ratfunc import RatFunc, _iadd, _imul, _iscale
from pdo import QZ
from pdo.series import PDSeries, series_mul

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True), Generator("F", 3)])
GR = spec


def stored(f: RatFunc):
    return f.sc, f.nump, f.denp


def binary_add(a: RatFunc, b: RatFunc) -> RatFunc:
    """The pairwise sum over the product of the denominators, reduced after
    every addition: the reference the lcm sum must agree with bit for bit."""
    if a.sc == 0:
        return b
    if b.sc == 0:
        return a
    x, y = a.sc, b.sc
    p = _iadd(
        _iscale(x.numerator * y.denominator, _imul(a.nump, b.denp)),
        _iscale(y.numerator * x.denominator, _imul(b.nump, a.denp)),
    )
    return RatFunc._from_int(F(1, x.denominator * y.denominator), p, _imul(a.denp, b.denp))


ints = st.integers(-4, 4)


@st.composite
def ratfuncs(draw):
    num = draw(st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=4))
    den = draw(st.lists(ints, min_size=1, max_size=3).filter(any))
    # shared linear factors make the lcm differ from the product of denominators
    shift = draw(st.sampled_from(((1,), (-1, 1), (2, 1), (1, 0, 1))))
    return RatFunc(num, _imul(tuple(den), shift))


@settings(max_examples=60, deadline=None)
@given(st.lists(ratfuncs(), max_size=6))
def test_ratfunc_sum_matches_binary_fold(terms):
    ref = RatFunc.const(0)
    for t in terms:
        ref = binary_add(ref, t)
    assert stored(RatFunc.sum(terms)) == stored(ref)
    assert stored(QZ.sum(iter(terms))) == stored(ref)


@settings(max_examples=30, deadline=None)
@given(st.lists(ratfuncs(), max_size=5))
def test_ratfunc_sum_matches_sympy(terms):
    sympy = pytest.importorskip("sympy")
    z = sympy.Symbol("z")

    def expr(f: RatFunc):
        num = sum(sympy.Integer(c) * z**k for k, c in enumerate(f.nump))
        den = sum(sympy.Integer(c) * z**k for k, c in enumerate(f.denp))
        return sympy.Rational(f.sc.numerator, f.sc.denominator) * num / den

    got = RatFunc.sum(terms)
    assert sympy.cancel(sum((expr(t) for t in terms), sympy.Integer(0)) - expr(got)) == 0


def rand_graded(rnd: random.Random) -> GradedElem:
    gens = [spec.gen("chi"), spec.gen("xi"), spec.gen("F"), spec.gen("chi", 1), spec.gen("F", 2)]
    out = spec.scalar(rnd.randint(-2, 2))
    for _ in range(rnd.randint(0, 4)):
        mono = spec.one()
        for _ in range(rnd.randint(1, 3)):
            mono = mono * rnd.choice(gens)
        if rnd.random() < 0.3:
            mono = mono * spec.gen("chi") ** -1
        out = out + F(rnd.randint(-3, 3), rnd.randint(1, 3)) * mono
    return out


@pytest.mark.parametrize("seed", range(20))
def test_graded_sum_matches_validating_constructor(seed):
    rnd = random.Random(seed)
    terms = [rand_graded(rnd) for _ in range(rnd.randint(0, 6))]
    if terms and rnd.random() < 0.5:
        terms.append(-terms[0])  # a cancelling pair
    acc: dict = {}
    for t in terms:
        for m, c in t.terms.items():
            acc[m] = acc.get(m, 0) + c
    ref = GradedElem(spec, acc)
    got = spec.sum(terms)
    assert got == ref and got.terms == ref.terms
    assert all(type(c) is F and c != 0 for c in got.terms.values())
    assert GR.sum(iter(terms)) == ref


def test_empty_single_and_cancelling_sums():
    z = RatFunc.z()
    f = 1 / (z - 1) + F(2, 3) * z
    assert stored(RatFunc.sum([])) == stored(RatFunc.const(0))
    assert stored(RatFunc.sum([f])) == stored(f)
    assert stored(RatFunc.sum([f, 0, -f])) == stored(RatFunc.const(0))
    assert RatFunc.sum([1, F(1, 2)]) == F(3, 2)
    e = spec.gen("chi") * spec.gen("xi") - 2
    assert spec.sum([]).terms == {}
    assert spec.sum([e]) == e
    assert spec.sum([e, -e]).terms == {}
    assert spec.sum([e, 2]) == spec.gen("chi") * spec.gen("xi")
    p = PDSeries(QZ, {-1: f, 2: z}, 6)
    assert PDSeries.sum(QZ, []) == PDSeries.zero(QZ)
    assert PDSeries.sum(QZ, [p]) == p
    assert PDSeries.sum(QZ, [p, -p]) == PDSeries.zero(QZ, 6)
    assert PDSeries.sum(QZ, [p, p], 2) == PDSeries(QZ, {-1: 2 * f}, 2)


def with_cancelling_pairs(draw, pairs: list) -> list:
    """`pairs`, or `pairs` followed by their negations, so that the products
    cancel to zero."""
    return [*pairs, *((-x, y) for x, y in pairs)] if draw(st.booleans()) else pairs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_ratfunc_dot_is_sum_of_products(data):
    pairs = with_cancelling_pairs(data.draw, data.draw(st.lists(st.tuples(ratfuncs(), ratfuncs()), max_size=5)))
    got = RatFunc.dot(pairs)
    assert stored(got) == stored(RatFunc.sum(x * y for x, y in pairs))
    assert QZ.dot(iter(pairs)) == got


GENS = [spec.gen("chi"), spec.gen("xi"), spec.gen("F"), spec.gen("chi", 1), spec.gen("F", 2), spec.gen("chi") ** -1]


@st.composite
def graded_elems(draw):
    """Up to three terms over denominators up to 5, so that the pairs' common
    denominator grows and rescales the accumulator."""
    out = spec.scalar(draw(st.fractions(-2, 2, max_denominator=5)))
    for _ in range(draw(st.integers(0, 3))):
        mono = spec.one()
        for g in draw(st.lists(st.sampled_from(GENS), min_size=1, max_size=3)):
            mono = mono * g
        out = out + draw(st.fractions(-3, 3, max_denominator=5)) * mono
    return out


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_graded_dot_is_sum_of_products(data):
    pairs = with_cancelling_pairs(data.draw, data.draw(st.lists(st.tuples(graded_elems(), graded_elems()), max_size=5)))
    got = spec.dot(pairs)
    ref = spec.sum(x * y for x, y in pairs)
    assert got == ref and (got._num, got._den) == (ref._num, ref._den)
    assert GR.dot(iter(pairs)) == ref
    # the validating constructor, from the Fraction coefficients of the products
    acc: dict = {}
    for x, y in pairs:
        for m, c in (x * y).terms.items():
            acc[m] = acc.get(m, 0) + c
    assert got == GradedElem(spec, acc)


def test_empty_and_cancelling_dots():
    z = RatFunc.z()
    f = 1 / (z - 1) + F(2, 3) * z
    assert stored(RatFunc.dot([])) == stored(RatFunc.const(0))
    assert stored(RatFunc.dot([(f, z), (-f, z)])) == stored(RatFunc.const(0))
    e = spec.gen("chi") * F(1, 3) - F(1, 2)
    assert spec.dot([]) == spec.zero() and spec.dot([])._den == 1
    assert spec.dot([(e, e), (-e, e)]).terms == {}
    assert spec.dot([(e, e), (-e, e)])._den == 1


def naive_mul(p: PDSeries, q: PDSeries, cap: int = 12) -> PDSeries | None:
    """y^i f * y^j g = sum_u c_i(u) f delta^u(g) y^(i+j+2u), term by term,
    with c_i(u) = prod_{t<u} (i + 2t) / u! and delta = -(1/2) d/dz.

    For EXACT operands each sum runs to u = cap, and None (an infinite
    product) is returned when a term at u = cap does not vanish; the
    operands below terminate well before cap."""
    ring = p.ring
    order = lambda s: math.inf if s.order is None else s.order
    target = min(order(p) + q.valuation, order(q) + p.valuation)
    exact = target == math.inf
    out: dict = {}
    for i, f in p.coeffs.items():
        for j, g in q.coeffs.items():
            u, moved = 0, g
            while u <= cap if exact else i + j + 2 * u < target:
                c = F(1)
                for t in range(u):
                    c *= F(i + 2 * t, t + 1)
                n = i + j + 2 * u
                term = f * c * moved
                out[n] = out.get(n, ring.zero()) + term
                moved = moved.deriv() * F(-1, 2)
                u += 1
            if exact and not term.is_zero():
                return None
    return PDSeries(ring, out, None if exact else target)


@st.composite
def small_series(draw):
    v = draw(st.integers(-2, 2))
    coeffs = {}
    for n in range(v, 6):
        if draw(st.booleans()):
            coeffs[n] = draw(ratfuncs())
    return PDSeries(QZ, coeffs, 6)


@settings(max_examples=30, deadline=None)
@given(small_series(), small_series())
def test_series_mul_matches_naive_product(p, q):
    if p.is_zero() or q.is_zero():
        return
    assert series_mul(p, q) == naive_mul(p, q)


@pytest.mark.parametrize("seed", range(5))
def test_series_mul_matches_naive_product_graded(seed):
    rnd = random.Random(seed)
    p, q = (
        PDSeries(GR, {n: rand_graded(rnd) for n in range(rnd.randint(-2, 1), 6) if rnd.random() < 0.6}, 6)
        for _ in range(2)
    )
    if p.is_zero() or q.is_zero():
        return
    assert series_mul(p, q) == naive_mul(p, q)



polys = st.lists(st.fractions(-4, 4, max_denominator=3), min_size=1, max_size=4).map(RatFunc)


def exact_series(draw, ring, exps, coeffs) -> PDSeries:
    return PDSeries(ring, {n: draw(coeffs) for n in draw(st.sets(exps, min_size=1, max_size=3))})


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_series_mul_matches_naive_product_exact(data):
    # an exact product is finite when the left exponents are even and <= 0,
    # or when every right coefficient is a polynomial
    if data.draw(st.booleans(), label="even left"):
        p = exact_series(data.draw, QZ, st.sampled_from((-4, -2, 0)), ratfuncs())
        q = exact_series(data.draw, QZ, st.integers(-3, 3), ratfuncs())
    else:
        p = exact_series(data.draw, QZ, st.integers(-3, 3), ratfuncs())
        q = exact_series(data.draw, QZ, st.integers(-3, 3), polys)
    got = series_mul(p, q)
    assert got.is_exact() and got == naive_mul(p, q)


@settings(max_examples=20, deadline=None)
@given(
    st.integers(-3, 3).filter(lambda i: i > 0 or i % 2),
    st.integers(-3, 3),
    ratfuncs().filter(lambda g: not g.is_polynomial()),
)
def test_exact_product_refused_when_infinite(i, j, g):
    p = PDSeries(QZ, {i: RatFunc.z(), -2: RatFunc.const(1)})
    q = PDSeries(QZ, {j: g, j + 1: RatFunc.z()})
    assert naive_mul(p, q) is None
    with pytest.raises(OrderUnresolvable):
        series_mul(p, q)


@pytest.mark.parametrize("seed", range(6))
def test_series_mul_matches_naive_product_graded_exact(seed):
    rnd = random.Random(seed)

    def exact(exps, coeff):
        return PDSeries(GR, {n: coeff() for n in exps if rnd.random() < 0.7})

    anything = lambda: rand_graded(rnd)
    scalar = lambda: spec.scalar(F(rnd.randint(-3, 3), rnd.randint(1, 3)))
    # even nonpositive left exponents, then graded scalars on the right
    for p, q in (
        (exact((-4, -2, 0), anything), exact(range(-2, 4), anything)),
        (exact(range(-2, 4), anything), exact(range(-2, 4), scalar)),
    ):
        got = series_mul(p, q)
        assert got.is_exact() and got == naive_mul(p, q)
    p = PDSeries(GR, {1 + 2 * rnd.randint(-2, 1): scalar() * spec.gen("xi") + spec.gen("F")})
    q = PDSeries(GR, {rnd.randint(-2, 3): spec.gen("chi") + scalar()})
    assert naive_mul(p, q) is None
    with pytest.raises(OrderUnresolvable):
        series_mul(p, q)
