"""Precision contract over Q(z) and over the graded ring: a series known only
modulo O(y^N) determines every operation's output below the order the output
states.  So truncating an input further, or asking for a lower order, may
lower that order, but never changes a coefficient below it.  The online
square root is also compared with the three-product loop it replaced.  An
exact input whose result is infinite raises OrderUnresolvable, naming the
operation and its sizes."""

import pytest
from hypothesis import given, settings, strategies as st

from pdo.action import act_series, act_y_power
from pdo.errors import OrderUnresolvable
from pdo.graded import GradedRingSpec
from pdo.invariants import rewrite_in_u, u_power
from pdo.lift import psi, psi_assemble, psi_inverse, WeightedFamily
from pdo.rankin import star
from pdo.ratfunc import GMatrix, RatFunc
from pdo import QZ
from pdo.series import EXACT, PDSeries, series_inverse, series_mul, series_sqrt

MATRICES = [GMatrix(1, 1, 0, 1), GMatrix(0, -1, 1, 0), GMatrix(2, 1, 3, 2), GMatrix(1, 2, 1, 3)]


@st.composite
def coeffs(draw):
    """Rational functions whose poles recur across draws, so that the gcds
    inside sums and products are nontrivial."""
    num = (draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
    pole = draw(st.integers(-3, 3))
    return RatFunc(num, (-pole, 1)) if any(num) else RatFunc.const(1)


@st.composite
def truncated_series(draw):
    """A series over Q(z) with a nonzero leading coefficient (so a unit),
    truncated a few exponents above it."""
    v = draw(st.integers(-2, 2))
    order = v + draw(st.integers(1, 5))
    cs = {n: draw(coeffs()) for n in range(v, order) if n == v or draw(st.booleans())}
    return PDSeries(QZ, cs, order)


def assert_stable(op, full_input: PDSeries, *truncate_at: int) -> None:
    """op(full_input.truncate(m)) states an order no higher than
    op(full_input) and agrees with it below that order."""
    full = op(full_input)
    for m in truncate_at:
        short = op(full_input.truncate(m))
        assert short.order <= full.order
        assert short.agree(full)


def shorter_orders(q: PDSeries):
    return range(q.valuation + 1, q.order)


@settings(max_examples=30, deadline=None)
@given(truncated_series(), truncated_series())
def test_series_mul_precision(p, q):
    assert_stable(lambda a: series_mul(a, q), p, *shorter_orders(p))
    assert_stable(lambda b: series_mul(p, b), q, *shorter_orders(q))


@settings(max_examples=30, deadline=None)
@given(truncated_series())
def test_series_inverse_precision(q):
    assert_stable(series_inverse, q, *shorter_orders(q))


@settings(max_examples=30, deadline=None)
@given(truncated_series(), st.sampled_from(MATRICES))
def test_act_series_precision(q, g):
    assert_stable(lambda a: act_series(a, g), q, *shorter_orders(q))


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 4), coeffs(), st.integers(1, 8))
def test_psi_precision(m, f, order):
    # psi takes a coefficient, not a series: its truncation is the order asked
    # for; positive weights are the infinite, truncated lifts
    full = psi(m, f, m + order)
    for n in range(m + 1, m + order):
        short = psi(m, f, n)
        assert short.order == n and short.agree(full)


def square_lead(q: PDSeries, e, w: int) -> PDSeries:
    """q shifted to valuation 2w, with e^2 as its leading coefficient."""
    shift = 2 * w - q.valuation
    cs = {n + shift: c for n, c in q.coeffs.items()}
    cs[2 * w] = e * e
    return PDSeries(q.ring, cs, q.order + shift)


def assert_sqrt_stable(q: PDSeries, e, w: int) -> None:
    q = square_lead(q, e, w)
    assert_stable(lambda a: series_sqrt(a, e), q, *shorter_orders(q))
    full = series_sqrt(q, e)
    for n in range(w + 1, full.order):
        short = series_sqrt(q, e, order=n)
        assert short.order == n and short.agree(full)


@settings(max_examples=30, deadline=None)
@given(truncated_series(), coeffs(), st.integers(-1, 1))
def test_series_sqrt_precision_qz(q, e, w):
    assert_sqrt_stable(q, e, w)


def three_product_sqrt(q: PDSeries, e, order: int | None = None) -> PDSeries:
    """The square root by keeping z^2 current: each new term t costs the
    three full products z t, t z and t t."""
    ring, w = q.ring, q.valuation // 2
    two_e_inv = (e + e).inverse()
    result_order = order if q.order is None else q.order - w
    if order is not None:
        result_order = min(result_order, order)
    z = PDSeries.monomial(ring, e, w, result_order)
    square = series_mul(z, z)
    for n in range(2 * w + 1, result_order + w):
        need = q.coeff(n) - square.coeff(n)
        if need.is_zero():
            continue
        t = PDSeries.monomial(ring, two_e_inv * need, n - w, result_order)
        square = PDSeries.sum(ring, (square, series_mul(z, t), series_mul(t, z), series_mul(t, t)))
        z = z + t
    return z


def assert_sqrt_matches_three_products(data, q: PDSeries, e, w: int) -> None:
    """series_sqrt equals the oracle structurally: on q as drawn, with order=,
    and on q made exact with order=."""
    q = square_lead(q, e, w)
    n = data.draw(st.integers(w - 1, q.order - w + 2), label="order=")
    assert series_sqrt(q, e) == three_product_sqrt(q, e)
    assert series_sqrt(q, e, order=n) == three_product_sqrt(q, e, order=n)
    exact = PDSeries(q.ring, q.coeffs)
    assert series_sqrt(exact, e, order=n) == three_product_sqrt(exact, e, order=n)


@settings(max_examples=30, deadline=None)
@given(st.data(), truncated_series(), coeffs(), st.integers(-1, 1))
def test_series_sqrt_matches_three_products_qz(data, q, e, w):
    assert_sqrt_matches_three_products(data, q, e, w)


# -- the graded ring --

SPEC = GradedRingSpec([("chi", 2, True), ("xi", 1, True)])
GR = SPEC
CHI, XI = SPEC.gen("chi"), SPEC.gen("xi")
# weight-0 factors: chi^(j) / chi^(j+1) and xi^(j) / xi^(2j+1)
WEIGHT0 = [SPEC.gen("chi", j) * CHI ** -(j + 1) for j in range(1, 3)]
WEIGHT0 += [SPEC.gen("xi", j) * XI ** -(2 * j + 1) for j in range(1, 3)]

small = st.fractions(-3, 3, max_denominator=3)


@st.composite
def homogeneous(draw, w: int):
    """A sum of up to three weight-w monomials xi^w (chi/xi^2)^a * factor."""
    out = SPEC.zero()
    for _ in range(draw(st.integers(1, 3))):
        mono = XI**w * (CHI * XI**-2) ** draw(st.integers(-1, 1))
        if draw(st.booleans()):
            mono = mono * draw(st.sampled_from(WEIGHT0))
        out = out + draw(small) * mono
    return out


@st.composite
def units(draw):
    return draw(small.filter(bool)) * CHI ** draw(st.integers(-1, 1)) * XI ** draw(st.integers(-1, 1))


@st.composite
def graded_series(draw):
    """A graded series with a unit leading coefficient, truncated at most
    four exponents above it."""
    v = draw(st.integers(-1, 1))
    order = v + draw(st.integers(1, 4))
    cs = {n: draw(homogeneous(n % 4)) for n in range(v + 1, order) if draw(st.booleans())}
    cs[v] = draw(units())
    return PDSeries(GR, cs, order)


@settings(max_examples=20, deadline=None)
@given(graded_series(), graded_series())
def test_graded_series_mul_precision(p, q):
    assert_stable(lambda a: series_mul(a, q), p, *shorter_orders(p))
    assert_stable(lambda b: series_mul(p, b), q, *shorter_orders(q))


@settings(max_examples=20, deadline=None)
@given(graded_series())
def test_graded_series_inverse_precision(q):
    assert_stable(series_inverse, q, *shorter_orders(q))
    full = series_inverse(q)
    for n in range(-q.valuation + 1, full.order):
        short = series_inverse(q, order=n)
        assert short.order == n and short.agree(full)


@settings(max_examples=20, deadline=None)
@given(graded_series(), units(), st.integers(-1, 1))
def test_graded_series_sqrt_precision(q, e, w):
    assert_sqrt_stable(q, e, w)


@settings(max_examples=20, deadline=None)
@given(st.data(), graded_series(), units(), st.integers(-1, 1))
def test_graded_series_sqrt_matches_three_products(data, q, e, w):
    assert_sqrt_matches_three_products(data, q, e, w)


def family_below(fam: WeightedFamily, n: int) -> bool:
    return all(m < n for m in fam.components)


@settings(max_examples=20, deadline=None)
@given(st.data(), st.integers(2, 6))
def test_psi_inverse_precision(data, order):
    # coefficient weights equal exponents, as psi_inverse peels weight m at y^m
    fam = WeightedFamily(GR, {m: data.draw(homogeneous(m)) for m in range(order) if data.draw(st.booleans())})
    q = psi_assemble(fam, order)
    full = psi_inverse(q)
    assert full.agree(fam, order) and family_below(full, order)
    for n in range(1, order):
        for short in (psi_inverse(q.truncate(n)), psi_inverse(q, order=n)):
            assert family_below(short, n) and short.agree(full, n)


@settings(max_examples=15, deadline=None)
@given(st.data(), st.integers(0, 2), st.integers(0, 2), st.integers(3, 7))
def test_star_precision(data, k, l, order):
    f, g = (data.draw(homogeneous(w).filter(lambda x: not x.is_zero())) for w in (k, l))
    full = star(f, g, order)
    for n in range(1, order):
        short = star(f, g, n)
        assert family_below(short, n) and short.agree(full, n)


@settings(max_examples=15, deadline=None)
@given(st.data(), st.integers(2, 9))
def test_rewrite_in_u_precision(data, order):
    a = [data.draw(homogeneous(0)) for _ in range(3)]
    q = PDSeries.sum(GR, [u_power(k, order, GR).scale_left(ak) for k, ak in enumerate(a)], order)
    full = rewrite_in_u(q)
    assert padded(full, (order + 1) // 2) == padded(a, (order + 1) // 2)
    for n in range(1, order):
        # known modulo O(y^n), q determines a_k for 2k < n, as u^k starts at y^2k
        short, k = rewrite_in_u(q.truncate(n)), max(1, (n + 1) // 2)
        assert len(short) <= k and padded(short, k) == padded(full, k)
        assert rewrite_in_u(q, order=n) == short


def padded(xs: list, k: int) -> list:
    return [*xs, *[0] * k][:k]


def test_order_unresolvable_names_the_operation_and_its_sizes():
    z = RatFunc.z()
    spec = GradedRingSpec([("chi", 2, True), ("xi", 1, True)])
    chi = spec.gen("chi")
    cases = [
        (lambda: act_y_power(3, GMatrix(1, 0, 2, 1)), ("act_y_power", "y^3", "GMatrix[[1,0],[2,1]]")),
        (lambda: series_mul(PDSeries(QZ, {3: z}, EXACT), PDSeries(QZ, {-2: 1 / z}, EXACT)),
         ("series_mul", "y^3", "y^-2")),
        (lambda: psi_inverse(PDSeries(QZ, {2: z}, EXACT)), ("psi_inverse", "weight 2")),
        (lambda: psi_assemble(WeightedFamily(QZ, {0: z, 2: z, 4: z})), ("psi_assemble", "[2, 4]")),
        (lambda: rewrite_in_u(PDSeries(spec, {2: chi, 4: chi * chi}, EXACT)), ("rewrite_in_u", "y^4")),
        (lambda: series_inverse(PDSeries(QZ, {1: z}, EXACT)), ("series_inverse", "y^1", "pass a result order")),
        (lambda: series_inverse(PDSeries(QZ, {0: 1, 3: z}, EXACT)), ("series_inverse", "y^0")),
        (lambda: series_sqrt(PDSeries(QZ, {2: z * z}, EXACT), z), ("series_sqrt", "y^2", "pass a result order")),
    ]
    for op, parts in cases:
        with pytest.raises(OrderUnresolvable) as ei:
            op()
        assert all(part in str(ei.value) for part in parts), (str(ei.value), parts)
