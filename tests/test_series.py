import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from pdo.coeffs import comm_coeff_b
from pdo.errors import (
    BadRoot,
    NotInvertible,
    OddValuation,
    OrderUnresolvable,
    RingMismatch,
)
from pdo.graded import GradedElem, GradedRingSpec, Generator
from pdo.invariants import u_power
from pdo.ratfunc import RatFunc
from pdo import QZ, GradedRing
from pdo.series import EXACT, PDSeries, series_inverse, series_mul, series_sqrt, split_even_odd

z = RatFunc.z()
spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")


def test_each_coefficient_ring_is_its_domain():
    # Q(z) is the class RatFunc and a graded ring is its spec: each has one
    # coerce and one sum, and the elements answer inverse and deriv_terminates
    assert QZ is RatFunc
    assert QZ.zero() == 0 and QZ.one() == 1 and QZ.coerce(F(1, 2)) == RatFunc.const(F(1, 2))
    assert QZ.coerce(z) is z and QZ.sum([z, 1, -z]) == 1
    assert z.deriv_terminates() and not (1 / z).deriv_terminates()
    assert spec.zero().is_zero() and spec.one() == 1 and spec.coerce(3) == spec.scalar(3)
    assert spec.sum([chi, 1, -chi]) == 1 and chi.inverse() * chi == 1
    assert spec.scalar(5).deriv_terminates() and not chi.deriv_terminates()
    # the benchmark builds its ring as GradedRing(spec) and reads ring.spec
    assert GradedRing(spec) is spec and spec.spec is spec


def rand_series(rnd, ring, vmin, vmax, order):
    coeffs = {}
    for n in range(rnd.randint(vmin, vmax), order):
        if rnd.random() < 0.55:
            continue
        if ring is QZ:
            coeffs[n] = RatFunc((rnd.randint(-3, 3), rnd.randint(-2, 2)), (rnd.randint(1, 3), 1))
        else:
            e = chi ** rnd.randint(0, 2) * xi ** rnd.randint(-1, 2)
            coeffs[n] = F(rnd.randint(-3, 3)) * e
    return PDSeries(ring, coeffs, order)


def test_commutation_base_laws():
    # y f = f y + delta(f) y^3 + (3/2) delta^2(f) y^5 + ...
    f = PDSeries.monomial(QZ, z, 0)
    got = series_mul(PDSeries.monomial(QZ, 1, 1), f)
    assert got.is_exact()
    assert got.coeff(1) == z and got.coeff(3) == RatFunc.const(F(-1, 2))
    assert got.coeff(5).is_zero()  # delta^2(z) = 0
    # y^{-2} f = f y^{-2} - 2 delta(f) = f y^{-2} + f'
    g = 1 / (z - 2)
    got2 = series_mul(PDSeries.monomial(QZ, 1, -2), PDSeries.monomial(QZ, g, 0))
    assert got2.is_exact()
    assert got2.coeff(-2) == g and got2.coeff(0) == g.deriv()
    # x^{-1} f - f x^{-1} = f' exactly
    xm1 = PDSeries.monomial(QZ, 1, -2)
    comm = series_mul(xm1, PDSeries.monomial(QZ, g, 0)) - series_mul(PDSeries.monomial(QZ, g, 0), xm1)
    assert comm.is_exact() and comm.coeffs == {0: g.deriv()}


def test_linear_ops():
    q = PDSeries(QZ, {1: z, 3: 1 / z}, 10)
    zero = PDSeries.zero(QZ, 10)
    assert (q + zero).coeffs == q.coeffs
    d = q - q
    assert d.is_zero() and d.order == 10 and d.valuation == 10
    a = PDSeries(QZ, {1: z}, 8)
    b = PDSeries(QZ, {1: z + 1}, 8)
    assert (a + b).coeffs == {1: 2 * z + 1}
    # cancellation renormalizes the valuation
    c = PDSeries(QZ, {1: z, 2: z**2}, 8) - PDSeries(QZ, {1: z}, 8)
    assert c.valuation == 2


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        series_mul(PDSeries.monomial(QZ, 1, 0), PDSeries.monomial(GR, 1, 0))
    with pytest.raises(RingMismatch):
        PDSeries.sum(QZ, [PDSeries.monomial(QZ, 1, 0), PDSeries.monomial(GR, 1, 0)])


def test_zero_series_has_no_leading_coefficient():
    for q in (PDSeries.zero(QZ), PDSeries.zero(GR, 6)):
        with pytest.raises(ValueError, match="no leading coefficient"):
            q.leading()


def test_exact_times_exact_infinite_raises():
    with pytest.raises(OrderUnresolvable):
        series_mul(PDSeries.monomial(QZ, 1, 1), PDSeries.monomial(QZ, 1 / z, 0))


def test_precision_of_product():
    p = PDSeries(QZ, {-2: 1 / z}, 6)   # order 6, valuation -2
    q = PDSeries(QZ, {1: z}, 5)        # order 5, valuation 1
    r = series_mul(p, q)
    assert r.order == min(6 + 1, 5 - 2)
    assert r.valuation == -1


def test_mul_associative_random():
    rnd = random.Random(23)
    for ring in (QZ, GR):
        for _ in range(30):
            p = rand_series(rnd, ring, -4, 4, 8)
            q = rand_series(rnd, ring, -4, 4, 8)
            r = rand_series(rnd, ring, -4, 4, 8)
            lhs = series_mul(series_mul(p, q), r)
            rhs = series_mul(p, series_mul(q, r))
            assert lhs.agree(rhs), (ring, p, q, r)


def test_valuation_multiplicative():
    rnd = random.Random(29)
    for _ in range(20):
        p = rand_series(rnd, QZ, -4, 2, 9)
        q = rand_series(rnd, QZ, -4, 2, 9)
        if p.is_zero() or q.is_zero():
            continue
        prod = series_mul(p, q)
        lead = p.leading() * q.leading()
        if not lead.is_zero():
            assert prod.valuation == p.valuation + q.valuation


def test_even_support_closed():
    rnd = random.Random(31)
    for _ in range(10):
        p = rand_series(rnd, QZ, -4, 2, 9)
        q = rand_series(rnd, QZ, -4, 2, 9)
        pe = split_even_odd(p)[0]
        qe = split_even_odd(q)[0]
        prod = series_mul(pe, qe)
        assert all(n % 2 == 0 for n in prod.coeffs)


def test_x_y2_bridge():
    # x^m f via the x-law equals y^{2m} f via the quadratic law with d = 2 delta
    f = 1 / (z - 3)
    for m in range(-5, 6):
        got = series_mul(
            PDSeries.monomial(QZ, 1, 2 * m, 14 + 2 * abs(m)),
            PDSeries.monomial(QZ, f, 0),
        )
        d_pow = f
        for u in range(0, 7):
            b = comm_coeff_b(m, u)
            assert got.coeff(2 * (m + u)) == b * d_pow, (m, u)
            d_pow = -d_pow.deriv()  # d = -d/dz


def test_inverse_exact_monomial():
    inv = series_inverse(PDSeries.monomial(QZ, 1, 2))
    assert inv.is_exact() and inv.coeffs == {-2: RatFunc.const(1)}
    inv2 = series_inverse(PDSeries.monomial(QZ, z, 0))
    assert inv2.is_exact() and inv2.coeffs == {0: 1 / z}


def test_inverse_infinite_series():
    # ((cz+d)^2 x^{-1})^{-1} = sum (n+1)! (cz+d)^{-2} (c/(cz+d))^n x^{n+1}
    from math import factorial

    s = 3 * z + 2
    q = PDSeries(QZ, {-2: s**2}, EXACT)
    inv = series_inverse(q, order=14)
    for n in range(0, 6):
        expect = factorial(n + 1) * s**-2 * (RatFunc.const(3) / s) ** n
        assert inv.coeff(2 * (n + 1)) == expect
    # two-sided to truncation
    one = PDSeries.one(QZ)
    for prod in (series_mul(q, inv), series_mul(inv, q)):
        assert prod.coeff(0) == RatFunc.const(1)
        assert all(prod.coeff(n).is_zero() for n in range(1, prod.order))


def test_inverse_unit_perturbation():
    rnd = random.Random(37)
    for _ in range(10):
        q = PDSeries(QZ, {0: 1, **{n: RatFunc((rnd.randint(-2, 2), 1)) for n in range(1, 8)}}, 10)
        inv = series_inverse(q)
        for prod in (series_mul(q, inv), series_mul(inv, q)):
            assert prod.coeff(0) == RatFunc.const(1)
            assert all(prod.coeff(n).is_zero() for n in range(1, 10))


def test_inverse_errors():
    with pytest.raises(NotInvertible):
        series_inverse(PDSeries.zero(QZ, 5))
    with pytest.raises(NotInvertible):
        series_inverse(PDSeries.monomial(GR, spec.gen("chi", 1), 0, 8))
    with pytest.raises(OrderUnresolvable):
        series_inverse(PDSeries(QZ, {0: 1, 1: z}, EXACT))


def test_sqrt_examples():
    got = series_sqrt(PDSeries.monomial(QZ, 1, 2), 1)
    assert got.is_exact() and got.coeffs == {1: RatFunc.const(1)}
    # other root is the negation; wrong leading root rejected
    q = PDSeries(QZ, {2: 1, 4: z}, 12)
    r = series_sqrt(q, 1)
    rneg = series_sqrt(q, -1)
    assert (r + rneg).is_zero()
    assert series_mul(r, r).agree(q)
    with pytest.raises(BadRoot):
        series_sqrt(q, 1 + z)
    with pytest.raises(OddValuation):
        series_sqrt(PDSeries(QZ, {1: 1}, 9), 1)
    with pytest.raises(BadRoot):
        series_sqrt(PDSeries.zero(QZ, 5), 1)


def test_sqrt_general_even_valuation():
    rnd = random.Random(41)
    for v in (-4, -2, 0, 2, 4):
        coeffs = {v: RatFunc.const(1)}
        for n in range(v + 1, v + 9):
            if rnd.random() < 0.6:
                coeffs[n] = RatFunc((rnd.randint(-2, 2), 1), (rnd.randint(1, 2),))
        q = PDSeries(QZ, coeffs, v + 9)
        r = series_sqrt(q, 1)
        assert r.valuation == v // 2
        assert series_mul(r, r).agree(q), v


def test_sqrt_rejects_non_unit_root():
    chi1 = spec.gen("chi", 1)
    q = PDSeries(GR, {0: chi1 * chi1}, 8)
    with pytest.raises(BadRoot):
        series_sqrt(q, chi1)  # chi' squares to the leading term but is no unit


def test_sqrt_graded():
    q = series_mul(PDSeries.monomial(GR, 1, 2, 13), PDSeries.monomial(GR, xi * xi, 0))
    v = series_sqrt(q, xi)
    assert v.coeff(1) == xi
    assert series_mul(v, v).agree(q)
    # first correction of y^2 xi^2: coefficient of y^4 is 2 delta(xi^2) = -(xi^2)'
    assert q.coeff(4) == -2 * xi * spec.gen("xi", 1)


def test_split_even_odd():
    q = PDSeries(QZ, {2: z, 3: z**2, 5: 1 / z, -2: z}, 9)
    even, odd = split_even_odd(q)
    assert set(even.coeffs) == {2, -2} and set(odd.coeffs) == {3, 5}
    assert even.order == odd.order == 9
    assert (even + odd).coeffs == q.coeffs


@pytest.mark.parametrize(
    "order, n, kept, new_order",
    [
        (EXACT, 3, [0], 3),
        (EXACT, 5, [0, 4], 5),
        (5, 3, [0], 3),
        (5, 5, [0, 4], 5),
        (5, 8, [0, 4], 5),
    ],
)
def test_truncate(order, n, kept, new_order):
    full = {0: RatFunc.const(1), 4: z}
    t = PDSeries(QZ, full, order).truncate(n)
    assert t.order == new_order and t.coeffs == {e: full[e] for e in kept}


# P4 and Q4 differ only at y^4, so they agree exactly when the bound
# min(p.order, q.order, upto) is at most 4; with no bound at all, every
# coefficient is compared
P4, Q4 = {0: 1, 2: z, 4: 1}, {0: 1, 2: z, 4: 2}


@pytest.mark.parametrize(
    "p, p_order, q, q_order, upto, agree",
    [
        # the asserts of the former test_truncate_and_agree
        pytest.param({0: 1, 4: z}, EXACT, {0: 1}, 3, None, True, id="exact-vs-its-truncation"),
        pytest.param({0: 1, 4: z}, EXACT, {0: 2}, 3, None, False, id="exact-vs-other-at-y0"),
        # every combination of exact (None) and finite orders and upto
        (P4, EXACT, Q4, EXACT, None, False),
        ({0: 1, 4: z}, EXACT, {0: 1, 4: z}, EXACT, None, True),
        (P4, EXACT, Q4, EXACT, 4, True),
        (P4, EXACT, Q4, EXACT, 5, False),
        (P4, EXACT, Q4, 4, None, True),
        (P4, EXACT, Q4, 5, None, False),
        (P4, EXACT, Q4, 6, 4, True),
        (P4, EXACT, Q4, 6, 5, False),
        (P4, 4, Q4, EXACT, None, True),
        (P4, 5, Q4, EXACT, None, False),
        (P4, 6, Q4, EXACT, 4, True),
        (P4, 6, Q4, EXACT, 5, False),
        (P4, 4, Q4, 6, None, True),
        (P4, 6, Q4, 5, None, False),
        (P4, 6, Q4, 6, 4, True),
        (P4, 6, Q4, 6, 9, False),
        (P4, 9, Q4, 4, 9, True),
    ],
)
def test_agree(p, p_order, q, q_order, upto, agree):
    p, q = PDSeries(QZ, p, p_order), PDSeries(QZ, q, q_order)
    assert p.agree(q, upto) is agree and q.agree(p, upto) is agree


@st.composite
def small_series(draw):
    v = draw(st.integers(-3, 2))
    coeffs = {}
    for n in range(v, 7):
        kind = draw(st.integers(0, 3))
        if kind == 0:
            continue
        num = (draw(st.integers(-3, 3)), draw(st.integers(-1, 1)))
        den = (draw(st.integers(1, 2)), 1) if kind == 2 else (1,)
        coeffs[n] = RatFunc(num, den)
    return PDSeries(QZ, coeffs, 7)


@settings(max_examples=40, deadline=None)
@given(small_series(), small_series(), small_series())
def test_mul_associative_and_distributive_hypothesis(p, q, r):
    assert series_mul(series_mul(p, q), r).agree(series_mul(p, series_mul(q, r)))
    lhs = series_mul(p, q + r)
    rhs = series_mul(p, q) + series_mul(p, r)
    assert lhs.agree(rhs)


def geometric_inverse(q, order=None):
    """The inverse by the geometric series of the unit part, an independent
    oracle: q = (f y^v) u with u = 1 + r, and inv(q) = (sum_k (-r)^k) y^{-v} f^{-1}."""
    ring, v = q.ring, q.valuation
    f_inv = q.coeffs[v].inverse()
    result_order = q.order - 2 * v if q.order is not None else order
    if order is not None:
        result_order = min(result_order, order)
    rel = result_order + v
    if rel <= 0:
        return PDSeries.zero(ring, result_order)
    minv = series_mul(PDSeries(ring, {-v: ring.one()}, -v + rel), PDSeries.monomial(ring, f_inv, 0))
    unit = series_mul(minv, q.truncate(v + rel) if q.order is None else q)
    r = unit - PDSeries.one(ring).truncate(rel)
    acc = power = PDSeries.one(ring).truncate(rel)
    for _ in range(1, rel):
        power = series_mul(power, -r)
        if power.is_zero() or power.valuation >= rel:
            break
        acc = acc + power
    return series_mul(acc, minv)


@st.composite
def invertible_series(draw):
    """(q, order): a unit-led series over Q(z) or the graded ring, truncated or
    exact (then with a result order), constant, sparse or dense."""
    ring = draw(st.sampled_from([QZ, GR]))
    v = draw(st.integers(-3, 3))
    span = draw(st.integers(1, 6))
    shape = draw(st.sampled_from(["constant", "sparse", "dense"]))

    def coeff(lead):
        c = draw(st.integers(1, 3) if lead else st.integers(-3, 3))
        if ring is QZ:
            num = (c, 0 if lead else draw(st.integers(-2, 2)))
            return RatFunc(num, (draw(st.integers(1, 3)), 1))
        unit = chi ** draw(st.integers(-1, 2)) * xi ** draw(st.integers(-2, 2))
        if lead:
            return F(c) * unit
        return F(c) * unit + F(draw(st.integers(-2, 2))) * spec.gen("chi", draw(st.integers(1, 2)))

    coeffs = {v: coeff(True)}
    for n in range(v + 1, v + span):
        if shape == "dense" or (shape == "sparse" and draw(st.booleans())):
            coeffs[n] = coeff(False)
    if shape == "constant" or draw(st.booleans()):
        order = draw(st.one_of(st.none(), st.integers(-v - 2, span - v)))
        return PDSeries(ring, coeffs, v + span), order
    return PDSeries(ring, coeffs, EXACT), draw(st.integers(-v - 2, span - v))


@settings(max_examples=80, deadline=None)
@given(invertible_series())
def test_inverse_matches_geometric_series_oracle(case):
    q, order = case
    v = q.valuation
    inv = series_inverse(q, order=order)
    assert inv == geometric_inverse(q, order)
    result_order = order if q.order is None else q.order - 2 * v
    if order is not None:
        result_order = min(result_order, order)
    assert inv.order == result_order
    rel = result_order + v
    # two-sided: q inv = inv q = 1 + O(y^{N - v})
    one = PDSeries.one(q.ring)
    for prod in (series_mul(q, inv), series_mul(inv, q)):
        assert prod.order == rel and prod.agree(one)
    # precision contract: a shorter input changes nothing below its order
    top = v + rel if q.order is None else q.order
    for m in range(v + 1, top):
        short = series_inverse(q.truncate(m), order=order)
        assert short.order == min(result_order, m - 2 * v)
        assert short.agree(inv, m - 2 * v)


def test_inverse_short_precision_is_the_zero_series():
    q = PDSeries(QZ, {2: z + 1, 3: z}, 9)
    got = series_inverse(q, order=-2)
    assert got == geometric_inverse(q, -2) == PDSeries.zero(QZ, -2)
    assert series_inverse(PDSeries(GR, {-1: chi}), order=1) == PDSeries.zero(GR, 1)


def newton_inverse(q, order=None):
    """The inverse by Newton iteration x <- x + x(1 - q x) at doubling
    precision from x = f^{-1} y^{-v}: if q x = 1 - e then q(x + x e) = 1 - e^2
    by the ring axioms alone, so each step doubles the precision."""
    ring, v = q.ring, q.valuation
    result_order = order if q.order is None else q.order - 2 * v
    if order is not None:
        result_order = min(result_order, order)
    rel = result_order + v
    if rel <= 0:
        return PDSeries.zero(ring, result_order)
    x, prec = PDSeries.monomial(ring, q.coeffs[v].inverse(), -v), 1
    while prec < rel:
        prec = min(2 * prec, rel)
        e = PDSeries.one(ring) - series_mul(q.truncate(v + prec), x)
        x = PDSeries(ring, (x + series_mul(x, e)).coeffs)
    return x.truncate(result_order)


def test_inverse_matches_oracles_at_benchmark_sizes():
    # the qz-swell inverse inputs: dense N = 10 and sparse order 16
    dense = PDSeries(QZ, {k: 1 / (z - (k - 7)) for k in range(10)}, 10)
    sparse = PDSeries(QZ, {0: 1, 1: z, 3: 1 / (z - 1), 4: 1 / (z - 2)}, 16)
    for q in (dense, sparse):
        assert series_inverse(q) == geometric_inverse(q)
        assert series_inverse(PDSeries(QZ, q.coeffs), order=q.order) == geometric_inverse(q)
    # the geometric series is too slow for these: 37 s on u and 11 s on the
    # graded series on a 2-vCPU host, against 0.06 and 0.7 s for Newton
    u = u_power(1, 41, spec)
    inv = series_inverse(u)
    assert inv == newton_inverse(u) and inv.coeffs == {-2: chi.inverse()} and inv.order == 37
    chi1, xi1 = spec.gen("chi", 1), spec.gen("xi", 1)
    g = PDSeries(spec, {0: chi * xi, 1: chi1 + xi * xi, 2: chi * chi1 - xi1 * xi, 4: F(1, 2) * chi1 * xi + chi}, 14)
    inv = series_inverse(g)
    assert inv == newton_inverse(g) and len(inv.coeffs) == 14
    assert max(len(c.terms) for c in inv.coeffs.values()) > 1000


def test_inverse_differentiates_only_the_input_coefficients(monkeypatch):
    # x * q = 1 is solved with the chains of q's fixed coefficients on the
    # right, so no coefficient of the growing inverse is ever differentiated
    u = u_power(1, 41, spec)
    receivers, deriv = [], GradedElem.deriv

    def spy(self):
        receivers.append(self)
        return deriv(self)

    monkeypatch.setattr(GradedElem, "deriv", spy)
    series_inverse(u)
    chis = {s * spec.gen("chi", j) for j in range(42) for s in (1, -1)}
    assert receivers and all(r in chis for r in receivers), receivers
