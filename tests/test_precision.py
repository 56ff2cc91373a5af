"""Precision contract over Q(z) and over the graded ring: a series known only
modulo O(y^N) determines every operation's output below the order the output
states.  So truncating an input further, or asking for a lower order, may
lower that order, but never changes a coefficient below it."""

from hypothesis import given, settings, strategies as st

from pdo.action import act_series
from pdo.graded import GradedRingSpec
from pdo.invariants import rewrite_in_u, u_power
from pdo.lift import psi, psi_assemble, psi_inverse, WeightedFamily
from pdo.rankin import star
from pdo.ratfunc import GMatrix, RatFunc
from pdo.rings import GradedRing, QZ
from pdo.series import PDSeries, series_inverse, series_mul, series_sqrt

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


# -- the graded ring --

SPEC = GradedRingSpec([("chi", 2, True), ("xi", 1, True)])
GR = GradedRing(SPEC)
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
