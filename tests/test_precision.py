"""Precision contract over Q(z): a series known only modulo O(y^N) determines
every operation's output below the order the output states.  So truncating
an input further may lower that order, but never changes a coefficient below
it."""

from hypothesis import given, settings, strategies as st

from pdo.action import act_series
from pdo.lift import psi
from pdo.ratfunc import GMatrix, RatFunc
from pdo.rings import QZ
from pdo.series import PDSeries, series_inverse, series_mul

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
