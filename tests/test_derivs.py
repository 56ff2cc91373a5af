"""The one derivative chain, ``series.derivs``, and ``series.deriv_n`` on it:
equal to repeated ``deriv`` on both coefficient rings, and read by each
chain reader only as far as that reader uses it."""

from fractions import Fraction as F
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from pdo.graded import GradedElem, GradedRingSpec, Generator
from pdo.invariants import decompose_even, g_closed, u_power
from pdo.lift import psi
from pdo.rankin import rc_bracket, star
from pdo.ratfunc import QZ, RatFunc
from pdo.series import PDSeries, deriv_n, derivs, series_inverse, series_mul

z = RatFunc.z()
spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
chi, xi = spec.gen("chi"), spec.gen("xi")
small = st.fractions(-3, 3, max_denominator=4)


def repeated_deriv(f, n: int) -> list:
    out = [f]
    for _ in range(n):
        out.append(out[-1].deriv())
    return out


@st.composite
def rational_functions(draw):
    """Zero, constants, polynomials (whose chains reach zero) and fractions
    whose denominators have repeated roots."""
    num = sum((c * z**i for i, c in enumerate(draw(st.lists(small, max_size=4)))), RatFunc.const(0))
    roots = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(1, 3)), max_size=2))
    den = RatFunc.const(1)
    for r, e in roots:
        den = den * (z - r) ** e
    return num / den


@st.composite
def graded_elements(draw):
    """Zero, scalars, and sums of monomials with negative exponents on the
    invertible chi and xi times derivatives of both."""
    out = spec.scalar(draw(small))
    gens = st.sampled_from(["chi", "xi"])
    for c, a, b, g, j, e in draw(st.lists(
        st.tuples(small, st.integers(-3, 3), st.integers(-3, 3), gens, st.integers(1, 2), st.integers(0, 2)),
        max_size=3,
    )):
        out = out + c * chi**a * xi**b * spec.gen(g, j) ** e
    return out


def structure(f):
    if isinstance(f, GradedElem):
        return dict(f.terms)
    return f.sc, f.nump, f.denp


@settings(max_examples=60, deadline=None)
@given(st.one_of(rational_functions(), graded_elements()), st.integers(0, 6))
@example(RatFunc.const(0), 3)
@example(z**3 - 2 * z, 5)
@example(RatFunc.const(F(5, 2)) / (z - 1) ** 2 / (z + 2) ** 3, 4)
@example(spec.zero(), 2)
@example(spec.scalar(F(5, 2)), 2)
@example(F(1, 3) * chi**-2 * xi**3 * spec.gen("chi", 1) ** 2 - xi**-1, 4)
def test_derivs_and_deriv_n_equal_repeated_deriv(f, n):
    ref = repeated_deriv(f, n)
    got = list(islice(derivs(f), n + 1))
    assert [structure(x) for x in got] == [structure(x) for x in ref]
    assert structure(deriv_n(f, n)) == structure(ref[-1])


def test_deriv_n_refuses_a_negative_order():
    with pytest.raises(ValueError):
        deriv_n(z, -1)


def counting_derivs(monkeypatch) -> list:
    """Patch both rings' ``deriv`` to count its calls; returns the counter."""
    calls = []
    for cls in (RatFunc, GradedElem):
        def spy(self, _deriv=cls.deriv):
            calls.append(self)
            return _deriv(self)
        monkeypatch.setattr(cls, "deriv", spy)
    return calls


Q8 = PDSeries(QZ, {k: 1 / (z - k) for k in range(8)}, 8)
A = [1 + spec.gen("chi", 1) * chi**-2, xi**2 * chi**-1 - 1, spec.gen("chi", 1) * chi**-2]


@pytest.mark.parametrize("op, calls", [
    (lambda: psi(3, 1 / (z - 2) + z, 30), 13),
    (lambda: psi(-4, 1 / (z - 2) + z), 1),
    (lambda: series_mul(Q8, Q8), 9),
    (lambda: series_inverse(Q8), 9),
    (lambda: star(xi * chi + xi**3, xi + chi * xi**-1, 21), 105),
    (lambda: rc_bracket(1 / (z - 2) + z, 1 / (z**2 + 1), 2, 1, 3), 6),
    (lambda: decompose_even(A, 13, spec), 22),
    (lambda: decompose_even(A, 1, spec), 0),
    (lambda: g_closed(3, 4, spec), 4),
    (lambda: u_power(2, 13, spec), 14),
], ids=["psi", "psi-exact", "series_mul", "series_inverse", "star", "rc_bracket",
        "decompose_even", "decompose_even-order-1", "g_closed", "u_power"])
def test_each_reader_takes_the_derivatives_it_reads(monkeypatch, op, calls):
    # a chain read one entry past its bound (say, zipped ahead of the
    # exponents it fills) shows here as one call or more per chain
    counter = counting_derivs(monkeypatch)
    op()
    assert len(counter) == calls
