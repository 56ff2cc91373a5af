import copy
import pickle
from fractions import Fraction as F
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from pdo.errors import NotAUnit, NotHomogeneous, RingMismatch, ZeroElement
from pdo.graded import GradedElem, GradedRingSpec, Generator, _normalize

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True), Generator("F", 3)])
chi = spec.gen("chi")
xi = spec.gen("xi")
Fgen = spec.gen("F")


def test_distinct_names_required():
    with pytest.raises(ValueError):
        GradedRingSpec([Generator("a", 1), Generator("a", 2)])


def test_leibniz():
    assert (chi**2).deriv() == 2 * chi * spec.gen("chi", 1)
    assert (chi * xi).deriv() == chi.deriv() * xi + chi * xi.deriv()
    assert spec.scalar(5).deriv().is_zero()


def test_inverse_units():
    assert chi.inverse() * chi == spec.one()
    assert (chi.inverse()).deriv() == -(chi.inverse() ** 2) * spec.gen("chi", 1)
    u = 3 * chi**2 * xi.inverse()
    assert u * u.inverse() == spec.one()
    with pytest.raises(NotAUnit):
        (chi + xi).inverse()
    with pytest.raises(NotAUnit):
        Fgen.inverse()
    with pytest.raises(NotAUnit):
        spec.gen("chi", 1).inverse()


def test_negative_exponent_rules():
    with pytest.raises(ValueError):
        GradedElem(spec, {((2, 0, -1),): F(1)})  # F not invertible
    with pytest.raises(ValueError):
        GradedElem(spec, {((0, 1, -1),): F(1)})  # derivative order 1


def test_weights():
    assert (chi**2).weight() == 4
    assert (chi * spec.gen("chi", 1)).weight() == 6
    assert (xi.inverse() ** 3).weight() == -3
    assert spec.gen("xi", 2).weight() == 5
    with pytest.raises(NotHomogeneous):
        (chi + chi**2).weight()
    with pytest.raises(ZeroElement):
        spec.zero().weight()


@pytest.mark.parametrize(
    "elem, w, expect",
    [
        (spec.zero(), None, True),
        (spec.zero(), 5, True),
        (chi * xi, None, True),
        (chi * xi, 3, True),
        (chi * xi, 2, False),
        (spec.scalar(F(3, 2)), 0, True),
        (chi + chi**2, None, False),
        (chi + chi**2, 2, False),
        (xi**2 - chi, 2, True),
    ],
    ids=["zero", "zero-w5", "one-weight", "one-weight-equal", "one-weight-other",
         "scalar-w0", "mixed", "mixed-w2", "two-monomials-one-weight"],
)
def test_is_homogeneous_table(elem, w, expect):
    # the zero element has no weights, so it is homogeneous of every weight
    assert elem.is_homogeneous(w) is expect


def test_weight_additivity_and_deriv_shift():
    a = chi * xi**2
    b = Fgen * chi.inverse()
    assert (a * b).weight() == a.weight() + b.weight()
    assert a.deriv().weight() == a.weight() + 2
    assert b.deriv().weight() == b.weight() + 2


def test_pow_negative_on_units():
    assert chi**-2 == chi.inverse() ** 2
    assert (chi**-2) * (chi**2) == spec.one()


@pytest.mark.parametrize("n", range(18))
def test_pow_squares_bit_length_minus_1_times(monkeypatch, n):
    p = xi**3 - chi * xi + spec.gen("chi", 1)
    expect = spec.one()
    for _ in range(n):
        expect = expect * p
    squarings = []
    real = GradedRingSpec.dot

    def spy(self, pairs):
        pairs = list(pairs)
        squarings.extend(x for x, y in pairs if x is y)
        return real(self, pairs)

    monkeypatch.setattr(GradedRingSpec, "dot", spy)
    assert p**n == expect
    assert len(squarings) == max(n.bit_length() - 1, 0)


def test_scalar_arithmetic():
    e = 2 * chi - chi - chi
    assert e.is_zero()
    assert (spec.scalar(F(1, 2)) * spec.scalar(4)).scalar_value() == 2
    # equal values hash alike, so scalars and their Fraction find each other
    assert 3 in {spec.scalar(3): 1} and F(1, 2) in {spec.scalar(F(1, 2))}
    assert spec.zero() in {0}


def test_coefficient_lookup():
    e = 3 * chi * spec.gen("chi", 1) + 5 * xi
    assert e.coefficient(((0, 0, 1), (0, 1, 1))) == 3
    assert e.coefficient(((1, 0, 1),)) == 5
    assert e.coefficient(((2, 0, 1),)) == 0


def test_str_deterministic():
    e = chi**2 - xi
    assert str(e) == str(chi**2 - xi)
    assert str(spec.zero()) == "0"


def test_values_are_immutable():
    e = chi * spec.gen("xi", 1) + 3
    h = hash(e)
    with pytest.raises(TypeError):
        e.terms[()] = F(5)
    with pytest.raises(AttributeError):
        e.terms = {}
    with pytest.raises(AttributeError):
        e.spec = spec
    # sums and negations hand out read-only maps too
    for made in (e + chi, -e, spec.sum([e, e])):
        with pytest.raises(TypeError):
            made.terms[()] = F(1)
    assert hash(e) == h and e == chi * spec.gen("xi", 1) + 3


# -- the trusted product, scaling and derivative against the old formulas --


def ref_mul(a: GradedElem, b: GradedElem) -> GradedElem:
    """Concatenate, re-normalise and re-validate every product monomial."""
    out = {}
    for m1, c1 in a.terms.items():
        for m2, c2 in b.terms.items():
            m = _normalize(m1 + m2)
            out[m] = out.get(m, F(0)) + c1 * c2
    return GradedElem(spec, out)


def ref_deriv(a: GradedElem) -> GradedElem:
    """Leibniz: replace each factor (g, j, e) by e (g, j, e-1)(g, j+1, 1)."""
    out = {}
    for mono, c in a.terms.items():
        for pos, (g, j, e) in enumerate(mono):
            rest = mono[:pos] + mono[pos + 1 :]
            bumped = _normalize(rest + ((g, j, e - 1), (g, j + 1, 1)))
            out[bumped] = out.get(bumped, F(0)) + c * e
    return GradedElem(spec, out)


def assert_same_canonical(got: GradedElem, ref: GradedElem) -> None:
    assert got.terms == ref.terms
    assert all(type(c) is F and c != 0 for c in got.terms.values())
    assert GradedElem(spec, got.terms).terms == got.terms


@st.composite
def monos(draw):
    """Unnormalised factor lists; negative exponents only on the invertible
    chi and xi at derivative order 0, as the constructor demands."""
    out = []
    for g, j, e in draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3), st.integers(1, 3)), max_size=4)):
        if spec.generators[g].invertible and j == 0 and draw(st.booleans()):
            e = -e
        out.append((g, j, e))
    return tuple(out)


elems = st.dictionaries(monos(), st.fractions(-3, 3, max_denominator=4), max_size=5).map(
    lambda terms: GradedElem(spec, terms)
)
scalars = st.one_of(st.integers(-3, 3), st.fractions(-3, 3, max_denominator=5))


@settings(max_examples=150, deadline=None)
@given(elems, elems, scalars, st.integers(0, 4))
def test_fast_paths_match_old_formulas(a, b, c, n):
    assert_same_canonical(a * b, ref_mul(a, b))
    assert_same_canonical((a + b) * (a - b), ref_mul(a + b, a - b))
    assert_same_canonical(a * c, ref_mul(a, spec.scalar(c)))
    assert_same_canonical(c * a, ref_mul(spec.scalar(c), a))
    assert_same_canonical(a * spec.scalar(c), ref_mul(a, spec.scalar(c)))
    ref = a
    for _ in range(n):
        ref = ref_deriv(ref)
    assert_same_canonical(a.deriv_n(n), ref)
    assert_same_canonical((a * b).deriv(), ref_deriv(ref_mul(a, b)))


def test_fast_paths_cancel():
    chi1, chi2 = spec.gen("chi", 1), spec.gen("chi", 2)
    assert_same_canonical(chi * chi**-1, spec.one())
    assert_same_canonical(xi**-2 * chi * xi**2 * chi**-1, spec.one())
    a, b = chi**-1 * chi1, xi * spec.gen("xi", 1) ** 2
    assert_same_canonical((a + b) * (a - b), ref_mul(a, a) - ref_mul(b, b))
    assert_same_canonical(chi * 0, spec.zero())
    assert_same_canonical(F(0) * chi, spec.zero())
    # d(chi1 chi2 - chi chi^(3)) collapses to chi2^2 - chi chi^(4)
    e = chi1 * chi2 - chi * spec.gen("chi", 3)
    assert_same_canonical(e.deriv(), chi2 * chi2 - chi * spec.gen("chi", 4))
    # the bumped factor folds into the next derivative order
    assert_same_canonical((chi**-2 * chi1**3).deriv_n(2), ref_deriv(ref_deriv(chi**-2 * chi1**3)))


def test_spec_and_ring_are_immutable():
    # elements read their generators' weights through the spec, and hash it
    s = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
    ring = s
    c, x = s.gen("chi"), s.gen("xi")
    key = c * x
    table = {key: 1}
    for obj, slot, value in ((s, "generators", s.generators[::-1]), (s, "_index", {}), (ring, "spec", spec)):
        with pytest.raises(AttributeError):
            setattr(obj, slot, value)
        with pytest.raises(AttributeError):
            delattr(obj, slot)
    with pytest.raises(TypeError):
        s._index["chi"] = 1
    assert c.weight() == 2 and s.gen("chi") == c and table[c * x] == 1
    for value in (s, ring):
        for roundtrip in (copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))):
            back = roundtrip(value)
            assert type(back) is type(value)
            assert back == value and hash(back) == hash(value)
    assert pickle.loads(pickle.dumps(s)).gen("xi") == x


# -- integer numerators over one denominator --


def assert_stored_canonical(e: GradedElem) -> None:
    """The stored form is unique: positive denominator, nonzero integer
    numerators, no common factor; the Fraction view rebuilds the value."""
    assert type(e._den) is int and e._den > 0
    assert all(type(c) is int and c != 0 for c in e._num.values())
    assert gcd(e._den, *e._num.values()) == 1
    assert all(type(c) is F and c != 0 for c in e.terms.values())
    back = GradedElem(spec, e.terms)
    assert back == e and hash(back) == hash(e)


@st.composite
def units(draw):
    c = draw(st.fractions(-4, 4, max_denominator=6).filter(bool))
    return c * chi ** draw(st.integers(-3, 3)) * xi ** draw(st.integers(-3, 3))


@settings(max_examples=150, deadline=None)
@given(elems, elems, elems, scalars, st.integers(-6, 6), st.integers(0, 3), units())
def test_storage_is_canonical(a, b, c, s, k, n, u):
    merged = {}
    for t in (a, b, c, spec.scalar(s)):
        for m, x in t.terms.items():
            merged[m] = merged.get(m, 0) + x
    total = spec.sum([a, b, c, s])
    assert total == GradedElem(spec, merged)
    results = [a, total, a + b, a - b, b - a, -a, a * b, a * s, s * a, a * k, k * a, F(s) * a]
    results += [a.deriv_n(n), (a * b).deriv_n(n), u.inverse(), spec.sum([a, -a]), spec.scalar(s)]
    for e in results:
        assert_stored_canonical(e)
    assert hash(spec.scalar(s)) == hash(F(s)) and spec.scalar(s) == s
    assert u * u.inverse() == 1


def test_sums_over_mixed_denominators():
    third, sixth = F(1, 3), F(1, 6)
    # denominators 2, 3 and 6 force the running denominator to grow, then
    # everything but an integer cancels
    total = spec.sum([F(1, 2) * chi, third * chi, F(-5, 6) * chi + F(1, 4), F(3, 4)])
    assert total == 1 and total._num == {(): 1} and total._den == 1
    zero = spec.sum([F(1, 4) * xi, sixth * xi - third, F(-5, 12) * xi, third])
    assert zero.is_zero() and zero._num == {} and zero._den == 1
    mixed = spec.sum([F(1, 4) * chi, sixth * xi, F(3, 4) * chi, F(1, 10)])
    assert mixed.terms == {((0, 0, 1),): 1, ((1, 0, 1),): sixth, (): F(1, 10)}
    assert mixed._den == 30 and mixed._num == {((0, 0, 1),): 30, ((1, 0, 1),): 5, (): 3}
    for e in (total, zero, mixed, F(2, 3) * chi * F(3, 2), (F(1, 2) * chi**2).deriv()):
        assert_stored_canonical(e)
    assert (F(1, 2) * chi**2).deriv()._den == 1


def test_arithmetic_across_specs_raises_ring_mismatch():
    other = GradedRingSpec([Generator("chi", 2, True)])
    a, b = chi, other.gen("chi")
    for op in (lambda: a + b, lambda: a - b, lambda: b - a, lambda: a * b):
        with pytest.raises(RingMismatch):
            op()
    with pytest.raises(RingMismatch):
        spec.sum([a, b])
    with pytest.raises(RingMismatch):
        other.coerce(a)
    assert other.coerce(2) == other.scalar(2) and spec.coerce(a) is a


def test_scalar_value_of_a_non_scalar():
    assert spec.scalar(F(2, 3)).scalar_value() == F(2, 3)
    with pytest.raises(ValueError):
        chi.scalar_value()
