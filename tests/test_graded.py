from fractions import Fraction as F

import pytest

from pdo.errors import NotAUnit, NotHomogeneous, ZeroElement
from pdo.graded import GradedElem, GradedRingSpec, Generator

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
    assert chi.inv_unit() * chi == spec.one()
    assert (chi.inv_unit()).deriv() == -(chi.inv_unit() ** 2) * spec.gen("chi", 1)
    u = 3 * chi**2 * xi.inv_unit()
    assert u * u.inv_unit() == spec.one()
    with pytest.raises(NotAUnit):
        (chi + xi).inv_unit()
    with pytest.raises(NotAUnit):
        Fgen.inv_unit()
    with pytest.raises(NotAUnit):
        spec.gen("chi", 1).inv_unit()


def test_negative_exponent_rules():
    with pytest.raises(ValueError):
        GradedElem(spec, {((2, 0, -1),): F(1)})  # F not invertible
    with pytest.raises(ValueError):
        GradedElem(spec, {((0, 1, -1),): F(1)})  # derivative order 1


def test_weights():
    assert (chi**2).weight() == 4
    assert (chi * spec.gen("chi", 1)).weight() == 6
    assert (xi.inv_unit() ** 3).weight() == -3
    assert spec.gen("xi", 2).weight() == 5
    with pytest.raises(NotHomogeneous):
        (chi + chi**2).weight()
    with pytest.raises(ZeroElement):
        spec.zero().weight()


def test_weight_additivity_and_deriv_shift():
    a = chi * xi**2
    b = Fgen * chi.inv_unit()
    assert (a * b).weight() == a.weight() + b.weight()
    assert a.deriv().weight() == a.weight() + 2
    assert b.deriv().weight() == b.weight() + 2


def test_pow_negative_on_units():
    assert chi**-2 == chi.inv_unit() ** 2
    assert (chi**-2) * (chi**2) == spec.one()


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
    for made in (e + chi, -e, GradedElem.sum(spec, [e, e])):
        with pytest.raises(TypeError):
            made.terms[()] = F(1)
    assert hash(e) == h and e == chi * spec.gen("xi", 1) + 3
