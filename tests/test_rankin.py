import copy
import random
from fractions import Fraction as F

import pytest

from pdo.errors import EdgeCaseWeightZero, NotHomogeneous
from pdo.graded import GradedRingSpec, Generator
from pdo.lift import WeightedFamily, psi_assemble
from pdo.rankin import alpha_table, alpha_weight0, rc_bracket, star, star_families, star_via_brackets
from pdo.ratfunc import RatFunc

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")
z = RatFunc.z()


def test_bracket_examples():
    assert rc_bracket(chi, chi, 2, 2, 0) == chi * chi
    assert rc_bracket(chi, chi, 2, 2, 1).is_zero()
    assert rc_bracket(z, z, 1, 1, 2) == RatFunc.const(-4)


def test_bracket_weight():
    for n in range(0, 4):
        b = rc_bracket(chi, xi * chi, 2, 3, n)
        assert b.is_homogeneous(2 + 3 + 2 * n)


def test_bracket_symmetry():
    rnd = random.Random(5)
    for _ in range(10):
        f = chi ** rnd.randint(1, 2) * xi ** rnd.randint(0, 2)
        g = xi ** rnd.randint(1, 3)
        k, l = f.weight(), g.weight()
        for n in range(0, 4):
            assert rc_bracket(g, f, l, k, n) == (-1) ** n * rc_bracket(f, g, k, l, n)


def test_star_components():
    fam = star(chi, chi, 14)
    assert fam.component(4) == chi * chi
    assert fam.component(6).is_zero()  # alpha_1(2,2) [chi,chi]_1 with vanishing bracket
    # weight-0 inputs multiply within the coefficient ring
    a = chi * chi**-1 * spec.scalar(3)
    b = spec.scalar(F(1, 2))
    fam0 = star(a, b, 8)
    assert fam0.components == {0: spec.scalar(F(3, 2))}


def test_weighted_family_is_immutable():
    fam = star(xi * chi, chi, 13)
    before = dict(fam.components)
    with pytest.raises(TypeError):
        fam.components[99] = "junk"
    for slot, value in (("start", -7), ("components", {}), ("ring", None)):
        with pytest.raises(AttributeError):
            setattr(fam, slot, value)
        with pytest.raises(AttributeError):
            delattr(fam, slot)
    assert dict(fam.components) == before and fam.start == 5
    assert fam == star(xi * chi, chi, 13)
    assert copy.copy(fam) == fam


def test_star_weight_additivity_even_offsets():
    f = xi * chi  # weight 3
    g = chi       # weight 2
    fam = star(f, g, 17)
    for m, comp in fam.items():
        assert (m - 5) % 2 == 0 and m >= 5
        assert comp.is_homogeneous(m)


def test_star_even_weights_land_in_even_support():
    f, g = chi, chi**2
    fam = star(f, g, 18)
    assert all(m % 2 == 0 for m in fam.components)
    assembled = psi_assemble(fam, 18)
    assert all(n % 2 == 0 for n in assembled.coeffs)


def test_star_not_homogeneous():
    with pytest.raises(NotHomogeneous):
        star(chi + xi, chi, 10)


def test_alpha_table_basics():
    assert alpha_table(2, 2, 0) == [F(1)]
    tab = alpha_table(2, 2, 4)
    assert tab == [F(1), F(-1, 4), F(1, 15), F(-1, 56), F(1, 210)]
    for k, l in ((1, 1), (1, 2), (3, 2), (4, 5)):
        assert alpha_table(k, l, 0)[0] == 1


def test_alpha_table_symmetry():
    for n in range(1, 5):
        assert alpha_table(2, 2 * n, 4) == alpha_table(2 * n, 2, 4)


def test_alpha_weight0_column():
    assert alpha_weight0(0, 2) == 1
    assert alpha_weight0(1, 2) == F(-1, 2)
    # consistency: a weight-0 scalar stars with a weight-l form through
    # plain multiplication of the lift, so the extraction columns match
    l = 4
    a = spec.scalar(1)
    fam = star(a, chi**2, l + 2 * 4 + 1)
    for j in range(0, 4):
        expect = alpha_weight0(j, l) * rc_bracket(a, chi**2, 0, l, j)
        assert fam.component(l + 2 * j) == expect, j


def test_alpha_table_weight_zero_edges():
    with pytest.raises(EdgeCaseWeightZero):
        alpha_table(0, 3, 2)
    with pytest.raises(EdgeCaseWeightZero):
        alpha_table(2, 0, 2)
    assert alpha_weight0(1, 2) == F(-1, 2)
    with pytest.raises(EdgeCaseWeightZero):
        alpha_weight0(1, 0)


def test_star_via_brackets_agrees():
    cases = [(chi, chi**2), (xi, xi * chi), (xi, chi)]
    for f, g in cases:
        k, l = f.weight(), g.weight()
        n_max = 4
        order = k + l + 2 * n_max + 1
        assert star_via_brackets(f, g, n_max).agree(star(f, g, order), order)


def test_star_antisymmetry_pattern():
    f, g = xi, chi
    k, l = 1, 2
    d = star(f, g, 10)
    e = star(g, f, 10)
    a1 = alpha_table(k, l, 1)[1]
    a1r = alpha_table(l, k, 1)[1]
    lhs = d.component(k + l + 2) - e.component(k + l + 2)
    assert lhs == (a1 + a1r) * rc_bracket(f, g, k, l, 1)


def test_star_families_associative_small():
    A = WeightedFamily(GR, {1: xi})
    B = WeightedFamily(GR, {2: chi})
    C = WeightedFamily(GR, {3: xi * chi})
    order = 14
    lhs = star_families(star_families(A, B, order), C, order)
    rhs = star_families(A, star_families(B, C, order), order)
    assert lhs.agree(rhs, order)
