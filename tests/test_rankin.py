import copy
import random
from fractions import Fraction as F
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from pdo import rankin
from pdo.errors import EdgeCaseWeightZero, NotHomogeneous, OrderUnresolvable, RingMismatch
from pdo.coeffs import comm_coeff_c, gbinom
from pdo.graded import GradedRingSpec, Generator
from pdo.lift import WeightedFamily, psi, psi_assemble, psi_inverse, ring_of
from pdo.series import series_mul
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


def summed_bracket(f, g, k, l, n):
    """[f, g]_n as a ``ring.sum`` of the formed products f^(j) g^(n-j)."""
    return ring_of(f).sum(
        (-1) ** j * gbinom(k + n - 1, n - j) * gbinom(l + n - 1, j) * (f.deriv_n(j) * g.deriv_n(n - j))
        for j in range(n + 1)
    )


@pytest.mark.parametrize(
    "f,g,k,l",
    [
        (z, z, 1, 1),
        (1 / (z**2 + 1), z**3 - 2 * z, 2, 0),
        ((z - 1) / (z + 2), 1 / (z - 3), -2, 3),
        (chi, chi, 2, 2),
        (xi * chi, chi**2 * xi**-1, 3, 3),
        (spec.gen("chi", 1) * chi**-2, xi**2 * chi**-1, 0, 0),
        (xi, chi**3 + xi**6, 1, 6),
    ],
)
def test_bracket_is_the_summed_products(f, g, k, l):
    for n in range(6):
        assert rc_bracket(f, g, k, l, n) == summed_bracket(f, g, k, l, n), n


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


@pytest.mark.parametrize(
    "k,l,n_max,error",
    [
        # negative weights first, then a negative n_max, then the weight-0 edges
        (-1, 0, 2, ValueError),
        (0, -2, 1, ValueError),
        (-1, 3, -1, ValueError),
        (2, 2, -1, ValueError),
        (0, 3, -1, ValueError),
        (0, 0, -1, ValueError),
        (0, 3, 2, EdgeCaseWeightZero),
        (2, 0, 0, EdgeCaseWeightZero),
    ],
)
def test_alpha_table_checks_its_inputs_in_order(k, l, n_max, error):
    with pytest.raises(error) as ei:
        alpha_table(k, l, n_max)
    assert type(ei.value) is error


def extracted_alpha_table(k, l, n_max):
    """alpha_n(k, l) read off the star product of free generators: the F*G^(n)
    coefficient of component k + l + 2n over that of [F, G]_n, with the whole
    component required to be that multiple of the bracket."""
    order = k + l + 2 * n_max + 1
    fam = rankin._free_star(k, l, order)
    F, G = fam.ring.gen("F"), fam.ring.gen("G")
    out = []
    for n in range(n_max + 1):
        comp, bracket = fam.component(k + l + 2 * n), rc_bracket(F, G, k, l, n)
        mono = ((0, 0, 1), (1, n, 1))
        a = comp.coefficient(mono) / bracket.coefficient(mono)
        assert comp == a * bracket, (k, l, n)
        out.append(a)
    return out


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 7), st.integers(1, 7), st.integers(0, 12))
def test_alpha_table_equals_the_free_generator_extraction(k, l, n_max):
    assert alpha_table(k, l, n_max) == extracted_alpha_table(k, l, n_max)


@pytest.mark.parametrize("k,l,n_max", [(2, 2, 32), (1, 3, 24)])
def test_alpha_table_at_the_benchmark_sizes(k, l, n_max):
    assert alpha_table(k, l, n_max) == extracted_alpha_table(k, l, n_max)


def test_alpha_table_forms_no_series(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("alpha_table formed a series")

    for name in ("series_mul", "psi_inverse", "_free_star"):
        monkeypatch.setattr(rankin, name, refuse)
    assert alpha_table(2, 2, 6) == [F((-1) ** n, comb(2 * n + 2, n)) for n in range(7)]
    assert alpha_table(1, 3, 3) == [F(1), F(-1, 4), F(43, 640), F(-65, 3584)]


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


def direct_star(f, g, order):
    """The lift-multiply-peel route: psi_inverse(psi_k(f) . psi_l(g)) on the
    inputs themselves, with the checks of ``star``."""
    ring = f.spec
    k = rankin._weight(f)
    l = rankin._weight(g)
    if k < 0 or l < 0:
        raise NotHomogeneous("star is defined at nonnegative weights")
    lifted = series_mul(psi(k, f, order, ring=ring), psi(l, g, order, ring=ring))
    return psi_inverse(lifted, order)


# h has no inverse, so it enters with positive exponents only
spec3 = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True), Generator("h", 3)])
xi3 = spec3.gen("xi")
BLOCKS = (
    spec3.one(), spec3.gen("chi"), spec3.gen("chi") ** -1, spec3.gen("chi", 1),
    spec3.gen("h"), spec3.gen("h", 1), spec3.gen("h") * spec3.gen("chi", 2), spec3.gen("xi", 1) ** 2,
)


@st.composite
def homogeneous(draw, weight):
    """A nonzero sum of one to three terms c * X * xi^e of the given weight."""
    terms = []
    for _ in range(draw(st.integers(1, 3))):
        block = draw(st.sampled_from(BLOCKS))
        c = F(draw(st.integers(-3, 3).filter(bool)), draw(st.integers(1, 3)))
        terms.append(c * block * xi3 ** (weight - block.weight()))
    e = spec3.sum(terms)
    return e if not e.is_zero() else xi3**weight


@settings(max_examples=60, deadline=None)
@given(st.data(), st.integers(0, 4), st.integers(0, 4), st.integers(1, 15))
def test_star_equals_the_lift_multiply_peel_route(data, k, l, order):
    f = data.draw(homogeneous(k))
    g = data.draw(homogeneous(l))
    assert star(f, g, order) == direct_star(f, g, order)


@settings(max_examples=20, deadline=None)
@given(homogeneous(0), homogeneous(0))
def test_star_of_weight_zero_inputs_is_exact(f, g):
    assert star(f, g, None) == direct_star(f, g, None) == WeightedFamily(spec3, {0: f * g})


def _outcome(route, *args):
    try:
        return route(*args)
    except Exception as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "f,g,order,error",
    [
        (spec.zero(), chi, 9, NotHomogeneous),
        (chi, spec.zero(), 9, NotHomogeneous),
        (chi + xi, chi, 9, NotHomogeneous),
        (chi, chi + xi, 9, NotHomogeneous),
        (chi**-1, chi, 9, NotHomogeneous),
        (chi, xi**-3, 9, NotHomogeneous),
        (chi, spec3.gen("h"), 9, RingMismatch),
        (spec.scalar(2), spec3.scalar(3), None, RingMismatch),
        (xi, chi, None, OrderUnresolvable),
    ],
)
def test_star_raises_what_the_lift_route_raises(f, g, order, error):
    got = _outcome(star, f, g, order)
    assert got[0] is error and got == _outcome(direct_star, f, g, order)


def test_star_multiplies_series_over_the_free_ring_only(monkeypatch):
    seen = []
    real_mul, real_peel = rankin.series_mul, rankin.psi_inverse

    def mul(p, q):
        seen.extend((p.ring, q.ring))
        return real_mul(p, q)

    def peel(q, order=None):
        seen.append(q.ring)
        return real_peel(q, order)

    monkeypatch.setattr(rankin, "series_mul", mul)
    monkeypatch.setattr(rankin, "psi_inverse", peel)
    f, g = xi * chi + xi**3, xi + chi * xi**-1
    assert star(f, g, 13) == direct_star(f, g, 13)
    assert seen and set(seen) == {GradedRingSpec([Generator("F", 3), Generator("G", 1)])}


def test_commutation_factor_is_the_former_step_rule():
    # alpha_table's s_k(u) was the running product of -(k+2u-2)/(2u)
    for k in range(1, 9):
        s = F(1)
        for u in range(41):
            s *= F(-(k + 2 * u - 2), 2 * u) if u else 1
            assert s == comm_coeff_c(k, u) * F(-1, 2) ** u, (k, u)


def test_rc_bracket_negative_index():
    with pytest.raises(ValueError):
        rc_bracket(chi, chi, 2, 2, -1)
