import random
from fractions import Fraction as F
from math import factorial

import pytest

from pdo.coeffs import compositions, gamma_tuple, gbinom
from pdo.errors import NotAUnit, NotHomogeneous, NotInvariant
from pdo.graded import GradedRingSpec, Generator
from pdo.invariants import (
    decompose_even,
    find_unit_generator,
    g_closed,
    g_forms,
    is_invariant,
    rewrite_in_u,
    u_power,
    v_uniformizer,
    weight0_derivation,
)
from pdo.lift import WeightedFamily, psi, psi_inverse
from pdo.rankin import rc_bracket
from pdo.series import PDSeries, series_inverse, series_mul

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")


def test_find_unit_generator():
    assert find_unit_generator(spec, 2) == chi
    assert find_unit_generator(spec, 1) == xi
    with pytest.raises(NotAUnit):
        find_unit_generator(spec, 3)


def closed_u_power(k: int, order: int, ring: GradedRingSpec) -> PDSeries:
    """(x*chi)^k by the closed multinomial expansion, truncated at `order`:

        u^k = sum_n (-1)^n ((k+n)!/k!)
              sum_{s_1+...+s_k=n} prod_j chi^(s_j)/(s_j+1)!  *  x^{k+n},

    one product per composition of n into k parts."""
    c = find_unit_generator(ring, 2)
    if k == 0:
        return PDSeries.one(ring)
    out = {}
    n = 0
    while 2 * (k + n) < order:
        terms = []
        for s in compositions(n, k):
            term = ring.one()
            for sj in s:
                term = term * F(1, factorial(sj + 1)) * c.deriv_n(sj)
            terms.append(term)
        out[2 * (k + n)] = F((-1) ** n * factorial(k + n), factorial(k)) * ring.sum(terms)
        n += 1
    return PDSeries(ring, out, order)


def test_u_power_matches_closed_formula():
    # structural equality, order included, down to orders below the valuation
    for k in range(0, 7):
        for order in range(0, 26):
            assert u_power(k, order, GR) == closed_u_power(k, order, GR), (k, order)
    u1 = u_power(1, 20, GR)
    x_chi = series_mul(PDSeries.monomial(GR, 1, 2, 20), PDSeries.monomial(GR, chi, 0))
    assert u1 == x_chi
    for n in range(0, 8):
        assert u1.coeff(2 + 2 * n) == (-1) ** n * chi.deriv_n(n)
    assert u_power(0, 10, GR).coeffs == {0: spec.one()}


def test_u_is_invariant():
    assert is_invariant(u_power(2, 14, GR))


def test_g_forms_leading_and_odd_vanishing():
    for k in range(0, 6):
        gt = g_forms(k, k + 3, GR)
        assert gt[2 * k] == chi**k
        if k >= 1:
            assert gt[2 * k + 2].is_zero()
            assert gt[2 * k + 6].is_zero()


def test_g_forms_first_closed_form():
    for k in range(2, 7):
        gt = g_forms(k, k + 2, GR)
        pref = F(factorial(k + 2), 72 * (2 * k + 1) * factorial(k - 2))
        assert gt[2 * k + 4] == pref * chi ** (k - 2) * rc_bracket(chi, chi, 2, 2, 2)
    gt2 = g_forms(2, 4, GR)
    assert gt2[8] == F(1, 15) * rc_bracket(chi, chi, 2, 2, 2)


def test_g_offset8_closed_form_corrected_prefactor():
    # Three independent routes (valuation peel, tuple closed form, explicit
    # backward conversion) pin the offset-8 form; the prefactor carries
    # (k+3)!(k+4)!.  A factorial-shift variant with (k+4)!(k+5)! is exactly
    # (k+4)(k+5) too large, kept below as a negative control.
    for k in (4, 5, 6):
        gt = g_forms(k, k + 4, GR)
        inner = (
            F(1, 16920) * rc_bracket(chi, chi**3, 2, 6, 4)
            + F(47 * k * k - 187 * k + 282, 121824 * k) * rc_bracket(chi, chi, 2, 2, 2) ** 2
        )
        pref = 2 * F(
            factorial(2 * k + 1) * factorial(k + 3) * factorial(k + 4),
            factorial(2 * k + 6) * factorial(k - 1) * factorial(k - 2),
        )
        assert gt[2 * k + 8] == pref * chi ** (k - 4) * inner, k
        shifted = pref * (k + 4) * (k + 5) * chi ** (k - 4) * inner
        assert gt[2 * k + 8] != shifted, k


def test_g_closed_matches_g_forms():
    for k in range(1, 6):
        gt = g_forms(k, k + 6, GR)
        for i in range(0, 7):
            assert g_closed(k, i, GR) == gt[2 * (k + i)], (k, i)
    assert g_closed(3, 0, GR) == chi**3


def test_u_power_leading_coefficient():
    assert u_power(2, 10, GR).coeff(4) == chi**2


def test_gamma_methods_agree_on_acceptance_range():
    for k in range(2, 5):
        for i in range(0, 5):
            for t in compositions(i, k):
                assert gamma_tuple(k, i, t, "A1") == gamma_tuple(k, i, t, "A2")


def test_decompose_even_against_oracle():
    rnd = random.Random(43)
    for _ in range(6):
        alist = []
        for k in range(rnd.randint(1, 3)):
            j = rnd.randint(0, 1)
            alist.append(F(rnd.randint(-3, 3)) * spec.gen("chi", j) * chi ** -(j + 1))
        if all(x.is_zero() for x in alist):
            alist[0] = spec.one()
        q = PDSeries.zero(GR, 12)
        for k, ak in enumerate(alist):
            q = q + u_power(k, 12, GR).scale_left(ak)
        direct = decompose_even(alist, 12, GR)
        oracle = psi_inverse(q, 12)
        assert direct.agree(oracle, 12)


def per_k_decompose_even(a, order, ring):
    """decompose_even with one g_forms call, and so one u^k, per k."""
    m_max = (order - 1) // 2
    gtabs = {k: g_forms(k, m_max, ring) for k in range(len(a)) if not a[k].is_zero()}
    comps = {0: a[0]} if a and not a[0].is_zero() else {}
    for m in range(1, m_max + 1):
        acc = ring.sum(
            F((-1) ** n * factorial(2 * n - 1) * factorial(m - n), factorial(n - 1) * (m + n - 1))
            * gbinom(m, m - n)
            * rc_bracket(a[k], g, 0, 2 * n, m - n)
            for k, gtab in gtabs.items()
            for n in range(max(k, 1), m + 1)
            if not (g := gtab.get(2 * n, ring.zero())).is_zero()
        )
        comps[2 * m] = F((-1) ** m * factorial(m - 1), factorial(2 * m - 2)) * acc
    return WeightedFamily(ring, comps)


def test_decompose_even_chain_matches_per_k_g_forms():
    w0 = [spec.one(), spec.gen("chi", 1) * chi**-2, spec.gen("xi") ** 2 * chi**-1, spec.zero()]
    for a in ([w0[0]], [w0[3], w0[1]], w0, [w0[2], w0[3], w0[3], w0[1], w0[0]]):
        for order in (1, 2, 7, 12, 13):
            assert decompose_even(a, order, GR) == per_k_decompose_even(a, order, GR), (len(a), order)


def test_decompose_even_examples():
    fam = decompose_even([spec.zero(), spec.one()], 12, GR)
    assert fam.component(2) == chi
    assert all(fam.component(m).is_zero() for m in (1, 3, 4, 5, 6) if m != 2)
    fam2 = decompose_even([spec.one()], 12, GR)
    assert fam2.components == {0: spec.one()}


def test_decompose_even_rejects_inhomogeneous():
    with pytest.raises(NotHomogeneous):
        decompose_even([chi], 10, GR)


def test_rewrite_in_u_examples():
    assert rewrite_in_u(PDSeries.one(GR).truncate(12)) == [spec.one()]
    r3 = rewrite_in_u(u_power(3, 14, GR))
    assert r3 == [spec.zero()] * 3 + [spec.one()]
    r = rewrite_in_u(psi(2, chi, 12, ring=GR))
    assert r == [spec.zero(), spec.one()]


def test_rewrite_in_u_honours_order():
    # the smaller of the input's order and order= bounds the peeling, as in
    # psi_inverse
    a = [spec.one(), spec.gen("chi", 1) * chi**-2, spec.gen("xi") ** 2 * chi**-1]
    q = PDSeries.sum(GR, [u_power(k, 9, GR).scale_left(ak) for k, ak in enumerate(a)], 9)
    assert rewrite_in_u(q) == a
    assert len(rewrite_in_u(q, order=2)) == 1
    for n in range(1, 12):
        assert rewrite_in_u(q, order=n) == rewrite_in_u(q.truncate(n)), n


def test_rewrite_in_u_commutation_pattern():
    # u a = sum_n D^n(a) u^{n+1} for weight-0 a, D = -chi^{-1} d/dz
    a = spec.gen("chi", 1) * chi**-2
    ua = series_mul(u_power(1, 12, GR), PDSeries.monomial(GR, a, 0))
    out = rewrite_in_u(ua)
    assert out[0].is_zero()
    expect = a
    for k in range(1, len(out)):
        assert out[k] == expect, k
        expect = weight0_derivation(expect, chi)


def test_weight0_derivation_stability():
    a = spec.gen("chi", 1) * chi**-2
    assert a.is_homogeneous(0)
    d = weight0_derivation(a)
    assert d.is_homogeneous(0)


def test_rewrite_in_u_rejects_non_invariant():
    bad = PDSeries(GR, {2: xi}, 10)  # weight 1 coefficient at exponent 2
    with pytest.raises(NotInvariant):
        rewrite_in_u(bad)
    odd = PDSeries(GR, {1: xi}, 10)
    with pytest.raises(NotInvariant):
        rewrite_in_u(odd)


def test_v_uniformizer():
    v = v_uniformizer(12, GR)
    assert v.coeff(1) == xi
    v2 = series_mul(v, v)
    target = series_mul(
        PDSeries.monomial(GR, 1, 2, 13), PDSeries.monomial(GR, xi * xi, 0)
    )
    assert v2.agree(target, 12)
    # first correction term of the square's expansion: 2 delta(xi^2) at y^4
    assert target.coeff(4) == -2 * xi * spec.gen("xi", 1)
    assert is_invariant(v)
    # odd support only
    assert all(n % 2 == 1 for n in v.coeffs)


def test_v_uniformizer_needs_xi():
    chi_only = GradedRingSpec([Generator("chi", 2, True)])
    with pytest.raises(NotAUnit):
        v_uniformizer(10, chi_only)


def test_odd_lift_square_expands_in_u_algebra():
    # With xi the invertible weight-1 generator and u = x xi^2, the square of
    # the odd lift z = psi_1(xi) inverts into the u-algebra as
    #   z^{-2} = u^{-1} - (5/64)[xi,xi]_2 xi^{-6} u - (5/64)[xi,xi^2]_3 xi^{-9} u^2 + ...
    # exercising the lift, the noncommutative square, inversion and peeling
    # together.
    xi_spec = GradedRingSpec([Generator("xi", 1, True)])
    ring = xi_spec
    xi1 = xi_spec.gen("xi")
    N = 16
    z1 = psi(1, xi1, N, ring=ring)
    z2_inv = series_inverse(series_mul(z1, z1))
    u = series_mul(PDSeries.monomial(ring, 1, 2, N), PDSeries.monomial(ring, xi1 * xi1, 0))
    u_inv = series_inverse(u)
    d = z2_inv - u_inv
    assert d.valuation == 2 and all(n % 2 == 0 for n in d.coeffs)
    cur = d
    peeled = []
    for _ in range(4):
        a = cur.coeff(0)
        peeled.append(a)
        cur = series_mul(cur - PDSeries.monomial(ring, a, 0), u_inv)
    assert peeled[0].is_zero()
    assert peeled[1] == F(-5, 64) * rc_bracket(xi1, xi1, 1, 1, 2) * xi1.inverse() ** 6
    assert peeled[2] == F(-5, 64) * rc_bracket(xi1, xi1 * xi1, 1, 2, 3) * xi1.inverse() ** 9


def test_g_table_star_recursion():
    # each level of the g-tower arises from starring the previous one with
    # the weight-2 unit: g_{k+1,2r} = sum_n alpha_{r-n-1}(2n,2) [g_{k,2n}, chi]_{r-n-1}
    from pdo.rankin import alpha_table

    for k in (1, 2):
        n_hi = k + 4
        gk = g_forms(k, n_hi, GR)
        gk1 = g_forms(k + 1, n_hi + 1, GR)
        for r in range(k + 1, n_hi + 2):
            acc = GR.zero()
            for n in range(k, min(n_hi, r - 1) + 1):
                m = r - n - 1
                g = gk.get(2 * n, GR.zero())
                if g.is_zero():
                    continue
                acc = acc + alpha_table(2 * n, 2, m)[m] * rc_bracket(g, chi, 2 * n, 2, m)
            assert acc == gk1.get(2 * r, GR.zero()), (k, r)


def test_rewrite_in_u_needs_finite_order():
    from pdo.errors import OrderUnresolvable

    with pytest.raises(OrderUnresolvable):
        rewrite_in_u(PDSeries.one(GR))
