import random
import time
from fractions import Fraction as F
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from pdo import invariants, lift, series
from pdo.coeffs import compositions, gamma_tuple, gbinom
from pdo.errors import NotAUnit, NotHomogeneous, NotInvariant
from pdo.graded import GradedElem, GradedRingSpec, Generator
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
from pdo.rankin import alpha_weight0, rc_bracket
from pdo.ratfunc import QZ, RatFunc
from pdo.series import PDSeries, series_inverse, series_mul

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")
# the weight-2 unit is not generator 0, and another generator is not a unit
CHI_LAST = GradedRingSpec([Generator("xi", 1, True), Generator("f", 4, False), Generator("chi", 2, True)])
NO_CHI = GradedRingSpec([Generator("xi", 1, True), Generator("f", 4, False)])


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
    for k in range(1, 7):
        gt = g_forms(k, k + 10, GR)
        for i in range(0, 11):
            assert g_closed(k, i, GR) == gt[2 * (k + i)], (k, i)
    assert g_closed(3, 0, GR) == chi**3


def peeled_g_forms(k: int, n_max: int, ring: GradedRingSpec) -> dict[int, GradedElem]:
    """The g_{k, 2n} (k <= n <= n_max) peeled from u^k by psi_inverse."""
    order = 2 * n_max + 1
    fam = psi_inverse(u_power(k, order, ring), order)
    return {2 * n: fam.component(2 * n) for n in range(k, n_max + 1)}


@settings(max_examples=40, deadline=None)
@given(
    ring=st.sampled_from([GR, CHI_LAST]),
    k_n=st.integers(1, 6).flatmap(lambda k: st.tuples(st.just(k), st.integers(0, k + 12))),
)
def test_g_forms_equals_the_peel_of_u_k(ring, k_n):
    k, n_max = k_n
    got = g_forms(k, n_max, ring)
    assert got == peeled_g_forms(k, n_max, ring)
    assert list(got) == list(range(2 * k, 2 * n_max + 1, 2))


@pytest.mark.parametrize("k,n_max", [(3, 22), (10, 22), (2, 25)])
def test_g_forms_at_the_benchmark_sizes(k, n_max):
    assert g_forms(k, n_max, GR) == peeled_g_forms(k, n_max, GR)


def test_g_forms_edges_and_the_order_of_its_errors():
    # a negative k is refused before the ring is searched for its weight-2 unit
    for ring in (GR, NO_CHI):
        for k, n_max in ((-1, 4), (-3, -1), (-1, 0)):
            with pytest.raises(ValueError, match="k must be >= 0"):
                g_forms(k, n_max, ring)
    # then the unit is needed, even for tables that come out empty or trivial
    for k, n_max in ((0, 3), (0, -1), (2, 1), (3, 5)):
        with pytest.raises(NotAUnit):
            g_forms(k, n_max, NO_CHI)
    with pytest.raises(NotAUnit):
        decompose_even([NO_CHI.zero()], 5, NO_CHI)
    zero, one = GR.zero(), GR.one()
    assert g_forms(0, 3, GR) == {0: one, 2: zero, 4: zero, 6: zero}
    assert g_forms(0, 0, GR) == {0: one}
    assert g_forms(0, -1, GR) == {}
    for k in range(1, 5):
        for n_max in (-2, 0, k - 1):
            assert g_forms(k, n_max, GR) == {}, (k, n_max)
    # zero entries stay, odd offsets included
    gt = g_forms(3, 9, CHI_LAST)
    assert list(gt) == [6, 8, 10, 12, 14, 16, 18]
    assert gt[6] == CHI_LAST.gen("chi") ** 3
    assert all(gt[w].is_zero() for w in (8, 12, 16)) and not any(gt[w].is_zero() for w in (10, 14, 18))


def test_g_forms_and_decompose_even_form_no_power_of_u(monkeypatch):
    def refuse(name):
        def call(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return call

    for module, name in ((invariants, "series_mul"), (series, "series_mul"), (lift, "psi_inverse"),
                         (invariants, "u_power"), (invariants, "_u_powers")):
        monkeypatch.setattr(module, name, refuse(name))
    monkeypatch.setattr(invariants, "psi_inverse", refuse("psi_inverse"), raising=False)
    with monkeypatch.context() as m:
        # each entry is built from its numerators, with no product of elements
        m.setattr(GradedRingSpec, "dot", refuse("dot"))
        gt = g_forms(3, 22, GR)
    assert gt[6] == chi**3 and len(gt) == 20
    assert len(decompose_even(benchmark_shaped_a(3), 23, GR).components) == 12


def composition_g_closed(k: int, i: int, ring: GradedRingSpec) -> GradedElem:
    """g_{k,2k+2i} summed over every composition t of i into k parts:

        (-1)^i ((k+i)!(k+i-1)!/((2k+2i-2)! k!)) sum_t gamma_i(t) prod_j chi^(t_j)/(t_j+1)!."""
    c = find_unit_generator(ring, 2)
    total = ring.sum(
        gamma_tuple(k, i, t, "A2") * prod(F(1, factorial(tj + 1)) * c.deriv_n(tj) for tj in t)
        for t in compositions(i, k)
    )
    pref = F((-1) ** i * factorial(k + i) * factorial(k + i - 1), factorial(2 * k + 2 * i - 2) * factorial(k))
    return pref * total


def test_g_closed_matches_composition_sum():
    # one term per partition, weighted by its orderings, against one per composition
    for k in range(1, 6):
        for i in range(0, 9 - k):
            assert g_closed(k, i, GR) == composition_g_closed(k, i, GR), (k, i)


@pytest.mark.parametrize("k,i", [(3, -1), (1, -1), (2, -3)])
def test_g_closed_rejects_negative_i(k, i):
    with pytest.raises(ValueError, match="i must be >= 0"):
        g_closed(k, i, GR)


def test_g_closed_at_k6_i12_is_fast():
    # the composition sum took 36 s here; the partition sum has 58 terms
    start = time.perf_counter()
    g = g_closed(6, 12, GR)
    assert time.perf_counter() - start < 1.0
    assert g.is_homogeneous(2 * (6 + 12))


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
    """decompose_even with one rc_bracket per term, on the g-tables peeled
    from each u^k."""
    m_max = (order - 1) // 2
    gtabs = {k: peeled_g_forms(k, m_max, ring) for k in range(len(a)) if not a[k].is_zero()}
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


def benchmark_shaped_a(seed: int) -> list[GradedElem]:
    """Four weight-0 a_k = +-1 +- chi' chi^-2 +- xi^2 chi^-1, signs by seed."""
    rnd = random.Random(seed)
    shapes = (spec.one(), spec.gen("chi", 1) * chi**-2, xi**2 * chi**-1)
    return [sum((rnd.choice((-1, 1)) * m for m in shapes), spec.zero()) for _ in range(4)]


def test_decompose_even_fused_brackets_match_one_bracket_per_term():
    for order in range(1, 26):
        a = benchmark_shaped_a(order)
        assert decompose_even(a, order, GR) == per_k_decompose_even(a, order, GR), order


def test_decompose_even_derives_each_element_once(monkeypatch):
    calls = []
    real = GradedElem.deriv
    monkeypatch.setattr(GradedElem, "deriv", lambda self: calls.append(1) or real(self))
    a, order = benchmark_shaped_a(3), 23
    m_max = (order - 1) // 2
    gtabs = {k: g_forms(k, m_max, GR) for k in range(len(a))}
    calls.clear()
    decompose_even(a, order, GR)
    # the g-tables take no derivative; the bracket sums take one chain per
    # a_k, to its (m_max - max(k,1))-th derivative, and one per nonzero
    # g_{k,2n}, to its (m_max-n-1)-th; one rc_bracket per (k, n, m) made 440
    # deriv calls here
    chains = sum(m_max - max(k, 1) for k in gtabs) + sum(
        max(m_max - n - 1, 0)
        for k, gtab in gtabs.items()
        for n in range(max(k, 1), m_max + 1)
        if not gtab[2 * n].is_zero()
    )
    assert len(calls) == chains == 82


def test_decompose_even_examples():
    fam = decompose_even([spec.zero(), spec.one()], 12, GR)
    assert fam.component(2) == chi
    assert all(fam.component(m).is_zero() for m in (1, 3, 4, 5, 6) if m != 2)
    fam2 = decompose_even([spec.one()], 12, GR)
    assert fam2.components == {0: spec.one()}


def test_decompose_even_pair_scale_is_alpha_weight0():
    # the scale of [a_k, g_{k,2n}]_{m-n} in f_{2m}, written out from factorials
    for m in range(1, 30):
        pref = F((-1) ** m * factorial(m - 1), factorial(2 * m - 2))
        for n in range(1, m + 1):
            c = F((-1) ** n * factorial(2 * n - 1) * factorial(m - n), factorial(n - 1) * (m + n - 1))
            assert alpha_weight0(m - n, 2 * n) == pref * c * gbinom(m, m - n), (m, n)


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
    for order in (10, 1, 0):
        with pytest.raises(NotAUnit):
            v_uniformizer(order, chi_only)


@pytest.mark.parametrize("order", [0, 1, 2, 3])
def test_v_uniformizer_at_low_order_is_the_truncation(order):
    # known to O(y^N) with N <= 1, v = xi y + ... is the zero series
    v = v_uniformizer(order, GR)
    assert v == v_uniformizer(12, GR).truncate(order) and v.order == order


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


def inverse_rewrite_in_u(q: PDSeries, order: int | None = None) -> list:
    """rewrite_in_u by right-multiplying with the inverse of u after each
    peeled coefficient, with u kept a unit by working to order 3 at least."""
    bound = q.order if order is None else min(q.order, order)
    uinv = series_inverse(u_power(1, max(bound, 3), q.ring))
    out, current = [], q.truncate(bound)
    while 2 * len(out) < bound:
        out.append(current.coeff(0))
        current = series_mul(current - PDSeries.monomial(q.ring, out[-1], 0), uinv)
        if current.is_zero():
            break
    while out and out[-1].is_zero():
        out.pop()
    return out or [q.ring.zero()]


def seeded_u_sum(seed: int, order: int) -> PDSeries:
    """sum_k a_k u^k with four weight-0 a_k = +-1 +- chi' chi^-2 +- xi^2 chi^-1."""
    rnd = random.Random(seed)
    shapes = (spec.one(), spec.gen("chi", 1) * chi**-2, xi**2 * chi**-1)
    a = [sum((rnd.choice((-1, 1)) * m for m in shapes), spec.zero()) for _ in range(4)]
    return PDSeries.sum(GR, [u_power(k, order, GR).scale_left(ak) for k, ak in enumerate(a)], order)


def test_rewrite_in_u_matches_inverse_route():
    for order in range(1, 26):
        q = seeded_u_sum(order, order)
        assert rewrite_in_u(q) == inverse_rewrite_in_u(q), order
        for n in {1, 2, order // 2, order - 1} - {0}:
            assert rewrite_in_u(q.truncate(n)) == inverse_rewrite_in_u(q.truncate(n)), (order, n)
            assert rewrite_in_u(q, order=n) == inverse_rewrite_in_u(q, order=n), (order, n)
    for order in (3, 8, 13):
        q = psi(2, chi, order, ring=GR)
        assert rewrite_in_u(q) == inverse_rewrite_in_u(q), order
    for k in range(0, 5):
        for order in (1, 2, 5, 9, 14, 21):
            q = u_power(k, order, GR)
            if not q.is_exact():
                assert rewrite_in_u(q) == inverse_rewrite_in_u(q), (k, order)


def test_rewrite_in_u_never_inverts_u(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("series_inverse called")

    monkeypatch.setattr("pdo.series.series_inverse", refuse)
    monkeypatch.setattr("pdo.invariants.series_inverse", refuse, raising=False)
    q = seeded_u_sum(3, 23)
    assert len(rewrite_in_u(q)) == 4
    # known only to O(y^2): u is not a unit at that order, and none is needed
    assert rewrite_in_u(PDSeries(GR, {0: spec.one()}, 2)) == [spec.one()]


@pytest.mark.parametrize("k", range(1, 6))
def test_u_power_takes_k_minus_1_products(monkeypatch, k):
    calls = []

    def counting(p, q):
        calls.append(1)
        return series_mul(p, q)

    monkeypatch.setattr("pdo.invariants.series_mul", counting)
    assert u_power(k, 2 * k + 9, GR) == closed_u_power(k, 2 * k + 9, GR)
    assert len(calls) == k - 1
    calls.clear()
    # decompose_even reads its g-tables off their closed formula
    decompose_even([spec.one()] * k, 9, GR)
    assert not calls


def test_powers_of_u_stop_at_the_order_their_caller_reads(monkeypatch):
    seen = []
    real = invariants._u_powers

    def spy(*args):
        return (seen.append(p) or p for p in real(*args))

    monkeypatch.setattr(invariants, "_u_powers", spy)
    q = seeded_u_sum(3, 23)
    for order, bound in ((None, 23), (15, 15)):
        seen.clear()
        assert len(rewrite_in_u(q, order=order)) == 4
        assert len(seen) == 4 and all(p.order is None or p.order <= bound for p in seen)
    a = rewrite_in_u(q)
    seen.clear()
    decompose_even(a, 13, GR)
    assert not seen


def test_rewrite_in_u_needs_finite_order():
    from pdo.errors import OrderUnresolvable

    with pytest.raises(OrderUnresolvable):
        rewrite_in_u(PDSeries.one(GR))


def test_rewrite_in_u_needs_a_graded_ring():
    with pytest.raises(NotInvariant):
        rewrite_in_u(PDSeries(QZ, {0: RatFunc.const(1)}, 4))
