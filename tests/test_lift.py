import random
from fractions import Fraction as F
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from pdo.action import act_series, slash
from pdo.coeffs import gbinom, lift_coeff
from pdo.errors import (
    NegativeOddWeight,
    NotAUnit,
    NotHomogeneous,
    OrderUnresolvable,
    ParityMismatch,
    ValuationTooLow,
)
from pdo.graded import GradedRingSpec, Generator
from pdo.lift import (
    WeightedFamily,
    closed_pairs,
    equivariance_residual,
    negodd_nonexistence,
    pi_k,
    psi,
    psi_assemble,
    psi_inverse,
    psi_neg_via_xi,
)
from pdo.ratfunc import GMatrix, RatFunc
from pdo import QZ
from pdo.lift import ring_of
from pdo.series import PDSeries, series_mul

z = RatFunc.z()
T = GMatrix(1, 1, 0, 1)
U = GMatrix(1, 0, 1, 1)
W = GMatrix(2, 1, 3, 2)
spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")


def is_zero_series(q: PDSeries) -> bool:
    return not q.coeffs


def test_psi_positive_even_is_x_multiplication():
    f = 1 / (z - 1)
    p2 = psi(2, f, 14)
    xf = series_mul(PDSeries.monomial(QZ, 1, 2, 14), PDSeries.monomial(QZ, f, 0))
    assert p2.agree(xf)


def test_psi_negative_even_polynomial():
    pm2 = psi(-2, z**2)
    assert pm2.is_exact() and pm2.coeffs == {-2: z**2}
    pm4 = psi(-4, 1 / z)
    assert pm4.is_exact()
    assert pm4.coeff(-4) == 1 / z and pm4.coeff(-2) == F(1, 2) * (1 / z).deriv()
    assert pm4.coeff(0).is_zero()


def test_psi_zero_is_constant_embedding():
    p0 = psi(0, 1 / (z + 2))
    assert p0.is_exact() and p0.coeffs == {0: 1 / (z + 2)}


@pytest.mark.parametrize("m", [m for m in range(-8, 13) if m >= 0 or m % 2 == 0])
def test_psi_coefficients_are_lift_coeff(m):
    # psi steps alpha_m(n) by its ratio in n; lift_coeff is the closed product
    f = 1 / (z - 1)
    q = psi(m, f, m + 80) if m > 0 else psi(m, f)
    deriv = f
    for n in range(40):
        assert q.coeff(m + 2 * n) == lift_coeff(m, n) * deriv, (m, n)
        deriv = deriv.deriv()


def test_scalar_input_lifts_over_qz():
    # a plain int or Fraction is a constant of Q(z) when no ring is given
    assert psi(0, 3) == PDSeries(QZ, {0: RatFunc.const(3)})
    assert psi(2, F(1, 2), 6) == PDSeries(QZ, {2: RatFunc.const(F(1, 2))}, 6)
    assert psi_neg_via_xi(1, 3, 1, 4) == PDSeries(QZ, {-1: RatFunc.const(3)}, 4)
    assert ring_of(F(1, 3)) == QZ and ring_of(xi) == GR
    with pytest.raises(TypeError, match="float"):
        psi(0, 1.5)


def test_psi_requires_order_for_positive_weight():
    with pytest.raises(OrderUnresolvable):
        psi(3, z)


def test_psi_negative_odd_raises():
    with pytest.raises(NegativeOddWeight):
        psi(-1, z, 10)
    with pytest.raises(NegativeOddWeight):
        psi(-3, z, 10)


def test_psi_graded_homogeneity_enforced():
    assert psi(2, chi, 10, ring=GR).coeff(2) == chi
    with pytest.raises(NotHomogeneous):
        psi(2, chi + xi, 10, ring=GR)
    # graded coefficients of a lifted homogeneous element sit at their exponent weight
    p = psi(3, xi * chi, 13, ring=GR)
    for n, c in p.coeffs.items():
        assert c.is_homogeneous(n), n


def test_pi_k():
    assert pi_k(psi(3, 1 / z, 12), 3) == 1 / z
    assert pi_k(PDSeries.monomial(QZ, 1, 3), 2).is_zero()
    with pytest.raises(ValuationTooLow):
        pi_k(PDSeries.monomial(QZ, 1, -2), 0)
    # graded projection lands at the right weight
    q = psi(4, chi**2, 12, ring=GR)
    assert pi_k(q, 4).weight() == 4


def test_pi_splits_psi_for_all_admissible_weights():
    f = 1 / (z - 2)
    for m in range(-8, 9):
        if m < 0 and m % 2 != 0:
            continue
        assert pi_k(psi(m, f, abs(m) + 8), m) == f, m


def test_psi_assemble_scalar_family():
    out = psi_assemble(WeightedFamily(QZ, {0: RatFunc.const(1)}))
    assert out.is_exact() and out.coeffs == {0: RatFunc.const(1)}


def test_psi_inverse_examples():
    assert psi_inverse(PDSeries.one(QZ)).components == {0: RatFunc.const(1)}
    fam = psi_inverse(psi(1, 1 / (z - 2), 13))
    assert fam.components == {1: 1 / (z - 2)}
    u = series_mul(PDSeries.monomial(GR, 1, 2, 14), PDSeries.monomial(GR, chi, 0))
    assert psi_inverse(u).components == {2: chi}


def test_psi_round_trips():
    rnd = random.Random(19)
    for _ in range(8):
        coeffs = {
            n: RatFunc((rnd.randint(-3, 3), 1), (rnd.randint(1, 2),))
            for n in range(0, 13)
            if rnd.random() < 0.6
        }
        q = PDSeries(QZ, coeffs, 14)
        fam = psi_inverse(q)
        assert psi_assemble(fam, 14).agree(q)
    fam = WeightedFamily(QZ, {0: RatFunc.const(3), 1: 1 / (z - 2), 4: z})
    assert psi_inverse(psi_assemble(fam, 14)).agree(fam, 14)


def test_psi_inverse_negative_even_start():
    q = psi(-4, 1 / z) + psi(-2, z) + psi(0, z**2)
    fam = psi_inverse(q)
    assert fam.components == {-4: 1 / z, -2: z, 0: z**2}
    assert psi_assemble(fam) == q  # all-polynomial lifts stay exact


def test_psi_inverse_negative_odd_raises():
    with pytest.raises(NegativeOddWeight):
        psi_inverse(PDSeries(QZ, {-3: z}, 8))


def test_psi_neg_via_xi():
    pnk = psi_neg_via_xi(2, xi**-2, xi, 10)
    assert pnk.valuation == -2 and pnk.coeff(-2) == xi**-2
    pn1 = psi_neg_via_xi(1, xi**-1, xi, 9)
    assert pn1.valuation == -1 and pn1.coeff(-1) == xi**-1
    # even case differs from the polynomial lift above leading order
    d = pnk - psi(-2, xi**-2, ring=GR)
    assert d.valuation > -2
    # output is weight-homogeneous (invariant)
    for n, c in pnk.coeffs.items():
        assert c.is_homogeneous(n)
    with pytest.raises(NotAUnit):
        psi_neg_via_xi(1, chi * xi**-3, chi + xi, 8)
    with pytest.raises(NotHomogeneous):
        psi_neg_via_xi(2, chi + xi, xi, 8)
    with pytest.raises(NotHomogeneous):
        psi_neg_via_xi(2, xi**-1, xi, 8)  # weight -1 input for a weight -2 lift


def test_closed_pairs_even():
    fam = WeightedFamily(QZ, {2: 1 / (z - 1), 4: z**2, 6: z})
    h = closed_pairs("even_fwd", fam)
    assert h.component(1) == 1 / (z - 1)
    assert closed_pairs("even_bwd", h).agree(fam, 100)
    # h equals the x-exponent coefficients of the assembled series
    q = psi_assemble(fam, 16)
    for m, hm in h.items():
        assert q.coeff(2 * m) == hm


def test_closed_pairs_odd():
    fam = WeightedFamily(QZ, {1: z, 3: 1 / (z + 1), 5: z**2})
    h = closed_pairs("odd_fwd", fam)
    assert h.component(1) == z
    assert closed_pairs("odd_bwd", h).agree(fam, 100)
    q = psi_assemble(fam, 16)
    for m, hm in h.items():
        assert q.coeff(m) == hm


def test_closed_pairs_parity_checks():
    with pytest.raises(ParityMismatch):
        closed_pairs("odd_fwd", WeightedFamily(QZ, {2: z}))
    with pytest.raises(ParityMismatch):
        closed_pairs("even_fwd", WeightedFamily(QZ, {3: z}))
    # an unknown direction is refused before any parity check
    for comps in ({2: z}, {0: z}):
        with pytest.raises(ValueError):
            closed_pairs("sideways", WeightedFamily(QZ, comps))


# -- the parity-indexed transfer maps against their closed formulas --


def _even_fwd_coeff(m: int, r: int) -> F:
    return (
        F(factorial(m - 1) * factorial(2 * m - 2 * r - 1))
        / (factorial(m - r - 1) * factorial(2 * m - r - 1))
    ) * gbinom(-m + r - 1, r)


def _even_bwd_coeff(n: int, r: int) -> F:
    return (
        F(factorial(n - 1), factorial(2 * n - 2))
        * F(factorial(2 * n - 2 - r), factorial(n - 1 - r))
        * gbinom(n, r)
    )


def _odd_fwd_coeff(m: int, r: int) -> F:
    return (
        F(factorial(2 * m + 1) * factorial(2 * m), factorial(m) ** 2)
        * F((-1) ** r * factorial(m - r) ** 2)
        / (16**r * factorial(r) * factorial(2 * m - 2 * r + 1) * factorial(2 * m - r))
    )


def _odd_bwd_coeff(n: int, r: int) -> F:
    # (2n)!(2n+1)!/((2n-1)! n!^2) * (2n-1-r)!(n-r)!^2/(16^r (2n-2r)! r! (2n-2r+1)!)
    # with the factorial ratio (2n-1-r)!/(2n-1)! kept as a product of ratios so
    # the n = 0 boundary stays finite.
    acc = F(factorial(2 * n) * factorial(2 * n + 1), factorial(n) ** 2)
    acc *= F(factorial(n - r) ** 2)
    acc /= 16**r * factorial(2 * n - 2 * r) * factorial(r) * factorial(2 * n - 2 * r + 1)
    for j in range(r):
        acc /= 2 * n - 1 - j
    return acc


# direction: (coefficient, (a, b) with input index a*s + b,
#             (c, d) with output index c*n + d, least n)
_CLOSED = {
    "even_fwd": (_even_fwd_coeff, (2, 0), (1, 0), 1),
    "even_bwd": (_even_bwd_coeff, (1, 0), (2, 0), 1),
    "odd_fwd": (_odd_fwd_coeff, (2, 1), (2, 1), 0),
    "odd_bwd": (_odd_bwd_coeff, (2, 1), (2, 1), 0),
}


def closed_form_pairs(direction: str, family: WeightedFamily) -> WeightedFamily:
    """closed_pairs by hand-derived factorial formulas, the oracle: output n
    is sum_{lo <= s <= n} coeff(n, n - s) * (input s)^{(n - s)}."""
    coeff, (a, b), (c, d), lo = _CLOSED[direction]
    ring = family.ring
    top = max(((m - b) // a for m in family.components), default=lo - 1)
    out = {}
    for n in range(lo, top + 1):
        parts = ((n - s, family.component(a * s + b)) for s in range(lo, n + 1))
        out[c * n + d] = ring.sum(coeff(n, r) * f.deriv_n(r) for r, f in parts if not f.is_zero())
    return WeightedFamily(ring, out)


def test_closed_formulas_are_lift_coefficients():
    for m in range(1, 8):
        for r in range(m):
            assert _even_fwd_coeff(m, r) == lift_coeff(2 * (m - r), r)
    for m in range(8):
        for r in range(m + 1):
            assert _odd_fwd_coeff(m, r) == lift_coeff(2 * (m - r) + 1, r)


# direction: (input indices, weight of a graded coefficient at index m)
PAIR_INDICES = {
    "even_fwd": (range(2, 11, 2), lambda m: m),
    "even_bwd": (range(1, 6), lambda m: 2 * m),
    "odd_fwd": (range(1, 10, 2), lambda m: m),
    "odd_bwd": (range(1, 10, 2), lambda m: m),
}


@st.composite
def qz_coeffs(draw, weight):
    """Q(z) coefficients, whose weights are formal; poles recur across draws."""
    num = (draw(st.integers(-3, 3)), draw(st.integers(-2, 2)))
    return RatFunc(num, (-draw(st.integers(-2, 2)), 1))


@st.composite
def graded_coeffs(draw, weight):
    """Homogeneous elements of the given weight: sums of products of
    derivatives of chi and xi, brought to the weight by a power of xi."""
    out = spec.zero()
    for c, factors in draw(st.lists(st.tuples(
        st.integers(-3, 3), st.lists(st.tuples(st.sampled_from(["chi", "xi"]), st.integers(0, 2)), max_size=2)
    ), max_size=3)):
        mono = prod((spec.gen(name, j) for name, j in factors), start=spec.one())
        out = out + c * mono * xi ** (weight - mono.weight())
    return out


@pytest.mark.parametrize("ring", [QZ, spec], ids=["qz", "graded"])
@pytest.mark.parametrize("direction", sorted(PAIR_INDICES))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_closed_pairs_equals_the_closed_formulas(direction, ring, data):
    indices, weight = PAIR_INDICES[direction]
    keep = data.draw(st.lists(st.sampled_from(indices), unique=True), "indices")
    draw_coeff = qz_coeffs if ring is QZ else graded_coeffs
    family = WeightedFamily(ring, {m: data.draw(draw_coeff(weight(m)), f"f_{m}") for m in keep})
    got, want = closed_pairs(direction, family), closed_form_pairs(direction, family)
    assert got == want and got.start == want.start


@pytest.mark.parametrize("ring", [QZ, spec], ids=["qz", "graded"])
@pytest.mark.parametrize("direction", sorted(PAIR_INDICES))
def test_closed_pairs_of_the_empty_family(direction, ring):
    empty = WeightedFamily(ring, {})
    got = closed_pairs(direction, empty)
    assert got == closed_form_pairs(direction, empty) == empty and got.start == 0


@pytest.mark.parametrize(
    "direction, comps",
    [("even_fwd", {2: chi, 4: xi}), ("even_bwd", {1: chi, 2: chi}), ("odd_fwd", {1: chi}), ("odd_bwd", {3: xi})],
)
def test_closed_pairs_needs_each_graded_coefficient_at_its_weight(direction, comps):
    # in the graded model the y^j coefficient must have weight j: h_m sits
    # at y^{2m} in the even maps, every other coefficient at y^{index}
    with pytest.raises(NotHomogeneous):
        closed_pairs(direction, WeightedFamily(spec, comps))


def test_equivariance_residual_zero():
    f = 1 / (z - 3) + z**2
    for m in (0, 1, 2, 5, -2, -4):
        for g in (T, U, W):
            res = equivariance_residual(m, f, g, abs(m) + 10)
            assert is_zero_series(res), (m, g)


def test_equivariance_residual_phi_c():
    for m in (-2, -4):
        for c in (F(1, 3), 2, F(-5, 7)):
            res = equivariance_residual(m, 1 / (z - 3), W, abs(m) + 8, c=c)
            assert is_zero_series(res), (m, c)
    with pytest.raises(ValueError):
        equivariance_residual(2, z, W, 10, c=1)


def test_uniqueness_negative_control():
    # perturbing a single lifting coefficient breaks equivariance
    m, n_pert, order = 3, 2, 13
    f = 1 / (z - 2)

    def perturbed(h):
        base = psi(m, h, order)
        bump = PDSeries.monomial(QZ, h.deriv_n(n_pert), m + 2 * n_pert, order)
        return base + bump.scale_left(RatFunc.const(F(1, 7)))

    res = perturbed(slash(f, m, W)) - act_series(perturbed(f), W, order)
    assert not is_zero_series(res)


def test_negodd_nonexistence_reports():
    rep1 = negodd_nonexistence(1, 8)
    assert rep1.ok and rep1.nullity == 1
    rep2 = negodd_nonexistence(2, 12)
    assert rep2.ok
    with pytest.raises(ValueError):
        negodd_nonexistence(0, 8)


def test_negodd_shifted_lift_is_equivariant():
    # the surviving solution psi_{2k+1} o d^{2k} satisfies the equivariance law
    k = 1
    f = 1 / (z**2 + 1)
    order = 12
    for g in (U, W):
        lhs = psi(2 * k + 1, slash(f, -2 * k + 1, g).deriv_n(2 * k), order)
        rhs = act_series(psi(2 * k + 1, f.deriv_n(2 * k), order), g, order)
        assert is_zero_series(lhs - rhs), g


def test_lift_input_checks():
    with pytest.raises(ValueError):
        psi_neg_via_xi(0, xi, xi, 8)
    with pytest.raises(NotHomogeneous):
        psi_neg_via_xi(1, xi**-1, chi, 8)  # a unit, but of weight 2
    for key in (0, -2):
        with pytest.raises(ParityMismatch):
            closed_pairs("even_bwd", WeightedFamily(QZ, {key: z}))


def test_weighted_family_agree_reads_below_upto():
    a, b = WeightedFamily(QZ, {2: z, 4: z}), WeightedFamily(QZ, {2: z, 4: z + 1})
    assert a.agree(b, 4) and not a.agree(b, 5)
    assert not a.agree(WeightedFamily(QZ, {4: z}), 5)
