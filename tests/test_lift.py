import random
from fractions import Fraction as F

import pytest

from pdo.action import act_series, slash
from pdo.coeffs import lift_coeff
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
    with pytest.raises(ValueError):
        closed_pairs("sideways", WeightedFamily(QZ, {2: z}))


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
