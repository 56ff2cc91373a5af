"""Acceptance criteria: exact property and oracle verification at desk scale.

Every comparison is exact (tolerance zero).  Each criterion prints one
pass line; run with `pytest tests/test_acceptance.py -s` to see them.
"""

import random
from fractions import Fraction as F
from math import factorial

from pdo.action import (
    act_y_power,
    check_cocycles,
    coboundary_pair,
    kappa_pair,
    modular_pair,
    slash,
)
from pdo.coeffs import compositions, gamma_tuple, omega
from pdo.graded import GradedRingSpec, Generator
from pdo.invariants import decompose_even, g_forms, u_power
from pdo.lift import (
    WeightedFamily,
    closed_pairs,
    equivariance_residual,
    negodd_nonexistence,
    psi_assemble,
    psi_inverse,
)
from pdo.rankin import alpha_table, rc_bracket, star_families
from pdo.ratfunc import GMatrix, RatFunc
from pdo import QZ
from pdo.series import PDSeries, series_inverse, series_mul
from pdo.verify import run_suite, slash_derivative_expansion

z = RatFunc.z()
T = GMatrix(1, 1, 0, 1)
U = GMatrix(1, 0, 1, 1)
W = GMatrix(2, 1, 3, 2)
MATRICES = [T, U, W]

spec = GradedRingSpec([Generator("chi", 2, True), Generator("xi", 1, True)])
GR = spec
chi = spec.gen("chi")
xi = spec.gen("xi")


def _ok(n: int, label: str) -> None:
    print(f"[acceptance {n:02d}] {label}: pass")


def rand_rational(rnd: random.Random) -> RatFunc:
    num = [F(rnd.randint(-4, 4)) for _ in range(rnd.randint(2, 4))]
    if not any(num):
        num[0] = F(1)
    den = [F(rnd.randint(1, 3)), F(rnd.choice([0, 1, 2]))]
    return RatFunc(num, den)


def rand_homogeneous(rnd: random.Random, weight: int):
    j1, j2 = rnd.randint(0, 2), rnd.randint(0, 1)
    base = spec.gen("chi", j1) * spec.gen("xi", j2)
    w0 = base.weight()
    return F(rnd.randint(-3, 3) or 1) * base * xi ** (weight - w0)


def test_criterion_01_rho_suite():
    rep = run_suite("RHO", umax=40)
    assert rep.ok, rep.line()
    _ok(1, "rho double sum telescopes to u! for u <= 40")


def test_criterion_02_omega_cross_check():
    N = 16
    for g in MATRICES:
        base = act_y_power(1, g, N + 8)
        binv = series_inverse(base)
        pos = PDSeries.one(QZ)
        for k in range(0, 7):
            assert act_y_power(k, g, N).agree(pos, upto=N), (g, k)
            pos = series_mul(pos, base)
        neg = PDSeries.one(QZ)
        for k in range(0, -7, -1):
            assert act_y_power(k, g, N).agree(neg, upto=N), (g, k)
            neg = series_mul(neg, binv)
    # the four displayed expansion laws are instances of the omega schema
    from pdo.coeffs import gbinom

    for k in range(0, 7):
        for u in range(0, 13):
            assert omega(2 * k, u) == factorial(u) * gbinom(k + u - 1, u) * gbinom(k + u, u)
            assert omega(-2 * k, u) == factorial(u) * gbinom(k, u) * gbinom(k - 1, u)
            assert omega(2 * k + 1, u) == F(
                factorial(k + 1) * factorial(k), factorial(2 * k + 2) * factorial(2 * k)
            ) * F(
                factorial(2 * k + 2 * u) * factorial(2 * k + 2 * u + 2),
                16**u * factorial(u) * factorial(k + u) * factorial(k + u + 1),
            )
    for k in range(1, 7):
        pref = F(factorial(2 * k) * factorial(2 * k - 2), factorial(k) * factorial(k - 1))
        for j in range(0, 13):
            if j <= k - 1:
                expect = pref * F(
                    factorial(k - j) * factorial(k - 1 - j),
                    16**j * factorial(j) * factorial(2 * k - 2 * j) * factorial(2 * k - 2 - 2 * j),
                )
            else:
                u = j - k
                expect = -pref * F(
                    factorial(2 * u) * factorial(2 * u + 2),
                    factorial(u) * factorial(u + 1) * 16 ** (u + k) * factorial(u + k),
                )
            assert omega(-2 * k + 1, j) == expect, (k, j)
    _ok(2, "action on y^k equals fold construction (k in [-6,6], 3 matrices, order 16)")


def test_criterion_03_group_law():
    rep = run_suite("GROUPLAW", cases=20, order=12)
    assert rep.ok, rep.line()
    _ok(3, "action group law and automorphism property on 20 random series")


def test_criterion_04_equivariance():
    rnd = random.Random(2024)
    fs = [rand_rational(rnd) for _ in range(5)]
    weights = list(range(0, 9)) + [-2, -4, -6]
    for m in weights:
        order = m + 16
        for f in fs:
            for g in MATRICES:
                res = equivariance_residual(m, f, g, order)
                assert not res.coeffs, (m, f, g)
    for m in (-2, -4):
        for c in (F(5, 3), F(-1, 7), 4):
            for g in MATRICES:
                res = equivariance_residual(m, fs[0], g, m + 16, c=c)
                assert not res.coeffs, (m, c, g)
    _ok(4, "equivariance residuals vanish (m in 0..8 and -2,-4,-6; deformed lifts included)")


def test_criterion_05_transfer_round_trip():
    rnd = random.Random(99)
    order = 14
    for _ in range(10):
        coeffs = {}
        for j in range(rnd.randint(0, 2), order):
            if rnd.random() < 0.4:
                continue
            coeffs[j] = rand_homogeneous(rnd, j)
        q = PDSeries(GR, coeffs, order)
        fam = psi_inverse(q)
        assert psi_assemble(fam, order).agree(q), "graded assemble(inverse) != id"
        assert psi_inverse(psi_assemble(fam, order)).agree(fam, order)
    for _ in range(10):
        coeffs = {}
        for j in range(rnd.randint(0, 3), order):
            if rnd.random() < 0.4:
                continue
            coeffs[j] = rand_rational(rnd)
        q = PDSeries(QZ, coeffs, order)
        fam = psi_inverse(q)
        assert psi_assemble(fam, order).agree(q), "rational assemble(inverse) != id"
        assert psi_inverse(psi_assemble(fam, order)).agree(fam, order)
    _ok(5, "transfer map and valuation peeling are mutually inverse at order 14")


def test_criterion_06_alpha_tables():
    for k in range(1, 9):
        for l in range(1, 9):
            assert alpha_table(k, l, 0) == [F(1)], (k, l)
    for n in range(1, 7):
        assert alpha_table(2, 2 * n, 6) == alpha_table(2 * n, 2, 6), n
    # bracket proportionality is enforced inside every extraction above;
    # star associativity via the transfer product
    for weights in ((1, 2, 3), (2, 2, 2)):
        gens = [xi, chi, xi * chi]
        picks = {1: xi, 2: chi, 3: xi * chi}
        a, b, c = (picks[w] for w in weights)
        order = sum(weights) + 10 + 1
        A = WeightedFamily(GR, {weights[0]: a})
        B = WeightedFamily(GR, {weights[1]: b})
        C = WeightedFamily(GR, {weights[2]: c})
        lhs = star_families(star_families(A, B, order), C, order)
        rhs = star_families(A, star_families(B, C, order), order)
        assert lhs.agree(rhs, order), weights
    _ok(6, "alpha tables: unit leading column, symmetry, proportionality, associativity")


def test_criterion_07_closed_pairs():
    rnd = random.Random(7)
    even = WeightedFamily(QZ, {2 * n: rand_rational(rnd) for n in range(1, 9)})
    h = closed_pairs("even_fwd", even)
    assert closed_pairs("even_bwd", h).agree(even, 17)
    q = psi_assemble(even, 18)
    for m, hm in h.items():
        if m <= 8:
            assert q.coeff(2 * m) == hm, m
    odd = WeightedFamily(QZ, {2 * n + 1: rand_rational(rnd) for n in range(0, 8)})
    ho = closed_pairs("odd_fwd", odd)
    assert closed_pairs("odd_bwd", ho).agree(odd, 17)
    qo = psi_assemble(odd, 18)
    for m, hm in ho.items():
        if m <= 15:
            assert qo.coeff(m) == hm, m
    _ok(7, "even/odd closed coefficient pairs invert each other and match peeling (weight <= 16)")


def test_criterion_08_g_forms():
    for k in range(0, 7):
        gt = g_forms(k, k + 2, GR)
        assert gt[2 * k] == chi**k, k
    for k in range(0, 6):
        gt = g_forms(k, k + 5, GR)
        for i in (1, 3, 5):
            assert gt[2 * (k + i)].is_zero(), (k, i)
    for k in range(2, 7):
        gt = g_forms(k, k + 2, GR)
        pref = F(factorial(k + 2), 72 * (2 * k + 1) * factorial(k - 2))
        assert gt[2 * k + 4] == pref * chi ** (k - 2) * rc_bracket(chi, chi, 2, 2, 2), k
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
    for k in range(2, 5):
        for i in range(0, 5):
            for t in compositions(i, k):
                assert gamma_tuple(k, i, t, "A1") == gamma_tuple(k, i, t, "A2"), (k, i, t)
    rnd = random.Random(88)
    for _ in range(10):
        alist = []
        for _k in range(rnd.randint(1, 3)):
            j = rnd.randint(0, 1)
            alist.append(F(rnd.randint(-3, 3)) * spec.gen("chi", j) * chi ** -(j + 1))
        if all(x.is_zero() for x in alist):
            alist[0] = spec.one()
        q = PDSeries.zero(GR, 12)
        for kk, ak in enumerate(alist):
            q = q + u_power(kk, 12, GR).scale_left(ak)
        assert decompose_even(alist, 12, GR).agree(psi_inverse(q, 12), 12)
    _ok(8, "g-form tables, closed forms, tuple-coefficient identity, decomposition oracle")


def test_criterion_09_bol_and_derivative_slash():
    rnd = random.Random(31)
    fs = [rand_rational(rnd) for _ in range(5)]
    for h in range(1, 6):
        for f in fs:
            for g in MATRICES:
                assert slash(f, 2 - h, g).deriv_n(h - 1) == slash(f.deriv_n(h - 1), h, g), (h, g)
    for n in range(-4, 5):
        for m in range(0, 5):
            for f in fs[:2]:
                for g in (U, W):
                    assert slash_derivative_expansion(f, n, m, g) == slash(f, n, g).deriv_n(m), (n, m)
    _ok(9, "Bol identity (h <= 5) and slash-derivative expansions (m <= 4, |n| <= 4) exact")


def test_criterion_10_negative_odd_nonexistence():
    for k in (1, 2):
        rep = negodd_nonexistence(k, 2 * k + 6)
        assert rep.nullity == 1, rep
        assert rep.forced_zero_prefix, rep
        assert rep.matches_shifted_lift, rep
    _ok(10, "negative odd weight: unit leading term forced to zero; solution is the shifted lift")


def test_criterion_11_wz_certificates():
    for name in ("WZ1", "WZ2", "WZ3", "WZ4"):
        rep = run_suite(name, pmax=12)
        assert rep.ok, rep.line()
    _ok(11, "telescoping certificates WZ1-WZ4 hold for parameters up to 12")


def test_criterion_12_cocycle_suite():
    gens = [T, GMatrix(0, -1, 1, 0)]
    assert check_cocycles(modular_pair(), gens, 3).ok
    assert check_cocycles(coboundary_pair(), gens, 3).ok
    for kappa in (1, F(1, 2), -3):
        assert check_cocycles(kappa_pair(kappa), gens, 3).ok, kappa
    _ok(12, "cocycle laws hold to word depth 3 for the modular, coboundary and scaled pairs")
