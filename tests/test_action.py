import copy
import pickle
import random
from fractions import Fraction as F

import pytest

from pdo.action import (
    CocyclePair,
    act_series,
    act_x_inverse_generic,
    act_y_power,
    check_cocycles,
    coboundary_pair,
    kappa_pair,
    modular_pair,
    slash,
)
from pdo.coeffs import omega
from pdo.errors import OrderUnresolvable
from pdo.graded import GradedRingSpec
from pdo.lift import WeightedFamily
from pdo.ratfunc import GMatrix, RatFunc
from pdo import QZ
from pdo.series import PDSeries, series_inverse, series_mul, split_even_odd

z = RatFunc.z()
T = GMatrix(1, 1, 0, 1)
S = GMatrix(0, -1, 1, 0)
U = GMatrix(1, 0, 1, 1)
W = GMatrix(2, 1, 3, 2)


def test_act_y_power_result_is_read_only():
    # results are cached, so a caller must not be able to change them
    got = act_y_power(1, GMatrix(1, 1, 1, 2), 5)
    with pytest.raises(TypeError):
        got.coeffs[1] = RatFunc.const(7)
    for slot in ("ring", "coeffs", "order"):
        with pytest.raises(AttributeError):
            setattr(got, slot, getattr(got, slot))
        with pytest.raises(AttributeError):
            delattr(got, slot)
    again = act_y_power(1, GMatrix(1, 1, 1, 2), 5)
    assert again.order == 5 and again.coeff(1) == 1 / (z + 2)


_spec = GradedRingSpec([("chi", 2, True), ("xi", 1, True)])
_chi, _xi = _spec.gen("chi"), _spec.gen("xi")


@pytest.mark.parametrize(
    "value",
    [
        (z**2 + 3) / (2 * z - 1),
        _chi**-1 * _spec.gen("xi", 1) + F(1, 2),
        GMatrix(1, 1, 1, 2),
        WeightedFamily(_spec, {2: _chi, 3: _chi * _xi - _spec.gen("xi", 1)}),
        act_y_power(1, GMatrix(1, 1, 1, 2), 5),
        PDSeries(_spec, {-1: _xi**-1, 2: _chi * _spec.gen("chi", 2)}),
    ],
    ids=["RatFunc", "GradedElem", "GMatrix", "WeightedFamily", "PDSeries-qz", "PDSeries-graded"],
)
@pytest.mark.parametrize(
    "roundtrip",
    [copy.copy, copy.deepcopy, lambda v: pickle.loads(pickle.dumps(v))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_values_copy_and_pickle(value, roundtrip):
    # immutable values rebuild through a constructor, never by setting slots
    back = roundtrip(value)
    assert type(back) is type(value)
    assert back == value and hash(back) == hash(value)


def test_act_y_power_coefficients_are_immutable():
    # the coefficients of a cached result are shared with every later caller
    c = act_y_power(1, GMatrix(1, 1, 1, 2), 5).coeff(1)
    for slot in ("sc", "nump", "denp"):
        with pytest.raises(AttributeError):
            setattr(c, slot, getattr(c, slot))
        with pytest.raises(AttributeError):
            delattr(c, slot)
    with pytest.raises(AttributeError):
        c.sc = F(9)
    assert act_y_power(1, GMatrix(1, 1, 1, 2), 5).coeff(1) == 1 / (z + 2)


def test_gmatrix_is_immutable():
    # a matrix is an act_y_power cache key, so its entries must not change
    g = GMatrix(1, 1, 1, 2)
    first = act_y_power(1, g, 5)
    h = hash(g)
    for slot in ("a", "b", "c", "d"):
        with pytest.raises(AttributeError):
            setattr(g, slot, F(5))
        with pytest.raises(AttributeError):
            delattr(g, slot)
    assert (g.a, g.b, g.c, g.d) == (1, 1, 1, 2) and hash(g) == h
    assert copy.copy(g) == g and pickle.loads(pickle.dumps(g)) == g
    assert act_y_power(1, g, 5) is first
    with pytest.raises(ValueError):
        GMatrix(1, 1, 1, 5)


def test_slash_examples():
    assert slash(z, 0, T) == z + 1
    assert slash(z, 2, S) == -1 / z**3
    rnd = random.Random(3)
    for _ in range(10):
        f = RatFunc((rnd.randint(-3, 3), 1, rnd.randint(-2, 2)), (rnd.randint(1, 4),))
        k = rnd.randint(-4, 5)
        assert slash(slash(f, k, U), k, W) == slash(f, k, U @ W)


def test_act_y_power_examples():
    a = act_y_power(-2, W)
    assert a.is_exact() and a.coeffs == {-2: W.s() ** 2}
    a0 = act_y_power(0, W)
    assert a0.is_exact() and a0.coeffs == {0: RatFunc.const(1)}
    a1 = act_y_power(1, W, 6)
    s = W.s()
    assert a1.coeff(1) == 1 / s
    assert a1.coeff(3) == F(3, 4) * (1 / s) * (RatFunc.const(3) / s)
    # translation matrices act trivially on powers of y
    for k in (-3, 2, 5):
        at = act_y_power(k, T)
        assert at.is_exact() and at.coeffs == {k: RatFunc.const(1)}


def test_act_y_power_needs_order_when_infinite():
    with pytest.raises(OrderUnresolvable):
        act_y_power(1, W)


def test_act_y_power_matches_omega_schema():
    s = W.s()
    ratio = RatFunc.const(3) / s
    for k in range(-5, 6):
        ser = act_y_power(k, W, 14)
        for u in range(0, (14 - k) // 2 + 1):
            exp = k + 2 * u
            if exp >= 14 and not ser.is_exact():
                continue
            expect = omega(k, u) * s**-k * ratio**u
            assert ser.coeff(exp) == expect, (k, u)


def test_act_series_examples():
    xm1 = PDSeries.monomial(QZ, 1, -2)
    r = act_series(xm1, W)
    assert r.is_exact() and r.coeffs == {-2: W.s() ** 2}
    q = PDSeries(QZ, {-2: 1 / (z - 2), 0: z, 3: z**2}, 10)
    assert act_series(q, GMatrix.identity()).agree(q)
    assert act_series(q, W).valuation == q.valuation


def test_act_series_honours_order():
    # a smaller order= truncates a truncated input, as psi_inverse and
    # series_inverse do; a larger one leaves the input's order in charge
    q = PDSeries(QZ, {-2: 1 / (z - 2), 0: z, 3: z**2, 6: 1 / (z + 1)}, 9)
    for g in (T, U, W):
        got = act_series(q, g, order=5)
        assert got.order == 5
        assert got == act_series(q, g).truncate(5)
        assert act_series(q, g, order=12) == act_series(q, g)


def test_act_series_group_law_and_automorphism():
    rnd = random.Random(7)
    for _ in range(8):
        coeffs = {
            n: RatFunc((rnd.randint(-3, 3), rnd.randint(-2, 2)), (rnd.randint(1, 3), 1))
            for n in range(rnd.randint(-3, 1), 9)
            if rnd.random() < 0.5
        }
        q = PDSeries(QZ, coeffs, 10)
        lhs = act_series(act_series(q, U), W)
        rhs = act_series(q, U @ W)
        assert lhs.agree(rhs)
    p = PDSeries(QZ, {0: z, 1: 1 / (z - 3)}, 9)
    q = PDSeries(QZ, {1: z**2, 2: z}, 9)
    assert act_series(series_mul(p, q), W).agree(
        series_mul(act_series(p, W), act_series(q, W))
    )


def test_act_closed_form_vs_fold():
    # the omega closed form equals repeated products/inverses of the base action
    N = 12
    for g in (U, W):
        base = act_y_power(1, g, N + 8)
        binv = series_inverse(base)
        pos = PDSeries.one(QZ)
        neg = PDSeries.one(QZ)
        for k in range(0, 5):
            assert act_y_power(k, g, N).agree(pos, upto=N), k
            pos = series_mul(pos, base)
        for k in range(0, -5, -1):
            assert act_y_power(k, g, N).agree(neg, upto=N), k
            neg = series_mul(neg, binv)


def test_b_stability():
    rnd = random.Random(17)
    for _ in range(6):
        coeffs = {2 * n: RatFunc((rnd.randint(-3, 3), 1)) for n in range(-2, 4) if rnd.random() < 0.7}
        q = PDSeries(QZ, coeffs, 9)
        out = act_series(q, W)
        assert all(n % 2 == 0 for n in out.coeffs)
    # odd input keeps odd support
    q_odd = PDSeries(QZ, {1: z, 3: 1 / z}, 9)
    assert all(n % 2 == 1 for n in act_series(q_odd, W).coeffs)


def test_sqrt_of_acted_x_is_acted_y():
    # the square root of x.g with leading root (cz+d)^{-1} is exactly y.g
    from pdo.series import series_sqrt

    for g in (U, W):
        xg = series_inverse(act_y_power(-2, g), order=14)
        yg = series_sqrt(xg, g.s() ** -1)
        assert yg.agree(act_y_power(1, g, 12), upto=12), g


def test_acted_y_has_odd_support_only():
    ser = act_y_power(1, W, 15)
    even, odd = split_even_odd(ser)
    assert even.is_zero() and odd.coeffs == ser.coeffs


def test_act_x_inverse_generic():
    e1 = act_x_inverse_generic(U, modular_pair())
    assert e1.is_exact() and e1.coeffs == {-2: (z + 1) ** 2}
    e2 = act_x_inverse_generic(U, kappa_pair(1))
    assert e2.coeffs == {-2: (z + 1) ** 2, 0: (z + 1) ** 2 * (RatFunc.const(2) / (z + 1))}
    for pair in (modular_pair(), kappa_pair(3), coboundary_pair()):
        e = act_x_inverse_generic(GMatrix.identity(), pair)
        assert e.coeffs == {-2: RatFunc.const(1)}


def test_coboundary_pair_moves_coefficient_right():
    # x^{-1}.g = p x^{-1} - d(p) should equal x^{-1} p
    for g in (U, W, S):
        img = act_x_inverse_generic(g, coboundary_pair())
        p = g.s() ** 2
        direct = series_mul(
            PDSeries.monomial(QZ, 1, -2), PDSeries.monomial(QZ, p, 0)
        )
        assert img == direct, g


def test_check_cocycles():
    gens = [T, S]
    assert check_cocycles(modular_pair(), gens, 3).ok
    assert check_cocycles(coboundary_pair(), gens, 3).ok
    for kappa in (1, F(1, 2), -3):
        assert check_cocycles(kappa_pair(kappa), gens, 3).ok
    bad = CocyclePair(lambda g: RatFunc.const(1), lambda g: RatFunc.const(g.c), "bad")
    rep = check_cocycles(bad, gens, 3)
    assert not rep.ok and rep.violation is not None


def test_check_cocycles_depth_validation():
    with pytest.raises(ValueError):
        check_cocycles(modular_pair(), [T], 0)


def test_coboundary_r_is_change_of_variable():
    # for r_g = p_g^{-1}(f.g) - f the shifted generator x^{-1} - f transforms
    # exactly like the r = 0 extension: (x^{-1} - f).g = p_g (x^{-1} - f)
    from pdo.ratfunc import mobius_compose

    f = z**2 / (z - 1)

    def r(g: GMatrix) -> RatFunc:
        return (g.s() ** 2).inverse() * mobius_compose(f, g) - f

    pair = CocyclePair(lambda g: g.s() ** 2, r, "coboundary-of-f")
    assert check_cocycles(pair, [T, S], 3).ok
    for g in (U, W, S):
        p = g.s() ** 2
        lhs = act_x_inverse_generic(g, pair) - PDSeries.monomial(QZ, mobius_compose(f, g), 0)
        rhs = PDSeries(QZ, {-2: p, 0: -p * f}, None)
        assert lhs == rhs, g
