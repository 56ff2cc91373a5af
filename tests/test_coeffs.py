from fractions import Fraction as F
from itertools import islice
from math import comb, factorial

import pytest
from hypothesis import given, settings, strategies as st

from pdo.coeffs import (
    comm_coeff_b,
    comm_coeff_c,
    gamma_tuple,
    gbinom,
    lift_coeff,
    omega,
    rho,
    compositions,
)
from pdo.errors import EdgeCaseA1, NegativeOddWeight


def test_gbinom_matches_comb_for_nonnegative():
    for a in range(0, 8):
        for b in range(0, 10):
            assert gbinom(a, b) == comb(a, b)


def test_gbinom_negative_upper():
    assert gbinom(-1, 1) == -1
    assert gbinom(-2, 3) == -4
    assert gbinom(-1, -1) == 0


def test_comm_coeff_c_examples():
    assert comm_coeff_c(1, 2) == F(3, 2)
    assert comm_coeff_c(-2, 1) == -2
    assert comm_coeff_c(0, 3) == 0


def test_comm_coeff_c_terminates_for_nonpositive_even():
    for i in (-6, -4, -2, 0):
        for u in range(-i // 2 + 1, -i // 2 + 5):
            assert comm_coeff_c(i, u) == 0
        assert comm_coeff_c(i, -i // 2) != 0 or i == 0


def test_comm_coeff_b_examples():
    assert comm_coeff_b(-1, 1) == -1
    assert comm_coeff_b(2, 1) == 2
    for m in range(-6, 7):
        assert comm_coeff_b(m, 0) == 1


@settings(max_examples=200, deadline=None)
@given(st.integers(-10, 10), st.integers(-10, 10), st.integers(0, 20))
def test_commutation_convolution(i, j, u):
    # c_{i+j}(u) = sum_{a+b=u} c_i(a) c_j(b): associativity of y^i y^j f
    lhs = comm_coeff_c(i + j, u)
    rhs = sum(comm_coeff_c(i, a) * comm_coeff_c(j, u - a) for a in range(u + 1))
    assert lhs == rhs


@settings(max_examples=150, deadline=None)
@given(st.integers(-10, 10), st.integers(0, 20))
def test_b_is_even_specialisation(m, u):
    assert comm_coeff_b(m, u) == comm_coeff_c(2 * m, u) / 2**u


def test_omega_examples():
    assert omega(1, 1) == F(3, 4)
    assert omega(-2, 1) == 0
    assert omega(2, 2) == 6  # u! C(k+u-1,u) C(k+u,u) at k=1, u=2
    assert omega(0, 1) == 0
    for k in range(-8, 9):
        assert omega(k, 0) == 1


def test_omega_even_closed_forms():
    # positive even: omega_{2k}(u) = u! C(k+u-1,u) C(k+u,u)
    for k in range(1, 6):
        for u in range(0, 6):
            expect = factorial(u) * comb(k + u - 1, u) * comb(k + u, u)
            assert omega(2 * k, u) == expect
    # negative even: omega_{-2k}(u) = u! C(k,u) C(k-1,u), zero past u = k-1
    for k in range(1, 6):
        for u in range(0, 2 * k + 2):
            expect = factorial(u) * comb(k, u) * comb(k - 1, u)
            assert omega(-2 * k, u) == expect


def test_rho_values():
    assert rho(1) == 1
    assert rho(2) == F(3, 4)
    assert rho(3) == F(45, 32)
    with pytest.raises(ValueError):
        rho(0)


def test_rho_matches_odd_omega():
    # the odd-power action at k = 1 has coefficients rho_{u+1}
    for u in range(0, 8):
        assert omega(1, u) == rho(u + 1)


def test_lift_coeff_examples():
    assert lift_coeff(1, 1) == F(-3, 4)
    assert lift_coeff(3, 1) == F(-5, 4)
    assert lift_coeff(0, 2) == 0
    assert lift_coeff(0, 0) == 1


def test_lift_coeff_odd_closed_form():
    # alpha_{2k+1}(n) = (-1)^n/16^n k!^2/(2k+1)! (2k+2n+1)!(2k+2n)!/(n!(2k+n)!(k+n)!^2)
    for k in range(0, 5):
        for n in range(0, 8):
            expect = (
                F((-1) ** n, 16**n)
                * F(factorial(k) ** 2, factorial(2 * k + 1))
                * F(
                    factorial(2 * k + 2 * n + 1) * factorial(2 * k + 2 * n),
                    factorial(n) * factorial(2 * k + n) * factorial(k + n) ** 2,
                )
            )
            assert lift_coeff(2 * k + 1, n) == expect, (k, n)


def test_lift_coeff_even_closed_form():
    # x-side coefficients: psi_{2k}(f) = sum (2k-1)!(n+k-1)!/((n+2k-1)!(k-1)!) C(-k-1,n) f^(n) x^(k+n)
    for k in range(1, 6):
        for n in range(0, 8):
            expect = (
                F(factorial(2 * k - 1) * factorial(n + k - 1), factorial(n + 2 * k - 1) * factorial(k - 1))
                * gbinom(-k - 1, n)
            )
            assert lift_coeff(2 * k, n) == expect, (k, n)


def test_lift_coeff_negative_even():
    # alpha_{-2k}(n) = k!(2k-n)!/((k-n)!(2k)!) C(k-1,n), vanishing from n = k
    for k in range(1, 6):
        for n in range(0, k):
            expect = F(factorial(k) * factorial(2 * k - n), factorial(k - n) * factorial(2 * k)) * comb(k - 1, n)
            assert lift_coeff(-2 * k, n) == expect
        for n in range(k, 2 * k + 3):
            assert lift_coeff(-2 * k, n) == 0


def test_lift_coeff_positive_recurrence():
    for m in range(0, 9):
        for n in range(1, 9):
            lhs = lift_coeff(m, n) * 4 * n * (m + n - 1)
            rhs = -lift_coeff(m, n - 1) * (m + 2 * n - 2) * (m + 2 * n)
            assert lhs == rhs, (m, n)


def test_lift_coeff_negative_odd_raises():
    for m in (-1, -3, -5):
        with pytest.raises(NegativeOddWeight):
            lift_coeff(m, 0)


def test_gamma_tuple_examples():
    for k in range(1, 6):
        t = (0,) * k
        assert gamma_tuple(k, 0, t, "A2") == F(factorial(2 * k - 2), factorial(k - 1))
    assert gamma_tuple(1, 1, (1,), "A2") == 0
    assert gamma_tuple(2, 1, (1, 0), "A2") == 0
    assert gamma_tuple(2, 1, (0, 1), "A2") == 0


def test_gamma_tuple_methods_agree():
    for k in range(2, 5):
        for i in range(0, 5):
            for t in compositions(i, k):
                assert gamma_tuple(k, i, t, "A1") == gamma_tuple(k, i, t, "A2"), (k, i, t)


def test_gamma_tuple_a1_edge_case():
    with pytest.raises(EdgeCaseA1):
        gamma_tuple(1, 0, (0,), "A1")


def test_gamma_tuple_validates_input():
    with pytest.raises(ValueError):
        gamma_tuple(2, 1, (1, 1), "A2")
    with pytest.raises(ValueError):
        gamma_tuple(2, 1, (1,), "A2")


def recursive_compositions(total, parts):
    """The former recursive enumeration, kept as the oracle for the order."""
    if parts == 0:
        if total == 0:
            yield ()
        return
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def test_compositions_match_recursive_oracle():
    for total in range(-1, 7):
        for parts in range(0, 6):
            assert list(compositions(total, parts)) == list(recursive_compositions(total, parts)), (total, parts)


def test_compositions_have_no_depth_limit():
    # one recursion level per part overflowed the stack at a few thousand parts
    assert list(compositions(0, 5000)) == [(0,) * 5000]
    first, second = islice(compositions(1, 3000), 2)
    assert first == (0,) * 2999 + (1,) and second == (0,) * 2998 + (1, 0)
