from fractions import Fraction

import pytest

from pdo.ratfunc import GMatrix, RatFunc, mobius_compose
from pdo.verify import _default_fs, run_suite, slash_derivative_expansion, SUITES
from pdo.action import slash

z = RatFunc.z()


@pytest.mark.parametrize(
    "name,params",
    [
        ("RHO", dict(umax=15)),
        ("ODDPROD", dict(mmax=8, smax=8)),
        ("WZ1", dict(pmax=8)),
        ("WZ2", dict(pmax=8)),
        ("WZ3", dict(pmax=6)),
        ("WZ4", dict(pmax=6)),
        ("BOL", dict(hmax=4)),
        ("RECUNEG", dict(kmax=3, jmax=6)),
        ("COMMLAW", dict(imax=5, order=12)),
        ("GROUPLAW", dict(cases=4)),
        ("ALPHAKU", dict(umax=8, kmax=4)),
    ],
)
def test_suites_pass(name, params):
    rep = run_suite(name, **params)
    assert rep.ok, rep.line()
    assert rep.checked > 0
    assert name in rep.line()


def test_unknown_suite():
    with pytest.raises(ValueError):
        run_suite("NOPE")


def test_suite_names_exported():
    assert set(SUITES) == {
        "RHO", "ODDPROD", "WZ1", "WZ2", "WZ3", "WZ4",
        "BOL", "RECUNEG", "COMMLAW", "GROUPLAW", "ALPHAKU",
    }


def test_slash_derivative_expansion_positive_weights():
    # the expansion reproduces actual derivatives of the slashed function
    fs = [1 / (z**2 + 1), z**3 - 2 * z, (z - 1) / (z + 2)]
    gs = [GMatrix(1, 0, 1, 1), GMatrix(2, 1, 3, 2)]
    for n in range(1, 5):
        for m in range(0, 5):
            for f in fs:
                for g in gs:
                    direct = slash(f, n, g).deriv_n(m)
                    assert slash_derivative_expansion(f, n, m, g) == direct, (n, m)


def test_slash_derivative_expansion_nonpositive_weights():
    fs = [1 / (z**2 + 1), z**2 + 3]
    gs = [GMatrix(1, 0, 1, 1), GMatrix(2, 1, 3, 2)]
    for n in range(-4, 1):
        for m in range(0, 5):
            for f in fs:
                for g in gs:
                    direct = slash(f, n, g).deriv_n(m)
                    assert slash_derivative_expansion(f, n, m, g) == direct, (n, m)


def test_alternating_factorial_form_matches():
    # for n >= 1 the binomial expansion agrees with the alternating form
    from fractions import Fraction
    from math import factorial

    f = 1 / (z - 4)
    g = GMatrix(2, 1, 3, 2)
    s = g.s()
    for n in range(1, 5):
        for m in range(0, 5):
            acc = RatFunc.const(0)
            fr = f
            for r in range(m + 1):
                coef = Fraction(
                    (-1) ** (m - r) * factorial(m) * factorial(m + n - 1),
                    factorial(r) * factorial(m - r) * factorial(n - 1 + r),
                )
                acc = acc + coef * s ** (-(n + 2 * r)) * (RatFunc.const(g.c) / s) ** (m - r) * mobius_compose(fr, g)
                fr = fr.deriv()
            assert acc == slash(f, n, g).deriv_n(m), (n, m)


def test_slash_derivative_expansion_default_functions():
    # every default function, c = 0 and c != 0, rational entries, weights of both signs
    gs = [
        GMatrix(1, 1, 0, 1),
        GMatrix(1, 0, 1, 1),
        GMatrix(2, 1, 3, 2),
        GMatrix(Fraction(1, 2), Fraction(1, 3), Fraction(3, 2), 3),
    ]
    checked = 0
    for f in _default_fs():
        for g in gs:
            for n in range(-3, 4):
                for m in range(0, 4):
                    assert slash_derivative_expansion(f, n, m, g) == slash(f, n, g).deriv_n(m), (f, g, n, m)
                    checked += 1
    assert checked == 5 * 4 * 7 * 4
