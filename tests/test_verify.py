from fractions import Fraction
from math import factorial

import pytest

from pdo import rankin, verify
from pdo.coeffs import lift_coeff, recip_factorial, rho
from pdo.ratfunc import GMatrix, RatFunc, mobius_compose
from pdo.verify import _default_fs, run_suite, slash_derivative_expansion, SUITES
from pdo.action import act_series, act_y_power, slash
from pdo.lift import WeightedFamily
from pdo.series import deriv_n, series_mul

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
        ("STAR", dict(kmax=3, jmax=10)),
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
        "BOL", "RECUNEG", "COMMLAW", "GROUPLAW", "ALPHAKU", "STAR",
    }


# (ranges, checked) at the low and high corners of the benchmark's verify mix,
# recorded before every suite went through one runner: a drift here would
# change the CLI's JSON, and with it the benchmark digests
CORNERS = [
    ("RHO", {"umax": 4}, "1 <= u <= 4", 4),
    ("RHO", {"umax": 8}, "1 <= u <= 8", 8),
    ("ODDPROD", {"mmax": 2, "smax": 2}, "0 <= m <= 2, 1 <= s <= 2", 6),
    ("ODDPROD", {"mmax": 4, "smax": 4}, "0 <= m <= 4, 1 <= s <= 4", 20),
    ("WZ1", {"pmax": 2}, "1 <= m <= i <= u <= 2", 4),
    ("WZ1", {"pmax": 4}, "1 <= m <= i <= u <= 4", 20),
    ("WZ2", {"pmax": 2}, "1 <= m <= u <= 2", 3),
    ("WZ2", {"pmax": 4}, "1 <= m <= u <= 4", 10),
    ("WZ3", {"pmax": 2}, "1 <= k,s <= 2, 0 <= r <= s", 28),
    ("WZ3", {"pmax": 4}, "1 <= k,s <= 4, 0 <= r <= s", 192),
    ("WZ4", {"pmax": 2}, "1 <= k,s <= 2, 0 <= r <= s", 14),
    ("WZ4", {"pmax": 4}, "1 <= k,s <= 4, 0 <= r <= s", 72),
    ("BOL", {"hmax": 1}, "1 <= h <= 1, 5 functions, 3 matrices", 15),
    ("BOL", {"hmax": 2}, "1 <= h <= 2, 5 functions, 3 matrices", 30),
    ("RECUNEG", {"kmax": 1, "jmax": 2}, "0 <= k <= 1, 0 <= j <= 2", 6),
    ("RECUNEG", {"kmax": 2, "jmax": 3}, "0 <= k <= 2, 0 <= j <= 3", 12),
    ("COMMLAW", {"imax": 1, "order": 6}, "-1 <= i <= 1, order 6", 3),
    ("COMMLAW", {"imax": 2, "order": 6}, "-2 <= i <= 2, order 6", 5),
    ("GROUPLAW", {"cases": 1, "order": 6, "seed": 0}, "1 random series, order 6", 2),
    ("GROUPLAW", {"cases": 2, "order": 6, "seed": 99}, "2 random series, order 6", 4),
    ("ALPHAKU", {"umax": 2, "kmax": 1}, "0 <= n <= u <= 2, 0 <= k <= 1", 12),
    ("ALPHAKU", {"umax": 3, "kmax": 2}, "0 <= n <= u <= 3, 0 <= k <= 2", 30),
]


@pytest.mark.parametrize("name,params,ranges,checked", CORNERS)
def test_passing_reports_are_pinned(name, params, ranges, checked):
    assert SUITES[name](**params) == (name, True, ranges, checked, None)


@pytest.mark.parametrize(
    "name,params",
    [
        ("RHO", dict(umax=0)),
        ("ODDPROD", dict(smax=0)),
        ("WZ1", dict(pmax=0)),
        ("WZ2", dict(pmax=0)),
        ("WZ3", dict(pmax=0)),
        ("WZ4", dict(pmax=0)),
        ("BOL", dict(hmax=0)),
        ("GROUPLAW", dict(cases=0)),
        ("STAR", dict(kmax=0)),
    ],
)
def test_empty_range_fails_when_called_directly(name, params):
    # not only through run_suite: the exported table holds the same rule
    rep = SUITES[name](**params)
    assert not rep and rep.checked == 0
    assert "nothing was checked" in rep.counterexample
    assert rep == run_suite(name, **params)


# one name per suite, patched so that its identity breaks, and the label the
# first failing case starts with
BREAKS = [
    ("RHO", dict(umax=4), "rho", lambda u: 2 * rho(u), "u="),
    ("ODDPROD", dict(mmax=2, smax=2), "factorial", lambda n: factorial(n) + 1, "(m,s)="),
    ("WZ1", dict(pmax=3), "recip_factorial", lambda n: recip_factorial(n) * (n + 1), "(u,m,i)="),
    ("WZ2", dict(pmax=3), "recip_factorial", lambda n: recip_factorial(n) * (n + 1), "(u,m)="),
    ("WZ3", dict(pmax=2), "recip_factorial", lambda n: recip_factorial(n) * (n + 1), "(k,s,r,j)="),
    ("WZ4", dict(pmax=2), "recip_factorial", lambda n: recip_factorial(n) * (n + 1), "(k,s,r)="),
    ("BOL", dict(hmax=2), "slash", lambda f, n, g: slash(f, n + 1, g), "h="),
    ("RECUNEG", dict(kmax=1, jmax=2), "act_y_power", lambda n, g, order: act_y_power(n, g, order).scale_left(n), "(k,j)="),
    ("COMMLAW", dict(imax=1, order=6), "series_mul", lambda p, q: series_mul(q, p), "i="),
    ("GROUPLAW", dict(cases=2, order=6), "act_series", lambda q, g: act_series(q, g) + q, "case "),
    ("ALPHAKU", dict(umax=2, kmax=1), "lift_coeff", lambda m, n: lift_coeff(m, n) * (n + 1), "(k,u,n)="),
]


@pytest.mark.parametrize("name,params,target,broken,label", BREAKS)
def test_failed_report_keeps_ranges_and_names_the_case(monkeypatch, name, params, target, broken, label):
    good = SUITES[name](**params)
    assert good.ok
    monkeypatch.setattr(verify, target, broken)
    bad = SUITES[name](**params)
    assert not bad and bad.name == name and 1 <= bad.checked <= good.checked
    assert bad.ranges == good.ranges
    assert bad.counterexample.startswith(label) and " != " in bad.counterexample
    assert bad == run_suite(name, **params)


@pytest.mark.parametrize(
    "name,params,target,broken",
    [
        ("COMMLAW", dict(imax=2), "series_mul", lambda p, q: series_mul(q, p)),
        ("GROUPLAW", dict(cases=1, order=12), "act_series", lambda q, g: act_series(q, g) + q),
    ],
)
def test_series_counterexample_names_the_first_differing_exponent(monkeypatch, name, params, target, broken):
    sides = []

    def first_mismatch(suite, ranges, cases):
        cases = list(cases)
        sides.append(next((lhs, rhs) for _, lhs, rhs in cases if lhs != rhs))
        return run(suite, ranges, cases)

    run = verify._run
    monkeypatch.setattr(verify, target, broken)
    monkeypatch.setattr(verify, "_run", first_mismatch)
    bad = SUITES[name](**params)
    (lhs, rhs), = sides
    label, _, pair = bad.counterexample.partition(": ")
    n = int(label.rpartition(", y^")[2])
    assert lhs.coeff(n) != rhs.coeff(n) and lhs.agree(rhs, n)
    assert pair == f"{lhs.coeff(n)} != {rhs.coeff(n)}"
    assert len(bad.counterexample) < len(str(lhs))


def test_star_passes_at_its_default_range():
    assert run_suite("STAR") == ("STAR", True, "1 <= k,l <= 6, 0 <= n <= 8", 36 * 9, None)


def _star_off(real, k, l, order):
    fam = real(k, l, order)
    F, G = fam.ring.gen("F"), fam.ring.gen("G")
    comps = dict(fam.components)
    comps[k + l + 2] = comps[k + l + 2] + F * G.deriv()  # the offset-1 component, F*G' term changed
    return WeightedFamily(fam.ring, comps)


# the star product of free generators, or the bracket it is compared with,
# broken at weights (2, 3) only, which `at` slices out of the arguments
@pytest.mark.parametrize(
    "target,at,broken,jmax,offset",
    [
        pytest.param("rc_bracket", slice(2, 4), lambda real, f, g, k, l, n: 0 * real(f, g, k, l, n), 4, 0,
                     id="bracket-zero"),
        pytest.param("rc_bracket", slice(2, 4), lambda real, f, g, k, l, n: real(f, g, k, l, n) + f * f.deriv(), 4, 0,
                     id="bracket-off"),
        pytest.param("_free_star", slice(0, 2), _star_off, 2, 1, id="star-off"),
    ],
)
def test_star_failure_names_the_weights_offset_and_order(monkeypatch, target, at, broken, jmax, offset):
    good = run_suite("STAR", kmax=3, jmax=jmax)
    assert good.ok and good.checked == 9 * (jmax + 1)
    real = getattr(rankin, target)
    monkeypatch.setattr(rankin, target, lambda *args: broken(real, *args) if args[at] == (2, 3) else real(*args))
    bad = SUITES["STAR"](kmax=3, jmax=jmax)
    assert not bad and bad.ranges == good.ranges
    # (1, 1) to (2, 2) pass, then (2, 3) fails at the offset; the label names
    # the weights, the offset and the working order k + l + 2 jmax + 1
    assert bad.checked == 5 * (jmax + 1) + offset + 1
    where = f"weights (2, 3), offset {offset}, order {2 + 3 + 2 * jmax + 1}"
    assert bad.counterexample.startswith(f"{where}: ") and " != " in bad.counterexample
    assert bad == run_suite("STAR", kmax=3, jmax=jmax)


def test_counterexample_prints_both_sides(monkeypatch):
    monkeypatch.setattr(verify, "rho", lambda u: 2 * rho(u))
    assert run_suite("RHO", umax=3).counterexample == "u=1: 4 != 1"


def test_slash_derivative_expansion_positive_weights():
    # the expansion reproduces actual derivatives of the slashed function
    fs = [1 / (z**2 + 1), z**3 - 2 * z, (z - 1) / (z + 2)]
    gs = [GMatrix(1, 0, 1, 1), GMatrix(2, 1, 3, 2)]
    for n in range(1, 5):
        for m in range(0, 5):
            for f in fs:
                for g in gs:
                    direct = deriv_n(slash(f, n, g), m)
                    assert slash_derivative_expansion(f, n, m, g) == direct, (n, m)


def test_slash_derivative_expansion_nonpositive_weights():
    fs = [1 / (z**2 + 1), z**2 + 3]
    gs = [GMatrix(1, 0, 1, 1), GMatrix(2, 1, 3, 2)]
    for n in range(-4, 1):
        for m in range(0, 5):
            for f in fs:
                for g in gs:
                    direct = deriv_n(slash(f, n, g), m)
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
            assert acc == deriv_n(slash(f, n, g), m), (n, m)


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
                    assert slash_derivative_expansion(f, n, m, g) == deriv_n(slash(f, n, g), m), (f, g, n, m)
                    checked += 1
    assert checked == 5 * 4 * 7 * 4
