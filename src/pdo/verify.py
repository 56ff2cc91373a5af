"""One-shot exact verification suites for the standalone identities.

Each suite checks a closed-form identity over a declared finite parameter
range, with zero tolerance.  The certificate suites (WZ1-WZ4) verify the
printed telescoping certificates term by term -- rational identities in
integer parameters -- rather than re-running a summation engine.  STAR
checks the transfer theorem over free graded generators: each star-product
component is alpha_n(k, l) times its Rankin-Cohen bracket.  Each suite
states its range once and yields its cases as (label, lhs, rhs) to one
runner, ``_run``, which counts them and compares the sides.  Reports carry
the range and the first counterexample, never an exception.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import factorial, prod
from typing import Callable, Iterable, NamedTuple

from .coeffs import gbinom, lift_coeff, recip_factorial, rho
from .ratfunc import QZ, GMatrix, RatFunc, mobius_compose
from .series import PDSeries, deriv_n, derivs, series_mul
from .action import act_series, act_y_power, slash

__all__ = ["SuiteReport", "run_suite", "SUITES", "slash_derivative_expansion"]


class SuiteReport(NamedTuple):
    name: str
    ok: bool
    ranges: str
    checked: int
    counterexample: str | None = None

    def __bool__(self) -> bool:
        return self.ok

    def line(self) -> str:
        status = "pass" if self.ok else f"FAIL ({self.counterexample})"
        return f"{self.name}: {status} [{self.ranges}; {self.checked} checks]"


def _run(name: str, ranges: str, cases: Iterable[tuple[str, object, object]]) -> SuiteReport:
    """Count each case (label, lhs, rhs) and compare its sides exactly.  The
    first mismatch fails the suite as "label: lhs != rhs", narrowed for two
    series of one order to "label, y^n: ..." at their least differing n; so
    does a run that checked nothing."""
    checked = 0
    for label, lhs, rhs in cases:
        checked += 1
        if lhs != rhs:
            if isinstance(lhs, PDSeries) and isinstance(rhs, PDSeries) and lhs.order == rhs.order:
                n = min(n for n in {*lhs.coeffs, *rhs.coeffs} if lhs.coeff(n) != rhs.coeff(n))
                label, lhs, rhs = f"{label}, y^{n}", lhs.coeff(n), rhs.coeff(n)
            return SuiteReport(name, False, ranges, checked, f"{label}: {lhs} != {rhs}")
    if not checked:
        return SuiteReport(name, False, ranges, 0, "the range is empty: nothing was checked")
    return SuiteReport(name, True, ranges, checked)


def suite_rho(umax: int = 40) -> SuiteReport:
    """The double sum over the rho coefficients telescopes to u! for each u."""

    def total(u: int) -> Fraction:
        return sum(
            rho(u + 1 - i)
            * rho(m)
            / (4 ** (i - m) * factorial(i - m))
            * Fraction(
                factorial(2 * u - 2 * m) * factorial(u - i) * factorial(i - 1),
                factorial(2 * u - 2 * i) * factorial(u - m) * factorial(m - 1),
            )
            for m in range(1, u + 1)
            for i in range(m, u + 1)
        )

    return _run("RHO", f"1 <= u <= {umax}", ((f"u={u}", total(u), factorial(u)) for u in range(1, umax + 1)))


def suite_oddprod(mmax: int = 12, smax: int = 12) -> SuiteReport:
    """prod_{i<s} (2m+1+2i) = 2^{-s} (2m+2s)! m! / ((m+s)! (2m)!)."""
    cases = (
        (
            f"(m,s)=({m},{s})",
            prod(2 * m + 1 + 2 * i for i in range(s)),
            Fraction(factorial(2 * m + 2 * s) * factorial(m), factorial(m + s) * factorial(2 * m)) / 2**s,
        )
        for m in range(0, mmax + 1)
        for s in range(1, smax + 1)
    )
    return _run("ODDPROD", f"0 <= m <= {mmax}, 1 <= s <= {smax}", cases)


def suite_wz1(pmax: int = 12) -> SuiteReport:
    """(4u+6)G(u,m,i) - (u+1-m)G(u+1,m,i) = H(u,m,i+1) - H(u,m,i)."""

    def G(u: int, m: int, i: int) -> Fraction:
        return 4**i * factorial(i - 1) * factorial(2 * u - 2 * i + 1) * recip_factorial(i - m) * recip_factorial(u - i) ** 2

    def H(u: int, m: int, i: int) -> Fraction:
        return 4**i * factorial(i - 1) * factorial(2 * u + 3 - 2 * i) * recip_factorial(i - m - 1) * recip_factorial(u + 1 - i) ** 2

    cases = (
        (f"(u,m,i)=({u},{m},{i})", (4 * u + 6) * G(u, m, i) - (u + 1 - m) * G(u + 1, m, i), H(u, m, i + 1) - H(u, m, i))
        for u in range(1, pmax + 1)
        for m in range(1, u + 1)
        for i in range(m, u + 1)
    )
    return _run("WZ1", f"1 <= m <= i <= u <= {pmax}", cases)


def suite_wz2(pmax: int = 12) -> SuiteReport:
    """K(u+1,m) - K(u,m) = J(u,m) - J(u,m+1)."""

    def K(u: int, m: int) -> Fraction:
        return (
            Fraction(factorial(2 * u + 1), 16 ** (u - 1) * factorial(u) ** 2)
            * Fraction(
                factorial(2 * m - 2) * factorial(2 * m - 1) * factorial(m) * factorial(2 * u - 2 * m),
                factorial(2 * m + 1) * factorial(m - 1) ** 3,
            )
            * recip_factorial(u - m) ** 2
        )

    def J(u: int, m: int) -> Fraction:
        return (
            Fraction(factorial(2 * u - 2 * m + 2) * factorial(2 * u + 1), 16**u * u * factorial(u) * factorial(u + 1))
            * factorial(2 * m - 2)
            * recip_factorial(m - 1)
            * recip_factorial(m - 2)
            * recip_factorial(u + 1 - m) ** 2
        )

    cases = (
        (f"(u,m)=({u},{m})", K(u + 1, m) - K(u, m), J(u, m) - J(u, m + 1))
        for u in range(1, pmax + 1)
        for m in range(1, u + 1)
    )
    return _run("WZ2", f"1 <= m <= u <= {pmax}", cases)


def suite_wz3(pmax: int = 12) -> SuiteReport:
    """(k+s+2) b(s,j) - (s-r+1) b(s+1,j) = G(s,j+1) - G(s,j), and the
    telescoped consequence (k+s+2) beta_{k,s}(r) = (s-r+1) beta_{k,s+1}(r).

    Only the identities in j are counted: the telescoped check of each
    (k, s, r) is compared together with its last j."""

    def b(k: int, s: int, r: int, j: int) -> Fraction:
        return factorial(k + s - r - j) * factorial(r + j) * recip_factorial(s - r - j) * recip_factorial(j)

    def G(k: int, s: int, r: int, j: int) -> Fraction:
        return factorial(k + s - r - j + 1) * factorial(r + j) * recip_factorial(j - 1) * recip_factorial(s - r - j + 1)

    def cases():
        for k in range(1, pmax + 1):
            for s in range(1, pmax + 1):
                for r in range(0, s + 1):
                    js = range(0, s + 2 - r)
                    beta_s = sum(b(k, s, r, j) for j in js)
                    beta_s1 = sum(b(k, s + 1, r, j) for j in js)
                    for j in js:
                        label = f"(k,s,r,j)=({k},{s},{r},{j})"
                        lhs = (k + s + 2) * b(k, s, r, j) - (s - r + 1) * b(k, s + 1, r, j)
                        rhs = G(k, s, r, j + 1) - G(k, s, r, j)
                        if j < js[-1]:
                            yield label, lhs, rhs
                        else:
                            yield f"{label} and telescoped", (lhs, (k + s + 2) * beta_s), (rhs, (s - r + 1) * beta_s1)

    return _run("WZ3", f"1 <= k,s <= {pmax}, 0 <= r <= s", cases())


def suite_wz4(pmax: int = 12) -> SuiteReport:
    """(2s+2k+3)(2s+2k+1)C(s,r) - 4(s+1)(k+s+2)C(s+1,r) = H(s,r+1) - H(s,r),
    together with the telescoped recurrence for the sums A(s) = sum_r C(s,r).

    The certificate function carries (2r+1)! -- it is pinned uniquely by the
    telescoping itself (H(s,0) = 0 and summing the left side), which is how
    this suite cross-checks it.
    """

    # the cases below keep r <= s in C and r <= s + 1 in H
    def C(k: int, s: int, r: int) -> Fraction:
        return (
            Fraction(factorial(2 * r + 1) * factorial(2 * r), 16**r * factorial(r) ** 3)
            * factorial(k + s - r - 1)
            * recip_factorial(s - r)
            / factorial(k + r + 1)
        )

    def H(k: int, s: int, r: int) -> Fraction:
        return (
            Fraction(4 * factorial(2 * r + 1) * factorial(2 * r), 16**r * factorial(r) ** 2)
            * factorial(k + s - r)
            * recip_factorial(s - r + 1)
            * recip_factorial(r - 1)
            / factorial(k + r)
        )

    def cases():
        for k in range(1, pmax + 1):
            for s in range(1, pmax + 1):
                left, right = (2 * s + 2 * k + 3) * (2 * s + 2 * k + 1), 4 * (s + 1) * (k + s + 2)
                for r in range(0, s + 1):
                    yield f"(k,s,r)=({k},{s},{r})", left * C(k, s, r) - right * C(k, s + 1, r), H(k, s, r + 1) - H(k, s, r)
                a_s = sum(C(k, s, r) for r in range(0, s + 1))
                a_s1 = sum(C(k, s + 1, r) for r in range(0, s + 2))
                yield f"telescoped (k,s)=({k},{s})", left * a_s, right * a_s1

    return _run("WZ4", f"1 <= k,s <= {pmax}, 0 <= r <= s", cases())


def slash_derivative_expansion(f: RatFunc, n: int, m: int, g: GMatrix) -> RatFunc:
    """Closed expansion of the m-th derivative of f|_n g:

        (f|_n g)^(m) = sum_{r=0}^{m} (m!/r!) C(m+n-1, m-r) (-c)^{m-r}
                       (cz+d)^{-(n+m+r)} (f^(r) o g),

    valid for every integer weight n (for n >= 1 it coincides with the
    alternating-factorial form).
    """
    s, fm = g.s(), factorial(m)
    return RatFunc.sum(
        Fraction(fm, factorial(r)) * gbinom(m + n - 1, m - r) * (-g.c) ** (m - r)
        * s ** (-(n + m + r)) * mobius_compose(fr, g)
        for r, fr in enumerate(islice(derivs(f), m + 1))
    )


def _default_fs() -> list[RatFunc]:
    z = RatFunc.z()
    return [
        1 / (z**2 + 1),
        z**3 - 2 * z,
        1 / (z - 3),
        (z**2 - 1) / (z + 2),
        z + 1 / z,
    ]


def _default_gs() -> list[GMatrix]:
    return [GMatrix(1, 1, 0, 1), GMatrix(1, 0, 1, 1), GMatrix(2, 1, 3, 2)]


def suite_bol(hmax: int = 5) -> SuiteReport:
    """(f|_{2-h} g)^(h-1) = f^(h-1) |_h g for h > 0."""
    fs, gs = _default_fs(), _default_gs()
    cases = (
        (f"h={h}, f={f}, g={g!r}", deriv_n(slash(f, 2 - h, g), h - 1), slash(deriv_n(f, h - 1), h, g))
        for h in range(1, hmax + 1)
        for f in fs
        for g in gs
    )
    return _run("BOL", f"1 <= h <= {hmax}, {len(fs)} functions, {len(gs)} matrices", cases)


def suite_recuneg(kmax: int = 4, jmax: int = 8) -> SuiteReport:
    """Coefficients of the action on negative odd powers obey
    a_{-(k+1)}(j) = a_{-k}(j) + (2k-j) a_{-k}(j-1), with a read off the
    acted series (not from the closed form directly)."""
    g = GMatrix(2, 1, 3, 2)
    s = g.s()
    ratio = RatFunc.const(g.c) / s

    def coeff_alpha(k: int, j: int) -> Fraction:
        # scalar in y^{-2k+1}.g = sum_j alpha (cz+d)^{2k-1} (c/(cz+d))^j y^{-2k+1+2j}
        ser = act_y_power(-2 * k + 1, g, (-2 * k + 1) + 2 * (j + 1))
        c = ser.coeff(-2 * k + 1 + 2 * j)
        scaled = c * s ** (1 - 2 * k) * ratio ** (-j)
        if not scaled.is_const():
            raise AssertionError("non-scalar ratio in action coefficient")
        return scaled.const_value()

    cases = (
        (
            f"(k,j)=({k},{j})",
            coeff_alpha(k + 1, j),
            coeff_alpha(k, j) + (2 * k - j) * (coeff_alpha(k, j - 1) if j >= 1 else Fraction(0)),
        )
        for k in range(0, kmax + 1)
        for j in range(0, jmax + 1)
    )
    return _run("RECUNEG", f"0 <= k <= {kmax}, 0 <= j <= {jmax}", cases)


def suite_commlaw(imax: int = 6, order: int = 14) -> SuiteReport:
    """The uniform commutation coefficients against repeated application of
    the two basic laws: multiplication by y (odd step) and by y^{-2}."""
    z = RatFunc.z()
    f = 1 / (z - 2)

    def naive_y_times(coeffs: dict[int, RatFunc]) -> dict[int, RatFunc]:
        # y g = sum_k (2k)!/(2^k k!^2) delta^k(g) y^{2k+1}
        out: dict[int, RatFunc] = {}
        for n, g in coeffs.items():
            d = g
            k = 0
            while n + 2 * k + 1 < order + 4:
                c = Fraction(factorial(2 * k), 2**k * factorial(k) ** 2)
                out[n + 2 * k + 1] = out.get(n + 2 * k + 1, RatFunc.const(0)) + c * d
                d = d.deriv() * Fraction(-1, 2)
                k += 1
        return out

    def naive_ym2_times(coeffs: dict[int, RatFunc]) -> dict[int, RatFunc]:
        # y^{-2} g = g y^{-2} - 2 delta(g)
        out: dict[int, RatFunc] = {}
        for n, g in coeffs.items():
            out[n - 2] = out.get(n - 2, RatFunc.const(0)) + g
            out[n] = out.get(n, RatFunc.const(0)) - 2 * (g.deriv() * Fraction(-1, 2))
        return out

    def naive(i: int) -> PDSeries:
        cur = {0: f}
        j = i
        while j > 0:
            cur = naive_y_times(cur)
            j -= 1
        while j < 0:
            cur = naive_ym2_times(cur)
            j += 2
        if j == 1:  # negative odd i: finish with one y on the left
            cur = naive_y_times(cur)
        return PDSeries(QZ, {n: c for n, c in cur.items() if n < order}, order)

    cases = (
        (
            f"i={i}",
            naive(i),
            series_mul(PDSeries.monomial(QZ, 1, i, order + abs(i) + 2), PDSeries.monomial(QZ, f, 0)).truncate(order),
        )
        for i in range(-imax, imax + 1)
    )
    return _run("COMMLAW", f"-{imax} <= i <= {imax}, order {order}", cases)


def suite_grouplaw(cases: int = 10, order: int = 12, seed: int = 11) -> SuiteReport:
    """Right-action law (q.g).g' = q.(gg') and the automorphism property."""
    import random

    rnd = random.Random(seed)
    z = RatFunc.z()
    gs = _default_gs()

    def draws():
        for case in range(1, cases + 1):
            v0 = rnd.randint(-3, 2)
            coeffs = {
                n: RatFunc((rnd.randint(-3, 3), rnd.randint(-2, 2)), (rnd.randint(1, 3), 1))
                for n in range(v0, order - 2)
                if rnd.random() < 0.5
            }
            q = PDSeries(QZ, coeffs, order)
            g1 = gs[rnd.randrange(len(gs))]
            g2 = gs[rnd.randrange(len(gs))]
            yield f"case {case}", act_series(act_series(q, g1), g2), act_series(q, g1 @ g2)
            p = PDSeries(QZ, {0: z, 1: 1 / (z - rnd.randint(3, 5))}, order)
            lhs = act_series(series_mul(p, q), g1)
            yield f"automorphism case {case}", lhs, series_mul(act_series(p, g1), act_series(q, g1))

    return _run("GROUPLAW", f"{cases} random series, order {order}", draws())


def suite_alphaku(umax: int = 10, kmax: int = 5) -> SuiteReport:
    """Consistency condition on the odd-weight lifting coefficients:

        alpha(u) u!(u+2k)!(-1)^{u-n}/(n!(n+2k)!)
            = alpha(n) (k+n+1)!(k+n)!(2k+2u)!(2k+2u+2)!
              / ((2k+2n)!(2k+2n+2)!(k+u)!(k+u+1)! 16^{u-n})

    with alpha = lift_coeff(2k+1, .), for all 0 <= n <= u."""
    cases = (
        (
            f"(k,u,n)=({k},{u},{n})",
            lift_coeff(2 * k + 1, u)
            * Fraction(factorial(u) * factorial(u + 2 * k), factorial(n) * factorial(n + 2 * k))
            * (-1) ** (u - n),
            lift_coeff(2 * k + 1, n)
            * Fraction(
                factorial(k + n + 1) * factorial(k + n) * factorial(2 * k + 2 * u) * factorial(2 * k + 2 * u + 2),
                factorial(2 * k + 2 * n)
                * factorial(2 * k + 2 * n + 2)
                * factorial(k + u)
                * factorial(k + u + 1)
                * 16 ** (u - n),
            ),
        )
        for k in range(0, kmax + 1)
        for u in range(0, umax + 1)
        for n in range(0, u + 1)
    )
    return _run("ALPHAKU", f"0 <= n <= u <= {umax}, 0 <= k <= {kmax}", cases)


def suite_star(kmax: int = 6, jmax: int = 8) -> SuiteReport:
    """The transfer theorem: component k+l+2n of the star product of free
    generators F, G of weights k, l is alpha_n(k, l) [F, G]_n, with the
    multipliers from ``alpha_table``'s scalar recursion, which reads only
    the F*G^(n) coefficient of each component."""
    # imported here, so that the other suites load no graded module
    from .rankin import _free_star, alpha_table, rc_bracket

    def cases():
        for k in range(1, kmax + 1):
            for l in range(1, kmax + 1):
                order = k + l + 2 * jmax + 1
                fam = _free_star(k, l, order)
                F, G = fam.ring.gen("F"), fam.ring.gen("G")
                for n, alpha in enumerate(alpha_table(k, l, jmax)):
                    label = f"weights ({k}, {l}), offset {n}, order {order}"
                    yield label, fam.component(k + l + 2 * n), alpha * rc_bracket(F, G, k, l, n)

    return _run("STAR", f"1 <= k,l <= {kmax}, 0 <= n <= {jmax}", cases())


SUITES: dict[str, Callable[..., SuiteReport]] = {
    "RHO": suite_rho,
    "ODDPROD": suite_oddprod,
    "WZ1": suite_wz1,
    "WZ2": suite_wz2,
    "WZ3": suite_wz3,
    "WZ4": suite_wz4,
    "BOL": suite_bol,
    "RECUNEG": suite_recuneg,
    "COMMLAW": suite_commlaw,
    "GROUPLAW": suite_grouplaw,
    "ALPHAKU": suite_alphaku,
    "STAR": suite_star,
}


def run_suite(name: str, **params) -> SuiteReport:
    """Run one named suite, in any case; unknown names raise ValueError."""
    key = name.upper()
    if key not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    return SUITES[key](**params)
