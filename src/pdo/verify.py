"""One-shot exact verification suites for the standalone identities.

Each suite checks a closed-form identity over a declared finite parameter
range, with zero tolerance.  The certificate suites (WZ1-WZ4) verify the
printed telescoping certificates term by term -- rational identities in
integer parameters -- rather than re-running a summation engine.  Reports
carry the range and the first counterexample, never an exception.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from .coeffs import gbinom, lift_coeff, recip_factorial, rho
from .ratfunc import GMatrix, RatFunc, mobius_compose
from .rings import QZ
from .series import PDSeries, series_mul
from .action import act_series, act_y_power, slash

__all__ = ["SuiteReport", "run_suite", "SUITES", "slash_derivative_expansion"]


@dataclass
class SuiteReport:
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


def _fail(name: str, ranges: str, checked: int, ce: str) -> SuiteReport:
    return SuiteReport(name, False, ranges, checked, ce)


def suite_rho(umax: int = 40) -> SuiteReport:
    """The double sum over the rho coefficients telescopes to u! for each u."""
    checked = 0
    for u in range(1, umax + 1):
        total = Fraction(0)
        for m in range(1, u + 1):
            for i in range(m, u + 1):
                total += (
                    rho(u + 1 - i)
                    * rho(m)
                    / (4 ** (i - m) * factorial(i - m))
                    * Fraction(
                        factorial(2 * u - 2 * m) * factorial(u - i) * factorial(i - 1),
                        factorial(2 * u - 2 * i) * factorial(u - m) * factorial(m - 1),
                    )
                )
        checked += 1
        if total != factorial(u):
            return _fail("RHO", f"1 <= u <= {umax}", checked, f"u={u}: {total} != {u}!")
    return SuiteReport("RHO", True, f"1 <= u <= {umax}", checked)


def suite_oddprod(mmax: int = 12, smax: int = 12) -> SuiteReport:
    """prod_{i<s} (2m+1+2i) = 2^{-s} (2m+2s)! m! / ((m+s)! (2m)!)."""
    checked = 0
    for m in range(0, mmax + 1):
        for s in range(1, smax + 1):
            lhs = 1
            for i in range(s):
                lhs *= 2 * m + 1 + 2 * i
            rhs = Fraction(factorial(2 * m + 2 * s) * factorial(m), factorial(m + s) * factorial(2 * m)) / 2**s
            checked += 1
            if lhs != rhs:
                return _fail("ODDPROD", f"m <= {mmax}, s <= {smax}", checked, f"(m,s)=({m},{s})")
    return SuiteReport("ODDPROD", True, f"0 <= m <= {mmax}, 1 <= s <= {smax}", checked)


def suite_wz1(pmax: int = 12) -> SuiteReport:
    """(4u+6)G(u,m,i) - (u+1-m)G(u+1,m,i) = H(u,m,i+1) - H(u,m,i)."""

    def G(u: int, m: int, i: int) -> Fraction:
        return 4**i * factorial(i - 1) * factorial(2 * u - 2 * i + 1) * recip_factorial(i - m) * recip_factorial(u - i) ** 2

    def H(u: int, m: int, i: int) -> Fraction:
        return 4**i * factorial(i - 1) * factorial(2 * u + 3 - 2 * i) * recip_factorial(i - m - 1) * recip_factorial(u + 1 - i) ** 2

    checked = 0
    for u in range(1, pmax + 1):
        for m in range(1, u + 1):
            for i in range(m, u + 1):
                lhs = (4 * u + 6) * G(u, m, i) - (u + 1 - m) * G(u + 1, m, i)
                rhs = H(u, m, i + 1) - H(u, m, i)
                checked += 1
                if lhs != rhs:
                    return _fail("WZ1", f"1 <= m <= i <= u <= {pmax}", checked, f"(u,m,i)=({u},{m},{i})")
    return SuiteReport("WZ1", True, f"1 <= m <= i <= u <= {pmax}", checked)


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

    checked = 0
    for u in range(1, pmax + 1):
        for m in range(1, u + 1):
            lhs = K(u + 1, m) - K(u, m)
            rhs = J(u, m) - J(u, m + 1)
            checked += 1
            if lhs != rhs:
                return _fail("WZ2", f"1 <= m <= u <= {pmax}", checked, f"(u,m)=({u},{m})")
    return SuiteReport("WZ2", True, f"1 <= m <= u <= {pmax}", checked)


def suite_wz3(pmax: int = 12) -> SuiteReport:
    """(k+s+2) b(s,j) - (s-r+1) b(s+1,j) = G(s,j+1) - G(s,j), and the
    telescoped consequence (k+s+2) beta_{k,s}(r) = (s-r+1) beta_{k,s+1}(r)."""
    checked = 0
    for k in range(1, pmax + 1):
        for s in range(1, pmax + 1):
            for r in range(0, s + 1):

                def b(s_: int, j: int) -> Fraction:
                    return factorial(k + s_ - r - j) * factorial(r + j) * recip_factorial(s_ - r - j) * recip_factorial(j)

                def G(s_: int, j: int) -> Fraction:
                    return factorial(k + s_ - r - j + 1) * factorial(r + j) * recip_factorial(j - 1) * recip_factorial(s_ - r - j + 1)

                beta_s = Fraction(0)
                beta_s1 = Fraction(0)
                for j in range(0, s + 2 - r):
                    lhs = (k + s + 2) * b(s, j) - (s - r + 1) * b(s + 1, j)
                    rhs = G(s, j + 1) - G(s, j)
                    checked += 1
                    if lhs != rhs:
                        return _fail("WZ3", f"k,s <= {pmax}, r <= s", checked, f"(k,s,r,j)=({k},{s},{r},{j})")
                    beta_s += b(s, j)
                    beta_s1 += b(s + 1, j)
                if (k + s + 2) * beta_s != (s - r + 1) * beta_s1:
                    return _fail("WZ3", f"k,s <= {pmax}, r <= s", checked, f"telescoped (k,s,r)=({k},{s},{r})")
    return SuiteReport("WZ3", True, f"1 <= k,s <= {pmax}, 0 <= r <= s", checked)


def suite_wz4(pmax: int = 12) -> SuiteReport:
    """(2s+2k+3)(2s+2k+1)C(s,r) - 4(s+1)(k+s+2)C(s+1,r) = H(s,r+1) - H(s,r),
    together with the telescoped recurrence for the sums A(s) = sum_r C(s,r).

    The certificate function carries (2r+1)! -- it is pinned uniquely by the
    telescoping itself (H(s,0) = 0 and summing the left side), which is how
    this suite cross-checks it.
    """
    checked = 0
    for k in range(1, pmax + 1):
        for s in range(1, pmax + 1):

            def C(s_: int, r_: int) -> Fraction:
                if s_ - r_ < 0:
                    return Fraction(0)  # the (s-r)! denominator ends the sum
                return (
                    Fraction(factorial(2 * r_ + 1) * factorial(2 * r_), 16**r_ * factorial(r_) ** 3)
                    * factorial(k + s_ - r_ - 1)
                    * recip_factorial(s_ - r_)
                    / factorial(k + r_ + 1)
                )

            def H(s_: int, r_: int) -> Fraction:
                if s_ - r_ + 1 < 0:
                    return Fraction(0)
                return (
                    Fraction(4 * factorial(2 * r_ + 1) * factorial(2 * r_), 16**r_ * factorial(r_) ** 2)
                    * factorial(k + s_ - r_)
                    * recip_factorial(s_ - r_ + 1)
                    * recip_factorial(r_ - 1)
                    / factorial(k + r_)
                )

            for r in range(0, s + 1):
                lhs = (2 * s + 2 * k + 3) * (2 * s + 2 * k + 1) * C(s, r) - 4 * (s + 1) * (k + s + 2) * C(s + 1, r)
                rhs = H(s, r + 1) - H(s, r)
                checked += 1
                if lhs != rhs:
                    return _fail("WZ4", f"k,s <= {pmax}, r <= s", checked, f"(k,s,r)=({k},{s},{r})")
            a_s = sum(C(s, r) for r in range(0, s + 1))
            a_s1 = sum(C(s + 1, r) for r in range(0, s + 2))
            checked += 1
            if (2 * s + 2 * k + 3) * (2 * s + 2 * k + 1) * a_s != 4 * (s + 1) * (k + s + 2) * a_s1:
                return _fail("WZ4", f"k,s <= {pmax}", checked, f"telescoped (k,s)=({k},{s})")
    return SuiteReport("WZ4", True, f"1 <= k,s <= {pmax}, 0 <= r <= s", checked)


def slash_derivative_expansion(f: RatFunc, n: int, m: int, g: GMatrix) -> RatFunc:
    """Closed expansion of the m-th derivative of f|_n g:

        (f|_n g)^(m) = sum_{r=0}^{m} (m!/r!) C(m+n-1, m-r) (-c)^{m-r}
                       (cz+d)^{-(n+m+r)} (f^(r) o g),

    valid for every integer weight n (for n >= 1 it coincides with the
    alternating-factorial form).
    """
    s = g.s()
    acc = RatFunc.const(0)
    fr = f
    for r in range(m + 1):
        coef = Fraction(factorial(m), factorial(r)) * gbinom(m + n - 1, m - r) * (-g.c) ** (m - r)
        acc = acc + coef * s ** (-(n + m + r)) * mobius_compose(fr, g)
        fr = fr.deriv()
    return acc


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


def suite_bol(hmax: int = 5, fs=None, gs=None) -> SuiteReport:
    """(f|_{2-h} g)^(h-1) = f^(h-1) |_h g for h > 0."""
    fs = fs if fs is not None else _default_fs()
    gs = gs if gs is not None else _default_gs()
    checked = 0
    for h in range(1, hmax + 1):
        for f in fs:
            for g in gs:
                lhs = slash(f, 2 - h, g).deriv_n(h - 1)
                rhs = slash(f.deriv_n(h - 1), h, g)
                checked += 1
                if lhs != rhs:
                    return _fail("BOL", f"1 <= h <= {hmax}", checked, f"h={h}, f={f}, g={g!r}")
    return SuiteReport("BOL", True, f"1 <= h <= {hmax}, {len(fs)} functions, {len(gs)} matrices", checked)


def suite_recuneg(kmax: int = 4, jmax: int = 8) -> SuiteReport:
    """Coefficients of the action on negative odd powers obey
    a_{-(k+1)}(j) = a_{-k}(j) + (2k-j) a_{-k}(j-1), with a read off the
    acted series (not from the closed form directly)."""
    g = GMatrix(2, 1, 3, 2)
    s = g.s()
    ratio = RatFunc.const(g.c) / s
    checked = 0

    def coeff_alpha(k: int, j: int) -> Fraction:
        # scalar in y^{-2k+1}.g = sum_j alpha (cz+d)^{2k-1} (c/(cz+d))^j y^{-2k+1+2j}
        ser = act_y_power(-2 * k + 1, g, (-2 * k + 1) + 2 * (j + 1))
        c = ser.coeff(-2 * k + 1 + 2 * j)
        scaled = c * s ** (1 - 2 * k) * ratio ** (-j)
        if not scaled.is_const():
            raise AssertionError("non-scalar ratio in action coefficient")
        return scaled.const_value()

    for k in range(0, kmax + 1):
        for j in range(0, jmax + 1):
            lhs = coeff_alpha(k + 1, j)
            rhs = coeff_alpha(k, j) + (2 * k - j) * (coeff_alpha(k, j - 1) if j >= 1 else Fraction(0))
            checked += 1
            if lhs != rhs:
                return _fail("RECUNEG", f"k <= {kmax}, j <= {jmax}", checked, f"(k,j)=({k},{j})")
    return SuiteReport("RECUNEG", True, f"0 <= k <= {kmax}, 0 <= j <= {jmax}", checked)


def suite_commlaw(imax: int = 6, order: int = 14) -> SuiteReport:
    """The uniform commutation coefficients against repeated application of
    the two basic laws: multiplication by y (odd step) and by y^{-2}."""
    z = RatFunc.z()
    f = 1 / (z - 2)
    checked = 0

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

    for i in range(-imax, imax + 1):
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
            j = 0
        naive = PDSeries(QZ, {n: c for n, c in cur.items() if n < order}, order)
        direct = series_mul(
            PDSeries.monomial(QZ, 1, i, order + abs(i) + 2),
            PDSeries.monomial(QZ, f, 0),
        ).truncate(order)
        checked += 1
        if not naive.agree(direct, order):
            return _fail("COMMLAW", f"|i| <= {imax}", checked, f"i={i}")
    return SuiteReport("COMMLAW", True, f"-{imax} <= i <= {imax}, order {order}", checked)


def suite_grouplaw(cases: int = 10, order: int = 12, seed: int = 11) -> SuiteReport:
    """Right-action law (q.g).g' = q.(gg') and the automorphism property."""
    import random

    rnd = random.Random(seed)
    z = RatFunc.z()
    gs = _default_gs()
    checked = 0
    for _ in range(cases):
        v0 = rnd.randint(-3, 2)
        coeffs = {
            n: RatFunc((rnd.randint(-3, 3), rnd.randint(-2, 2)), (rnd.randint(1, 3), 1))
            for n in range(v0, order - 2)
            if rnd.random() < 0.5
        }
        q = PDSeries(QZ, coeffs, order)
        g1 = gs[rnd.randrange(len(gs))]
        g2 = gs[rnd.randrange(len(gs))]
        lhs = act_series(act_series(q, g1), g2)
        rhs = act_series(q, g1 @ g2)
        checked += 1
        if not lhs.agree(rhs):
            return _fail("GROUPLAW", f"{cases} random series", checked, f"case {checked}")
        p = PDSeries(QZ, {0: z, 1: 1 / (z - rnd.randint(3, 5))}, order)
        lhs2 = act_series(series_mul(p, q), g1)
        rhs2 = series_mul(act_series(p, g1), act_series(q, g1))
        checked += 1
        if not lhs2.agree(rhs2):
            return _fail("GROUPLAW", f"{cases} random series", checked, f"automorphism case {checked}")
    return SuiteReport("GROUPLAW", True, f"{cases} random series, order {order}", checked)


def suite_alphaku(umax: int = 10, kmax: int = 5) -> SuiteReport:
    """Consistency condition on the odd-weight lifting coefficients:

        alpha(u) u!(u+2k)!(-1)^{u-n}/(n!(n+2k)!)
            = alpha(n) (k+n+1)!(k+n)!(2k+2u)!(2k+2u+2)!
              / ((2k+2n)!(2k+2n+2)!(k+u)!(k+u+1)! 16^{u-n})

    with alpha = lift_coeff(2k+1, .), for all 0 <= n <= u."""
    checked = 0
    for k in range(0, kmax + 1):
        for u in range(0, umax + 1):
            au = lift_coeff(2 * k + 1, u)
            for n in range(0, u + 1):
                an = lift_coeff(2 * k + 1, n)
                lhs = au * Fraction(factorial(u) * factorial(u + 2 * k), factorial(n) * factorial(n + 2 * k)) * (-1) ** (u - n)
                rhs = an * Fraction(
                    factorial(k + n + 1) * factorial(k + n) * factorial(2 * k + 2 * u) * factorial(2 * k + 2 * u + 2),
                    factorial(2 * k + 2 * n)
                    * factorial(2 * k + 2 * n + 2)
                    * factorial(k + u)
                    * factorial(k + u + 1)
                    * 16 ** (u - n),
                )
                checked += 1
                if lhs != rhs:
                    return _fail("ALPHAKU", f"n <= u <= {umax}, k <= {kmax}", checked, f"(k,u,n)=({k},{u},{n})")
    return SuiteReport("ALPHAKU", True, f"0 <= n <= u <= {umax}, 0 <= k <= {kmax}", checked)


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
}


def run_suite(name: str, **params) -> SuiteReport:
    """Run one named suite; unknown names raise ValueError.  A run that
    checked nothing fails."""
    key = name.upper()
    if key not in SUITES:
        raise ValueError(f"unknown suite {name!r}; available: {', '.join(sorted(SUITES))}")
    rep = SUITES[key](**params)
    if rep.ok and rep.checked == 0:
        return _fail(rep.name, rep.ranges, 0, "the range is empty: nothing was checked")
    return rep
