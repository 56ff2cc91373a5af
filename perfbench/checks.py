"""Independent, untimed checks of every workload's outputs.

Each check returns ``(name, jobs, ok)``: the jobs whose outputs it covers,
so a failed check marks those jobs (and their layers) failed.  The
references come from closed forms, SymPy or a second code path, never from
re-running the call that was timed.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb


def _run(checks):
    """Evaluate (name, jobs, thunk) triples; a thunk that raises is a failed check."""
    results = []
    for name, jobs, thunk in checks:
        try:
            ok = bool(thunk())
        except Exception as exc:  # a crashing check must count, not abort the run
            ok = False
            name = f"{name} ({type(exc).__name__}: {exc})"
        results.append((name, jobs, ok))
    return results


def _is_one(s) -> bool:
    from pdo import PDSeries

    return s.agree(PDSeries.one(s.ring))


def sympy_commutation_product(poles: list[int], n: int) -> list:
    """q*q for q = sum_{k<n} 1/(z - poles[k]) y^k via y^i f = sum_u c_i(u) delta^u(f) y^(i+2u),
    with c_i(u) = prod_{j<u} (i + 2j) / u! and delta = -(1/2) d/dz, in SymPy arithmetic."""
    import sympy

    z = sympy.Symbol("z")
    f = [1 / (z - a) for a in poles[:n]]
    out = [sympy.Integer(0)] * n
    for i in range(n):
        for j in range(n):
            u = 0
            while i + j + 2 * u < n:
                c = sympy.Integer(1)
                for t in range(u):
                    c *= i + 2 * t
                if c == 0:
                    break
                c = c / sympy.factorial(u) * sympy.Rational(-1, 2) ** u
                out[i + j + 2 * u] += f[i] * c * sympy.diff(f[j], z, u)
                u += 1
    return [sympy.cancel(sympy.together(e)) for e in out]


def _ratfunc_matches(r, e) -> bool:
    """e == r, read from r's stored form sc * nump / denp rather than its num/den views."""
    import sympy

    z = sympy.Symbol("z")
    num = sum(sympy.Integer(c) * z**k for k, c in enumerate(r.nump))
    den = sum(sympy.Integer(c) * z**k for k, c in enumerate(r.denp))
    return sympy.cancel(e - sympy.Rational(r.sc.numerator, r.sc.denominator) * num / den) == 0


def check_qz(out: dict, inp: dict, sz: dict) -> list:
    from pdo import series_mul
    from pdo.serialize import series_json

    muls = [f"mul_N{n}" for n in sz["mul"]]
    big = out[muls[-1]]
    dense_inv = inp["dense"][sz["inv_dense"]]
    checks = [
        # the dense inputs are truncations of one another, so are the products
        ("mul prefixes agree", muls,
         lambda: all(out[b].truncate(n) == out[a] for a, b, n in zip(muls, muls[1:], sz["mul"]))),
        ("mul against SymPy commutation product", muls,
         lambda: all(_ratfunc_matches(big.coeff(k), e)
                     for k, e in enumerate(sympy_commutation_product(inp["poles"], sz["oracle"])))),
        ("q * inv(q) = 1 + O, dense", ["inverse_dense"],
         lambda: _is_one(series_mul(dense_inv, out["inverse_dense"]))),
        ("q * inv(q) = 1 + O, sparse", ["inverse_sparse"],
         lambda: _is_one(series_mul(inp["sparse"], out["inverse_sparse"]))),
        ("sqrt(q)^2 = q", ["sqrt"],
         lambda: series_mul(out["sqrt"], out["sqrt"]).agree(inp["sqrt_in"])),
        ("equivariance residual w=3 is zero", ["equiv_w3"], lambda: out["equiv_w3"].is_zero()),
        ("equivariance residual w=-2, c is zero", ["equiv_w-2c"], lambda: out["equiv_w-2c"].is_zero()),
        ("serialize round trip", ["dump", "parse"],
         lambda: out["parse"] == big and json.loads(out["dump"]) == series_json(big)),
    ]
    low = sz["oracle"]
    for i in range(len(inp["mats"])):
        # the action is a ring homomorphism: (q*q).g = (q.g)*(q.g); checked
        # below y^low, where the product costs a fraction of a second
        acted = out[f"act_q_g{i}"]
        checks.append((f"act homomorphism g{i}", [f"act_q_g{i}", f"act_prod_g{i}"],
                       lambda i=i, acted=acted: out[f"act_prod_g{i}"].agree(
                           series_mul(acted.truncate(low), acted.truncate(low)))))
    return _run(checks)


def check_graded(out: dict, inp: dict, sz: dict) -> list:
    from pdo import PDSeries, alpha_table, g_closed, series_mul, star_via_brackets

    ring = inp["ring"]
    (k1, l1, n1), (k2, l2, n2) = sz["alpha"]
    a1, a2 = f"alpha_{k1}_{l1}_{n1}", f"alpha_{k2}_{l2}_{n2}"
    gk, gn = sz["g_forms"]
    xi = ring.spec.gen("xi")
    f, g = inp["f"], inp["g"]
    star_nmax = (sz["star"] - f.weight() - g.weight() - 1) // 2
    checks = [
        (f"{a1} closed form", [a1],
         lambda: (k1, l1) == (2, 2)
         and out[a1] == [Fraction((-1) ** n, comb(2 * n + 2, n)) for n in range(n1 + 1)]),
        (f"{a2} symmetric in (k, l)", [a2], lambda: out[a2] == alpha_table(l2, k2, n2)),
        ("g_forms against g_closed", ["g_forms"],
         lambda: all(out["g_forms"][2 * gk + 2 * i] == g_closed(gk, i, ring) for i in range(gn - gk + 1))),
        ("rewrite_in_u returns the seeded a_k", ["rewrite_in_u"], lambda: out["rewrite_in_u"] == inp["a"]),
        # y^2 stands left of xi^2, so the reference carries the commutation terms
        ("v * v = y^2 * xi^2", ["v"],
         lambda: series_mul(out["v"], out["v"]).agree(
             series_mul(PDSeries.monomial(ring, 1, 2, sz["v"] + 1), PDSeries.monomial(ring, xi * xi, 0)))),
        ("star against star_via_brackets", ["star"],
         lambda: star_via_brackets(f, g, star_nmax).agree(out["star"], sz["star"])),
    ]
    return _run(checks)


def check_cli(outputs: dict, inp: dict, label: str) -> list:
    """Every CLI output parses back equal to the in-process result; verify reports ok."""
    checks = []
    for name, kind, _, expect, parse in inp["jobs"]:
        text = outputs[name]
        if kind == "verify":
            def ok(text=text, expect=expect):
                v, rep = json.loads(text), expect()
                return (v["ok"] is True and rep.ok and v["checked"] > 0
                        and (v["checked"], v["ranges"]) == (rep.checked, rep.ranges))
        else:
            def ok(text=text, expect=expect, parse=parse):
                return parse(json.loads(text)) == expect()
        checks.append((f"{label} {name}", [name], ok))
    return _run(checks)


def check_same_text(a: dict, b: dict, label: str) -> list:
    """The in-process and the process outputs of each CLI job are the same bytes."""
    return _run([(f"{label} {name}", [name], lambda name=name: a[name] == b[name]) for name in b])



def known_defect_probe() -> tuple[int, int]:
    """(mismatches, cases): results of slash by matrices with c != 0 that do not survive
    a ratfunc_json round trip.  Nonzero while RatFunc.num multiplies by the
    denominator's leading coefficient instead of dividing (NOTES.md, Known defect)."""
    from pdo import GMatrix, RatFunc, slash
    from pdo.serialize import parse_ratfunc, ratfunc_json

    z = RatFunc.z()
    f = 1 / (z - 3) + z
    cases = [1 / (2 * z + 1)] + [
        slash(f, k, GMatrix(1, b, c, 1 + b * c)) for k in (0, 2) for b, c in ((1, 1), (1, 2), (2, -1))
    ]
    return sum(parse_ratfunc(ratfunc_json(r)) != r for r in cases), len(cases)
