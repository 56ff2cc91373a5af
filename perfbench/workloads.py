"""Seeded inputs and timed job lists of the three workloads.

Every function here imports pdo itself, so a repetition can start its
set-up clock before the first pdo import.  A job is one call into one
layer, timed at that layer's public boundary by a ``Recorder``.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from fractions import Fraction

WORKLOADS = ("qz-swell", "graded-invariants", "cli-small")

# Sizes are fixed; the seed chooses only the inputs.  SMOKE runs every job
# and check at tiny sizes.
FULL = {
    "mul": (12, 14, 16), "inv_dense": 10, "inv_sparse": 16, "sqrt": 12, "act": 12,
    "equiv": 30, "oracle": 8,
    "alpha": ((2, 2, 32), (1, 3, 24)), "g_forms": (3, 22), "rewrite": 23, "v": 23,
    "star": 21, "probe_g": (3, 16), "cli": 100,
}
SMOKE = {
    "mul": (4, 5, 6), "inv_dense": 4, "inv_sparse": 6, "sqrt": 6, "act": 4,
    "equiv": 8, "oracle": 4,
    "alpha": ((2, 2, 6), (1, 3, 5)), "g_forms": (3, 6), "rewrite": 9, "v": 9,
    "star": 9, "probe_g": (3, 5), "cli": 11,
}
SPEC = [["chi", 2, True], ["xi", 1, True]]


def _translation(rnd: random.Random):
    """[[1, b], [0, 1]] with small b != 0.

    The CLI writes a wrong numerator whenever a result's reduced denominator
    is not monic (see NOTES.md, Known defect), and a matrix with c != 0 gives
    such results for nearly every input.  Translations keep the denominators
    monic; ``checks.known_defect_probe`` reports the defect in every run.
    """
    from pdo import GMatrix

    return GMatrix(1, rnd.choice((1, -1, 2, -2)), 0, 1)


def _sign(rnd: random.Random) -> int:
    return rnd.choice((1, -1))


def _nz(rnd: random.Random, m: int) -> int:
    return _sign(rnd) * rnd.randint(1, m)


def graded_ring():
    from pdo.serialize import parse_spec
    from pdo import GradedRing

    return GradedRing(parse_spec(SPEC))


# -- qz-swell --------------------------------------------------------------

def setup_qz(seed: int, sz: dict) -> dict:
    from pdo import QZ, GMatrix, PDSeries, RatFunc

    rnd = random.Random(seed)
    z = RatFunc.z()
    # One sign s reflects every input by z -> -s z, which leaves the cost
    # unchanged; the other choices are among inputs of measured equal cost.
    # Shifting or permuting the poles freely moves the cost by up to 25%.
    s = rnd.choice((1, -1))
    shift = rnd.choice((-8, -7))
    poles = [s * (shift + n) for n in range(max(sz["mul"]))]

    def dense(n: int):
        return PDSeries(QZ, {k: 1 / (z - poles[k]) for k in range(n)}, n)

    a, b = rnd.choice(((1, 2), (-1, 2), (2, -3), (3, 4)))
    mats = [GMatrix(1, s * u, s * v, 1 + u * v) for u, v in ((1, 1), (1, 2), (2, 1))]
    act_mats = rnd.sample(mats, len(mats))
    return {
        "poles": poles,
        "dense": {n: dense(n) for n in set(sz["mul"]) | {sz["inv_dense"], sz["act"], sz["oracle"]}},
        "sparse": PDSeries(QZ, {0: 1, 1: z, 3: 1 / (z - s * a), 4: 1 / (z - s * b)}, sz["inv_sparse"]),
        "sqrt_in": PDSeries(QZ, {0: 4, 1: 1 / (z - s * rnd.randint(1, 3)), 2: z}, sz["sqrt"]),
        "mats": act_mats,
        # the pole is fixed: a pole at 1 makes both residuals markedly cheaper
        "equiv": (1 / (z - 2 * s) + z * z, mats[1], mats[2]),
        "equiv_c": Fraction(rnd.choice((1, -1)), rnd.randint(2, 4)),
    }


def run_qz(rec, inp: dict, sz: dict) -> dict:
    from pdo import RatFunc, act_series, equivariance_residual, series_inverse, series_mul, series_sqrt
    from pdo.serialize import parse_series, series_json

    out = {}
    for n in sz["mul"]:
        q = inp["dense"][n]
        out[f"mul_N{n}"] = rec.job(f"mul_N{n}", "series.series_mul", series_mul, q, q)
    out["inverse_dense"] = rec.job(
        "inverse_dense", "series.series_inverse", series_inverse, inp["dense"][sz["inv_dense"]],
    )
    out["inverse_sparse"] = rec.job("inverse_sparse", "series.series_inverse", series_inverse, inp["sparse"])
    out["sqrt"] = rec.job("sqrt", "series.series_sqrt", series_sqrt, inp["sqrt_in"], RatFunc.const(2))
    # acting on q and on q*q with the same matrices repeats (k, g, order) keys,
    # which is what act_y_power's cache is for
    prod = out[f"mul_N{sz['act']}"]
    for i, g in enumerate(inp["mats"]):
        out[f"act_q_g{i}"] = rec.job(f"act_q_g{i}", "action.act_series", act_series, inp["dense"][sz["act"]], g)
        out[f"act_prod_g{i}"] = rec.job(f"act_prod_g{i}", "action.act_series", act_series, prod, g)
    f, g3, g2 = inp["equiv"]
    out["equiv_w3"] = rec.job("equiv_w3", "lift.equivariance_residual", equivariance_residual, 3, f, g3, sz["equiv"])
    out["equiv_w-2c"] = rec.job(
        "equiv_w-2c", "lift.equivariance_residual", equivariance_residual,
        -2, f, g2, sz["equiv"], c=inp["equiv_c"],
    )
    big = out[f"mul_N{max(sz['mul'])}"]
    out["dump"] = rec.job("dump", "serialize.series_json", lambda s: json.dumps(series_json(s)), big)
    out["parse"] = rec.job("parse", "serialize.parse_series", lambda t: parse_series(json.loads(t)), out["dump"])
    return out


def probe_qz(rec, out: dict, inp: dict, sz: dict) -> None:
    """Per-operation probes of ratfunc and action over the coefficients of the N = act product."""
    from pdo import mobius_compose, slash

    cs = [c for _, c in sorted(out[f"mul_N{sz['act']}"].coeffs.items())]
    g = inp["mats"][0]
    for _ in range(3):
        for a, b in zip(cs, cs[1:]):
            rec.job("probe_ratfunc", "ratfunc.add", a.__add__, b)
            rec.job("probe_ratfunc", "ratfunc.mul", a.__mul__, b)
        for a in cs:
            rec.job("probe_ratfunc", "ratfunc.deriv", a.deriv)
            rec.job("probe_ratfunc", "ratfunc.mobius_compose", mobius_compose, a, g)
            for m in inp["mats"]:
                rec.job("probe_action", "action.slash", slash, a, 2, m)


# -- graded-invariants -----------------------------------------------------

def setup_graded(seed: int, sz: dict) -> dict:
    from pdo import PDSeries, u_power

    rnd = random.Random(seed)
    ring = graded_ring()
    spec = ring.spec
    chi, xi, chi1, one = spec.gen("chi"), spec.gen("xi"), spec.gen("chi", 1), spec.one()
    # weight-0 a_k of a fixed monomial shape; the seed picks the signs, as
    # larger coefficients move the cost of rewrite_in_u by up to 30%
    a = [_sign(rnd) * one + _sign(rnd) * chi1 * chi**-2 + _sign(rnd) * xi**2 * chi**-1 for _ in range(4)]
    q = PDSeries.zero(ring, sz["rewrite"])
    for k, ak in enumerate(a):
        q = q + u_power(k, sz["rewrite"], ring).scale_left(ak)
    return {
        "ring": ring,
        "a": a,
        "q": q,
        "f": _sign(rnd) * xi * chi + _sign(rnd) * xi**3,
        "g": _sign(rnd) * xi + _sign(rnd) * chi * xi**-1,
    }


def run_graded(rec, inp: dict, sz: dict) -> dict:
    from pdo import alpha_table, g_forms, rewrite_in_u, star, v_uniformizer

    ring = inp["ring"]
    out = {}
    for k, l, n in sz["alpha"]:
        out[f"alpha_{k}_{l}_{n}"] = rec.job(f"alpha_{k}_{l}_{n}", "rankin.alpha_table", alpha_table, k, l, n)
    k, n = sz["g_forms"]
    out["g_forms"] = rec.job("g_forms", "invariants.g_forms", g_forms, k, n, ring)
    out["rewrite_in_u"] = rec.job("rewrite_in_u", "invariants.rewrite_in_u", rewrite_in_u, inp["q"])
    out["v"] = rec.job("v", "invariants.v_uniformizer", v_uniformizer, sz["v"], ring)
    out["star"] = rec.job("star", "rankin.star", star, inp["f"], inp["g"], sz["star"])
    return out


def probe_graded(rec, inp: dict, sz: dict) -> None:
    """Per-operation probes of GradedElem over the outputs of g_forms at probe size."""
    from pdo import GradedElem, g_forms

    k, n = sz["probe_g"]
    es = [e for _, e in sorted(g_forms(k, n, inp["ring"]).items()) if not e.is_zero()]
    spec = inp["ring"].spec
    for _ in range(3):
        for e in es:
            rec.job("probe_graded", "graded.ctor", GradedElem, spec, e.terms)
            rec.job("probe_graded", "graded.deriv", e.deriv)
        for a, b in zip(es, es[1:]):
            rec.job("probe_graded", "graded.add", a.__add__, b)
            rec.job("probe_graded", "graded.mul", a.__mul__, b)


# -- cli-small -------------------------------------------------------------

CLI_KINDS = (
    "slash", "act", "inv", "mul", "lift", "alpha-table", "g-table", "rc", "star",
    "v-uniformizer", "verify",
)
# small parameter ranges per suite, so every verify call checks something
VERIFY_PARAMS = {
    "RHO": {"umax": (4, 8)}, "ODDPROD": {"mmax": (2, 4), "smax": (2, 4)},
    "WZ1": {"pmax": (2, 4)}, "WZ2": {"pmax": (2, 4)}, "WZ3": {"pmax": (2, 4)},
    "WZ4": {"pmax": (2, 4)}, "BOL": {"hmax": (1, 2)},
    "RECUNEG": {"kmax": (1, 2), "jmax": (2, 3)}, "COMMLAW": {"imax": (1, 2), "order": (6, 6)},
    "GROUPLAW": {"cases": (1, 2), "order": (6, 6), "seed": (0, 99)},
    "ALPHAKU": {"umax": (2, 3), "kmax": (1, 2)},
}


def _lit(v) -> str:
    return json.dumps(v, separators=(",", ":"))


def _cli_job(kind: str, rnd: random.Random, ring):
    """(argv, expected thunk, parser of the output JSON) for one small job."""
    from pdo import (
        QZ, PDSeries, RatFunc, act_series, alpha_table, g_forms, psi, rc_bracket,
        run_suite, series_inverse, series_mul, slash, star, v_uniformizer,
    )
    from pdo.serialize import (
        gmatrix_json, graded_json, parse_family, parse_graded, parse_ratfunc,
        parse_series, ratfunc_json, series_json,
    )

    z = RatFunc.z()
    spec = ring.spec

    def rf():
        return _nz(rnd, 3) / (z - rnd.randint(-5, 5)) + rnd.randint(-2, 2) * z

    def ser(order: int):
        return PDSeries(QZ, {n: rf() for n in range(order)}, order)

    if kind == "slash":
        f, k, g = rf(), rnd.randint(-2, 4), _translation(rnd)
        return (["slash", _lit(ratfunc_json(f)), "--weight", str(k), "--matrix", _lit(gmatrix_json(g))],
                lambda: slash(f, k, g), parse_ratfunc)
    if kind == "act":
        q, g = ser(5), _translation(rnd)
        return (["act", _lit(series_json(q)), "--matrix", _lit(gmatrix_json(g))],
                lambda: act_series(q, g), parse_series)
    if kind == "inv":
        q = PDSeries(QZ, {0: 1, 1: rf(), 2: rnd.randint(1, 3) * z}, 6)
        return (["inv", _lit(series_json(q))], lambda: series_inverse(q), parse_series)
    if kind == "mul":
        p, q = ser(5), ser(5)
        return (["mul", _lit(series_json(p)), _lit(series_json(q))], lambda: series_mul(p, q), parse_series)
    if kind == "lift":
        f, m = rf(), rnd.choice((0, 1, 2, 3, -2))
        return (["lift", _lit(ratfunc_json(f)), "--weight", str(m), "--order", "8"],
                lambda: psi(m, f, 8), parse_series)
    if kind == "alpha-table":
        k, l, n = rnd.randint(1, 3), rnd.randint(1, 3), rnd.randint(3, 5)
        return (["alpha-table", "--k", str(k), "--l", str(l), "--nmax", str(n)],
                lambda: alpha_table(k, l, n), lambda v: [Fraction(x) for x in v["alpha"]])
    if kind == "g-table":
        k = rnd.randint(1, 3)
        n = k + rnd.randint(2, 3)
        return (["g-table", "--k", str(k), "--nmax", str(n)], lambda: g_forms(k, n, ring),
                lambda v: {int(w): parse_graded(e, spec) for w, e in v["entries"].items()})
    if kind == "rc":
        f, g = rf(), rf()
        k, l, n = rnd.randint(1, 4), rnd.randint(1, 4), rnd.randint(0, 3)
        return (["rc", _lit(ratfunc_json(f)), _lit(ratfunc_json(g)), "--k", str(k), "--l", str(l), "--n", str(n)],
                lambda: rc_bracket(f, g, k, l, n), parse_ratfunc)
    if kind == "star":
        chi, xi = spec.gen("chi"), spec.gen("xi")
        f = _nz(rnd, 3) * rnd.choice((chi, xi * xi, chi**2 * xi**-2))
        g = _nz(rnd, 3) * rnd.choice((xi, chi * xi**-1))
        order = rnd.randint(6, 8)
        return (["star", _lit(graded_json(f)), _lit(graded_json(g)), "--order", str(order)],
                lambda: star(f, g, order), parse_family)
    if kind == "v-uniformizer":
        order = rnd.randint(5, 9)
        return (["v-uniformizer", "--order", str(order)], lambda: v_uniformizer(order, ring), parse_series)
    suite = rnd.choice(sorted(VERIFY_PARAMS))
    params = {k: rnd.randint(lo, hi) for k, (lo, hi) in VERIFY_PARAMS[suite].items()}
    argv = ["verify", suite]
    for key, val in params.items():
        argv += [f"--{key}", str(val)]
    return argv, lambda: run_suite(suite, **params), lambda v: v


def setup_cli(seed: int, sz: dict) -> dict:
    rnd = random.Random(seed)
    ring = graded_ring()
    # every kind appears n // 11 or n // 11 + 1 times, so the mix's cost does
    # not depend on the seed; the seed picks the order and the inputs
    kinds = [CLI_KINDS[i % len(CLI_KINDS)] for i in range(sz["cli"])]
    rnd.shuffle(kinds)
    return {"ring": ring, "jobs": [(f"cli_{i:03d}_{kind}", kind, *_cli_job(kind, rnd, ring))
                                   for i, kind in enumerate(kinds)]}


SETUP = {"qz-swell": setup_qz, "graded-invariants": setup_graded, "cli-small": setup_cli}


def run_cli(rec, inp: dict, env: dict) -> dict:
    return {name: rec.job(name, "cli.process", _cli_process, argv, env) for name, _, argv, _, _ in inp["jobs"]}


def _cli_process(argv: list[str], env: dict) -> str:
    proc = subprocess.run(
        [sys.executable, "-m", "pdo.cli", *argv], env=env, capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    return proc.stdout


def probe_cli(rec, inp: dict, env: dict, pairs: int) -> dict:
    """In-process pdo.cli.main on the same mix, and import cost as process pairs."""
    import contextlib
    import io

    from pdo.cli import main

    def in_process(argv):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = main(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}")
        return buf.getvalue()

    mains = {name: rec.job("probe_cli_main", "cli.main", in_process, argv) for name, _, argv, _, _ in inp["jobs"]}
    for _ in range(pairs):
        for layer, code in (("cli.interpreter", "pass"), ("cli.import", "import pdo.cli")):
            # captured pipes make the wait event-driven; a bare wait with a
            # timeout polls in steps of up to 50 ms
            rec.job("probe_cli_import", layer, subprocess.run,
                    [sys.executable, "-c", code], env=env, check=True, capture_output=True, timeout=60)
    return mains
