"""One repetition of one workload, in a fresh process.

    PYTHONPATH=src python3 perfbench/rep.py --workload qz-swell --seed 0 [--trace] [--full-checks]

pdo is imported only after the set-up clock starts, so ``setup_s`` is the
import plus input generation.  The last stdout line is one JSON object: the
timings, the check counts, a sha256 digest of the outputs and, when traced,
the spans and the per-layer numbers read from them.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from fractions import Fraction
from time import perf_counter

import checks
import workloads as wl

MODULES = ("ratfunc", "graded", "series", "action", "lift", "rankin", "invariants", "serialize", "cli")


class Recorder:
    """Times each call into a layer; with tracing on also keeps its span.

    A span is (layer, start, end, job, workload), layer being
    ``module.function``.  Spans are taken only around calls from the
    benchmark into pdo, so they never nest and a span's self time is its
    duration.
    """

    def __init__(self, workload: str, trace: bool):
        self.workload = workload
        self.trace = trace
        self.calls: list[tuple[str, str, float]] = []
        self.spans: list[tuple[str, float, float, str, str]] = []
        self.errors: dict[int, str] = {}

    def job(self, job: str, layer: str, fn, *args, **kwargs):
        t0 = perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed job, not a failed benchmark
            out = None
            self.errors[len(self.calls)] = f"{job} {layer}: {type(exc).__name__}: {exc}"
        t1 = perf_counter()
        self.calls.append((job, layer, t1 - t0))
        if self.trace:
            self.spans.append((layer, t0, t1, job, self.workload))
        return out

    def seconds(self, layer: str) -> list[float]:
        """Durations of the spans of one layer."""
        return [t1 - t0 for name, t0, t1, _, _ in self.spans if name == layer]

    def job_seconds(self) -> dict[str, float]:
        """Duration of each span by job, for jobs made of one call."""
        return {job: t1 - t0 for _, t0, t1, job, _ in self.spans}


def canonical(v):
    """JSON-ready form of an output, through pdo.serialize."""
    from pdo import GradedElem, PDSeries, RatFunc, WeightedFamily
    from pdo.serialize import family_json, frac_str, graded_json, ratfunc_json, series_json

    if isinstance(v, PDSeries):
        return series_json(v)
    if isinstance(v, WeightedFamily):
        return family_json(v)
    if isinstance(v, GradedElem):
        return graded_json(v)
    if isinstance(v, RatFunc):
        return ratfunc_json(v)
    if isinstance(v, Fraction):
        return frac_str(v)
    if isinstance(v, dict):
        return {str(k): canonical(x) for k, x in v.items()}
    if isinstance(v, list):
        return [canonical(x) for x in v]
    if isinstance(v, str):  # JSON text written by the CLI or by serialize
        return json.loads(v)
    return v


def digest(outputs: dict) -> str:
    text = json.dumps(canonical(outputs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _us(xs: list[float]) -> float:
    return statistics.fmean(xs) * 1e6


def _ratfuncs(out: dict):
    from pdo import PDSeries

    for v in out.values():
        if isinstance(v, PDSeries):
            yield from v.coeffs.values()


def qz_layers(rec: Recorder, out: dict, sz: dict, cache) -> dict:
    job_s = rec.job_seconds()
    m = {f"series.mul_s.N{n}": job_s[f"mul_N{n}"] for n in sz["mul"]}
    ns, ts = sz["mul"], [m[f"series.mul_s.N{n}"] for n in sz["mul"]]
    lx = [math.log(n) for n in ns]
    ly = [math.log(t) for t in ts]
    mx, my = statistics.fmean(lx), statistics.fmean(ly)
    m["series.mul_exponent"] = sum((x - mx) * (y - my) for x, y in zip(lx, ly)) / sum((x - mx) ** 2 for x in lx)
    m[f"series.inverse_s.dense{sz['inv_dense']}"] = job_s["inverse_dense"]
    m[f"series.inverse_s.sparse{sz['inv_sparse']}"] = job_s["inverse_sparse"]
    m[f"series.sqrt_s.{sz['sqrt']}"] = job_s["sqrt"]
    m["series.out_terms"] = sum(
        len(out[j].coeffs) for j in out if j.startswith(("mul_", "inverse_", "sqrt")) and out[j] is not None
    )
    for op in ("add", "mul", "deriv", "mobius_compose"):
        m[f"ratfunc.{op.split('_')[0]}_us"] = _us(rec.seconds(f"ratfunc.{op}"))
    # swell is read from the stored form sc * nump / denp, not from the num/den views
    fs = list(_ratfuncs(out))
    m["ratfunc.out_max_deg"] = max(max(len(f.nump), len(f.denp)) - 1 for f in fs)
    m["ratfunc.out_max_bits"] = max(
        max(f.sc.numerator.bit_length(), f.sc.denominator.bit_length(), *(c.bit_length() for c in (*f.nump, *f.denp)))
        for f in fs
    )
    m["action.act_series_s"] = sum(rec.seconds("action.act_series"))
    m["action.slash_us"] = _us(rec.seconds("action.slash"))
    m["action.cache_hits"] = cache.hits
    m["action.cache_misses"] = cache.misses
    m["action.cache_hit_ratio"] = cache.hits / (cache.hits + cache.misses)
    m["lift.equivariance_s"] = sum(rec.seconds("lift.equivariance_residual"))
    m["serialize.dump_ms"] = job_s["dump"] * 1e3
    m["serialize.parse_ms"] = job_s["parse"] * 1e3
    return m


def graded_layers(rec: Recorder, out: dict, sz: dict) -> dict:
    job_s = rec.job_seconds()
    m = {f"rankin.alpha_table_s.{k}_{l}_{n}": job_s[f"alpha_{k}_{l}_{n}"] for k, l, n in sz["alpha"]}
    m["rankin.star_s"] = job_s["star"]
    m["invariants.g_forms_s"] = job_s["g_forms"]
    m["invariants.rewrite_in_u_s"] = job_s["rewrite_in_u"]
    m["invariants.v_uniformizer_s"] = job_s["v"]
    for op in ("ctor", "add", "mul", "deriv"):
        m[f"graded.{op}_us"] = _us(rec.seconds(f"graded.{op}"))
    elems = [*out["g_forms"].values(), *out["rewrite_in_u"], *out["v"].coeffs.values(),
             *out["star"].components.values()]
    m["graded.out_max_terms"] = max(len(e.terms) for e in elems)
    return m


def cli_layers(rec: Recorder) -> dict:
    ms = [s * 1e3 for s in rec.seconds("cli.main")]
    return {
        "cli.main_ms.p50": statistics.median(ms),
        "cli.import_ms": (statistics.median(rec.seconds("cli.import"))
                          - statistics.median(rec.seconds("cli.interpreter"))) * 1e3,
    }


def setup(workload: str, seed: int, sz: dict) -> tuple[dict, float]:
    """The workload's inputs and the seconds taken to import pdo and make them."""
    t0 = perf_counter()
    inp = wl.SETUP[workload](seed, sz)
    return inp, perf_counter() - t0


def run(workload: str, seed: int, trace: bool, full_checks: bool, smoke: bool) -> dict:
    sz = wl.SMOKE if smoke else wl.FULL
    inp, setup_s = setup(workload, seed, sz)
    from pdo import act_y_power

    rec = Recorder(workload, trace)
    env = dict(os.environ)
    t0 = perf_counter()
    if workload == "qz-swell":
        out = wl.run_qz(rec, inp, sz)
    elif workload == "graded-invariants":
        out = wl.run_graded(rec, inp, sz)
    else:
        out = wl.run_cli(rec, inp, env)
    wall_s = perf_counter() - t0
    peak = _peak_rss_mb(resource.RUSAGE_CHILDREN if workload == "cli-small" else resource.RUSAGE_SELF)
    cache = act_y_power.cache_info()
    n_timed = len(rec.calls)

    results: list = []
    if trace:
        if workload == "qz-swell":
            wl.probe_qz(rec, out, inp, sz)
        elif workload == "graded-invariants":
            wl.probe_graded(rec, inp, sz)
        else:
            mains = wl.probe_cli(rec, inp, env, pairs=1 if smoke else 7)
            results += checks.check_same_text(mains, out, "in-process main matches process")
    if full_checks:
        if workload == "qz-swell":
            results += checks.check_qz(out, inp, sz)
        elif workload == "graded-invariants":
            results += checks.check_graded(out, inp, sz)
        else:
            results += checks.check_cli(out, inp, "process output")

    failed_jobs = {j for _, jobs, ok in results if not ok for j in jobs}
    failed_calls = [i for i, (j, _, _) in enumerate(rec.calls) if i in rec.errors or j in failed_jobs]
    failed_by_module = {mod: 0 for mod in MODULES}
    for i in failed_calls:
        failed_by_module[rec.calls[i][1].split(".")[0]] += 1
    defect = checks.known_defect_probe()
    layers = {}
    if trace and not rec.errors:
        if workload == "qz-swell":
            layers = qz_layers(rec, out, sz, cache)
        elif workload == "graded-invariants":
            layers = graded_layers(rec, out, sz)
        else:
            layers = cli_layers(rec)
        layers["serialize.roundtrip_mismatches"] = defect[0]

    return {
        "workload": workload,
        "seed": seed,
        "hash_seed": os.environ.get("PYTHONHASHSEED"),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "setup_s": setup_s,
        "wall_s": wall_s,
        "peak_rss_mb": peak,
        "calls_ms": [s * 1e3 for _, _, s in rec.calls[:n_timed]],
        "attempted": len(rec.calls),
        "failed": len(failed_calls),
        "failed_by_module": failed_by_module,
        "checks": len(results),
        "check_failures": [name for name, _, ok in results if not ok],
        "errors": list(rec.errors.values()),
        "digest": digest(out),
        "known_defect": defect,
        "layers": layers,
        "spans": rec.spans,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=wl.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true", help="keep spans and report per-layer numbers")
    ap.add_argument("--full-checks", action="store_true", help="check outputs against independent references")
    ap.add_argument("--smoke", action="store_true", help="tiny sizes")
    ap.add_argument("--setup-only", action="store_true", help="measure set-up and stop")
    args = ap.parse_args()
    if args.setup_only:
        result = {"setup_s": setup(args.workload, args.seed, wl.SMOKE if args.smoke else wl.FULL)[1]}
    else:
        result = run(args.workload, args.seed, args.trace, args.full_checks, args.smoke)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
