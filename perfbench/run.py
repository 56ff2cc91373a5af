"""Benchmark of pdo: seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload qz-swell --seed 0 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --smoke

Run from anywhere inside a checkout that holds src/pdo.  One closed-loop
client: repetitions run one after another, each in a fresh process
(perfbench/rep.py) with PYTHONPATH=src and its own PYTHONHASHSEED, so no
cache or import carries over and the output digest is compared across hash
seeds.  ``--trace 0`` repeats the workload for ``--seconds`` and reports the
end-to-end metrics; ``--trace 1`` runs one untraced and one traced
repetition of the workload plus one traced repetition of every other
workload, so every layer is measured, and reports the per-layer metrics and
the tracing overhead.  ``--smoke`` runs every workload and check at tiny
sizes, twice under different hash seeds, with no timing assertion.

The last stdout line is {"correct", "attempted", "failed", "metrics"}
(``--workload all`` prints one such line per workload); a report goes to
stderr and the full record, spans included, to
perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUDGET_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 21


class RepFailed(Exception):
    pass


def spawn(workload: str, seed: int, hash_seed: int, deadline: float, *flags: str) -> dict:
    """Run one repetition in a fresh process and return its JSON record."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload, "--seed", str(seed), *flags]
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=str(hash_seed))
    t0 = time.monotonic()
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the group holds any CLI child too
        proc.communicate()
        raise RepFailed(f"{workload}: repetition did not finish within the run's time budget") from None
    if proc.returncode != 0:
        raise RepFailed(f"{workload}: repetition exited {proc.returncode}:\n{err.strip()[-3000:]}")
    rec = json.loads(out.strip().splitlines()[-1])
    rec["process_s"] = time.monotonic() - t0
    return rec


def recorded_digest(workload: str, seed: int) -> str | None:
    return json.loads((HERE / "digests.json").read_text()).get(workload, {}).get(str(seed))


def verdict(reps: list[dict], full: list[dict], workload: str, seed: int, smoke: bool) -> tuple[list[str], int, int]:
    """Problems found, jobs attempted and jobs failed over the repetitions of one workload.

    ``full`` are the repetitions that ran the independent checks; every other
    repetition is checked by its digest against theirs.
    """
    problems = [f"{workload}: {p}" for r in reps for p in r["errors"] + r["check_failures"]]
    problems += [f"{workload}: a repetition ran no checks" for r in full if r["checks"] == 0]
    reference = full[0]["digest"]
    failed = 0
    for r in reps:
        if r["digest"] != reference:
            problems.append(f"{workload}: digest under PYTHONHASHSEED={r['hash_seed']} differs")
            failed += r["attempted"]
        elif any(r is f for f in full):
            failed += r["failed"]
        else:  # the same outputs as the checked repetition, so the same failures
            failed += full[0]["failed"]
    expected = None if smoke else recorded_digest(workload, seed)
    if expected is not None and expected != reference:
        problems.append(f"{workload}: digest {reference[:16]} differs from the recorded {expected[:16]}")
        failed = sum(r["attempted"] for r in reps)
    return problems, sum(r["attempted"] for r in reps), failed


def untraced(workload: str, seed: int, seconds: int, deadline: float) -> tuple[dict, list, int, int, list]:
    start = time.monotonic()
    reps = [spawn(workload, seed, 1, deadline, "--full-checks")]
    # start another repetition only while it is expected to end within --seconds
    while time.monotonic() + reps[-1]["setup_s"] + reps[-1]["wall_s"] + 0.5 <= start + seconds:
        reps.append(spawn(workload, seed, len(reps) + 1, deadline))
    setups = [r["setup_s"] for r in reps]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, len(reps) + len(setups) + 1, deadline, "--setup-only")["setup_s"])
    problems, attempted, failed = verdict(reps, reps[:1], workload, seed, smoke=False)
    # per-job medians over the repetitions, so each quantile sits at a fixed
    # rank among the workload's jobs whatever the number of repetitions
    calls = [statistics.median(c) for c in zip(*(r["calls_ms"] for r in reps))]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "ok_frac": (attempted - failed) / attempted,
        "call_ms.p50": statistics.median(calls),
        "call_ms.p90": statistics.quantiles(calls, n=10, method="inclusive")[8],
    }
    print(f"samples: wall_s and peak_rss_mb over {len(reps)} repetitions, setup_s over {len(setups)} "
          f"processes, call_ms over {len(calls)} per-job medians", file=sys.stderr)
    return metrics, problems, attempted, failed, reps


def traced(workload: str, seed: int, deadline: float, smoke: bool) -> tuple[dict, list, int, int, list]:
    size = ["--smoke"] if smoke else []
    base = spawn(workload, seed, 1, deadline, "--full-checks", *size)
    order = [workload] + [w for w in wl.WORKLOADS if w != workload]
    runs = {w: spawn(w, seed, 2, deadline, "--trace", "--full-checks", *size) for w in order}
    problems, attempted, failed = [], 0, 0
    for w, r in runs.items():
        reps = [base, r] if w == workload else [r]
        p, a, f = verdict(reps, reps, w, seed, smoke)
        problems, attempted, failed = problems + p, attempted + a, failed + f
    metrics = {}
    for r in runs.values():
        metrics.update(r["layers"])
    for mod in runs[workload]["failed_by_module"]:
        metrics[f"{mod}.failed"] = sum(r["failed_by_module"][mod] for r in runs.values())
    metrics["trace.overhead_s"] = runs[workload]["wall_s"] - base["wall_s"]
    return metrics, problems, attempted, failed, [base, *runs.values()]


def write_record(name: str, reps: list[dict], metrics: dict) -> Path:
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    path = out / f"{name}.json"
    spans = [s for r in reps for s in r.pop("spans")]
    path.write_text(json.dumps({"reps": reps, "metrics": metrics, "spans": spans}))
    return path


def report(reps: list[dict], metrics: dict, units: dict, problems: list[str], path: Path) -> None:
    for r in reps:
        print(
            f"{r['workload']:18s} seed={r['seed']} hash_seed={r['hash_seed']} python={r['python']} "
            f"nproc={r['nproc']} setup={r['setup_s']:.3f}s wall={r['wall_s']:.3f}s "
            f"checks={r['checks']} digest={r['digest'][:16]}",
            file=sys.stderr,
        )
    for name, v in metrics.items():
        print(f"  {name:34s} {v:.6g} {units.get(name, '')}", file=sys.stderr)
    if "trace.overhead_s" in metrics:
        print(f"tracing overhead: {metrics['trace.overhead_s']:+.3f} s (traced minus untraced wall_s)",
              file=sys.stderr)
    bad, cases = reps[0]["known_defect"]
    if bad:
        print(f"KNOWN DEFECT: {bad} of {cases} slash results by matrices with c != 0 do not survive a "
              f"serialize round trip (RatFunc.num); cli-small acts by translations until it is fixed "
              f"(perfbench/NOTES.md)", file=sys.stderr)
    for p in problems:
        print(f"PROBLEM {p}", file=sys.stderr)
    print(f"record: {path.relative_to(ROOT)}", file=sys.stderr)


def measure(args, workload: str | None) -> bool:
    """Run one workload, or the smoke set when ``workload`` is None; print its
    report and result line and return whether its outputs were correct."""
    deadline = time.monotonic() + BUDGET_S
    if workload is None:
        metrics, problems, attempted, failed, reps = traced(wl.WORKLOADS[0], args.seed, deadline, smoke=True)
        for w in wl.WORKLOADS[1:]:
            first = next(r for r in reps if r["workload"] == w)
            again = spawn(w, args.seed, 3, deadline, "--smoke")
            p, a, f = verdict([again], [first], w, args.seed, smoke=True)
            problems, attempted, failed = problems + p, attempted + a, failed + f
            reps.append(again)
        name = f"smoke-seed{args.seed}"
    elif args.trace:
        metrics, problems, attempted, failed, reps = traced(workload, args.seed, deadline, smoke=False)
        name = f"{workload}-seed{args.seed}-trace1"
    else:
        metrics, problems, attempted, failed, reps = untraced(workload, args.seed, args.seconds, deadline)
        name = f"{workload}-seed{args.seed}-trace0"
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end" if workload and not args.trace else "per_layer"]}
    if workload and set(metrics) != set(units):  # smoke sizes rename the sized metrics
        problems.append(f"metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}")
    path = write_record(name, reps, metrics)
    report(reps, metrics, units, problems, path)
    result = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in units.items() if n in metrics},
    }
    print(json.dumps(result), flush=True)
    return result["correct"]


def main() -> int:
    ap = argparse.ArgumentParser(description="Benchmark of pdo; see perfbench/NOTES.md.")
    ap.add_argument("--workload", choices=(*wl.WORKLOADS, "all"),
                    help="'all' runs every workload in turn, printing one result line each")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=40)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="every workload and check at tiny sizes")
    args = ap.parse_args()
    if not (ROOT / "src" / "pdo" / "__init__.py").is_file():
        print(f"perfbench: no src/pdo under {ROOT}; run it in a checkout of the repository", file=sys.stderr)
        return 2
    if args.workload is None and not args.smoke:
        ap.error("--workload is required unless --smoke is given")
    try:
        if args.smoke:
            return 0 if measure(args, None) else 1
        for w in wl.WORKLOADS if args.workload == "all" else (args.workload,):
            measure(args, w)
    except RepFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
