"""Record the full-size output digests of seeds 0 to 20 in perfbench/digests.json.

    python3 perfbench/record_digests.py

Each workload runs once per seed under PYTHONHASHSEED 1 and again under 2.
The two digests must agree; the script stops without writing if they do not.
It rewrites digests.json whole, so no digest of an earlier output is kept.
Run it only after a change that is meant to alter outputs, and say which
outputs changed and why.
"""

from __future__ import annotations

import json
import sys
import time

import run
import workloads as wl

SEEDS = range(21)


def main() -> int:
    recorded: dict[str, dict[str, str]] = {}
    for w in wl.WORKLOADS:
        for seed in SEEDS:
            a, b = (run.spawn(w, seed, h, time.monotonic() + 600)["digest"] for h in (1, 2))
            if a != b:
                print(f"{w} seed {seed}: digest differs between hash seeds", file=sys.stderr)
                return 1
            recorded.setdefault(w, {})[str(seed)] = a
            print(w, seed, a, flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
