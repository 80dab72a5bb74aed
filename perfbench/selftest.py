"""Seed-invariance self-test of the benchmark workloads.

Run from the repository root:

    python3 perfbench/selftest.py

Runs one cycle of every workload for two seeds. The counts that fix a
workload's size must not depend on the seed, every job must pass its
check, and the two seeds must draw different inputs (different output
digests). Exits 1 on any mismatch.
"""

from __future__ import annotations

import sys

import run

INVARIANT = (
    "weyl.orbit_points",
    "orbit_algebra.product_pairs",
    "orbit_algebra.branch_points",
    "orbit_algebra.closed_form_share",
    "transform.quad_nodes",
)
SEEDS = (1, 2)


def one_cycle(workload, seed: int):
    from spans import Tracer

    tr = Tracer(enabled=False)
    res = run.run_cycles(workload(seed), tr, seconds=0.0, cycles=1)
    spec = [{"name": name, "unit": "count"} for name in INVARIANT]
    counts = {k: m["value"] for k, m in run.layer_metrics(spec, tr, res, 1.0).items()}
    return counts, res


def main() -> int:
    run.prepare()
    from workloads import WORKLOADS

    ok = True
    for name, workload in WORKLOADS.items():
        (a, res_a), (b, res_b) = (one_cycle(workload, seed) for seed in SEEDS)
        same = a == b
        failed = res_a["failed"] + res_b["failed"]
        differ = res_a["digest"] != res_b["digest"]
        ok = ok and same and failed == 0 and differ
        print(f"{name}: counts {'equal' if same else 'DIFFER'} for seeds {SEEDS};"
              f" failed jobs {failed}; digests {'differ' if differ else 'EQUAL'}")
        for key in INVARIANT:
            print(f"  {key}: {a[key]} / {b[key]}")
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
