"""Closed-loop benchmark of weylorbits: one client, one job at a time.

Run from the repository root:

    python3 perfbench/run.py --workload exact --seed 1 --seconds 45 --trace 0

Each job starts when the previous one has finished. The run executes whole
cycles of its workload (see ``workloads.py``), as many as bring the timed
job time nearest to ``--seconds``; correctness checks, input generation
and the host-speed reference of ``yardstick.py`` run outside the timed
region. The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1``. The lines before it state the environment, the input
sizes, the tail percentile and sample count, the host factor and the
job times as measured, the error rate, the repeat share and the digest
of the first cycle's exact outputs.

``jobs_per_s``, ``job_p50_ms`` and ``job_tail_ms`` are computed from the
job latencies scaled to reference host speed (see ``yardstick.py``);
``setup_s`` and ``peak_rss_mb`` are as measured.

``--trace 1`` first runs the same command with ``--trace 0`` in a child
process, then runs as many cycles as the child did with spans on, so the
ratio of the two scaled timed totals is the tracing overhead. Per-layer
counts and times are per cycle; the times are as measured. The spans
are written to ``perfbench/out/trace_<workload>_<seed>.json``.

``setup_s`` is the median wall time of ``SETUP_RUNS`` fresh interpreters
that import ``numpy`` and ``weylorbits``, build the workload's root
systems and projections and draw its first cycle (``--setup-only``).
The program runs from ``src/`` of this checkout; nothing is installed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_RUNS = 5
TAIL_BEYOND = 10  # jobs beyond the reported tail percentile
BLAS_THREADS = 1  # one client; at most nproc
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CHILD_TIMEOUT_S = 150


def prepare() -> None:
    """Pin BLAS threads (before numpy loads) and import from ``src/``."""
    if not (SRC / "weylorbits" / "__init__.py").is_file():
        sys.exit(f"perfbench: no weylorbits sources under {SRC}")
    for var in BLAS_VARS:
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import weylorbits

    if Path(weylorbits.__file__).resolve().parent != SRC / "weylorbits":
        sys.exit(f"perfbench: weylorbits imported from {weylorbits.__file__}, not {SRC}")


def run_cycles(wl, tr, seconds: float, cycles: int | None = None) -> dict:
    """Run the whole cycles whose timed total comes nearest to ``seconds``
    (at least one), or exactly ``cycles`` cycles; check every job outside
    the timing."""
    from yardstick import REF_S, host_factors, reference

    latencies: list[float] = []
    refs: list[float] = []  # reference() after each job, see yardstick.py
    failed = repeats = done = 0
    max_err = 0.0
    seen: set = set()
    digest = hashlib.sha256()
    jobs = wl.first_cycle
    while True:
        for job in jobs:
            tr.job += 1
            if job.key in seen:
                repeats += 1
            seen.add(job.key)
            t0 = time.perf_counter()
            if tr.enabled:
                tr.open("bench.other_s")
            try:
                out, error = job.run(tr), None
            except Exception as exc:  # a failing job is counted, the run goes on
                out, error = None, exc
            finally:
                if tr.enabled:
                    tr.close()
            latencies.append(time.perf_counter() - t0)
            refs.append(reference())
            if error is None:
                try:
                    max_err = max(max_err, job.check(out))
                    if done == 0:
                        digest.update(f"{job.kind}:{job.digest(out)}\n".encode())
                except Exception as exc:  # a check that raises is a failed check
                    error = exc
            if error is not None:
                failed += 1
                print(f"perfbench: {job.kind} job failed: {error!r}", file=sys.stderr)
        done += 1
        if cycles is not None:
            if done >= cycles:
                break
        elif (timed := sum(latencies)) + timed / done / 2 >= seconds:
            break  # one more cycle would end farther from ``seconds``
        jobs = wl.make_cycle()
    return {
        "latencies": latencies,
        "scaled": [t / f for t, f in zip(latencies, host_factors(refs))],
        "factor": statistics.median(refs) / REF_S,
        "failed": failed,
        "cycles": done,
        "repeat_share": repeats / len(latencies),
        "max_err": max_err,
        "digest": digest.hexdigest(),
    }


def _child(args: list[str]) -> str:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        sys.exit(f"perfbench: child run {args} exited with {proc.returncode}")
    return proc.stdout


def measure_setup(workload: str, seed: int) -> float:
    times = []
    for _ in range(SETUP_RUNS):
        t0 = time.perf_counter()
        _child(["--setup-only", "--workload", workload, "--seed", str(seed)])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND jobs beyond it,
    and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = max(n - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / n


def environment(seed: int) -> dict:
    import numpy

    sha = "none"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() or "none"
    return {
        "git": sha,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": BLAS_THREADS,
        "seed": seed,
    }


def layer_metrics(spec: list[dict], tr, res: dict, overhead: float) -> dict:
    cycles = res["cycles"]
    times = tr.self_times()
    counts = tr.counts
    special = {
        "orbit_algebra.closed_form_share": (
            counts["orbit_algebra.closed_form_products"] / counts["orbit_algebra.auto_products"]
            if counts["orbit_algebra.auto_products"] else 0.0
        ),
        "transform.max_err": res["max_err"],
        "bench.trace_overhead": overhead,
    }
    out = {}
    for m in spec:
        name = m["name"]
        if name in special:
            value = special[name]
        elif m["unit"] == "s":
            value = times.get(name, 0.0) / cycles
        else:
            value = counts[name] / cycles
        out[name] = {"value": value, "unit": m["unit"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up the workload and exit (times setup_s)")
    args = parser.parse_args(argv)

    prepare()
    from spans import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}")
    if args.setup_only:
        WORKLOADS[args.workload](args.seed)
        return 0
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    wl = WORKLOADS[args.workload](args.seed)
    cycles = None
    if args.trace:
        child = _child(["--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", str(args.seconds), "--trace", "0"])
        untraced = json.loads(child.strip().splitlines()[-1])
        untraced_s = untraced["attempted"] / untraced["metrics"]["jobs_per_s"]["value"]
        cycles = untraced["attempted"] // len(wl.first_cycle)
    else:
        setup_s = measure_setup(args.workload, args.seed)
    tr = Tracer(enabled=bool(args.trace))
    res = run_cycles(wl, tr, args.seconds, cycles)

    lat, scaled = res["latencies"], res["scaled"]
    attempted, failed = len(lat), res["failed"]
    timed_s = sum(lat)
    if args.trace:
        metrics = layer_metrics(spec["per_layer"], tr, res, sum(scaled) / untraced_s)
        out_dir = BENCH / "out"
        out_dir.mkdir(exist_ok=True)
        tr.write(out_dir / f"trace_{args.workload}_{args.seed}.json")
    else:
        def times(lat):
            return {
                "jobs_per_s": attempted / sum(lat),
                "job_p50_ms": statistics.median(lat) * 1e3,
                "job_tail_ms": tail(lat)[0] * 1e3,
            }

        values = times(scaled)
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = setup_s
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        print(f"job_tail_ms is p{tail(lat)[1]:.2f} of {attempted} jobs")
        print(f"host factor {res['factor']:.4f} (median); as measured, unscaled:"
              + "".join(f" {k} {v}" for k, v in times(lat).items()))

    print(f"env {json.dumps(environment(args.seed))}")
    print(f"workload {args.workload}: {wl.inputs}")
    print(f"cycles {res['cycles']}  jobs {attempted}  timed {timed_s:.3f} s")
    print(f"error_rate {failed / attempted} ({failed} of {attempted} jobs)")
    print(f"repeat_share {res['repeat_share']:.4f}")
    print(f"output_digest sha256:{res['digest']}")
    for name, m in metrics.items():
        print(f"{name} {m['value']} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
