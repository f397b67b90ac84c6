"""stabgraph benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload orbit-census --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (the library is imported from
``src/``). The inputs are built from the seed in this process; the
measuring happens in fresh interpreters (see ``worker.py``); the outputs are
then re-checked here with the benchmark's own arithmetic.

The last line of stdout is the result:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
With ``--trace 0`` the metrics are the end-to-end ones, with ``--trace 1``
the per-layer ones from a traced run. The line before it holds the details:
the input digest, input-generation time, sample counts, the failure ratio,
gate errors and absent trace targets. A traced run measures a fixed amount
of work (``--seconds`` is ignored) so its counters repeat exactly; it also
writes its span table to ``.bench_work/traces/``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from types import SimpleNamespace

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "bench")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_RUNS = 9
TIME_LIMIT = 170.0
MODULES = ("clifford", "equivalence", "gf2", "graphs")


def _worker(plan_path, mode, seconds, deadline):
    out = f"{plan_path}.{mode}.{time.monotonic_ns()}.json"
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), plan_path, out, mode, str(seconds)]
    subprocess.run(cmd, cwd=ROOT, check=True, timeout=max(1.0, deadline - time.monotonic()))
    with open(out) as f:
        return json.load(f)


def _end_to_end(res, setups):
    lat = res["latencies"]
    return {
        "throughput_ops_s": (len(lat) / res["busy_s"], "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_p90_ms": (statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["maxrss_kb"] / 1024.0, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    deadline = time.monotonic() + TIME_LIMIT
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stabgraph", "cli.py")):
        print(f"error: no library source at {src}; run from a stabgraph checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    lib = SimpleNamespace(**{m: importlib.import_module(f"stabgraph.{m}") for m in MODULES})
    workload = workloads.WORKLOADS[args.workload]

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        t0 = time.perf_counter()
        plan, truth, digest = workload.generate(args.seed, workdir, lib)
        gen_s = time.perf_counter() - t0
        plan_path = os.path.join(workdir, "plan.json")
        with open(plan_path, "w") as f:
            json.dump(plan, f)

        if args.trace:
            res = _worker(plan_path, "trace", args.seconds, deadline)
            metrics = res["layer_metrics"]
        else:
            setup_runs = [_worker(plan_path, "setup", 0, deadline) for _ in range(SETUP_RUNS)]
            res = _worker(plan_path, "measure", args.seconds, deadline)
            setup_runs.append(res)
            setups = [r["setup_s"] for r in setup_runs]
            metrics = _end_to_end(res, setups)
        errors = workload.check(plan, truth, res["summary"], lib)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    details = {
        "workload": args.workload,
        "seed": args.seed,
        "input_digest": digest,
        "input_generation_s": gen_s,
        "fail_ratio": res["failed"] / res["attempted"],
        "errors": errors,
    }
    if args.trace:
        details["absent"] = res["absent"]
        os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
        trace_path = os.path.join(WORK, "traces", f"{args.workload}-seed{args.seed}.json")
        with open(trace_path, "w") as f:
            json.dump({"details": details, "metrics": metrics, "spans": res["spans"]}, f, indent=1)
    else:
        p90 = metrics["latency_p90_ms"][0] / 1e3
        details.update(
            samples=len(res["latencies"]),
            samples_beyond_p90=sum(1 for x in res["latencies"] if x > p90),
            cycles=res["cycles"],
            setup_samples=setups,
            wall_latency_p50_ms=statistics.median(res["walls"]) * 1e3,
            wall_latency_p90_ms=statistics.quantiles(res["walls"], n=10)[8] * 1e3,
            wall_setup_s=statistics.median(r["setup_wall_s"] for r in setup_runs),
        )
    print(json.dumps(details))
    print(json.dumps({
        "correct": not errors,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
