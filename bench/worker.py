"""The measuring process: a fresh interpreter per run, one client, one thread.

Usage: worker.py PLAN OUT MODE SECONDS, with MODE one of

* ``setup``: import ``stabgraph.cli``, complete the first request, report the
  CPU time of this thread (``setup_s``, see ``run_cycle``) and the wall
  time of both and exit;
* ``measure``: the same set-up, then a closed loop (the next request starts
  when the previous one returns, no think time) over whole cycles of the
  workload's requests, until SECONDS have passed and at least MIN_SAMPLES
  requests are done;
* ``trace``: the same set-up, then one full cycle untraced and one full cycle
  with every library target wrapped in a span. The work is fixed, not timed,
  so the counters repeat exactly for one seed.

The plan is read before the clock starts; the set-up time covers the
library import and the first request only.
"""

from __future__ import annotations

import importlib
import json
import os
import resource
import sys
import time
import traceback
from types import SimpleNamespace

import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_SAMPLES = 100
MODULES = ("cli", "clifford", "equivalence", "gf2", "graphs", "orbit")


def run_cycle(runner, latencies, wrap=None, walls=None):
    """One full request cycle; returns (busy seconds, attempted, failed).

    The latency of a request is the CPU time of this thread while it runs:
    on a VM of a shared host, wall time also holds the time the hypervisor
    gives the virtual CPU to someone else (steal), which at times doubles a
    request's wall time without the program doing more work. The latency of
    each successful request is appended to ``latencies``, and its wall time
    to ``walls`` when given. Busy seconds are CPU seconds.
    """
    cpu, wall = time.thread_time, time.perf_counter
    busy, attempted, failed = 0.0, 0, 0
    for key, thunk in runner.cycle():
        if wrap is not None:
            thunk = wrap(thunk)
        w0, c0 = wall(), cpu()
        ok, out = _call(thunk)
        dt, dw = cpu() - c0, wall() - w0
        busy += dt
        attempted += 1
        if ok and runner.record(key, out):
            latencies.append(dt)
            if walls is not None:
                walls.append(dw)
        else:
            failed += 1
    return busy, attempted, failed


def _call(thunk):
    try:
        return True, thunk()
    except Exception:  # a failed request is counted, not fatal
        traceback.print_exc()
        return False, None


def measure(runner, seconds, deadline):
    """Whole request cycles until SECONDS have passed and MIN_SAMPLES are in.

    Stopping only between cycles gives every run the same request mix, so
    the spread between runs is the machine's and the seeds', not that of
    where a cut fell inside the cycle.
    """
    latencies, walls, busy, attempted, failed, cycles = [], [], 0.0, 0, 0, 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or attempted < MIN_SAMPLES:
        b, a, f = run_cycle(runner, latencies, walls=walls)
        busy, attempted, failed, cycles = busy + b, attempted + a, failed + f, cycles + 1
        if time.perf_counter() >= deadline:
            break
    return latencies, walls, busy, attempted, failed, cycles


def main(argv):
    plan_path, out_path, mode, seconds = argv[0], argv[1], argv[2], float(argv[3])
    with open(plan_path) as f:
        plan = json.load(f)
    workload = workloads.WORKLOADS[plan["workload"]]

    t0, c0 = time.perf_counter(), time.thread_time()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    importlib.import_module("stabgraph.cli")
    lib = SimpleNamespace(**{m: importlib.import_module(f"stabgraph.{m}") for m in MODULES})
    runner = workload.Runner(plan, lib)
    key, thunk = next(iter(runner.cycle()))
    if not runner.record(key, thunk()):
        raise RuntimeError("the warm-up request failed")
    result = {"setup_s": time.thread_time() - c0, "setup_wall_s": time.perf_counter() - t0}
    if mode == "measure":
        lat, walls, busy, attempted, failed, cycles = measure(runner, seconds, t0 + 150.0)
        result.update(latencies=lat, walls=walls, busy_s=busy, attempted=attempted, failed=failed,
                      cycles=cycles)
    elif mode == "trace":
        import tracer

        plain_s, a1, f1 = run_cycle(runner, [])
        tr = tracer.Tracer()
        tr.install()
        runner.io = tr.counters
        traced_s, a2, f2 = run_cycle(runner, [], wrap=lambda thunk: lambda: tr.span("request", thunk))
        metrics = tr.metrics()
        metrics["trace.overhead_ratio"] = (traced_s / plain_s, "ratio")
        result.update(
            attempted=a1 + a2,
            failed=f1 + f2,
            layer_metrics=metrics,
            spans=tr.table(),
            absent=tr.absent + sorted(f"hook:{h}" for h in tr.broken_hooks),
        )
    if mode != "setup":
        result["summary"] = runner.summary()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    with open(out_path, "w") as f:
        json.dump(result, f)


if __name__ == "__main__":
    main(sys.argv[1:])
