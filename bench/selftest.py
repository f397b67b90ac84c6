"""Self-test of the benchmark: exact repeatability and tolerance of absent targets.

    python3 bench/selftest.py [--seed N] [--workload NAME ...]

For each workload, makes two traced runs at one seed and requires that the
gates pass, that the input digests are identical and that every per-layer
counter (every metric except self times and the tracing overhead) is
identical. Then checks that a target missing from the library resolves as
absent. Exits 1 on any failure.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

import tracer
import workloads

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")


def traced_run(workload, seed):
    cmd = [sys.executable, RUN, "--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", "1"]
    lines = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout.splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def exact(metrics):
    return {
        k: v["value"]
        for k, v in metrics.items()
        if not k.endswith(".self_s") and k != "trace.overhead_ratio"
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--workload", nargs="*", default=sorted(workloads.WORKLOADS))
    args = parser.parse_args()

    failures = []
    for name in args.workload:
        (d1, r1), (d2, r2) = traced_run(name, args.seed), traced_run(name, args.seed)
        for label, det, res in (("first", d1, r1), ("second", d2, r2)):
            if not res["correct"] or res["failed"]:
                failures.append(f"{name}: {label} run failed its gates: {det['errors']}")
        if d1["input_digest"] != d2["input_digest"]:
            failures.append(f"{name}: input digests differ")
        c1, c2 = exact(r1["metrics"]), exact(r2["metrics"])
        diff = sorted(k for k in c1.keys() | c2.keys() if c1.get(k) != c2.get(k))
        if diff:
            failures.append(f"{name}: counters differ: {diff}")
        print(f"{name}: digest {d1['input_digest'][:16]}, {len(c1)} counters, "
              f"{'identical' if not diff else 'DIFFERENT'}")

    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(RUN)), "src"))
    for module, path in (("graphs", "NoSuchClass.__init__"), ("no_such_module", "f"), ("gf2", "no_such_function")):
        if tracer.resolve(module, path) is not None:
            failures.append(f"missing target {module}.{path} did not resolve as absent")

    for f in failures:
        print(f"FAIL {f}")
    print("selftest: " + ("ok" if not failures else f"{len(failures)} failures"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
