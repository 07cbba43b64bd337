"""One pass of a workload in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED setup|pass [--check] [--trace]
                                [--spans PATH]

The library caches cones (`_cone_from_generators`) and per-cone Hilbert bases
and levels for the life of the process, so every pass starts a new one.  The
worker imports toricnash, generates and builds the seeded inputs, and prints
`READY <inputs digest>`; that line ends the set-up the caller times.  In pass
mode it then times a fixed calibration loop and runs every operation once in a
closed loop, one caller, the next operation starting when the previous returns.
Output checks (--check) run after the timed loop.  The last line is
`RESULT <json>`.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

try:
    from toricnash import nash, stv
    from toricnash.errors import ToricNashError
except ImportError as exc:
    sys.exit(f"worker: cannot import toricnash from {ROOT}/src: {exc}")

import check  # noqa: E402
import oracle  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402

CALIBRATION_ITERATIONS = 1_000_000


def calibration_loop():
    """Seconds taken by a fixed pure-Python loop: a gauge of machine speed."""
    t0 = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_ITERATIONS):
        x += i
    return time.perf_counter() - t0


def build_inputs(workload, specs):
    if workload == "stv-complexes":
        return [workloads.build_complex(s) for s in specs]
    return [workloads.build_locus(s) for s in specs]


def run_op(workload, spec, inputs):
    if workload == "nash-pairs":
        return nash.certify_essential(inputs, samples=3, seed=spec["seed"])
    if workload == "stv-complexes":
        return stv.stv_nash_report(inputs, samples=3, seed=spec["seed"])
    ideal = nash.faces_to_ideal(inputs)
    return ideal, [nash.contact_components(ideal, n) for n in oracle.CONTACT_ORDERS]


def run_pass(workload, specs, inputs, tracer):
    rows, results = [], []
    for i, (spec, obj) in enumerate(zip(specs, inputs)):
        span = tracer.begin_op(i) if tracer else None
        t0 = time.perf_counter()
        try:
            result = run_op(workload, spec, obj)
            status = "ok"
        except Exception as exc:  # every raise is an outcome to record
            result = None
            name = type(exc).__name__
            if not isinstance(exc, ToricNashError):
                status = f"crash:{name}"
            elif spec.get("known_failure") == name:
                status = "known-failure"
            else:
                status = f"error:{name}"
        latency = time.perf_counter() - t0
        if tracer:
            tracer.end_op(span)
        rows.append({"id": spec["id"], "latency_s": latency, "status": status})
        results.append(result)
    return rows, results


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("workload", choices=workloads.WORKLOADS)
    ap.add_argument("seed", type=int)
    ap.add_argument("mode", choices=("setup", "pass"))
    ap.add_argument("--check", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)

    specs = workloads.generate(args.workload, args.seed)
    inputs = build_inputs(args.workload, specs)
    print("READY", workloads.digest(specs), flush=True)
    if args.mode == "setup":
        return
    calibration = calibration_loop()
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    rows, results = run_pass(args.workload, specs, inputs, tracer)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.summary() if tracer else None
    if tracer and args.spans:
        tracer.write(args.spans)

    t0 = time.perf_counter()
    store = oracle.load() if args.check else None
    for row, obj, result in zip(rows, inputs, results):
        if result is None:
            row["output"] = row["status"]
            continue
        row["output"] = check.output_digest(args.workload, result)
        if store is not None:
            found = check.problems(args.workload, store, obj, result)
            if found:
                row["status"] = "wrong"
                row["problem"] = found[0]
    out = {"inputs": workloads.digest(specs), "rows": rows, "rss_mb": rss_mb,
           "calibration_s": calibration, "check_s": time.perf_counter() - t0}
    if layers is not None:
        out["layers"] = layers
    print("RESULT", json.dumps(out), flush=True)


if __name__ == "__main__":
    main()
