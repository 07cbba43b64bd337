"""Benchmark of the toricnash Nash pipeline: one command, three workloads.

    python3 perfbench/run.py --workload nash-pairs --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it imports `src/toricnash`).  Every
pass is a fresh interpreter (worker.py) because the library's caches live as
long as the process.  A run makes as many passes as fill `--seconds` at the
workload's nominal pass length, so every run of a workload, on any commit,
makes the same number.  The first pass checks every output; later passes must
reproduce its output digests.  Per-operation rows go to stdout and to
`.perfbench/`; the last stdout line is the JSON result.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs one untraced
pass, then two traced passes whose call and outcome counts must agree, and
reports the per-layer metrics (see tracing.py).  NOTES.md gives the workloads,
the metrics and what each layer should move.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")

WORKLOADS = ("nash-pairs", "stv-complexes", "ideal-contact")
# Operation time of one pass at the commit that defined the benchmark, on a
# 2-vCPU Linux VM (Python 3.11); it sets how many passes fill --seconds.
NOMINAL_PASS_S = {"nash-pairs": 18.0, "stv-complexes": 7.0, "ideal-contact": 6.0}
SETUP_PROBES = 2        # set-up-only interpreters per run, besides the passes
DEADLINE_S = 170        # a run must end well inside 180 s
TAIL_BEYOND = 10        # the tail percentile keeps this many operations beyond it
OK = ("ok",)
EXPECTED = ("ok", "known-failure")


class BenchError(Exception):
    pass


class Runner:
    """Spawns workers against one deadline and keeps every set-up time."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.setups = []
        self.digests = set()

    def remaining(self):
        return DEADLINE_S - (time.monotonic() - self.start)

    def spawn(self, mode, seed=None, extra=()):
        """Run one worker; returns (inputs digest, result or None)."""
        seed = self.seed if seed is None else seed
        cmd = [sys.executable, WORKER, self.workload, str(seed), mode, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline()
            setup = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=max(1.0, self.remaining()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker ({mode}) passed the {DEADLINE_S} s deadline")
        if proc.returncode != 0 or not ready.startswith("READY "):
            raise BenchError(f"worker ({mode}) failed with exit code {proc.returncode}")
        digest = ready.split()[1]
        result = None
        for line in rest.splitlines():
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if mode == "pass" and result is None:
            raise BenchError("worker printed no result")
        if seed == self.seed:
            self.setups.append(setup)
            self.digests.add(digest)
        return digest, result

    def inputs_problems(self):
        """Same seed, byte-identical inputs; another seed, another set."""
        other, _ = self.spawn("setup", seed=self.seed + 1)
        out = []
        if len(self.digests) != 1:
            out.append(f"seed {self.seed} gave {len(self.digests)} different inputs")
        if other in self.digests:
            out.append(f"seeds {self.seed} and {self.seed + 1} gave the same inputs")
        return out


def pass_rate(result):
    rows = result["rows"]
    busy = sum(r["latency_s"] for r in rows)
    return sum(r["status"] in OK for r in rows) / busy


def tail(latencies):
    """(value, percentile) at the highest percentile with TAIL_BEYOND
    operations beyond it."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def reconcile(passes):
    """Statuses of every pass, with later outputs held to the first pass."""
    first = {r["id"]: r for r in passes[0]["rows"]}
    for p in passes[1:]:
        for r in p["rows"]:
            ref = first[r["id"]]
            if r["status"] == "ok" and ref["status"] != "wrong" \
                    and r["output"] != ref["output"]:
                r["status"] = "nondeterministic"
            elif r["status"] == "ok" and ref["status"] == "wrong":
                r["status"] = "wrong"


def write_rows(name, passes):
    path = os.path.join(OUT_DIR, f"{name}-ops.jsonl")
    with open(path, "w") as fh:
        for k, p in enumerate(passes):
            for r in p["rows"]:
                print(f"op pass={k} id={r['id']} latency_s={r['latency_s']:.6f} "
                      f"status={r['status']}" +
                      (f" problem={r['problem']!r}" if "problem" in r else ""))
                fh.write(json.dumps({"pass": k, **r}) + "\n")


def pass_count(workload, seconds):
    """Passes that fill `seconds` at the nominal pass length.  The count
    depends on nothing measured, so the pooled percentiles of two runs, or of
    two commits, always cover the same number of samples per instance."""
    return max(1, math.ceil(seconds / NOMINAL_PASS_S[workload]))


def run_untraced(runner, seconds):
    for _ in range(SETUP_PROBES):
        runner.spawn("setup")
    passes = []
    for _ in range(pass_count(runner.workload, seconds)):
        if passes and runner.remaining() < 2 * last_wall:
            break
        t0 = time.monotonic()
        _, result = runner.spawn("pass", extra=["--check"] if not passes else [])
        last_wall = time.monotonic() - t0
        passes.append(result)
    reconcile(passes)
    rows = [r for p in passes for r in p["rows"]]
    # a failed operation misses every latency limit
    lat = [r["latency_s"] if r["status"] in OK else math.inf for r in rows]
    tail_s, tail_pct = tail(lat)
    metrics = {
        "setup_s": (statistics.median(runner.setups), "s"),
        "ops_per_s": (statistics.median(pass_rate(p) for p in passes), "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(p["rss_mb"] for p in passes), "MB"),
    }
    side = {
        "ops_failed_frac": sum(r["status"] not in OK for r in rows) / len(rows),
        "op_tail_percentile": tail_pct,
        "op_tail_ops": len(lat),
        "passes": len(passes),
        "calibration_s": statistics.median(p["calibration_s"] for p in passes),
        "check_s": passes[0]["check_s"],
    }
    return passes, metrics, side


def run_traced(runner):
    runner.spawn("setup")
    _, plain = runner.spawn("pass", extra=["--check"])
    traced = []
    for k in range(2):
        spans = os.path.join(OUT_DIR, f"{runner.workload}-spans-{k}.json.gz")
        traced.append(runner.spawn("pass", extra=["--trace", "--spans", spans])[1])
    passes = [plain] + traced
    reconcile(passes)
    a, b = (t["layers"] for t in traced)
    problems = [f"traced passes disagree on {k}: {a[k]} != {b[k]}"
                for k in a if not k.endswith("_s") and a[k] != b[k]]
    statuses = [[r["status"] for r in t["rows"]] for t in traced]
    if statuses[0] != statuses[1]:
        problems.append("traced passes disagree on operation outcomes")
    metrics = {}
    for k in tracing.metric_names():
        if k.endswith("_s"):
            metrics[k] = (statistics.median([a[k], b[k]]), "s")
        else:
            metrics[k] = (a[k], "ratio" if k.endswith("_per_region_test") else "count")
    rate = statistics.median(pass_rate(t) for t in traced)
    metrics["trace.overhead_frac"] = (1 - rate / pass_rate(plain), "ratio")
    share = {k[:-len(".total_s")]: round(a[k] / a["op.total_s"], 3)
             for k in a if k.endswith(".total_s") and not k.startswith("op.")}
    side = {"share_of_op_time": dict(sorted(share.items(), key=lambda kv: -kv[1]))}
    return passes, metrics, side, problems


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "toricnash")):
        sys.exit(f"run.py: no src/toricnash under {ROOT}; run from a source checkout")
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"{args.workload}-{args.seed}-trace{args.trace}"

    runner = Runner(args.workload, args.seed)
    try:
        if args.trace:
            passes, metrics, side, problems = run_traced(runner)
        else:
            passes, metrics, side = run_untraced(runner, args.seconds)
            problems = []
        problems += runner.inputs_problems()
    except BenchError as exc:
        sys.exit(f"run.py: {exc}")

    write_rows(name, passes)
    rows = [r for p in passes for r in p["rows"]]
    wrong = [r for r in rows if r["status"] in ("wrong", "nondeterministic")]
    problems += [f"{r['id']}: {r['status']} {r.get('problem', '')}" for r in wrong[:5]]
    for key, (value, unit) in metrics.items():
        print(f"metric {key} = {value:.6g} {unit}")
    for key, value in side.items():
        print(f"info {key} = {value}")
    for p in problems:
        print(f"problem {p}")
    result = {
        "correct": not problems,
        "attempted": len(rows),
        "failed": sum(r["status"] not in EXPECTED for r in rows),
        # a percentile among failed operations is infinite: JSON has no such number
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(OUT_DIR, f"{name}-result.json"), "w") as fh:
        json.dump({**result, "info": side, "problems": problems}, fh, indent=1)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
