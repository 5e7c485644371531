#!/usr/bin/env python3
"""The end-to-end benchmark of this repository (see README.md beside this file).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the benchmark binary from source with
CMake into .bench_build/perfbench, runs the workload for about S seconds in
fresh processes, checks the outputs, and prints one JSON line last:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, from separate traced passes.
Exits 1 (after printing) when an output check fails, and 2 without printing
when the benchmark cannot run at all (e.g. the program sources are absent).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SPANS_DIR = os.path.join(ROOT, ".bench_build", "spans")

WORKLOADS = ("matrix_cold", "dvfs_sweep_cold", "serve_zipf")
MODE = {"matrix_cold": "matrix", "dvfs_sweep_cold": "sweep", "serve_zipf": "serve"}
SETUP_MODE = {"matrix_cold": "setup-session", "dvfs_sweep_cold": "setup-session",
              "serve_zipf": "setup-serve"}
MIN_PASSES = 3      # cold passes per run of matrix_cold / dvfs_sweep_cold
SETUP_SAMPLES = 9   # set-up is timed at least this often per run
RUN_LIMIT_S = 170.0


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no program sources under src/ in " + ROOT)
    jobs = str(os.cpu_count() or 1)
    for command in (
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", jobs],
    ):
        done = subprocess.run(command, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            raise BenchError("build failed: " + " ".join(command))
    return os.path.join(BUILD_DIR, "perfbench")


class Runner:
    """Spawns benchmark processes within the run's time limit."""

    def __init__(self, binary, started):
        self.binary = binary
        self.deadline = started + RUN_LIMIT_S

    def spawn(self, *args):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        start = time.monotonic()
        try:
            done = subprocess.run([self.binary, *args, "--root", ROOT],
                                  cwd=ROOT, capture_output=True, text=True,
                                  timeout=left)
        except subprocess.TimeoutExpired:
            raise BenchError("benchmark process timed out: " + " ".join(args))
        if done.stderr:
            sys.stderr.write(done.stderr)
        if done.returncode != 0:
            raise BenchError(f"benchmark process {' '.join(args)} exited "
                             f"{done.returncode}")
        lines = done.stdout.strip().splitlines()
        if not lines:
            raise BenchError("benchmark process printed no report: "
                             + " ".join(args))
        report = json.loads(lines[-1])
        # From before the spawn to the process's "ready": process start,
        # registration and Session / tier construction.
        report["setup_s"] = report["ready_mono"] - start
        return report


def median(values):
    return statistics.median(values)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def check_reports(name, reports, expected, seed, seconds, problems):
    """Digest and per-pass checks shared by traced and untraced runs."""
    for r in reports:
        problems.extend(r["checks"])
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        problems.append(f"{name}: passes disagree on the output digest")
    want = expected[name]
    # The serve digest depends on the schedule, so it is recorded for one
    # seed and length; the other workloads' outputs do not depend on either.
    if (want.get("seed", seed) == seed and want.get("seconds", seconds) == seconds
            and want["digest"] not in digests):
        problems.append(f"{name}: output digest {sorted(digests)} differs from "
                        f"the recorded {want['digest']}")


def end_to_end(name, runner, seed, seconds):
    mode = MODE[name]
    if name == "serve_zipf":
        reports = [runner.spawn("serve", "--seed", str(seed), "--seconds",
                                str(seconds))]
        m = dict(reports[0]["metrics"])
        m["wall_s"] = reports[0]["wall_s"]
        info = reports[0]["info"]
        log(f"serve_zipf: {int(info['requests'])} requests, "
            f"{int(info['misses'])} misses, p50 {info['p50_ms']:.3f} ms, "
            f"miss p50 {info['miss_p50_ms']:.3f} ms, tail at "
            f"p{info['tail_percentile']:.2f} with "
            f"{int(info['tail_samples_beyond'])} samples beyond, generator "
            f"late by at most {info['generator_lag_max_ms']:.2f} ms")
    else:
        reports = []
        start = time.monotonic()
        while len(reports) < MIN_PASSES or time.monotonic() - start < seconds:
            reports.append(runner.spawn(mode))
        walls = [r["wall_s"] for r in reports]
        # Each latency sample is one user call: a run_matrix pass, or one
        # recommend call of a sweep pass. With fewer than 11 calls in a run
        # no percentile has ten samples beyond it, so the tail is the
        # slowest call of a pass, as the median over passes.
        calls = [r["latencies_ms"] for r in reports]
        m = {
            "wall_s": median(walls),
            "tail_ms": median(max(c) for c in calls),
            "goodput_rps": median(r["attempted"] / r["wall_s"] for r in reports),
            "peak_rss_mb": median(r["rss_mb"] for r in reports),
        }
        log(f"{name}: {len(reports)} cold passes, walls "
            + " ".join(f"{w:.3f}" for w in walls))
        if name == "dvfs_sweep_cold":
            log(f"dvfs_sweep_cold: largest stated relative 95% half-width "
                f"{reports[0]['info']['ci_halfwidth_max']:.6g} "
                f"(per-layer sample.ci_halfwidth_max)")
    setups = [r["setup_s"] for r in reports]
    while len(setups) < SETUP_SAMPLES:
        setups.append(runner.spawn(SETUP_MODE[name])["setup_s"])
    m["setup_s"] = median(setups)
    return reports, m


def per_layer(name, runner, seed, seconds, expected):
    mode = MODE[name]
    os.makedirs(SPANS_DIR, exist_ok=True)
    serve_args = (["--seed", str(seed), "--seconds", str(seconds)]
                  if name == "serve_zipf" else [])
    # As many untraced as traced passes, alternating for the overhead. A
    # traced pass comes first, before any other process of the run, so
    # that the cold-isolation check below sees it.
    untraced, traced = [], []
    for i in range(1 if name == "serve_zipf" else 2):
        spans = os.path.join(SPANS_DIR, f"{name}.{i}.jsonl")
        traced.append(runner.spawn(mode, "--trace", "--spans", spans,
                                   *serve_args))
        untraced.append(runner.spawn(mode, *serve_args))
    # One more traced pass, with the program's observability on, checks
    # the wrapper's trace-build times against the program's own spans.
    checked = []
    if name == "matrix_cold":
        checked.append(runner.spawn(mode, "--trace", "--obs-check"))
        info = checked[0]["info"]
        log(f"matrix_cold: trace-build obs span total "
            f"{info['obs_trace_build_s']:.3f} s vs wrapper call total "
            f"{info['wrapper_trace_call_s']:.3f} s")
    reports = [*traced, *untraced, *checked]
    problems = []
    # Cold isolation: every traced pass must compute as many traces as a
    # cold process does (recorded in expected.json; on serve_zipf the count
    # depends on the schedule's length, not on the seed), and no later pass
    # fewer than the first. State kept between processes, or between runs,
    # would lower the count.
    misses = [t["metrics"]["core.trace_misses"] for t in traced + checked]
    want = expected[name]
    cold = want["trace_misses"]
    if want.get("seconds", seconds) == seconds and min(misses) < cold:
        problems.append(f"{name}: trace misses {misses} below the cold "
                        f"count {cold}: passes are not cold")
    if any(later < misses[0] for later in misses[1:]):
        problems.append(f"{name}: a later pass had fewer trace misses "
                        f"({misses}): passes are not cold")
    keys = {k for t in traced for k in t["metrics"]}
    m = {k: median(t["metrics"].get(k, 0.0) for t in traced) for k in keys}
    traced_wall = median(t["wall_s"] for t in traced)
    untraced_wall = median(u["wall_s"] for u in untraced)
    m["bench.trace_overhead_s"] = traced_wall - untraced_wall
    log(f"{name}: tracing overhead {m['bench.trace_overhead_s']:.3f} s "
        f"(traced {traced_wall:.3f} s, untraced {untraced_wall:.3f} s)")
    return reports, m, problems


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        spec = load_json(os.path.join(ROOT, "BENCHMARK.json"))
        expected = load_json(os.path.join(HERE, "expected.json"))
        binary = build()  # the first run in a checkout compiles everything
        runner = Runner(binary, time.monotonic())
        if args.trace:
            reports, metrics, problems = per_layer(
                args.workload, runner, args.seed, args.seconds, expected)
            wanted = spec["per_layer"]
        else:
            reports, metrics = end_to_end(args.workload, runner, args.seed,
                                          args.seconds)
            problems = []
            wanted = spec["end_to_end"]
        check_reports(args.workload, reports, expected, args.seed, args.seconds,
                      problems)
    except (BenchError, OSError, ValueError, KeyError) as e:
        log(f"perfbench: {e}")
        return 2

    attempted = sum(r["attempted"] for r in reports)
    failed = sum(r["failed"] for r in reports)
    for p in problems:
        log(f"perfbench: CHECK FAILED: {p}")
    log(f"{args.workload}: failed_frac {failed / attempted:.6g} "
        f"({failed} of {attempted} operations)")
    out = {}
    for metric in wanted:
        # A layer the workload does not exercise reports 0.
        value = metrics.get(metric["name"], 0.0)
        out[metric["name"]] = {"value": value, "unit": metric["unit"]}
        log(f"  {metric['name']:<40} {value:>16.6g} {metric['unit']}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": out}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
