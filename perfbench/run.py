#!/usr/bin/env python3
"""Repo benchmark runner: builds ifls_perfbench from source, runs one
workload, and prints the result as the last line of standard output.

    python3 perfbench/run.py --workload paper_mc --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout. The build goes to .bench_build/perfbench
(configured with CMake, RelWithDebInfo, the repo's default build type); run
scratch files go to .bench_build/runs. The last stdout line is one JSON
object with exactly the keys correct, attempted, failed and metrics; with
--trace 0 the metrics are BENCHMARK.json's end_to_end list, with --trace 1
its per_layer list. The line before it is the program's full report
(envelope, diagnostics, answer-check errors).
"""

import argparse
import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNS_DIR = os.path.join(ROOT, ".bench_build", "runs")
BINARY = os.path.join(BUILD_DIR, "ifls_perfbench")
RUN_TIMEOUT_SECONDS = 170

# Per-layer metrics each workload does not exercise (the layer is bypassed
# there). A traced run reports them as 0; any other per-layer metric missing
# from the program's report is an error, and so is a bypassed one that the
# program does report.
_SERVICE_WRITES = {
    "service.overlay_size_p50", "service.compactions",
    "service.mutations_rejected", "service.subscription_solves",
    "service.subscription_skips", "service.push_ms_p50"}
_NET_SERVER = {
    "net.rpc_ms_p50", "net.overhead_ms_p50", "net.batch_size_mean",
    "net.rejected", "net.errors", "net.server_start_s"}
_LOADGEN = {"loadgen.lag_ms_p99", "loadgen.offered_qps", "loadgen.backlog_max"}
# Only churn_mzb writes.
_WRITES = {"mutation_ms_p50", "mutation_ms_p99"}
BYPASSED = {
    # In process, door cache off, no server and no generator.
    "paper_mc": _SERVICE_WRITES | _NET_SERVER | _LOADGEN | _WRITES | {
        "index.door_cache_evictions", "io.snapshot_load_s",
        "service.query_ms_p50", "service.solve_ms_p50",
        "service.queue_wait_ms_p50", "service.queue_wait_ms_p99",
        "service.shed", "service.create_s"},
    # Read-only serving from an index built in process; the traced run
    # times no baseline.
    "serve_mc": _SERVICE_WRITES | _WRITES | {"io.snapshot_load_s",
                                             "core.baseline_nn_searches"},
    # No server; the traced run times no baseline.
    "churn_mzb": _NET_SERVER | {"core.baseline_nn_searches"},
}


def strict_loads(text):
    """json.loads that rejects duplicate keys and non-finite numbers."""

    def no_duplicates(pairs):
        obj = {}
        for key, value in pairs:
            if key in obj:
                raise ValueError("duplicate JSON key: %r" % key)
            obj[key] = value
        return obj

    def no_constant(name):
        raise ValueError("non-finite JSON number: %s" % name)

    return json.loads(text, object_pairs_hook=no_duplicates,
                      parse_constant=no_constant)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return strict_loads(f.read())


def build():
    """Configures (until a configure succeeds) and builds the benchmark;
    returns the binary path. Build output goes to stderr so stdout stays the
    result channel."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        subprocess.run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return BINARY


def git_sha():
    # The ceiling keeps git from searching directories above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "--short=12",
                              "HEAD"], capture_output=True, text=True,
                             timeout=10, env=env)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_binary(args):
    """Runs the benchmark binary; returns its parsed report (last line)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_SECONDS)
    if proc.returncode != 0:
        raise RuntimeError("ifls_perfbench exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError("ifls_perfbench printed no report")
    return strict_loads(lines[-1])


def result_line(report, bench, workload, trace):
    """Maps the program's report onto the contract's result object."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    names = [m["name"] for m in wanted]
    got = report["metrics"]
    bypassed = BYPASSED[workload] if trace else set()
    unknown = sorted(set(got) - set(names))
    if unknown:
        raise RuntimeError("metrics not in BENCHMARK.json: %s" % unknown)
    reported_bypass = sorted(bypassed & set(got))
    if reported_bypass:
        raise RuntimeError("metrics declared bypassed on %s but reported: %s"
                           % (workload, reported_bypass))
    missing = sorted(set(names) - set(got) - bypassed)
    if missing:
        raise RuntimeError("metrics missing on %s: %s" % (workload, missing))
    metrics = {}
    for m in wanted:
        value = got.get(m["name"], 0.0)
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise RuntimeError("metric %s is not a finite number" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    return {"correct": bool(report["correct"]) and report["failed"] == 0,
            "attempted": int(report["attempted"]),
            "failed": int(report["failed"]),
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    bench = load_benchmark()
    if args.workload not in [w["name"] for w in bench["workloads"]]:
        parser.error("unknown workload %r" % args.workload)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        build()
    except (OSError, subprocess.CalledProcessError) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 1
    work_dir = os.path.join(RUNS_DIR, "%s_seed%d_trace%d" % (
        args.workload, args.seed, args.trace))
    try:
        report = run_binary([
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(args.seconds), "--trace", str(args.trace),
            "--work-dir", work_dir, "--git-sha", git_sha()])
        result = result_line(report, bench, args.workload, args.trace == 1)
    except (OSError, ValueError, RuntimeError,
            subprocess.TimeoutExpired) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    for error in report.get("errors", []):
        print("perfbench: check failed: %s" % error, file=sys.stderr)
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
