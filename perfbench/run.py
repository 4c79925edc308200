#!/usr/bin/env python3
"""The repository benchmark: builds `perfbench/` from source, runs one workload
for a fixed time as repeated fresh-process iterations, and prints every metric
by name with its unit. The last line of standard output is one JSON object
with the keys `correct`, `attempted`, `failed` and `metrics`.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

`--trace 0` reports the end-to-end metrics (medians over the untraced
iterations). `--trace 1` alternates untraced and traced iterations and
reports the per-layer metrics of the traced ones, plus the tracing overhead.
Every iteration checks its output against a reference computed from the same
seeded inputs; any mismatch makes the run incorrect. Run from the root of a
checkout. Builds go to `$CARGO_TARGET_DIR` (default `.bench_build`); state,
traces and full results go to `.perfbench/`.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

WORKLOADS = ["lr-q2-np", "lr-q2-gl", "sg-q4-gl", "sg-daily-gl-durable"]
# Fewer iterations than this make a median meaningless; they run even when
# they overshoot --seconds.
MIN_ITERATIONS = 3
ITERATION_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(root):
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", os.path.join(root, ".bench_build")))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    manifest = os.path.join(root, "perfbench", "Cargo.toml")
    result = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet", "--manifest-path", manifest],
        env=env,
        stdout=sys.stderr,
    )
    if result.returncode != 0:
        fail("building the benchmark failed")
    return os.path.join(target, "release", "genealog-perfbench")


def command_output(argv, cwd):
    try:
        result = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return result.stdout.strip() if result.returncode == 0 else "unknown"


def iterate(binary, args, traced, index, out_dir):
    argv = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--trace", "1" if traced else "0",
        "--state-dir", os.path.join(out_dir, "state"),
        "--trace-out", os.path.join(out_dir, "trace", f"{args.workload}-seed{args.seed}-{index}.json"),
    ]
    if args.smoke:
        argv.append("--smoke")
    try:
        result = subprocess.run(argv, capture_output=True, text=True, timeout=ITERATION_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"iteration {index} of {args.workload} timed out")
    if result.returncode != 0:
        sys.stderr.write(result.stderr)
        fail(f"iteration {index} of {args.workload} exited with {result.returncode}")
    return json.loads(result.stdout.strip().splitlines()[-1])


def run_iterations(binary, args, out_dir):
    """Iterates until --seconds are used up; returns (untraced, traced)."""
    untraced, traced = [], []
    start = time.monotonic()
    durations = []
    index = 0
    while True:
        # In traced runs, each round is one untraced and one traced iteration.
        modes = [False, True] if args.trace else [False]
        round_start = time.monotonic()
        for mode in modes:
            (traced if mode else untraced).append(iterate(binary, args, mode, index, out_dir))
            index += 1
        durations.append(time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        rounds_needed = 1 if args.trace else MIN_ITERATIONS
        if len(durations) >= rounds_needed and elapsed + statistics.mean(durations) > args.seconds:
            return untraced, traced


def median(results, key):
    return statistics.median(key(r) for r in results)


def end_to_end(untraced):
    return {
        "throughput_tps": (median(untraced, lambda r: r["source_tuples"] / r["wall_s"]), "1/s"),
        "latency_p50_ms": (median(untraced, lambda r: r["latency_p50_ms"]), "ms"),
        "latency_p99_ms": (median(untraced, lambda r: r["latency_p99_ms"]), "ms"),
        "cpu_us_per_tuple": (median(untraced, lambda r: r["cpu_s"] * 1e6 / r["source_tuples"]), "us"),
        "peak_rss_mb": (median(untraced, lambda r: r["peak_rss_mb"]), "MB"),
        "avg_rss_mb": (median(untraced, lambda r: r["avg_rss_mb"]), "MB"),
        "setup_s": (median(untraced, lambda r: r["setup_s"]), "s"),
    }


def per_layer(untraced, traced, attempted, failed):
    metrics = {}
    for name, entry in traced[0]["layers"].items():
        metrics[name] = (median(traced, lambda r: r["layers"][name]["value"]), entry["unit"])
    plain = median(untraced, lambda r: r["source_tuples"] / r["wall_s"])
    with_trace = median(traced, lambda r: r["source_tuples"] / r["wall_s"])
    metrics["trace.overhead_pct"] = ((plain - with_trace) / plain * 100.0, "%")
    metrics["check.alert_error_rate"] = (failed / attempted, "ratio")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=[0, 1])
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-test")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "perfbench", "Cargo.toml")):
        fail("run from the root of a checkout that holds perfbench/")
    binary = build(root)
    out_dir = os.path.join(root, ".perfbench")
    for sub in ("state", "trace", "results"):
        os.makedirs(os.path.join(out_dir, sub), exist_ok=True)

    untraced, traced = run_iterations(binary, args, out_dir)
    results = untraced + traced
    attempted = sum(r["expected"] for r in results)
    failed = sum(r["failed"] for r in results)
    selfcheck = [f for r in traced for f in r["selfcheck_failures"]]
    for message in selfcheck:
        print(f"self-check failed: {message}", file=sys.stderr)
    correct = failed == 0 and not selfcheck and attempted > 0

    metrics = per_layer(untraced, traced, attempted, failed) if args.trace else end_to_end(untraced)
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "iterations": {"untraced": len(untraced), "traced": len(traced)},
        "sizes": results[0]["sizes"],
        "latency_samples_per_iteration": results[0]["latency_samples"],
        "host_cpus": os.cpu_count(),
        "machine": platform.machine(),
        "git_revision": command_output(["git", "rev-parse", "HEAD"], root),
        "rustc": command_output(["rustc", "--version"], root),
    }
    with open(os.path.join(out_dir, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json"), "w") as f:
        json.dump({"meta": meta, "iterations": results, "correct": correct}, f, indent=1)

    print(json.dumps({"meta": meta}))
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:16.6f} {unit}")
    summary = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(summary))


if __name__ == "__main__":
    main()
