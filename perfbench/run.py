#!/usr/bin/env python3
"""Serving benchmark for PipelinedEngine: build moebench from this
checkout's sources, then run it.

One run of one workload (what BENCHMARK.json's command drives):

    python3 perfbench/run.py --workload offline_decode --seed 1 \\
        --seconds 30 --trace 0

prints the run's metrics and, as its last line, one JSON object with
the keys correct, attempted, failed and metrics. --trace 1 makes the
traced run: per-layer metrics, and a Chrome trace written under
.bench_build/traces/.

Everything (every workload, untraced then traced, with the tracing
overhead):

    python3 perfbench/run.py --all

The benchmark's own unit tests:

    python3 perfbench/run.py --test

Build products go to $CARGO_TARGET_DIR (default .bench_build) under the
checkout root. Exit status is non-zero when the build fails, a check
fails or a run times out.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ["offline_decode", "offline_kv_int8_tight", "chat_prefix_open"]


def build_root():
    return ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build(target):
    """Configure once, then build @p target; cmake's chatter goes to
    stderr so stdout carries only results. Returns the binary path."""
    bdir = build_root() / "perfbench"
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", str(bdir), "--target", target,
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"run.py: build step failed: {e}")
            return None
        if done.returncode != 0:
            log(f"run.py: build step failed ({done.returncode}): "
                f"{' '.join(cmd)}")
            return None
    return bdir / target


def run_once(binary, workload, seed, seconds, trace, echo=True):
    """One moebench run; returns (exit code, parsed result or None)."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        traces = build_root() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"run.py: {workload} seed {seed} exceeded {RUN_TIMEOUT_S} s")
        return 1, None
    if echo:
        sys.stdout.write(done.stdout)
        sys.stdout.flush()
    lines = done.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return done.returncode, result


def run_all(binary, seed, seconds):
    """Every workload untraced, then traced; prints every metric with
    its unit and the tracing overhead on tokens_per_s."""
    status = 0
    for w in WORKLOADS:
        rc_u, plain = run_once(binary, w, seed, seconds, 0, echo=False)
        rc_t, traced = run_once(binary, w, seed, seconds, 1, echo=False)
        status |= rc_u | rc_t
        print(f"== {w} (seed {seed}, {seconds} s)")
        for label, res in (("end-to-end", plain), ("per-layer", traced)):
            if res is None:
                print(f"  {label}: no result")
                continue
            print(f"  {label}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}")
            for name, m in res["metrics"].items():
                print(f"    {name:40s} {m['value']:>14.6g} {m['unit']}")
        if plain and traced:
            u = plain["metrics"]["tokens_per_s"]["value"]
            t = traced["metrics"]["trace.tokens_per_s"]["value"]
            print(f"  tracing overhead: {u - t:.2f} tok/s "
                  f"({(u - t) / u * 100:.1f}% of untraced {u:.1f} tok/s)")
    return status


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--all", action="store_true",
                   help="run every workload, untraced and traced")
    p.add_argument("--test", action="store_true",
                   help="build and run the benchmark's unit tests")
    args = p.parse_args(argv)
    if not (args.all or args.test or args.workload):
        p.error("give --workload, --all or --test")

    if args.test:
        binary = build("perfbench_tests")
        if binary is None:
            return 1
        return subprocess.run([str(binary)], check=False).returncode

    binary = build("moebench")
    if binary is None:
        return 1
    if args.all:
        return run_all(binary, args.seed, args.seconds)
    rc, _ = run_once(binary, args.workload, args.seed, args.seconds,
                     args.trace)
    return rc


if __name__ == "__main__":
    sys.exit(main())
