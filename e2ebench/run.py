#!/usr/bin/env python3
"""End-to-end benchmark of ftrsn (see e2ebench/README.md).

Run from the repository root:

  python3 e2ebench/run.py --workload itc02_flow --seed 1 --seconds 12 --trace 0
  python3 e2ebench/run.py --workload all        # every workload, both modes

With --workload all it runs each workload untraced and traced with the same
seed, prints every metric with its unit, the tracing overhead (traced
against untraced wall_s), and checks that both runs counted the same
deterministic work (obs counter deltas); it exits 1 on any failed check.

Builds the library and the e2ebench binary from source on first use (into
$CARGO_TARGET_DIR/e2ebench, default .bench_build/e2ebench), then runs one
workload.  Build output goes to stderr; the binary's metric table and its
final JSON result line go to stdout.  Exits non-zero, without a result,
when the library sources are missing or the build fails.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["itc02_flow", "scale_metric", "serve_mix"]
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the binary; returns its path or None."""
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            if f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in f.read():
                shutil.rmtree(build_dir)  # configured for another checkout
    if not os.path.exists(cache):
        cmd = ["cmake", "-S", HERE, "-B", build_dir,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return None
    jobs = str(os.cpu_count() or 1)
    cmd = ["cmake", "--build", build_dir, "--target", "e2ebench", "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "e2ebench")


def run(binary, out_dir, workload, seed, seconds, trace, capture=False):
    """Runs the binary once; returns (exit code, stdout or None)."""
    cmd = [binary, "--spec", os.path.join(ROOT, "BENCHMARK.json"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out", out_dir]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None,
                              text=True)
    except subprocess.TimeoutExpired:
        print(f"e2ebench: {workload} exceeded {RUN_TIMEOUT_S} s",
              file=sys.stderr)
        return 124, None
    if capture:
        sys.stdout.write(done.stdout)
    return done.returncode, done.stdout


def run_all(binary, out_dir, seed, seconds):
    """Every workload untraced and traced with one seed: prints all metrics,
    the tracing overhead, and checks that the two runs counted the same
    deterministic work."""
    status = 0
    for workload in WORKLOADS:
        results = {}
        for trace in (0, 1):
            code, out = run(binary, out_dir, workload, seed, seconds, trace,
                            capture=True)
            if code != 0 or not out:
                return code or 1
            results[trace] = json.loads(out.strip().splitlines()[-1])
            if not results[trace]["correct"]:
                status = 1
        counters = []
        for suffix in ("", "-trace"):
            path = os.path.join(ROOT, out_dir, f"counters-{workload}-seed{seed}{suffix}.json")
            with open(path) as f:
                counters.append(json.load(f)["deterministic"])
        names = set(counters[0]) | set(counters[1])
        diff = sorted(n for n in names
                      if counters[0].get(n, 0) != counters[1].get(n, 0))
        for n in diff:
            print(f"{workload}: counter {n} differs between the two runs: "
                  f"{counters[0].get(n, 0)} vs {counters[1].get(n, 0)}")
        if diff:
            status = 1
        wall = results[0]["metrics"]["wall_s"]["value"]
        traced = results[1]["metrics"]["trace.wall_s"]["value"]
        print(f"{workload}: {len(names)} deterministic counters "
              f"{'differ' if diff else 'agree'}; traced wall {traced:.4g} s "
              f"vs untraced {wall:.4g} s (x{traced / wall:.3f})\n")
    return status


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt"))
            and os.path.isfile(os.path.join(ROOT, "BENCHMARK.json"))):
        print("e2ebench: run from a checkout with src/ and BENCHMARK.json",
              file=sys.stderr)
        return 2
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "e2ebench")
    binary = build(build_dir)
    if binary is None:
        print("e2ebench: build failed", file=sys.stderr)
        return 2
    # Relative to the repository root (the binary's working directory), so
    # the serve workload's Unix socket path stays short.
    out_dir = os.path.relpath(os.path.join(build_dir, "out"), ROOT)

    if args.workload == "all":
        return run_all(binary, out_dir, args.seed, args.seconds)
    return run(binary, out_dir, args.workload, args.seed, args.seconds,
               args.trace)[0]


if __name__ == "__main__":
    sys.exit(main())
