#!/usr/bin/env python3
"""End-to-end benchmark of specstab.

Builds the benchmark binary from the sources of this checkout (CMake,
Release) and runs one workload in a process of its own, so that the
reported peak RSS belongs to that workload alone:

    python3 perfbench/run.py --workload ssme-torus1m-sync --seed 1 \
        --seconds 10 --trace 0

The last line of standard output is the JSON result
{"correct", "attempted", "failed", "metrics"}; the line before it holds
the host facts.  Build output goes to standard error.  The build tree is
$CARGO_TARGET_DIR (relative to the checkout root) or .bench_build.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ssme-torus1m-sync", "paper-campaign", "serve-replay")
PINNED = HERE / "pinned_torus1m.txt"
# A run measures --seconds plus set-up and checks; the traced run probes
# every layer and takes about half a minute.
RUN_TIMEOUT_S = 170


def build_root():
    target = pathlib.Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return target if target.is_absolute() else ROOT / target


def build():
    """Configures (once) and builds the benchmark; returns the binary."""
    build_dir = build_root() / "perfbench"
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(build_dir),
             "-DCMAKE_BUILD_TYPE=Release"],
            check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "-j", jobs],
                   check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    try:
        binary = build()
    except (OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 1
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pinned", str(PINNED)]
    if args.trace:
        spans = build_root() / f"spans-{args.workload}-{args.seed}.jsonl"
        cmd += ["--trace-out", str(spans)]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
