#!/usr/bin/env python3
"""Seconds-scale smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Builds the benchmark, runs every workload run.py knows for one second
and the traced layer probes in their quick form, and asserts that each
run prints exactly the metric names and units BENCHMARK.json declares.
Then it plants one wrong pinned meter for the torus workload and asserts
that the run fails.  Exits 0 when every assertion holds.
"""

import json
import subprocess
import sys

import run as bench


def last_json(stdout):
    lines = stdout.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


def check_metrics(label, result, declared):
    emitted = {name: m["unit"] for name, m in result["metrics"].items()}
    if emitted != declared:
        missing = sorted(set(declared) - set(emitted))
        extra = sorted(set(emitted) - set(declared))
        wrong = sorted(n for n in declared
                       if n in emitted and emitted[n] != declared[n])
        raise AssertionError(f"{label}: missing {missing}, "
                             f"undeclared {extra}, wrong units {wrong}")
    for name, m in result["metrics"].items():
        if not isinstance(m["value"], (int, float)):
            raise AssertionError(f"{label}: {name} is not a number")


def main():
    spec = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    declared = [w["name"] for w in spec["workloads"]]
    assert set(declared) <= set(bench.WORKLOADS), declared
    binary = bench.build()

    for workload in bench.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(bench.HERE / "run.py"),
             "--workload", workload, "--seed", "1", "--seconds", "1",
             "--trace", "0"],
            capture_output=True, text=True, timeout=300, check=False)
        result = last_json(proc.stdout)
        assert proc.returncode == 0 and result and result["correct"], (
            workload, proc.returncode, proc.stderr[-2000:])
        assert result["attempted"] >= 1 and result["failed"] == 0, result
        check_metrics(workload, result, end_to_end)
        print(f"smoke: {workload}: {len(result['metrics'])} metrics ok")

    proc = subprocess.run(
        [str(binary), "--workload", "serve-replay", "--seed", "1",
         "--seconds", "1", "--trace", "1", "--quick",
         "--pinned", str(bench.PINNED)],
        capture_output=True, text=True, timeout=300, check=False)
    result = last_json(proc.stdout)
    assert proc.returncode == 0 and result and result["correct"], (
        proc.returncode, proc.stderr[-2000:])
    check_metrics("traced run", result, per_layer)
    print(f"smoke: traced run: {len(result['metrics'])} metrics ok")

    # Seed 0 starts the torus window at the first pinned entry; make its
    # move count wrong by one.
    lines = bench.PINNED.read_text().splitlines()
    first = next(i for i, line in enumerate(lines)
                 if line and not line.startswith("#"))
    fields = lines[first].split()
    fields[2] = str(int(fields[2]) + 1)
    lines[first] = " ".join(fields)
    planted = bench.build_root() / "smoke-pinned-wrong.txt"
    planted.write_text("\n".join(lines) + "\n")
    proc = subprocess.run(
        [str(binary), "--workload", "ssme-torus1m-sync", "--seed", "0",
         "--seconds", "1", "--trace", "0", "--pinned", str(planted)],
        capture_output=True, text=True, timeout=300, check=False)
    result = last_json(proc.stdout)
    assert proc.returncode != 0 and result and not result["correct"], (
        "a wrong pinned value must fail the run", proc.returncode, result)
    assert result["failed"] >= 1, result
    print("smoke: planted wrong pinned value fails the run")
    print("smoke: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
