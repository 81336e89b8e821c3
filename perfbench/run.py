#!/usr/bin/env python3
"""Build and run one workload of the repository benchmark.

Usage (from the repository root):
  python3 perfbench/run.py --workload serve|simulate|place --seed N \
      --seconds S --trace 0|1

Builds the perfbench binary (CMake, Release) from this checkout into
.bench_build/perfbench, runs the workload in its own process and prints, as
the last line of stdout, one JSON object with the keys correct, attempted,
failed and metrics. --trace 0 reports the end_to_end metrics of
BENCHMARK.json, --trace 1 the per_layer ones; a per-layer metric of a layer
the workload never enters is reported as 0. The line before it echoes the
run's configuration (seed, nproc, compiler, build type, obs, engine).

Exits 0 when every output was correct, 1 when an operation failed (the
result line is still printed, with correct false), and 2 without a result
line when the build or the run fails.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
SCRATCH_DIR = os.path.join(ROOT, ".bench_build", "perfbench-run")
WORKLOADS = ("serve", "simulate", "place")
BUILD_TIMEOUT_S = 800
RUN_TIMEOUT_S = 170


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configure once, then (re)build; returns the binary's path."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        raise RuntimeError("the repository sources are not next to perfbench/")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs,
                  "--target", "perfbench"])
    for cmd in steps:
        subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                       check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(BUILD_DIR, "perfbench")


def check_result(result, spec, trace):
    """Validate the binary's result line against BENCHMARK.json and fill
    the per-layer metrics the workload does not exercise with 0."""
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise ValueError(f"result keys {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    metrics = result["metrics"]
    for name, m in metrics.items():
        if name not in units:
            raise ValueError(f"metric {name} is not declared in BENCHMARK.json")
        if m.get("unit") != units[name]:
            raise ValueError(f"metric {name} has unit {m.get('unit')}, "
                             f"BENCHMARK.json says {units[name]}")
        if not isinstance(m.get("value"), (int, float)) or \
                not math.isfinite(m["value"]):
            raise ValueError(f"metric {name} value {m.get('value')!r}")
    missing = [n for n in units if n not in metrics]
    if missing and not trace:
        raise ValueError(f"end-to-end metrics missing: {missing}")
    for name in missing:
        metrics[name] = {"value": 0, "unit": units[name]}
    result["metrics"] = {n: metrics[n] for n in units}
    return result


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or not 0 < args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in (0, 600]")

    try:
        spec = load_spec()
        binary = build()
        os.makedirs(SCRATCH_DIR, exist_ok=True)
        proc = subprocess.run(
            [binary, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", repr(args.seconds), "--trace", str(args.trace),
             "--scratch", SCRATCH_DIR],
            cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
            timeout=RUN_TIMEOUT_S)
        if proc.returncode not in (0, 1):
            raise RuntimeError(f"perfbench exited with {proc.returncode}")
        lines = proc.stdout.strip().splitlines()
        result = check_result(json.loads(lines[-1]), spec, args.trace)
        correct = proc.returncode == 0 and result["correct"] is True
    except (OSError, ValueError, RuntimeError, IndexError,
            subprocess.SubprocessError) as e:
        print(f"run.py: {e}", file=sys.stderr)
        return 2
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
