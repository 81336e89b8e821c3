#!/usr/bin/env python3
"""Self-tests of the repository benchmark.

Usage (from the repository root):
  python3 perfbench/selftest.py

Checks, failing with a nonzero exit status on the first violation:
  1. `perfbench --selftest`: every correctness anchor holds on its oracle's
     answer and trips on a wrong one; latency histogram quantiles equal
     the exact ones; span self times account for every traced nanosecond.
  2. Each workload, run for 2 seconds untraced and traced:
     every end-to-end metric of BENCHMARK.json is present with its unit,
     the workloads' traced runs together report every per-layer metric,
     no run reports an undeclared metric, and every output is correct.
  3. In the serve table, the self times plus pump.self_us sum to the
     traced wall time per op, for both phases.
  4. Each traced run's trace file passes ci/check_trace.py.
  5. run.py prints the result line with exactly the keys it documents, and
     exits nonzero without a result line in a directory holding only
     BENCHMARK.json and perfbench/.
"""
import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True  # importing run.py must not litter the tree
import run  # noqa: E402

CHECK_TRACE = os.path.join(run.ROOT, "ci", "check_trace.py")
SECONDS = 2.0  # per workload run
SERVE_PARTS = ("net.udp.poll_self_us", "net.udp.send_us", "net.node.self_us",
               "net.client.self_us", "pump.self_us")


def fail(msg):
    print(f"selftest: FAIL: {msg}")
    sys.exit(1)


def run_binary(binary, workload, seconds, trace):
    proc = subprocess.run(
        [binary, "--workload", workload, "--seed", "7", "--seconds",
         str(seconds), "--trace", str(trace), "--scratch", run.SCRATCH_DIR],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        fail(f"{workload} trace={trace}: exit {proc.returncode}")
    config, result = json.loads(lines[-2])["config"], json.loads(lines[-1])
    if result["correct"] is not True or result["failed"] != 0:
        fail(f"{workload} trace={trace}: outputs not correct: {result}")
    return config, result


def check_units(workload, metrics, declared):
    for name, m in metrics.items():
        if name not in declared:
            fail(f"{workload}: undeclared metric {name}")
        if m["unit"] != declared[name]:
            fail(f"{workload}: {name} unit {m['unit']} != {declared[name]}")


def main():
    spec = run.load_spec()
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    binary = run.build()
    os.makedirs(run.SCRATCH_DIR, exist_ok=True)

    if subprocess.run([binary, "--selftest", "--scratch", run.SCRATCH_DIR],
                      cwd=run.ROOT).returncode != 0:
        fail("perfbench --selftest")

    covered = set()
    for w in run.WORKLOADS:
        _, plain = run_binary(binary, w, SECONDS, 0)
        check_units(w, plain["metrics"], e2e)
        if set(plain["metrics"]) != set(e2e):
            fail(f"{w}: end-to-end metrics {sorted(plain['metrics'])}")
        config, traced = run_binary(binary, w, SECONDS, 1)
        check_units(w, traced["metrics"], layer)
        covered |= set(traced["metrics"])
        if w == "serve":
            for p in ("w1.", "w32."):
                m = traced["metrics"]
                parts = sum(m[p + n]["value"] for n in SERVE_PARTS)
                wall = m[p + "op_wall_us"]["value"]
                if abs(parts - wall) > 1e-6 * wall:
                    fail(f"serve {p}: self times sum to {parts}, wall {wall}")
        if os.path.isfile(CHECK_TRACE):
            if subprocess.run([sys.executable, CHECK_TRACE,
                               config["trace_file"]]).returncode != 0:
                fail(f"{w}: trace file rejected by ci/check_trace.py")
        print(f"selftest: ok: {w}")
    if covered != set(layer):
        fail(f"per-layer metrics no workload reports: "
             f"{sorted(set(layer) - covered)}")

    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload",
         "simulate", "--seed", "3", "--seconds", str(SECONDS),
         "--trace", "1"],
        cwd=run.ROOT, stdout=subprocess.PIPE, text=True,
        timeout=run.RUN_TIMEOUT_S)
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or set(last) != {"correct", "attempted", "failed",
                                             "metrics"} \
            or set(last["metrics"]) != set(layer):
        fail("run.py result line has the wrong keys or metrics")

    bare = os.path.join(run.ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), bare)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        text=True, timeout=180)
    shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or proc.stdout.strip():
        fail("run.py without the repository sources must fail silently")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
