#!/usr/bin/env python3
"""Build and run the repository benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload <pingpong|stream|c10k|web16> \
        --seed N --seconds S --trace <0|1>

Configures and builds perfbench/ (the simulator libraries in src/ plus the
benchmark driver) in Release mode into $CARGO_TARGET_DIR, or .bench_build
when unset, then runs the workload.  The driver's stdout is passed through;
its last line is the result object
{"correct", "attempted", "failed", "metrics"}.  Before printing it, this
script checks that the metrics are exactly the ones BENCHMARK.json lists
for the mode (end_to_end for --trace 0, per_layer for --trace 1), with the
listed units.  Any build failure, driver failure or mismatch exits non-zero
without printing a result.
"""

import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def build(build_dir):
    """Configure once, then build the driver; build output goes to stderr."""
    os.makedirs(build_dir, exist_ok=True)
    # Serialize concurrent invocations on one checkout's build tree.
    with open(os.path.join(build_dir, ".perfbench.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        jobs = str(min(4, os.cpu_count() or 1))
        steps.append(["cmake", "--build", build_dir, "--target", "perfbench",
                      "-j", jobs])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                fail("build step failed: " + " ".join(cmd))
    return os.path.join(build_dir, "perfbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer" if trace else "end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def check_result(line, trace):
    try:
        res = json.loads(line)
    except json.JSONDecodeError:
        fail("last output line is not JSON: " + line)
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        fail("result keys are %s" % sorted(res))
    got = {k: v.get("unit") for k, v in res["metrics"].items()}
    want = expected_metrics(trace)
    if got != want:
        missing = sorted(set(want) - set(got))
        extra = sorted(set(got) - set(want))
        units = sorted(k for k in set(got) & set(want) if got[k] != want[k])
        fail("metrics differ from BENCHMARK.json: missing %s, extra %s, "
             "unit mismatch %s" % (missing, extra, units))
    if res["attempted"] < 1:
        fail("no operation was attempted")


def main():
    args = sys.argv[1:]
    trace = False
    for flag, value in zip(args, args[1:]):
        if flag == "--trace":
            trace = value == "1"
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    binary = build(os.path.join(ROOT, build_dir))
    try:
        proc = subprocess.run([binary] + args, stdout=subprocess.PIPE,
                              text=True, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("workload did not finish within %d s" % RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        fail("driver exited with code %d" % proc.returncode)
    check_result(lines[-1], trace)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
