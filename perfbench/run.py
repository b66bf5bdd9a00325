#!/usr/bin/env python3
"""Runs one workload of the skycube end-to-end benchmark.

    python3 perfbench/run.py --workload read --seed 1 --seconds 10 --trace 0

Builds the benchmark from the repository's sources on first use (CMake,
RelWithDebInfo, tests off) into $CARGO_TARGET_DIR or .bench_build, runs the
self-test of the summary code, then runs the workload in its own process.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}, holding every end-to-end metric of
BENCHMARK.json with --trace 0 and every per-layer metric with --trace 1
(0 for a layer the workload does not exercise). See perfbench/README.md.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
SPEC = os.path.join(REPO, "BENCHMARK.json")
# A run must end within 180 s; keep a margin for start-up and clean-up.
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(2)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(REPO, path)


def build(out):
    """Configures and builds skybench and summary_test; returns the binary."""
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail(f"no skycube sources next to {HERE}; nothing to build")
    os.makedirs(out, exist_ok=True)
    log_path = os.path.join(out, "build.log")
    # One build at a time per build directory.
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(log_path, "a") as log:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", out,
                          "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
        steps.append(["cmake", "--build", out, "--target", "skybench",
                      "summary_test", "-j", str(os.cpu_count() or 1)])
        steps.append([os.path.join(out, "summary_test")])
        for step in steps:
            started = time.monotonic()
            code = subprocess.call(step, stdout=log, stderr=subprocess.STDOUT)
            if code != 0:
                fail(f"'{' '.join(step)}' failed ({code}); see {log_path}")
            if time.monotonic() - started > 5:
                print(f"build: {os.path.basename(step[0])} "
                      f"{' '.join(step[1:3])} took "
                      f"{time.monotonic() - started:.0f} s", flush=True)
    return os.path.join(out, "skybench")


def result_line(stdout, spec, trace):
    """The workload's JSON result, restricted to the declared metrics."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        return None
    measured = result["metrics"]
    metrics = {}
    for declared in spec["per_layer" if trace else "end_to_end"]:
        name, unit = declared["name"], declared["unit"]
        if name in measured:
            if measured[name]["unit"] != unit:
                fail(f"{name}: unit {measured[name]['unit']} != {unit}")
            metrics[name] = measured[name]
        elif trace:
            metrics[name] = {"value": 0, "unit": unit}
        else:
            fail(f"end-to-end metric {name} was not measured")
    result["metrics"] = metrics
    return result


def main():
    if not os.path.isfile(SPEC):
        fail(f"missing {SPEC}")
    with open(SPEC) as f:
        spec = json.load(f)
    workloads = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()

    out = build_dir()
    binary = build(out)
    workdir = os.path.join(out, "work", f"{args.workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--workdir", workdir]
    # The workload process never outlives this one: a timeout or a
    # SIGTERM kills it and waits for it before exiting.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    stdout = None
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        pass
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        # The span dump of a traced run is kept, replacing the workload's
        # previous one (a dump is up to ~120 MB); the WAL and checkpoints
        # are not kept.
        for name in os.listdir(workdir):
            if name.endswith(".spans.tsv"):
                traces = os.path.join(out, "traces")
                os.makedirs(traces, exist_ok=True)
                for old in os.listdir(traces):
                    if old.startswith(f"{args.workload}-seed"):
                        os.remove(os.path.join(traces, old))
                os.replace(os.path.join(workdir, name),
                           os.path.join(traces, name))
        shutil.rmtree(workdir, ignore_errors=True)
    if stdout is None:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")

    lines = stdout.splitlines()
    print("\n".join(lines[:-1]))
    result = result_line(stdout, spec, args.trace)
    if proc.returncode != 0 or result is None:
        fail(f"{args.workload} exited {proc.returncode} without a result")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
