#!/usr/bin/env python3
"""Builds and runs the host-cost benchmark of the offloading runtime.

Run from the root of a checkout:

    python3 perfbench/run.py --workload suite-dense --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

The first form configures and builds `perfbench` (CMake, Release) from the
checkout's sources into `$CARGO_TARGET_DIR/perfbench` (default
`.bench_build/perfbench`), runs it, and passes its output through: the last
line of stdout is the result JSON. `--selftest` runs every workload at smoke
size in both trace modes and checks that every metric named in
BENCHMARK.json is emitted with its unit and that nothing failed. See
perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("suite-dense", "suite-sparse", "service-stream")
BUILD_TIMEOUT_S = 840  # a cold build takes ~1 min on 4 cores
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(2)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build():
    """Configures (once) and builds the benchmark; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("runtime sources (src/) not found next to perfbench/; "
             "run from the root of a full checkout")
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "--target", "perfbench",
                  "-j", jobs])
    for step in steps:
        try:
            # Build chatter goes to stderr: stdout's last line is the result.
            done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as error:
            fail("build step failed: %s" % error)
        if done.returncode != 0:
            fail("build step failed: " + " ".join(step))
    return os.path.join(out, "perfbench")


def run_binary(binary, args):
    """Runs perfbench once; returns (exit code, stdout text)."""
    try:
        done = subprocess.run([binary] + args, cwd=ROOT, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail("perfbench exceeded %d s" % RUN_TIMEOUT_S)
    return done.returncode, done.stdout


def selftest(binary):
    """Smoke-size check of every workload in both trace modes."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            code, out = run_binary(binary, ["--workload", workload, "--seed",
                                            "1", "--seconds", "1",
                                            "--trace", trace])
            label = "%s trace=%s" % (workload, trace)
            known = len(problems)
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append("%s: exit code %d" % (label, code))
                continue
            result = json.loads(lines[-1])
            metrics = result["metrics"]
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%d (error_rate %g)" % (
                    label, result["correct"], result["failed"],
                    result["failed"] / result["attempted"]))
            if set(metrics) != set(expected[trace]):
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s" % (
                                    label,
                                    sorted(set(expected[trace]) - set(metrics)),
                                    sorted(set(metrics) - set(expected[trace]))))
            for name, unit in expected[trace].items():
                if name in metrics and metrics[name]["unit"] != unit:
                    problems.append("%s: %s has unit %s, expected %s" % (
                        label, name, metrics[name]["unit"], unit))
            print("%-28s ok=%s attempted=%d failed=%d metrics=%d" % (
                label, len(problems) == known, result["attempted"],
                result["failed"], len(metrics)))
    for problem in problems:
        print("selftest: " + problem, file=sys.stderr)
    print("selftest %s" % ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    binary = build()
    if args.selftest:
        return selftest(binary)
    code, out = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(args.seconds), "--trace", args.trace,
        "--trace-dir", os.path.join(os.path.dirname(build_dir()),
                                    "perfbench-traces")])
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
