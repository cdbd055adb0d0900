#!/usr/bin/env python3
"""Builds and runs the dpv end-to-end benchmark.

From the repository root:

  python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
  python3 perfbench/run.py --smoke

The first form builds perfbench/ (the dpv library from src/ with the
repository's own CMake flags, plus the benchmark program) into
.bench_build/perfbench, then runs one workload; the last line of stdout
is the program's JSON result. Build output goes to stderr. --smoke runs
one minimal op per workload, untraced and traced, and checks that every
metric of BENCHMARK.json is reported with its unit and that the output
checks pass.
"""
import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
PROGRAM = os.path.join(BUILD_DIR, "dpv_perfbench")


def run_child(cmd, **kwargs):
    """Runs cmd to completion; stops and reaps it if this script is stopped."""
    child = subprocess.Popen(cmd, cwd=ROOT, **kwargs)
    previous = signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out, _ = child.communicate()
        return child.returncode, out
    finally:
        if child.poll() is None:
            child.terminate()
            try:
                child.wait(timeout=10)
            except subprocess.TimeoutExpired:
                child.kill()
                child.wait()
        signal.signal(signal.SIGTERM, previous)


def build():
    """Configures (once) and builds the program; True on success."""
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if run_child(cmd, stdout=sys.stderr)[0] != 0:
            shutil.rmtree(BUILD_DIR, ignore_errors=True)
            return False
    jobs = str(min(os.cpu_count() or 1, 4))
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "dpv_perfbench", "-j", jobs]
    return run_child(cmd, stdout=sys.stderr)[0] == 0


def run_benchmark(args):
    """Runs the program with args; returns (exit code, stdout text)."""
    return run_child([PROGRAM] + args, stdout=subprocess.PIPE, text=True)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            code, out = run_benchmark(["--workload", workload, "--seed", "0", "--seconds",
                                       "0", "--trace", str(trace)])
            where = f"{workload} --trace {trace}"
            lines = out.strip().splitlines()
            if code != 0 or not lines:
                problems.append(f"{where}: exit code {code}")
                continue
            result = json.loads(lines[-1])
            print(f"{where}: {lines[0] if len(lines) > 1 else ''}")
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
            if result.get("correct") is not True or result.get("failed") != 0:
                problems.append(f"{where}: output checks failed")
            metrics = result.get("metrics", {})
            for metric in expected[trace]:
                got = metrics.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{where}: {metric['name']} missing or not in "
                                    f"{metric['unit']}: {got}")
    for problem in problems:
        print("smoke FAIL:", problem)
    print("smoke:", "FAIL" if problems else "ok")
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed")
    parser.add_argument("--seconds")
    parser.add_argument("--trace")
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and None in (args.workload, args.seed, args.seconds, args.trace):
        parser.error("--workload, --seed, --seconds and --trace are required")
    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    if args.smoke:
        return smoke()
    code, out = run_benchmark(["--workload", args.workload, "--seed", args.seed,
                               "--seconds", args.seconds, "--trace", args.trace])
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
