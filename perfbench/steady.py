#!/usr/bin/env python3
"""Interleaved steadiness runner for the dpv end-to-end benchmark.

Runs two sets of benchmark runs interleaved, one pair per seed, swapping
which set goes first on every pair (A B, B A, A B, ...), and prints for
every workload and end-to-end metric each set's median, quartiles and
spread (quartile distance over median, as statistics.quantiles(n=4)
gives the quartiles) against the metric's bound in BENCHMARK.json, and
how much worse set B's median is than set A's.

  python3 perfbench/steady.py --workload recertify --seeds 1 2 3 4 5 6 7 8 9 10
  python3 perfbench/steady.py --workload coverage-serial --seeds 1 2 3 --a ../parent
  python3 perfbench/steady.py --workload campaign-parallel --seeds 1 2 3 4 5 --sets 1

--a and --b name checkouts to run (default: this one, so both sets run
the same code); each run is `python3 perfbench/run.py` inside one, for
--seconds (default: run_seconds of BENCHMARK.json). With --sets 1 only
set A runs, which measures the spread alone.
"""
import argparse
import json
import os
import re
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(checkout, workload, seed, seconds):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    result = json.loads(lines[-1])
    probe = re.search(r"machine probe ([0-9.]+) ms before, ([0-9.]+) ms after", proc.stdout)
    result["probe_ms"] = [float(probe.group(1)), float(probe.group(2))] if probe else []
    return result


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3, (q3 - q1) / statistics.median(values)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    parser.add_argument("--a", default=HERE)
    parser.add_argument("--b", default=HERE)
    parser.add_argument("--sets", type=int, choices=(1, 2), default=2)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--out", help="also write every run's result to this JSON file")
    args = parser.parse_args()
    if len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")
    with open(os.path.join(args.a, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = args.seconds or spec["run_seconds"]
    sets = {"A": os.path.abspath(args.a), "B": os.path.abspath(args.b)}
    names = ["A", "B"][: args.sets]

    runs = {w: {s: [] for s in names} for w in args.workload}
    failures = 0
    for workload in args.workload:
        for pair, seed in enumerate(args.seeds):
            for name in names if pair % 2 == 0 else names[::-1]:
                result = run_once(sets[name], workload, seed, seconds)
                runs[workload][name].append(result)
                failures += result["failed"] + (0 if result["correct"] else 1)
                m = result["metrics"]
                print(f"{workload} {name} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.4g}" for k, v in m.items()) +
                    f"; {result['attempted']} ops, {result['failed']} failed; probe ms "
                    f"{result['probe_ms']}", file=sys.stderr, flush=True)

    worst = 0.0
    for workload in args.workload:
        print(f"\n{workload}: {len(args.seeds)} seeds x {len(names)} sets, {seconds} s runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            cells, medians = [], {}
            for s in names:
                values = [r["metrics"][name]["value"] for r in runs[workload][s]]
                q1, q3, rel = spread(values)
                medians[s] = statistics.median(values)
                cells.append(f"{s} {medians[s]:.4g} [{q1:.4g}, {q3:.4g}] spread {rel:.3f}")
                if name != "setup_s":
                    worst = max(worst, rel / bound)
            line = f"  {name:20s} bound {bound:<5} " + " | ".join(cells)
            if len(names) == 2:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                worse = sign * (medians["B"] - medians["A"]) / medians["A"]
                line += f" | B worse by {worse:+.3f} ({'ok' if worse <= bound else 'OVER BOUND'})"
                worst = max(worst, worse / bound)
            print(line)
    print(f"\nfailed ops or incorrect runs: {failures}; largest spread or drift as a share "
          f"of its bound: {worst:.2f}")
    if args.out:
        with open(args.out, "w") as f:
            json.dump(runs, f, indent=1)
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
