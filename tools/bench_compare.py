#!/usr/bin/env python3
"""Compare a freshly generated bench JSON against its committed baseline
snapshot in bench/baselines/.

Five bench shapes are understood, dispatched on the file's "bench" field
(a missing or unrecognized kind is a hard error — never a silent
fallback to the wrong comparison):

  * the LP core (BENCH_simplex.json, "bench": "e5_lp_core"): node,
    pivot, factorization, factor-restore, pricing and sibling-batch
    counters of the one LP-core configuration per battery, and its exact
    verdict strings,
  * the staged-pipeline funnel (BENCH_funnel.json, "bench": "e2_funnel"):
    per-config funnel counters (attack-falsified / zonotope-proved /
    milp-decided / unknown), the verdict-compatibility and
    witness-validation flags, and the battery speedup ratio, and
  * the scenario-coverage engine (BENCH_coverage.json, "bench":
    "coverage"): per-config cell/funnel counters, the cross-thread
    determinism flag, and the headline certified-volume fraction
    (floors: baseline - 5 points absolute, and the baseline's
    min_certified_fraction acceptance bar), and
  * the fault-tolerance axis (BENCH_resume.json, "bench": "resume"):
    per-config cell counters across clean / checkpointed / interrupted
    / resumed runs, the resume-fidelity flag (checkpointed and resumed
    tables bit-identical to the clean run), a salvage floor (the
    maximal-salvage resume must restore at least one completed round)
    and the baseline's checkpoint-overhead ceiling, and
  * delta re-certification (BENCH_delta.json, "bench": "delta"):
    per-config reuse/LP counters and verdict strings across retrain
    magnitudes, the cold-vs-delta verdict-compatibility flag, the
    ablation gate (each reuse class switched off must cost more LP work
    than the full delta run), the baseline's artifact-reuse floor and
    re-certification wall-fraction ceiling (both ratios, so the machine
    constant divides out).

Every floor and ceiling comes from the committed baseline's "headline",
never from the run under test (which could loosen its own gate); a
baseline that lacks one is an error.

CI machines are heterogeneous, so absolute wall-clock seconds are NOT
compared.  The contract is on machine-independent quantities: counters
(same nets, same seeds -> deterministic modulo algorithm changes) and
speedup *ratios*, which divide out the machine constant.

A drift beyond --tolerance (default 20%) on any of those fails the run,
as does a changed verdict string, a verdict-compatibility break or a
funnel battery speedup below --min-speedup (default 1.5x).

Usage:
  tools/bench_compare.py build/BENCH_simplex.json \
      --baseline bench/baselines/BENCH_simplex.json [--tolerance 0.20]
  tools/bench_compare.py build/BENCH_funnel.json \
      --baseline bench/baselines/BENCH_funnel.json [--min-speedup 1.5]
"""

import argparse
import json
import sys

# LP-core counters per battery: pivot-path quantities independent of the
# host's clock speed, deterministic for a given build.
LP_CORE_COUNTED = ("nodes", "pivots", "refactorizations", "factor_restores",
                   "updates", "pricing_resets", "sibling_batches")

# Funnel counters: who settled how many queries. Small deterministic
# integers, so drift is measured against max(baseline, 1).
FUNNEL_COUNTED = ("attack_falsified", "zonotope_proved", "milp_proved",
                  "milp_falsified", "unknown", "nodes")

# Coverage counters: refinement-tree shape and decision funnel per
# config. Small deterministic integers (same drift rule as the funnel).
COVERAGE_COUNTED = ("cells_total", "cells_certified", "cells_unsafe",
                    "cells_unknown", "max_depth", "nodes",
                    "scenario_falsified", "static_proved",
                    "attack_falsified", "zonotope_proved", "milp_proved",
                    "milp_falsified")

# Resume counters: refinement/round shape per run flavour. The chosen
# poll budget is deliberately NOT compared (the sweep steps x4, so any
# behavioural shift jumps it past every tolerance).
RESUME_COUNTED = ("cells_total", "cells_certified", "cells_unsafe",
                  "cells_unknown", "rounds", "rounds_restored", "nodes")

# Delta re-certification counters: how each retrain magnitude's entries
# partitioned by trace reuse, the search-tree sizes, and the LP work of
# the full delta run and of its ablations. All deterministic for fixed
# seeds.
DELTA_COUNTED = ("entries_exact", "entries_widened", "entries_cold",
                 "bounds_refreshed", "cold_nodes", "delta_nodes",
                 "delta_lp_iterations", "delta_tightening_lps",
                 "priors_off_lp_iterations", "basis_off_lp_iterations",
                 "trace_off_tightening_lps")

# Delta ablations: (ablation counter, full-delta counter it must exceed).
# A reuse class whose ablation costs no more LP work than the full run
# no longer earns its place.
DELTA_ABLATIONS = (("priors_off_lp_iterations", "delta_lp_iterations"),
                   ("basis_off_lp_iterations", "delta_lp_iterations"),
                   ("trace_off_tightening_lps", "delta_tightening_lps"))


def fail(msg):
    print(f"bench_compare: FAIL: {msg}")
    return 1


def baseline_bound(base, key):
    """A floor or ceiling from the committed baseline's headline; a
    baseline without it fails the comparison."""
    value = base.get("headline", {}).get(key)
    if value is None:
        sys.exit(fail(f"the baseline has no headline '{key}' bound"))
    return value


def compare_funnel(cur, base, args):
    """Drift-check BENCH_funnel.json: funnel counters per config, the
    soundness flags, and the battery speedup ratio."""
    rc = 0

    if not cur.get("verdict_compatibility", False):
        rc |= fail("verdict_compatibility is false in the current run "
                   "(a decided verdict changed between falsify off and on)")
    if not cur.get("all_unsafe_validated", False):
        rc |= fail("all_unsafe_validated is false in the current run "
                   "(an UNSAFE verdict lacks a forward-pass-validated witness)")

    cur_cfgs = {c["config"]: c for c in cur.get("configs", [])}
    base_cfgs = {c["config"]: c for c in base.get("configs", [])}
    missing = sorted(set(base_cfgs) - set(cur_cfgs))
    if missing:
        rc |= fail(f"configs missing from current run: {', '.join(missing)}")

    for name, b in base_cfgs.items():
        c = cur_cfgs.get(name)
        if c is None:
            continue
        for key in FUNNEL_COUNTED:
            bv, cv = b.get(key, 0), c.get(key, 0)
            drift = abs(cv - bv) / max(bv, 1)
            status = "ok" if drift <= args.tolerance else "DRIFT"
            print(f"  {name:>14s} {key:>18s}: {bv:>6} -> {cv:>6} "
                  f"({drift:+.1%}) {status}")
            if drift > args.tolerance:
                rc |= fail(f"{name}: {key} drifted {drift:.1%} "
                           f"(> {args.tolerance:.0%})")

    bv = base.get("headline", {}).get("speedup_battery", 0.0)
    cv = cur.get("headline", {}).get("speedup_battery", 0.0)
    floor = (1.0 - args.tolerance) * bv
    print(f"  headline speedup_battery: baseline {bv:.2f}x -> current "
          f"{cv:.2f}x (floor {floor:.2f}x)")
    if bv > 0 and cv < floor:
        rc |= fail(f"headline speedup_battery regressed: {cv:.2f}x < floor "
                   f"{floor:.2f}x (baseline {bv:.2f}x)")
    if cv < args.min_speedup:
        rc |= fail(f"headline speedup_battery {cv:.2f}x is below the "
                   f"{args.min_speedup:.1f}x acceptance bar")

    if rc == 0:
        print("bench_compare: OK (funnel counters within "
              f"{args.tolerance:.0%} of baseline; battery speedup "
              f"{cv:.2f}x >= {args.min_speedup:.1f}x; verdicts compatible, "
              "all UNSAFE witnesses validated)")
    return rc


def compare_coverage(cur, base, args):
    """Drift-check BENCH_coverage.json: the determinism flag, per-config
    cell/funnel counters, and the headline certified-volume fraction."""
    rc = 0

    if not cur.get("determinism_ok", False):
        rc |= fail("determinism_ok is false in the current run "
                   "(coverage map/report differ across thread counts)")

    cur_cfgs = {c["config"]: c for c in cur.get("configs", [])}
    base_cfgs = {c["config"]: c for c in base.get("configs", [])}
    missing = sorted(set(base_cfgs) - set(cur_cfgs))
    if missing:
        rc |= fail(f"configs missing from current run: {', '.join(missing)}")

    for name, b in base_cfgs.items():
        c = cur_cfgs.get(name)
        if c is None:
            continue
        for key in COVERAGE_COUNTED:
            bv, cv = b.get(key, 0), c.get(key, 0)
            drift = abs(cv - bv) / max(bv, 1)
            status = "ok" if drift <= args.tolerance else "DRIFT"
            print(f"  {name:>14s} {key:>18s}: {bv:>6} -> {cv:>6} "
                  f"({drift:+.1%}) {status}")
            if drift > args.tolerance:
                rc |= fail(f"{name}: {key} drifted {drift:.1%} "
                           f"(> {args.tolerance:.0%})")

    # Certified volume: absolute floors, not ratios -- the fraction is
    # already normalized. Never fails for certifying MORE than baseline.
    bv = base.get("headline", {}).get("certified_fraction", 0.0)
    cv = cur.get("headline", {}).get("certified_fraction", 0.0)
    min_frac = baseline_bound(base, "min_certified_fraction")
    floor = bv - 0.05
    print(f"  headline certified_fraction: baseline {bv:.1%} -> current "
          f"{cv:.1%} (floor {floor:.1%}, acceptance bar {min_frac:.0%})")
    if cv < floor:
        rc |= fail(f"certified_fraction regressed: {cv:.1%} < baseline "
                   f"- 5 points ({floor:.1%})")
    if cv < min_frac:
        rc |= fail(f"certified_fraction {cv:.1%} is below the "
                   f"{min_frac:.0%} acceptance bar")

    if rc == 0:
        print("bench_compare: OK (coverage counters within "
              f"{args.tolerance:.0%} of baseline; certified volume "
              f"{cv:.1%} >= max(baseline - 5pts, {min_frac:.0%}); map "
              "bit-identical across thread counts)")
    return rc


def compare_resume(cur, base, args):
    """Drift-check BENCH_resume.json: the resume-fidelity flag, per-config
    cell/round counters, the salvage floor and the checkpoint-overhead
    ceiling."""
    rc = 0

    if not cur.get("determinism_ok", False):
        rc |= fail("determinism_ok is false in the current run (a "
                   "checkpointed or resumed table diverged from the clean "
                   "run's bytes)")

    cur_cfgs = {c["config"]: c for c in cur.get("configs", [])}
    base_cfgs = {c["config"]: c for c in base.get("configs", [])}
    missing = sorted(set(base_cfgs) - set(cur_cfgs))
    if missing:
        rc |= fail(f"configs missing from current run: {', '.join(missing)}")

    for name, b in base_cfgs.items():
        c = cur_cfgs.get(name)
        if c is None:
            continue
        for key in RESUME_COUNTED:
            bv, cv = b.get(key, 0), c.get(key, 0)
            drift = abs(cv - bv) / max(bv, 1)
            status = "ok" if drift <= args.tolerance else "DRIFT"
            print(f"  {name:>14s} {key:>18s}: {bv:>6} -> {cv:>6} "
                  f"({drift:+.1%}) {status}")
            if drift > args.tolerance:
                rc |= fail(f"{name}: {key} drifted {drift:.1%} "
                           f"(> {args.tolerance:.0%})")

    head = cur.get("headline", {})
    restored = head.get("rounds_restored", 0)
    total = head.get("total_rounds", 0)
    print(f"  headline rounds_restored: {restored} of {total}")
    if restored < 1:
        rc |= fail("maximal-salvage resume restored no completed rounds "
                   "(checkpoints are not saving settled work)")

    # Overhead is a wall-clock *fraction*, so the machine constant divides
    # out; the ceiling is the baseline's.
    overhead = head.get("checkpoint_overhead_fraction", 0.0)
    ceiling = baseline_bound(base, "max_checkpoint_overhead_fraction")
    print(f"  headline checkpoint_overhead_fraction: {overhead:.2%} "
          f"(ceiling {ceiling:.0%})")
    if overhead > ceiling:
        rc |= fail(f"checkpoint overhead {overhead:.2%} exceeds the "
                   f"{ceiling:.0%} ceiling")

    if rc == 0:
        print("bench_compare: OK (resume counters within "
              f"{args.tolerance:.0%} of baseline; resume restored "
              f"{restored} round(s) and reproduced the clean tables; "
              f"checkpoint overhead {overhead:.2%} <= {ceiling:.0%})")
    return rc


def compare_delta(cur, base, args):
    """Drift-check BENCH_delta.json: cold-vs-delta verdict compatibility,
    per-config reuse/LP counters and verdict strings, the ablation gate,
    the artifact-reuse floor and the re-certification wall-fraction
    ceiling."""
    rc = 0

    if not cur.get("verdict_compatibility", False):
        rc |= fail("verdict_compatibility is false in the current run "
                   "(a delta re-certification verdict diverged from the "
                   "cold run — an artifact reuse class is unsound)")

    cur_cfgs = {c["config"]: c for c in cur.get("configs", [])}
    base_cfgs = {c["config"]: c for c in base.get("configs", [])}
    missing = sorted(set(base_cfgs) - set(cur_cfgs))
    if missing:
        rc |= fail(f"configs missing from current run: {', '.join(missing)}")

    for name, b in base_cfgs.items():
        c = cur_cfgs.get(name)
        if c is None:
            continue
        for key in DELTA_COUNTED:
            bv, cv = b.get(key, 0), c.get(key, 0)
            drift = abs(cv - bv) / max(bv, 1)
            status = "ok" if drift <= args.tolerance else "DRIFT"
            print(f"  {name:>14s} {key:>18s}: {bv:>6} -> {cv:>6} "
                  f"({drift:+.1%}) {status}")
            if drift > args.tolerance:
                rc |= fail(f"{name}: {key} drifted {drift:.1%} "
                           f"(> {args.tolerance:.0%})")
        for key in ("cold_verdicts", "delta_verdicts"):
            bv, cv = b.get(key, ""), c.get(key, "")
            if bv != cv:
                rc |= fail(f"{name}: {key} changed: '{bv}' -> '{cv}'")

    # Ablation gate, on every config of the current run.
    for c in cur.get("configs", []):
        for ablated, full in DELTA_ABLATIONS:
            av, fv = c.get(ablated), c.get(full)
            if av is None or fv is None:
                rc |= fail(f"{c['config']}: missing {ablated} or {full}")
            elif av <= fv:
                rc |= fail(f"{c['config']}: {ablated} {av} does not exceed "
                           f"{full} {fv} (that reuse class saves nothing)")

    head = cur.get("headline", {})

    # Reuse fraction: entries that got exact or widened trace reuse over
    # all entries, against the baseline's floor; reusing MORE than
    # baseline never fails.
    reuse = head.get("reuse_fraction", 0.0)
    reuse_floor = baseline_bound(base, "min_reuse_fraction")
    print(f"  headline reuse_fraction: {reuse:.1%} (floor {reuse_floor:.0%})")
    if reuse < reuse_floor:
        rc |= fail(f"reuse_fraction {reuse:.1%} is below the "
                   f"{reuse_floor:.0%} floor (artifact reuse degraded)")

    # Wall fraction: delta wall over cold wall, summed across configs.
    # A ratio of walls on the same machine, so the machine constant
    # divides out; the ceiling is the baseline's <= 25% acceptance bar.
    frac = head.get("wall_fraction", 1.0)
    ceiling = baseline_bound(base, "max_wall_fraction")
    print(f"  headline wall_fraction: {frac:.1%} (ceiling {ceiling:.0%}, "
          f"re-certification speedup {head.get('speedup_recert', 0.0):.2f}x)")
    if frac > ceiling:
        rc |= fail(f"delta re-certification wall fraction {frac:.1%} "
                   f"exceeds the {ceiling:.0%} ceiling")

    if rc == 0:
        print("bench_compare: OK (delta counters and verdicts match "
              f"baseline within {args.tolerance:.0%}; every ablation costs "
              f"more LP work than the full delta run; reuse "
              f"{reuse:.1%} >= {reuse_floor:.0%}; re-certification wall "
              f"{frac:.1%} <= {ceiling:.0%} of cold; verdicts compatible)")
    return rc


def compare_lp_core(cur, base, args):
    """Drift-check BENCH_simplex.json: the LP-core counters and the exact
    verdict string of every battery. Wall seconds are not compared."""
    rc = 0

    cur_cfgs = {c["config"]: c for c in cur.get("configs", [])}
    base_cfgs = {c["config"]: c for c in base.get("configs", [])}
    missing = sorted(set(base_cfgs) - set(cur_cfgs))
    if missing:
        rc |= fail(f"configs missing from current run: {', '.join(missing)}")

    for name, b in base_cfgs.items():
        c = cur_cfgs.get(name)
        if c is None:
            continue
        for key in LP_CORE_COUNTED:
            bv, cv = b.get(key, 0), c.get(key, 0)
            drift = abs(cv - bv) / max(bv, 1)
            status = "ok" if drift <= args.tolerance else "DRIFT"
            print(f"  {name:>16s} {key:>16s}: {bv:>8} -> {cv:>8} "
                  f"({drift:+.1%}) {status}")
            if drift > args.tolerance:
                rc |= fail(f"{name}: {key} drifted {drift:.1%} "
                           f"(> {args.tolerance:.0%})")
        bv, cv = b.get("verdicts", ""), c.get("verdicts", "")
        if bv != cv:
            rc |= fail(f"{name}: verdicts changed: '{bv}' -> '{cv}'")

    if rc == 0:
        print("bench_compare: OK (LP-core counters within "
              f"{args.tolerance:.0%} of baseline; verdicts unchanged)")
    return rc


# Dispatch table: the "bench" field of the current file names the
# comparison. No default — a missing or unknown kind must fail, not
# silently run the wrong comparison.
COMPARATORS = {
    "e5_lp_core": compare_lp_core,
    "e2_funnel": compare_funnel,
    "coverage": compare_coverage,
    "resume": compare_resume,
    "delta": compare_delta,
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly generated bench JSON")
    ap.add_argument("--baseline", required=True,
                    help="committed baseline, e.g. bench/baselines/BENCH_simplex.json")
    ap.add_argument("--tolerance", type=float, default=0.20,
                    help="allowed relative drift on counters and ratios")
    ap.add_argument("--min-speedup", type=float, default=1.5,
                    help="hard floor on the funnel's battery speedup")
    args = ap.parse_args()

    with open(args.current) as f:
        cur = json.load(f)
    with open(args.baseline) as f:
        base = json.load(f)

    kind = cur.get("bench")
    known = ", ".join(sorted(COMPARATORS))
    if kind is None:
        return fail(f"{args.current} has no 'bench' kind field; "
                    f"expected one of: {known}")
    if kind not in COMPARATORS:
        return fail(f"{args.current} has unrecognized bench kind "
                    f"'{kind}'; expected one of: {known}")
    base_kind = base.get("bench")
    if base_kind != kind:
        return fail(f"bench kind mismatch: current is '{kind}' but "
                    f"baseline {args.baseline} is '{base_kind}' — "
                    "wrong --baseline file?")
    return COMPARATORS[kind](cur, base, args)


if __name__ == "__main__":
    sys.exit(main())
