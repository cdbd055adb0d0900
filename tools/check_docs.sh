#!/usr/bin/env bash
# Documentation reference checker (the CI docs-check job).
#
# Two passes over the long-form docs:
#   1. every path-looking token (src/..., bench/..., tests/..., ...)
#      must exist in the tree;
#   2. a curated list of (directory, symbol) pairs the docs lean on must
#      still be found by grep, so renames surface as a red CI run
#      instead of silently stale prose.
#
# Run from the repository root: bash tools/check_docs.sh
set -u
cd "$(dirname "$0")/.." || exit 1

DOCS="README.md docs/ARCHITECTURE.md src/milp/README.md src/solver/README.md src/verify/README.md src/core/README.md src/train/README.md"
fail=0

for doc in $DOCS; do
  if [ ! -f "$doc" ]; then
    echo "FAIL: documented file missing: $doc"
    fail=1
    continue
  fi
  # Path-like references. Trailing punctuation from prose is stripped;
  # directory references may end in '/'; globs must match something.
  for ref in $(grep -oE '\b(src|bench|tests|tools|docs|examples)/[A-Za-z0-9_./*-]+' "$doc" | sed 's/[.,;:]$//' | sort -u); do
    case "$ref" in
      *\**)
        if ! compgen -G "$ref" >/dev/null; then
          echo "FAIL: $doc references glob with no matches: $ref"
          fail=1
        fi
        ;;
      *)
        if [ ! -e "$ref" ]; then
          echo "FAIL: $doc references missing path: $ref"
          fail=1
        fi
        ;;
    esac
  done
done

# (directory, symbol) pairs: the load-bearing names the docs explain.
check_symbol() {
  local where="$1" symbol="$2"
  if ! grep -rq -- "$symbol" "$where"; then
    echo "FAIL: symbol '$symbol' documented but not found under $where"
    fail=1
  fi
}

check_symbol src/solver  "simplex_stats"
check_symbol src/lp      "capture_basis"
check_symbol src/lp      "tableau_row"
check_symbol src/lp      "SolveStats"
check_symbol src/solver  "basis_factorizations"
check_symbol src/solver  "singular_recoveries"
check_symbol src/solver  "factor_seconds"
check_symbol src/solver  "pivot_seconds"
check_symbol src/lp      "TableauRow"
check_symbol src/lp      "BasisLu"
check_symbol src/lp      "should_refactorize"
check_symbol src/lp      "ftran"
check_symbol src/lp      "btran"
check_symbol src/milp    "NodeStore"
check_symbol src/milp    "decide_branch"
check_symbol src/milp    "PseudocostTable"
check_symbol src/milp    "kPlungeLimit"
check_symbol src/milp    "kProbeCandidates"
check_symbol src/milp    "pseudocost_priors"
check_symbol src/milp    "initial_cuts"
check_symbol src/milp    "harvest_root_cuts"
check_symbol src/milp    "bound_target"
check_symbol src/milp    "best_bound"
check_symbol src/solver  "peak_open_nodes"
check_symbol src/solver  "best_bound_gap"
check_symbol src/verify  "risk_margin_objective"
check_symbol src/core    "reallocate_node_budget"
check_symbol src/milp    "remove_rows"
check_symbol src/milp    "root_age_limit"
check_symbol src/milp    "pad_basis"
check_symbol src/milp    "truncate_basis"
check_symbol src/milp    "root_basis"
check_symbol src/solver  "root_warm_starts"
check_symbol src/verify  "root_basis"
check_symbol src/lp      "solve_range"
check_symbol src/lp      "LpRange"
check_symbol tests       "RecertifyTailTighteningIsPinned"
check_symbol src/milp    "cuts_aged_out"
check_symbol src/milp    "CutGenerator"
check_symbol src/milp    "ReluSplitCutGenerator"
check_symbol src/milp    "GomoryCutGenerator"
check_symbol src/milp    "run_root_cuts"
check_symbol src/milp    "ReluSplitInfo"
check_symbol src/milp    "CutOptions"
check_symbol src/milp    "add_rows"
check_symbol src/verify  "SharedTailEncoding"
check_symbol src/verify  "EncodingCache"
check_symbol src/verify  "BoundMethod"
check_symbol src/verify  "output_functional_range"
check_symbol src/core    "run_campaign"
check_symbol src/core    "WorkflowConfig"
check_symbol src/monitor "DiffMonitor"
check_symbol src/lp      "refactor_cadence"
check_symbol src/lp      "save_snapshot"
check_symbol src/lp      "restore_snapshot"
check_symbol src/lp      "MarkowitzSearch"
check_symbol src/lp      "urows_of_col"
check_symbol src/lp      "basic_in_row"
check_symbol src/solver  "basis_restores"
check_symbol src/lp      "pricing_resets"
check_symbol src/solver  "sibling_batches"
check_symbol src/common  "force_scalar"
check_symbol src/common  "argmax_violation"
check_symbol src/common  "sparse_gather_dot"
check_symbol src/common  "max_square_scaled"
check_symbol src/common  "hadamard_fma"
check_symbol src/common  "TapGrid"
check_symbol src/common  "fma_taps"
check_symbol src/common  "fma_taps_shared_input"
check_symbol src/common  "window_max"
check_symbol src/common  "rounded"
check_symbol src/common  "mt64_twist"
check_symbol src/common  "mt64_temper"
check_symbol src/common  "unit_interval"
check_symbol src/common  "polar_normals"
check_symbol src/common  "normals"
check_symbol src/data    "road_center_column"
check_symbol src/data    "road_half_width"
check_symbol tests       "RenderHashIsBuildIndependent"
check_symbol src/verify  "FalsifyOptions"
check_symbol src/verify  "falsify_query"
check_symbol src/verify  "prove_by_bounds"
check_symbol src/verify  "validate_witness"
check_symbol src/verify  "require_margin"
check_symbol src/verify  "DecisionStage"
check_symbol src/verify  "decided_by"
check_symbol src/verify  "frontier_activation"
check_symbol src/verify  "min_margin"
check_symbol src/verify  "validation_tolerance"
check_symbol src/milp    "frontier_values"
check_symbol src/core    "falsify_first"
check_symbol src/core    "concretize_witnesses"
check_symbol src/core    "counterexample_pool"
check_symbol src/core    "CounterexamplePool"
check_symbol src/core    "EscalationStep"
check_symbol src/core    "funnel_attack_falsified"
check_symbol src/core    "pool_points_contributed"
check_symbol src/core    "attack_seeds_tried"
check_symbol src/core    "input_witness_distance"
check_symbol src/train   "concretize_activation"
check_symbol src/nn      "input_gradient"
check_symbol src/nn      "backward_batch"
check_symbol src/nn      "batch_input"
check_symbol src/nn      "rounded"
check_symbol src/train   "row_gradient"
check_symbol src/tensor  "matvec"
check_symbol src/absint  "zonotope_supported"
check_symbol src/core    "OperationalDomain"
check_symbol src/core    "CoverageMap"
check_symbol src/core    "CoverageReport"
check_symbol src/core    "run_coverage"
check_symbol src/core    "choose_split_dimension"
check_symbol src/core    "coverage_cell_seed"
check_symbol src/core    "run_parallel_pass"
check_symbol src/core    "verify_with_monitor"
check_symbol src/data    "ScenarioBox"
check_symbol src/data    "scenario_domain"
check_symbol src/data    "sample_scenario_in"
check_symbol src/data    "render_road_image_bounds"
check_symbol src/data    "RenderBoundsOptions"
check_symbol src/common  "RunControl"
check_symbol src/common  "run_expired"
check_symbol src/common  "set_poll_budget"
check_symbol src/common  "should_fire"
check_symbol src/common  "arm_from_spec"
check_symbol src/lp      "kDeadline"
check_symbol src/lp      "nonfinite_recoveries"
check_symbol src/milp    "deadline_expired"
check_symbol src/verify  "hit_deadline"
check_symbol src/verify  "time_budget_seconds"
check_symbol src/core    "ParallelPassError"
check_symbol src/core    "ConfigHasher"
check_symbol src/core    "CampaignEntryRecord"
check_symbol src/core    "save_campaign_checkpoint"
check_symbol src/core    "load_coverage_checkpoint"
check_symbol src/core    "checkpoint_path"
check_symbol src/core    "resume_entries_restored"
check_symbol src/core    "resume_rounds_restored"
check_symbol src/common  "RecordWriter"
check_symbol src/common  "RecordReader"
check_symbol src/nn      "diff_networks"
check_symbol src/absint  "perturbation_radii"
check_symbol src/verify  "versioned_cache_key"
check_symbol src/verify  "tail_bound_trace_key"
check_symbol src/verify  "DeltaArtifacts"
check_symbol src/verify  "plan_delta_reuse"
check_symbol src/verify  "delta_query_fingerprint"
check_symbol src/verify  "advance_artifacts"
check_symbol src/verify  "save_delta_artifacts"
check_symbol src/verify  "NamedPseudocost"
check_symbol src/verify  "refresh_query_bounds"
check_symbol src/verify  "abstraction_changed"
check_symbol src/milp    "initial_cuts"
check_symbol src/milp    "cuts_recycled"
check_symbol src/core    "delta_artifacts_out_path"
check_symbol src/core    "delta_entries_widened"
check_symbol .github     "tools/check_reachable.sh"

if [ "$fail" -ne 0 ]; then
  echo "docs check FAILED"
  exit 1
fi
echo "docs check OK"
