// Solver statistics: the counters one MILP solve reports.
//
// Branch & bound (src/milp/) holds one lp::RevisedSimplex per worker
// and one for the root cut loop. Each simplex counts its own solves,
// warm starts, iterations and factorization work; simplex_stats copies
// those counters into a SolverStats once per simplex, and the MILP
// layer merges them and adds the cut and search counters. See
// src/solver/README.md for the warm-start contract. The header keeps
// its older name because perfbench/src/workload.hpp includes it.
#pragma once

#include <cstddef>

#include "lp/revised_simplex.hpp"

namespace dpv::solver {

/// LP and search counters of one MILP solve: simplex_stats fills the LP
/// fields from one revised simplex, and the MILP layer merges one per
/// worker plus the root cut loop's and adds its own fields.
struct SolverStats {
  std::size_t lp_solves = 0;       ///< total solve/resolve calls
  std::size_t warm_attempts = 0;   ///< resolves offered a non-empty basis
  std::size_t warm_hits = 0;       ///< resolves that actually ran warm
  std::size_t lp_iterations = 0;   ///< simplex iterations, all solves
  std::size_t warm_iterations = 0; ///< iterations spent inside warm runs
  /// Cutting-plane accounting, filled by the MILP search (see
  /// src/milp/cuts/): rows appended and separation rounds actually run
  /// at the root.
  std::size_t cuts_added = 0;
  std::size_t cut_rounds = 0;
  /// Basis-factorization accounting from the revised simplex (see
  /// lp::BasisFactorStats): full (re)factorizations, pivots absorbed as Forrest–Tomlin
  /// updates, nonzeros appended to the update file, and singular-basis
  /// fallbacks to the all-logical crash basis.
  std::size_t basis_factorizations = 0;
  std::size_t basis_updates = 0;
  std::size_t eta_nonzeros = 0;
  std::size_t singular_recoveries = 0;
  /// Non-finite FTRAN/BTRAN/pivot values caught by the revised simplex
  /// before they could poison a verdict; each forced a refactorization
  /// (see lp::BasisFactorStats::nonfinite_recoveries).
  std::size_t nonfinite_recoveries = 0;
  /// Devex reference-framework restarts of the revised simplex
  /// (weights reset to 1 after growing past trust — a pricing-quality
  /// signal: frequent resets mean the steepest-edge estimates keep
  /// degenerating into most-violated-row pricing).
  std::size_t pricing_resets = 0;
  /// Batched sibling re-solves, filled by the MILP search (each batch
  /// solves both children of one branch from the shared parent basis).
  std::size_t sibling_batches = 0;
  /// Where LP wall time goes: inside factorize/refactorize vs the rest
  /// of the pivot loop (pricing, ratio tests, FTRAN/BTRAN, updates).
  double factor_seconds = 0.0;
  double pivot_seconds = 0.0;
  /// Work-stealing search accounting, filled by the MILP layer (see
  /// src/milp/search/frontier.hpp): nodes moved between per-worker
  /// deques, victim probes issued, and the frontier's high-water mark
  /// of simultaneously open nodes (merge keeps the max — a width, not
  /// a volume).
  std::size_t nodes_stolen = 0;
  std::size_t steal_attempts = 0;
  std::size_t peak_open_nodes = 0;
  /// Optimality gap still open when a search stopped on its node
  /// budget: |incumbent − best surviving bound|, or |bound target −
  /// best bound| for verifier margin objectives (see
  /// milp::BranchAndBoundOptions::bound_target). Zero when the search
  /// finished with a proof; merge keeps the max (worst entry).
  double best_bound_gap = 0.0;

  void merge(const SolverStats& other);
  /// Fraction of warm attempts that did not fall back to a cold solve.
  double warm_hit_rate() const;
  /// Mean nonzeros per eta update (0 when no updates were recorded).
  double avg_eta_nonzeros() const;
};

/// The LP counters of `simplex`'s whole life: solves, warm starts,
/// iterations, factorization work, timing and pricing resets. The cut
/// and search fields stay zero.
SolverStats simplex_stats(const lp::RevisedSimplex& simplex);

}  // namespace dpv::solver
