#include "solver/lp_backend.hpp"

#include <algorithm>

namespace dpv::solver {

void SolverStats::merge(const SolverStats& other) {
  lp_solves += other.lp_solves;
  warm_attempts += other.warm_attempts;
  warm_hits += other.warm_hits;
  lp_iterations += other.lp_iterations;
  warm_iterations += other.warm_iterations;
  cuts_added += other.cuts_added;
  cut_rounds += other.cut_rounds;
  basis_factorizations += other.basis_factorizations;
  basis_updates += other.basis_updates;
  eta_nonzeros += other.eta_nonzeros;
  singular_recoveries += other.singular_recoveries;
  nonfinite_recoveries += other.nonfinite_recoveries;
  pricing_resets += other.pricing_resets;
  sibling_batches += other.sibling_batches;
  factor_seconds += other.factor_seconds;
  pivot_seconds += other.pivot_seconds;
  nodes_stolen += other.nodes_stolen;
  steal_attempts += other.steal_attempts;
  // Width / gap high-water marks, not volumes: keep the worst.
  peak_open_nodes = std::max(peak_open_nodes, other.peak_open_nodes);
  best_bound_gap = std::max(best_bound_gap, other.best_bound_gap);
}

double SolverStats::warm_hit_rate() const {
  return warm_attempts == 0 ? 0.0
                            : static_cast<double>(warm_hits) /
                                  static_cast<double>(warm_attempts);
}

double SolverStats::avg_eta_nonzeros() const {
  return basis_updates == 0 ? 0.0
                            : static_cast<double>(eta_nonzeros) /
                                  static_cast<double>(basis_updates);
}

SolverStats simplex_stats(const lp::RevisedSimplex& simplex) {
  const lp::SolveStats& solves = simplex.solve_stats();
  const lp::BasisFactorStats& factor = simplex.factor_stats();
  SolverStats stats;
  stats.lp_solves = solves.solves;
  stats.warm_attempts = solves.warm_attempts;
  stats.warm_hits = solves.warm_hits;
  stats.lp_iterations = solves.iterations;
  stats.warm_iterations = solves.warm_iterations;
  stats.basis_factorizations = factor.factorizations;
  stats.basis_updates = factor.updates;
  stats.eta_nonzeros = factor.eta_nonzeros;
  stats.singular_recoveries = factor.singular_recoveries;
  stats.nonfinite_recoveries = factor.nonfinite_recoveries;
  stats.factor_seconds = factor.factor_seconds;
  stats.pivot_seconds = factor.pivot_seconds;
  stats.pricing_resets = simplex.pricing_resets();
  return stats;
}

}  // namespace dpv::solver
