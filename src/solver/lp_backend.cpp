#include "solver/lp_backend.hpp"

#include <algorithm>

#include "common/check.hpp"

namespace dpv::solver {

const char* lp_backend_kind_name(LpBackendKind kind) {
  switch (kind) {
    case LpBackendKind::kDenseTableau:
      return "dense-tableau";
    case LpBackendKind::kRevisedBounded:
      return "revised-bounded";
  }
  return "unknown";
}

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

void LpBackend::solve_children(const WarmBasis& parent,
                               const ChildBounds* children, std::size_t count,
                               ChildResult* out) {
  ++stats_.sibling_batches;
  for (std::size_t i = 0; i < count; ++i) {
    set_bounds(children[i].var, children[i].lo, children[i].up);
    out[i].solution = resolve(parent);
    out[i].basis = out[i].solution.status == lp::SolveStatus::kOptimal
                       ? capture_basis()
                       : WarmBasis{};
  }
}

namespace {

/// Reference backend: the stateless dense-tableau solver. Bounds edits
/// land on a private problem copy; every resolve is a cold solve.
class DenseTableauBackend final : public LpBackend {
 public:
  explicit DenseTableauBackend(const lp::SimplexOptions& options) : solver_(options) {}

  LpBackendKind kind() const override { return LpBackendKind::kDenseTableau; }
  bool supports_warm_start() const override { return false; }

  void load(const lp::LpProblem& problem) override {
    problem_ = problem;
    loaded_ = true;
  }

  void set_bounds(std::size_t var, double lo, double up) override {
    check(loaded_, "DenseTableauBackend::set_bounds before load");
    problem_.set_bounds(var, lo, up);
  }

  lp::LpSolution solve() override {
    check(loaded_, "DenseTableauBackend::solve before load");
    const lp::LpSolution solution = solver_.solve(problem_);
    ++stats_.lp_solves;
    stats_.lp_iterations += solution.iterations;
    last_solve_iterations_ = solution.iterations;
    return solution;
  }

  lp::LpSolution resolve(const WarmBasis& basis) override {
    if (!basis.empty()) ++stats_.warm_attempts;  // attempted, never hits
    return solve();
  }

  WarmBasis capture_basis() const override { return {}; }

 private:
  lp::SimplexSolver solver_;
  lp::LpProblem problem_;
  bool loaded_ = false;
};

/// Warm-startable backend over the bounded-variable revised simplex.
class RevisedBoundedBackend final : public LpBackend {
 public:
  explicit RevisedBoundedBackend(const lp::SimplexOptions& options) : simplex_(options) {}

  LpBackendKind kind() const override { return LpBackendKind::kRevisedBounded; }
  bool supports_warm_start() const override { return true; }

  void load(const lp::LpProblem& problem) override { simplex_.load(problem); }

  void set_bounds(std::size_t var, double lo, double up) override {
    simplex_.set_bounds(var, lo, up);
  }

  lp::LpSolution solve() override {
    const lp::LpSolution solution = simplex_.solve();
    ++stats_.lp_solves;
    stats_.lp_iterations += solution.iterations;
    // Single source of truth for the per-call delta: the simplex's own
    // counter, so the two layers cannot diverge.
    last_solve_iterations_ = simplex_.last_solve_iterations();
    absorb_factor_stats();
    return solution;
  }

  lp::LpSolution resolve(const WarmBasis& basis) override {
    if (basis.empty()) return solve();
    const lp::LpSolution solution = simplex_.resolve(basis);
    ++stats_.lp_solves;
    ++stats_.warm_attempts;
    stats_.lp_iterations += solution.iterations;
    last_solve_iterations_ = simplex_.last_solve_iterations();
    if (simplex_.last_resolve_was_warm()) {
      ++stats_.warm_hits;
      stats_.warm_iterations += solution.iterations;
    }
    absorb_factor_stats();
    return solution;
  }

  WarmBasis capture_basis() const override { return simplex_.capture_basis(); }

  bool supports_tableau() const override { return true; }

  bool row_of_basis(std::size_t row, TableauRow& out) const override {
    return simplex_.tableau_row(row, out);
  }

 private:
  /// Folds the simplex's cumulative factorization counters into stats_
  /// as deltas since the last solve through this backend.
  void absorb_factor_stats() {
    const lp::BasisFactorStats& now = simplex_.factor_stats();
    stats_.basis_factorizations += now.factorizations - seen_.factorizations;
    stats_.basis_updates += now.updates - seen_.updates;
    stats_.eta_nonzeros += now.eta_nonzeros - seen_.eta_nonzeros;
    stats_.singular_recoveries += now.singular_recoveries - seen_.singular_recoveries;
    stats_.nonfinite_recoveries += now.nonfinite_recoveries - seen_.nonfinite_recoveries;
    stats_.factor_seconds += now.factor_seconds - seen_.factor_seconds;
    stats_.pivot_seconds += now.pivot_seconds - seen_.pivot_seconds;
    seen_ = now;
    const std::size_t resets = simplex_.pricing_resets();
    stats_.pricing_resets += resets - seen_pricing_resets_;
    seen_pricing_resets_ = resets;
  }

  lp::RevisedSimplex simplex_;
  lp::BasisFactorStats seen_;
  std::size_t seen_pricing_resets_ = 0;
};

}  // namespace

std::unique_ptr<LpBackend> make_lp_backend(LpBackendKind kind,
                                           const lp::SimplexOptions& options) {
  switch (kind) {
    case LpBackendKind::kDenseTableau:
      return std::make_unique<DenseTableauBackend>(options);
    case LpBackendKind::kRevisedBounded:
      return std::make_unique<RevisedBoundedBackend>(options);
  }
  internal_check(false, "make_lp_backend: unknown backend kind");
  return nullptr;
}

}  // namespace dpv::solver
