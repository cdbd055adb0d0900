// Two-phase primal simplex over a dense tableau.
//
// Conversion to computational form: every variable x in [lo, up] is
// shifted to x' = x - lo >= 0 with an explicit row x' <= up - lo; rows
// gain slack / surplus / artificial columns as needed. Phase 1 minimizes
// the sum of artificials; phase 2 the user objective. Dantzig pricing
// with a Bland's-rule fallback guards against cycling.
//
// SimplexSolver is a production engine, not only a reference: it solves
// every bound-tightening LP of the encoder's kLpTightening pre-pass
// (src/verify/encoder.cpp) and every per-query bound-refresh LP
// (src/verify/verifier.cpp), and backs the kDenseTableau solver
// backend. Of SimplexOptions it reads only `max_iterations`,
// `bland_after` and `tolerance`; in particular it never polls
// `run_control`, so the tightening pre-pass runs to completion under a
// deadline and the refresh loop stops only between variables.
#pragma once

#include <cstddef>
#include <vector>

#include "common/run_control.hpp"
#include "lp/basis_lu.hpp"
#include "lp/lp_problem.hpp"

namespace dpv::lp {

/// kDeadline is a cooperative-cancellation stop (SimplexOptions::
/// run_control expired mid-solve): like kIterationLimit it carries no
/// verdict, but it is a distinct status so warm-restart retry logic can
/// tell "this basis led nowhere" (retry cold) from "time is up" (do not).
enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
  kDeadline,
};

/// Human-readable status name.
const char* solve_status_name(SolveStatus status);

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective value in the user's direction (only valid when kOptimal).
  double objective = 0.0;
  /// Values of the original variables (only valid when kOptimal).
  std::vector<double> values;
  std::size_t iterations = 0;
};

/// How the revised simplex represents the basis inverse. The dense
/// explicit inverse is the original implementation, kept as a
/// differential-testing oracle; the sparse LU engine (lp::BasisLu)
/// factors the basis and absorbs pivots as eta updates, dropping
/// per-pivot cost from O(m²) to O(nnz). Ignored by the dense-tableau
/// SimplexSolver, which has no basis inverse at all.
enum class FactorizationKind { kDenseInverse, kSparseLu };

/// Human-readable factorization name ("dense-inverse" / "sparse-lu").
const char* factorization_kind_name(FactorizationKind kind);

/// Dual pricing rule of the revised simplex: how the leaving row is
/// chosen among the primal-infeasible basic variables.
///   * kDantzig — largest bound violation. One pass, no state, but blind
///     to row scaling: it happily pivots on rows whose B^{-1} norm is
///     huge, which inflates pivot counts on long warm-restart chains.
///   * kDevex (default) — reference-framework Devex: violations are
///     weighted by an evolving estimate of ||e_r^T B^{-1}||², the
///     steepest-edge measure, maintained in O(nnz) per pivot from the
///     FTRAN column the iteration already computed. Fewer, better pivots
///     on the thousands of warm re-solves branch & bound issues. The
///     framework restarts (weights reset to 1) when the estimates grow
///     past trust — counted as pricing_resets in SolverStats.
/// Bland's anti-cycling rule overrides either choice after bland_after
/// iterations. Ignored by the dense-tableau SimplexSolver.
enum class PricingRule { kDantzig, kDevex };

/// Human-readable pricing-rule name ("dantzig" / "devex").
const char* pricing_rule_name(PricingRule rule);

struct SimplexOptions {
  std::size_t max_iterations = 200000;
  /// Switch to Bland's anti-cycling pricing after this many iterations.
  std::size_t bland_after = 20000;
  double tolerance = 1e-9;
  /// Basis factorization engine of the revised simplex.
  FactorizationKind factorization = FactorizationKind::kSparseLu;
  /// Dual pricing rule of the revised simplex (see PricingRule).
  PricingRule pricing = PricingRule::kDevex;
  /// How the factorization absorbs pivots between refactorizations
  /// (Forrest–Tomlin by default; product-form etas as the differential
  /// baseline). Only meaningful with kSparseLu.
  BasisUpdateKind basis_update = BasisUpdateKind::kForrestTomlin;
  /// Warm-restart fast path: when resolve() is handed a basis identical
  /// to the one already in memory with valid factors (the depth-first
  /// dive case — a child popped right after its parent was solved), skip
  /// the refactorization and keep the factors, Devex weights and update
  /// file alive. Off reproduces the historical always-refactorize
  /// install, which the bench uses as its baseline rung.
  bool reuse_matching_basis = true;
  /// Maintain reduced costs incrementally across dual pivots
  /// (d ← d − θ_d·α over the pivot row, rebuilt only on
  /// refactorization) instead of re-deriving the duals with a BTRAN
  /// every iteration and pricing each ratio-test column with a sparse
  /// dot. Off reproduces the historical per-iteration recomputation,
  /// which the bench uses to isolate this optimization's delta.
  bool incremental_reduced_costs = true;
  /// Cooperative cancellation: the revised simplex polls this every 64
  /// iterations and returns kDeadline when it has expired (partial state
  /// is discarded; no solution fields beyond iterations are valid).
  /// Ignored by the dense-tableau SimplexSolver (see the file comment):
  /// the kLpTightening pre-pass and the per-query bound refresh it runs
  /// do not stop mid-solve. Not owned.
  const RunControl* run_control = nullptr;
};

/// Stateless solver; each call converts, runs both phases and extracts.
class SimplexSolver {
 public:
  explicit SimplexSolver(SimplexOptions options = {}) : options_(options) {}

  LpSolution solve(const LpProblem& problem) const;

 private:
  SimplexOptions options_;
};

}  // namespace dpv::lp
