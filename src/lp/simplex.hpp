// Two-phase primal simplex over a dense tableau.
//
// Conversion to computational form: every variable x in [lo, up] is
// shifted to x' = x - lo >= 0 with an explicit row x' <= up - lo; rows
// gain slack / surplus / artificial columns as needed. Phase 1 minimizes
// the sum of artificials; phase 2 the user objective. Dantzig pricing
// with a Bland's-rule fallback guards against cycling.
//
// Tableau layout. The tableau is column-major: each column's entries
// (one per row) are contiguous, and the right-hand side is one more
// column. A pivot normalizes the pivot row, then updates only the
// columns where the normalized pivot row is nonzero, each as one
// whole-column pass x[r] = std::fma(-factor[r], p, x[r]) with factor the
// pivot column read before the pass (zero at the pivot row). The cost
// row is updated over the same columns. Columns the pivot row leaves at
// zero keep their entries, where a row-major update would at most have
// turned a -0.0 into +0.0; no pivot choice, status, iteration count or
// objective depends on the sign of a zero.
//
// solve_range(problem, var) answers min var and max var over one
// problem. Phase 1 never reads the objective, so it runs once; the min
// and the max phase 2 then start from copies of its tableau. Each result
// equals the matching solve() of {{var, 1}} bit for bit, iterations
// included (phase 1's are counted in both).
//
// The fma contract. Every multiply-add is written as std::fma: the row
// and cost-row updates, the cost-row set-up, the bound shift of each
// row's right-hand side, the phase-2 cost vector and the objective (one
// fma per objective term, in term order). These are the operations an
// optimizing build with FMA contraction fused before they were written
// out, so every build — Debug, sanitizers, -DDPV_ENABLE_SIMD=OFF —
// computes those bits. (That build vectorized objectives of more than
// four terms with unfused products; no production caller has one.)
//
// SimplexSolver is a production engine, not only a reference: it solves
// every bound-tightening LP pair of the encoder's kLpTightening pre-pass
// (src/verify/encoder.cpp) and every per-query bound-refresh LP pair
// (src/verify/verifier.cpp), both through solve_range, and it is the
// tests' reference for the revised simplex. Of SimplexOptions it reads
// only `max_iterations`, `bland_after` and `tolerance`; in particular it
// never polls `run_control`, so the tightening pre-pass runs to
// completion under a deadline and the refresh loop stops only between
// variables.
#pragma once

#include <cstddef>
#include <vector>

#include "common/run_control.hpp"
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

struct LpSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  /// Objective value in the user's direction (only valid when kOptimal).
  double objective = 0.0;
  /// Values of the original variables (only valid when kOptimal).
  std::vector<double> values;
  std::size_t iterations = 0;
};

/// The two LPs of one variable's range (SimplexSolver::solve_range).
struct LpRange {
  LpSolution min;  ///< minimize the variable
  LpSolution max;  ///< maximize the variable
};

struct SimplexOptions {
  std::size_t max_iterations = 200000;
  /// Switch to Bland's anti-cycling pricing after this many iterations.
  std::size_t bland_after = 20000;
  double tolerance = 1e-9;
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

  /// min and max of variable `var` over `problem`'s rows and boxes (its
  /// objective is ignored): solve() of {{var, 1}} in each direction, bit
  /// for bit, for one phase 1.
  LpRange solve_range(const LpProblem& problem, std::size_t var) const;

 private:
  SimplexOptions options_;
};

}  // namespace dpv::lp
