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
// (src/verify/verifier.cpp), and it is the tests' reference for the
// revised simplex. Of SimplexOptions it reads only `max_iterations`,
// `bland_after` and `tolerance`; in particular it never polls
// `run_control`, so the tightening pre-pass runs to completion under a
// deadline and the refresh loop stops only between variables.
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

 private:
  SimplexOptions options_;
};

}  // namespace dpv::lp
