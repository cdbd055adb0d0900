// Cutting-plane generator interface for the MILP search.
//
// A cut is a linear inequality valid for every mixed-integer feasible
// point of the problem but violated by the current (fractional) LP
// relaxation optimum. Appending cuts tightens the relaxation, so branch
// & bound prunes with better bounds and explores smaller trees — the
// classic complement to warm starts (PR 1) and shared encodings (PR 2),
// which made individual node solves and problem builds cheap but left
// the tree size untouched.
//
// Two generators ship (see src/milp/README.md for the worked example of
// adding a third):
//   * ReluSplitCutGenerator — Anderson-style splits of the encoder's
//     big-M ReLU blocks, separated from the MilpProblem's ReluSplitInfo
//     metadata and the frozen variable boxes.
//   * GomoryCutGenerator — textbook Gomory mixed-integer cuts read off
//     the revised simplex tableau via lp::RevisedSimplex::tableau_row.
// Both separate at the root only; the rows then persist for the whole
// search.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "milp/milp_problem.hpp"

namespace dpv::milp::cuts {

/// One candidate cut. `violation` is measured at the separated point
/// after sanitize_cut normalized the row (see cut_engine.hpp).
struct Cut {
  lp::Row row;
  double violation = 0.0;
};

/// Minimum violation (after normalizing the row to unit inf-norm) for a
/// cut to be kept; the ReLU-split separator skips candidates below it.
inline constexpr double kMinCutViolation = 1e-4;

/// Knobs of the cutting-plane engine; lives in BranchAndBoundOptions as
/// `cuts`. All defaults keep the engine off (`root_rounds = 0`). Both
/// generators always run when it is on.
struct CutOptions {
  /// Separation rounds at the root node (0 disables the engine).
  std::size_t root_rounds = 0;
  /// Age out a root cut after this many consecutive rounds of not being
  /// binding at the separation optimum (0 keeps every cut forever).
  /// Aged-out rows are removed from the problem before the search, so
  /// dead cuts stop taxing every node re-solve.
  std::size_t root_age_limit = 3;
  /// Round-0 warm start of the separation loop: a basis over the
  /// problem's structural columns and its own rows (no cut rows). Delta
  /// re-certification stores the previous run's MilpResult::root_basis
  /// here. A warm start only: the loop solves cold when the basis does
  /// not fit the problem's shape or is singular. Not owned.
  const lp::SimplexBasis* root_basis = nullptr;
};

/// Everything a generator may look at. `relaxation` is the LP optimum
/// being separated (values indexed by structural variable); `simplex`
/// is the solver that produced it, whose tableau rows it can read.
struct CutContext {
  const MilpProblem& problem;
  const lp::LpSolution& relaxation;
  const lp::RevisedSimplex& simplex;
};

/// Stateless separator: inspects the context and appends violated,
/// valid cuts. Generators must only emit inequalities that hold for
/// EVERY mixed-integer feasible point of `ctx.problem` (soundness of
/// the verifier depends on it — a cut that removes a feasible integer
/// point can turn a real counterexample into a false SAFE verdict).
class CutGenerator {
 public:
  virtual ~CutGenerator() = default;
  virtual void generate(const CutContext& ctx, std::vector<Cut>& out) const = 0;
};

}  // namespace dpv::milp::cuts
