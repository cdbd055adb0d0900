// Textbook Gomory mixed-integer (GMI) cuts off the simplex tableau.
//
// For a tableau row whose basic variable is a binary at fractional
// value b0 (f0 = frac(b0)), shift every nonbasic column to its resting
// bound: t_j = x_j - lo_j (at lower) or up_j - x_j (at upper), so the
// row reads  x_basic + sum_j a_j t_j = b0  with t_j >= 0. The GMI cut
//
//   sum_j gamma_j t_j >= f0,
//   gamma_j = f_j                       integer t_j, f_j = frac(a_j) <= f0
//           = f0 (1 - f_j) / (1 - f0)   integer t_j, f_j > f0
//           = a_j                       continuous t_j, a_j >= 0
//           = f0 (-a_j) / (1 - f0)      continuous t_j, a_j < 0
//
// is valid for every mixed-integer point and violated by exactly f0 at
// the current vertex (all t_j = 0 there). Substituting the t_j back and
// eliminating logical columns through their defining rows (s_i equals
// row i's activity) yields a cut over structural variables only, so it
// can be appended through MilpProblem::add_rows.
//
// Root-node only: the derivation uses the bounds the nonbasic columns
// rest at, which branch & bound tightens below the root — a node-local
// GMI cut would not be valid for the rest of the tree. Rows come from
// lp::RevisedSimplex::tableau_row.
#pragma once

#include "milp/cuts/cut_generator.hpp"

namespace dpv::milp::cuts {

class GomoryCutGenerator final : public CutGenerator {
 public:
  void generate(const CutContext& ctx, std::vector<Cut>& out) const override;
};

}  // namespace dpv::milp::cuts
