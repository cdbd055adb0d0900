// Anderson-style ReLU-split cuts.
//
// For one unstable ReLU y = max(0, w.v + b) with input boxes
// v_i in [L_i, U_i] and phase binary z, the encoder's big-M rows are the
// two extreme members (S = all inputs, S = no inputs) of the family
//
//   y <= sum_{i in S} w_i (v_i - l_i (1 - z)) + z (b + sum_{i not in S} w_i u_i)
//
// over all subsets S, where l_i / u_i are the bounds minimizing /
// maximizing w_i v_i. Every member is valid for both integral phases
// (z = 0 forces the RHS >= 0 = y; z = 1 makes it >= w.v + b = y), and
// intermediate subsets cut fractional-z vertices the big-M rows and the
// triangle relaxation leave feasible. Separation is exact and linear:
// given the LP point, the RHS-minimizing subset is computed termwise
// (Anderson et al., "Strong mixed-integer programming formulations for
// trained neural networks").
//
// The derivation only uses the problem-level variable boxes — which
// branch & bound never changes (fixings live in the simplex) — so cuts
// from this family are globally valid for the whole tree.
#pragma once

#include "milp/cuts/cut_generator.hpp"

namespace dpv::milp::cuts {

class ReluSplitCutGenerator final : public CutGenerator {
 public:
  void generate(const CutContext& ctx, std::vector<Cut>& out) const override;
};

}  // namespace dpv::milp::cuts
