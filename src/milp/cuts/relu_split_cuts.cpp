#include "milp/cuts/relu_split_cuts.hpp"

#include <cmath>

namespace dpv::milp::cuts {

void ReluSplitCutGenerator::generate(const CutContext& ctx, std::vector<Cut>& out) const {
  const lp::LpProblem& relax = ctx.problem.relaxation();
  const std::vector<double>& x = ctx.relaxation.values;
  constexpr double kPhaseTol = 1e-6;

  for (const ReluSplitInfo& rs : ctx.problem.relu_splits()) {
    if (rs.phase_var >= x.size() || rs.out_var >= x.size()) continue;
    const double z = x[rs.phase_var];
    // Only fractional phases can violate a member of the family: at
    // z = 0 the y <= hi*z row pins y, at z = 1 the big-M row does.
    if (z <= kPhaseTol || z >= 1.0 - kPhaseTol) continue;

    // RHS-minimizing subset S: include input i iff its S-side value
    // w_i (v_i - l_i (1 - z)) is below its complement-side value
    // z w_i u_i at the current point.
    double a = 0.0;            // sum_S w_i l_i
    double b = rs.pre_bias;    // b + sum_{not S} w_i u_i
    double lhs_s = 0.0;        // sum_S w_i v_i*
    std::vector<lp::LinearTerm> s_terms;
    bool all_in = true;
    for (const lp::LinearTerm& t : rs.pre_terms) {
      if (t.var >= x.size() || t.coeff == 0.0) continue;
      const double lo = relax.lower_bound(t.var);
      const double up = relax.upper_bound(t.var);
      const double wl = t.coeff * (t.coeff >= 0.0 ? lo : up);  // min of w_i v_i
      const double wu = t.coeff * (t.coeff >= 0.0 ? up : lo);  // max of w_i v_i
      const double wx = t.coeff * x[t.var];
      if (wx - wl * (1.0 - z) < wu * z) {
        s_terms.push_back(t);
        a += wl;
        lhs_s += wx;
      } else {
        b += wu;
        all_in = false;
      }
    }
    // S = all and S = empty are the big-M rows already in the problem.
    if (s_terms.empty() || all_in) continue;

    const double rhs_min = lhs_s - (1.0 - z) * a + z * b;
    const double violation = x[rs.out_var] - rhs_min;
    if (violation <= kMinCutViolation) continue;

    // y - sum_S w_i v_i - (a + b) z <= -a
    Cut cut;
    cut.row.terms.push_back({rs.out_var, 1.0});
    for (const lp::LinearTerm& t : s_terms) cut.row.terms.push_back({t.var, -t.coeff});
    cut.row.terms.push_back({rs.phase_var, -(a + b)});
    cut.row.sense = lp::RowSense::kLessEqual;
    cut.row.rhs = -a;
    cut.violation = violation;
    cut.source = name();
    out.push_back(std::move(cut));
  }
}

}  // namespace dpv::milp::cuts
