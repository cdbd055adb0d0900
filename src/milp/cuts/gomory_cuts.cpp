#include "milp/cuts/gomory_cuts.hpp"

#include <cmath>
#include <cstdint>

namespace dpv::milp::cuts {

namespace {

/// Bounds at or beyond this magnitude are the solver's stand-in for
/// infinity (logical columns of one-sided rows); a cut may not rest on
/// them.
constexpr double kInfBound = 1e29;

/// Skip rows whose basic fractional part is within this distance of an
/// integer (weak and numerically fragile cuts).
constexpr double kMinFraction = 0.02;

}  // namespace

void GomoryCutGenerator::generate(const CutContext& ctx, std::vector<Cut>& out) const {
  const MilpProblem& problem = ctx.problem;
  const std::size_t n = problem.variable_count();
  const std::vector<lp::Row>& rows = problem.relaxation().rows();

  lp::TableauRow row;
  std::vector<double> coeff(n, 0.0);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    // Only a fractional binary basic yields a cut, and the basic variable
    // alone decides that: about nine rows in ten hold a logical, a
    // continuous or an integral value, so test before paying for the
    // row's BTRAN and pricing.
    std::int32_t basic_col = -1;
    double basic_value = 0.0;
    if (!ctx.simplex.basic_in_row(r, basic_col, basic_value)) continue;
    if (basic_col < 0 || static_cast<std::size_t>(basic_col) >= n) continue;
    const std::size_t basic = static_cast<std::size_t>(basic_col);
    if (problem.variable_type(basic) != VarType::kBinary) continue;
    const double f0 = basic_value - std::floor(basic_value);
    if (f0 < kMinFraction || f0 > 1.0 - kMinFraction) continue;
    if (!ctx.simplex.tableau_row(r, row)) continue;

    std::fill(coeff.begin(), coeff.end(), 0.0);
    double rhs = f0;
    bool usable = true;
    for (const lp::TableauRow::Entry& e : row.entries) {
      const double rest = e.at_upper ? e.up : e.lo;
      if (std::abs(rest) >= kInfBound) {
        usable = false;
        break;
      }
      const double a = e.at_upper ? -e.alpha : e.alpha;
      // Integer treatment is only sound when the shifted t_j is integer
      // in every feasible point: a binary column resting on integral
      // bounds. Continuous treatment is always sound, just weaker.
      const bool integral =
          e.col < n && problem.variable_type(e.col) == VarType::kBinary &&
          std::floor(e.lo) == e.lo && std::floor(e.up) == e.up;
      double gamma;
      if (integral) {
        const double f = a - std::floor(a);
        gamma = f <= f0 ? f : f0 * (1.0 - f) / (1.0 - f0);
      } else {
        gamma = a >= 0.0 ? a : f0 * (-a) / (1.0 - f0);
      }
      if (gamma == 0.0) continue;
      // gamma * t_j contributes gamma * sign * (x_j - rest) with
      // sign = +1 at lower (t = x - lo), -1 at upper (t = up - x).
      const double signed_gamma = e.at_upper ? -gamma : gamma;
      if (e.col < n) {
        coeff[e.col] += signed_gamma;
      } else {
        // Logical column: s_i equals row i's activity for every point
        // satisfying the loaded rows, so substitute it out.
        for (const lp::LinearTerm& t : rows[e.col - n].terms)
          coeff[t.var] += signed_gamma * t.coeff;
      }
      rhs += signed_gamma * rest;
    }
    if (!usable) continue;

    Cut cut;
    for (std::size_t j = 0; j < n; ++j)
      if (coeff[j] != 0.0) cut.row.terms.push_back({j, coeff[j]});
    if (cut.row.terms.empty()) continue;
    cut.row.sense = lp::RowSense::kGreaterEqual;
    cut.row.rhs = rhs;
    cut.violation = f0;  // by construction; sanitize_cut re-measures
    cut.source = name();
    out.push_back(std::move(cut));
  }
}

}  // namespace dpv::milp::cuts
