// Verdict oracles for the MILP search that share no search code: no
// branch and bound, no revised simplex, no encoder. Each one reduces the
// question to a finite list of LPs and solves every one of them with the
// dense-tableau lp::SimplexSolver.
//
//   * brute_force_milp: one LP per assignment of the binaries, the
//     continuous variables free in their boxes.
//   * Phase enumeration for tails of Dense and ReLU layers: one LP per
//     ReLU phase pattern, built straight from the weights. Under a fixed
//     pattern the tail is affine in its input, so each LP has one
//     variable per input dimension (in the input box) and one row per
//     ReLU fixing the sign of its pre-activation.
#pragma once

#include <algorithm>
#include <cstddef>
#include <limits>
#include <utility>
#include <vector>

#include "absint/interval.hpp"
#include "common/check.hpp"
#include "lp/simplex.hpp"
#include "milp/milp_problem.hpp"
#include "nn/dense.hpp"
#include "nn/layer.hpp"
#include "nn/network.hpp"
#include "verify/risk_spec.hpp"

namespace dpv::oracle {

/// Solves `lp` with the dense tableau; an oracle that cannot decide an LP
/// fails the test instead of guessing.
inline lp::LpSolution solve_exactly(const lp::LpProblem& lp) {
  lp::LpSolution solution = lp::SimplexSolver().solve(lp);
  internal_check(solution.status == lp::SolveStatus::kOptimal ||
                     solution.status == lp::SolveStatus::kInfeasible,
                 "oracle: the dense tableau left an LP undecided");
  return solution;
}

/// Outcome of enumerating every binary assignment of a MILP.
struct BruteForceResult {
  bool feasible = false;   ///< some assignment has an LP completion
  double objective = 0.0;  ///< best completion, in the problem's direction
  /// The optimal LP completion of each feasible assignment: genuine
  /// mixed-integer feasible points.
  std::vector<std::vector<double>> points;
};

inline BruteForceResult brute_force_milp(const milp::MilpProblem& problem) {
  const std::vector<std::size_t>& bins = problem.binary_variables();
  internal_check(bins.size() <= 16, "brute_force_milp: too many binaries");
  const bool maximize =
      problem.relaxation().objective_direction() == lp::Objective::kMaximize;
  lp::LpProblem fixed = problem.relaxation();
  BruteForceResult result;
  for (std::size_t mask = 0; mask < (std::size_t{1} << bins.size()); ++mask) {
    for (std::size_t c = 0; c < bins.size(); ++c) {
      const double v = (mask >> c) & 1u ? 1.0 : 0.0;
      fixed.set_bounds(bins[c], v, v);
    }
    lp::LpSolution solution = solve_exactly(fixed);
    if (solution.status != lp::SolveStatus::kOptimal) continue;
    if (!result.feasible ||
        (maximize ? solution.objective > result.objective
                  : solution.objective < result.objective))
      result.objective = solution.objective;
    result.feasible = true;
    result.points.push_back(std::move(solution.values));
  }
  return result;
}

/// constant + sum_i coeff[i] * x[i] over the tail's input x.
struct Affine {
  std::vector<double> coeff;
  double constant = 0.0;
};

/// Calls `visit(lp, outputs)` once per ReLU phase pattern of `net`, a
/// tail of Dense and ReLU layers, over the input `box`. `lp` holds the
/// input variables and the pattern's sign rows; `outputs` are the tail's
/// outputs, affine in the input under the pattern.
template <typename Visit>
void for_each_phase_pattern(const nn::Network& net, const absint::Box& box, Visit visit) {
  std::size_t relus = 0;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    const nn::LayerKind kind = net.layer(l).kind();
    internal_check(kind == nn::LayerKind::kDense || kind == nn::LayerKind::kReLU,
                   "phase enumeration: only Dense and ReLU layers");
    if (kind == nn::LayerKind::kReLU) relus += net.layer(l).output_shape().numel();
  }
  internal_check(relus <= 16, "phase enumeration: too many ReLUs");

  const std::size_t n = box.size();
  for (std::size_t pattern = 0; pattern < (std::size_t{1} << relus); ++pattern) {
    lp::LpProblem lp;
    std::vector<Affine> values(n);
    for (std::size_t i = 0; i < n; ++i) {
      lp.add_variable(box[i].lo, box[i].hi);
      values[i].coeff.assign(n, 0.0);
      values[i].coeff[i] = 1.0;
    }
    std::size_t relu = 0;
    for (std::size_t l = 0; l < net.layer_count(); ++l) {
      if (net.layer(l).kind() == nn::LayerKind::kDense) {
        const auto& dense = static_cast<const nn::Dense&>(net.layer(l));
        std::vector<Affine> next(dense.output_shape().numel());
        for (std::size_t r = 0; r < next.size(); ++r) {
          next[r].coeff.assign(n, 0.0);
          next[r].constant = dense.bias()[r];
          for (std::size_t c = 0; c < values.size(); ++c) {
            const double w = dense.weight().at2(r, c);
            next[r].constant += w * values[c].constant;
            for (std::size_t i = 0; i < n; ++i) next[r].coeff[i] += w * values[c].coeff[i];
          }
        }
        values = std::move(next);
        continue;
      }
      for (Affine& v : values) {
        const bool active = (pattern >> relu++) & 1u;
        std::vector<lp::LinearTerm> terms;
        for (std::size_t i = 0; i < n; ++i) terms.push_back({i, v.coeff[i]});
        lp.add_row(std::move(terms),
                   active ? lp::RowSense::kGreaterEqual : lp::RowSense::kLessEqual,
                   -v.constant);
        if (!active) v = Affine{std::vector<double>(n, 0.0), 0.0};
      }
    }
    visit(lp, values);
  }
}

/// The exact verdict of a Dense/ReLU tail query: true (UNSAFE) iff some
/// phase pattern's LP, with the risk inequalities over its affine outputs
/// added, is feasible.
inline bool risk_reachable_by_phases(const nn::Network& net, const absint::Box& box,
                                     const verify::RiskSpec& risk) {
  bool reachable = false;
  for_each_phase_pattern(net, box, [&](lp::LpProblem& lp, const std::vector<Affine>& out) {
    if (reachable) return;
    for (const verify::OutputInequality& ineq : risk.inequalities()) {
      std::vector<double> coeff(box.size(), 0.0);
      double rhs = ineq.rhs;
      for (std::size_t k = 0; k < ineq.coeffs.size(); ++k) {
        rhs -= ineq.coeffs[k] * out[k].constant;
        for (std::size_t i = 0; i < coeff.size(); ++i)
          coeff[i] += ineq.coeffs[k] * out[k].coeff[i];
      }
      std::vector<lp::LinearTerm> terms;
      for (std::size_t i = 0; i < coeff.size(); ++i) terms.push_back({i, coeff[i]});
      lp.add_row(std::move(terms), ineq.sense, rhs);
    }
    reachable = solve_exactly(lp).status == lp::SolveStatus::kOptimal;
  });
  return reachable;
}

/// The maximum of output `index` of a Dense/ReLU tail over `box`: the
/// best optimum over all phase patterns.
inline double max_output_by_phases(const nn::Network& net, const absint::Box& box,
                                   std::size_t index) {
  double best = -std::numeric_limits<double>::infinity();
  for_each_phase_pattern(net, box, [&](lp::LpProblem& lp, const std::vector<Affine>& out) {
    std::vector<lp::LinearTerm> objective;
    for (std::size_t i = 0; i < box.size(); ++i) objective.push_back({i, out[index].coeff[i]});
    lp.set_objective(std::move(objective), lp::Objective::kMaximize);
    const lp::LpSolution solution = solve_exactly(lp);
    if (solution.status == lp::SolveStatus::kOptimal)
      best = std::max(best, solution.objective + out[index].constant);
  });
  return best;
}

}  // namespace dpv::oracle
