// Simplex solver unit tests: known optima, infeasibility, degeneracy,
// equality handling, bound handling, randomized feasibility probes, and
// the dense tableau's solve_range against two solve() calls bit for bit,
// with the tightening of a recertify-shaped tail pinned to one hash.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/encoder.hpp"

namespace dpv::lp {
namespace {

constexpr double kTol = 1e-6;

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

void expect_same_solution(const LpSolution& got, const LpSolution& want, const std::string& label) {
  EXPECT_EQ(got.status, want.status) << label;
  EXPECT_EQ(got.iterations, want.iterations) << label;
  EXPECT_TRUE(same_bits(got.objective, want.objective)) << label;
  ASSERT_EQ(got.values.size(), want.values.size()) << label;
  for (std::size_t v = 0; v < got.values.size(); ++v)
    EXPECT_TRUE(same_bits(got.values[v], want.values[v])) << label << " value " << v;
}

/// solve_range(p, var) must be solve() of {{var, 1}} in each direction,
/// bit for bit.
void expect_range_matches_solves(const LpProblem& p, std::size_t var, const LpRange& range,
                                 const std::string& label) {
  LpProblem q = p;
  q.set_objective({{var, 1.0}}, Objective::kMinimize);
  expect_same_solution(range.min, SimplexSolver().solve(q), label + " min");
  q.set_objective({{var, 1.0}}, Objective::kMaximize);
  expect_same_solution(range.max, SimplexSolver().solve(q), label + " max");
}

TEST(Simplex, SolvesTextbookMaximization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18; optimum (2, 6) -> 36.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, Objective::kMaximize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 6.0, kTol);
}

TEST(Simplex, SolvesMinimizationWithGreaterEqualRows) {
  // min 2x + 3y s.t. x + y >= 10, x >= 2, y >= 3. Optimum (7, 3) -> 23.
  LpProblem p;
  const std::size_t x = p.add_variable(2.0, 100.0, "x");
  const std::size_t y = p.add_variable(3.0, 100.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, 10.0);
  p.set_objective({{x, 2.0}, {y, 3.0}}, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 23.0, kTol);
  EXPECT_NEAR(s.values[x], 7.0, kTol);
  EXPECT_NEAR(s.values[y], 3.0, kTol);
}

TEST(Simplex, HandlesEqualityConstraints) {
  // min x + y s.t. x + 2y = 8, x - y = 2. Unique point (4, 2) -> 6.
  LpProblem p;
  const std::size_t x = p.add_variable(-50.0, 50.0, "x");
  const std::size_t y = p.add_variable(-50.0, 50.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 2.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 4.0, kTol);
  EXPECT_NEAR(s.values[y], 2.0, kTol);
  EXPECT_NEAR(s.objective, 6.0, kTol);
}

TEST(Simplex, DetectsInfeasibility) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  p.add_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  const LpSolution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibilityViaEqualities) {
  LpProblem p;
  const std::size_t x = p.add_variable(-5.0, 5.0, "x");
  const std::size_t y = p.add_variable(-5.0, 5.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 3.0);
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  const LpSolution s = SimplexSolver().solve(p);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
}

TEST(Simplex, NegativeLowerBoundsAreHandled) {
  // min x + y with x in [-3, 5], y in [-2, 4], x + y >= -4. Optimum -4 on
  // the constraint line (bounds allow -5, the row cuts it).
  LpProblem p;
  const std::size_t x = p.add_variable(-3.0, 5.0, "x");
  const std::size_t y = p.add_variable(-2.0, 4.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kGreaterEqual, -4.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -4.0, kTol);
}

TEST(Simplex, PureBoundsProblem) {
  // No rows at all: optimum sits on the box corner.
  LpProblem p;
  const std::size_t x = p.add_variable(-1.5, 2.5, "x");
  const std::size_t y = p.add_variable(0.5, 3.0, "y");
  p.set_objective({{x, 1.0}, {y, -1.0}}, Objective::kMinimize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], -1.5, kTol);
  EXPECT_NEAR(s.values[y], 3.0, kTol);
}

TEST(Simplex, FixedVariablesActAsConstants) {
  LpProblem p;
  const std::size_t x = p.add_variable(2.0, 2.0, "x");  // fixed
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 6.0);
  p.set_objective({{y, 1.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 4.0, kTol);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Klee-Minty-flavoured degeneracy: several redundant rows through the
  // same vertex.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kLessEqual, 8.0);
  p.add_row({{x, 3.0}, {y, 3.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.set_objective({{x, 1.0}, {y, 2.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 8.0, kTol);
}

TEST(Simplex, RedundantEqualityRowsAreDropped) {
  // The duplicated equality makes the phase-1 basis singular; the solver
  // must drop the redundant row rather than fail.
  LpProblem p;
  const std::size_t x = p.add_variable(-10.0, 10.0, "x");
  const std::size_t y = p.add_variable(-10.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.set_objective({{x, 1.0}}, Objective::kMaximize);
  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 10.0, kTol);
  EXPECT_NEAR(s.values[y], -6.0, kTol);
}

TEST(Simplex, RejectsInfiniteBounds) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(0.0, std::numeric_limits<double>::infinity()),
               ContractViolation);
}

TEST(Simplex, RejectsInvertedBounds) {
  LpProblem p;
  EXPECT_THROW(p.add_variable(1.0, 0.0), ContractViolation);
}

// Property sweep: random box-bounded LPs with a known interior point.
// The solver must (a) declare them feasible-optimal and (b) return a
// point satisfying all rows and bounds.
class SimplexRandomFeasible : public ::testing::TestWithParam<int> {};

TEST_P(SimplexRandomFeasible, OptimumRespectsAllConstraints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 10));

  LpProblem p;
  std::vector<double> interior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = rng.uniform(0.5, 5.0);
    p.add_variable(lo, hi);
    interior[i] = 0.5 * (lo + hi);
  }
  std::vector<std::vector<double>> rows(m, std::vector<double>(n));
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      rows[r][c] = rng.uniform(-2.0, 2.0);
      activity += rows[r][c] * interior[c];
    }
    // Slack the row so the interior point stays feasible.
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n; ++c) terms.push_back({c, rows[r][c]});
    p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.1, 2.0));
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c) objective.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, Objective::kMinimize);

  const LpSolution s = SimplexSolver().solve(p);
  ASSERT_EQ(s.status, SolveStatus::kOptimal) << "seed " << GetParam();
  for (std::size_t c = 0; c < n; ++c) {
    EXPECT_GE(s.values[c], p.lower_bound(c) - kTol);
    EXPECT_LE(s.values[c], p.upper_bound(c) + kTol);
  }
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    for (std::size_t c = 0; c < n; ++c) activity += rows[r][c] * s.values[c];
    EXPECT_LE(activity, p.rows()[r].rhs + 1e-5);
  }
  // The optimum must not beat the interior point by less than it should:
  // sanity check that it is at least as good as a feasible point we know.
  double interior_obj = 0.0;
  for (std::size_t c = 0; c < n; ++c) interior_obj += objective[c].coeff * interior[c];
  EXPECT_LE(s.objective, interior_obj + kTol);

  // The revised simplex must reproduce the dense-tableau optimum.
  RevisedSimplex revised;
  revised.load(p);
  const LpSolution rs = revised.solve();
  ASSERT_EQ(rs.status, SolveStatus::kOptimal) << "seed " << GetParam();
  EXPECT_NEAR(rs.objective, s.objective, kTol) << "seed " << GetParam();
}

TEST_P(SimplexRandomFeasible, SolveRangeMatchesTwoSolvesBitForBit) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, 8));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 10));
  LpProblem p;
  for (std::size_t i = 0; i < n; ++i) p.add_variable(rng.uniform(-5.0, 0.0), rng.uniform(0.5, 5.0));
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n; ++c) terms.push_back({c, rng.uniform(-2.0, 2.0)});
    // Rows of every sense, so phase 1 has artificials to price out.
    const int sense = rng.uniform_int(0, 2);
    p.add_row(terms,
              sense == 0   ? RowSense::kLessEqual
              : sense == 1 ? RowSense::kGreaterEqual
                           : RowSense::kEqual,
              rng.uniform(-1.0, 1.0));
  }
  // The problem's own objective must not matter.
  p.set_objective({{0, 1.0}, {n - 1, -2.0}}, Objective::kMaximize);
  const SimplexSolver solver;
  for (std::size_t v = 0; v < n; ++v)
    expect_range_matches_solves(p, v, solver.solve_range(p, v),
                                "seed " + std::to_string(GetParam()) + " var " + std::to_string(v));
}

INSTANTIATE_TEST_SUITE_P(RandomLps, SimplexRandomFeasible, ::testing::Range(0, 25));

TEST(SolveRange, RejectsAVariableOutOfRange) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  EXPECT_THROW(SimplexSolver().solve_range(p, 1), ContractViolation);
}

/// FNV-1a over 64-bit words.
struct Fnv1a {
  std::uint64_t state = 1469598103934665603ull;
  void word(std::uint64_t value) {
    for (int i = 0; i < 8; ++i) {
      state ^= (value >> (8 * i)) & 0xffu;
      state *= 1099511628211ull;
    }
  }
  void dbl(double value) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    word(bits);
  }
};

/// The encoder's kLpTightening walk (src/verify/encoder.cpp) over the
/// recertify benchmark's base tail (Rng 2020: three Dense 16 + ReLU
/// blocks, Dense 16 -> 2, input box [-1, 1]^16), one solve_range per
/// neuron. Each range must equal its two solve() calls, the realized
/// boxes must equal the encoder's, and the boxes plus every LP's
/// iteration count hash to the value the dense tableau printed before it
/// became column-major, in an optimizing build that fused its
/// multiply-adds. Every build must print it now: Release, Debug with
/// sanitizers, and -DDPV_ENABLE_SIMD=OFF (an unoptimized build of the
/// row-major tableau ran 9,768 iterations here instead of 9,482).
TEST(SolveRange, RecertifyTailTighteningIsPinned) {
  Rng rng(2020);
  nn::Network net;
  for (int d = 0; d < 3; ++d) {
    auto dense = std::make_unique<nn::Dense>(16, 16);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{16}));
  }
  auto out = std::make_unique<nn::Dense>(16, 2);
  out->init_he(rng);
  net.add(std::move(out));

  LpProblem lp;
  std::vector<std::size_t> vars;
  std::vector<absint::Interval> bounds;
  for (std::size_t i = 0; i < 16; ++i) {
    vars.push_back(lp.add_variable(-1.0, 1.0));
    bounds.emplace_back(-1.0, 1.0);
  }
  Fnv1a hash;
  std::size_t iterations = 0;
  std::vector<absint::Box> realized;
  const SimplexSolver solver;
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    std::vector<std::size_t> next_vars;
    std::vector<absint::Interval> next_bounds;
    if (net.layer(l).kind() == nn::LayerKind::kDense) {
      const auto& layer = static_cast<const nn::Dense&>(net.layer(l));
      for (std::size_t r = 0; r < layer.output_shape().numel(); ++r) {
        absint::Interval iv(layer.bias()[r], layer.bias()[r]);
        for (std::size_t c = 0; c < vars.size(); ++c)
          iv = iv + absint::scale(bounds[c], layer.weight().at2(r, c));
        const std::size_t y = lp.add_variable(iv.lo, iv.hi);
        std::vector<LinearTerm> terms{{y, 1.0}};
        for (std::size_t c = 0; c < vars.size(); ++c) {
          const double weight = layer.weight().at2(r, c);
          if (weight != 0.0) terms.push_back({vars[c], -weight});
        }
        lp.add_row(std::move(terms), RowSense::kEqual, layer.bias()[r]);
        const LpRange range = solver.solve_range(lp, y);
        expect_range_matches_solves(lp, y, range, "layer " + std::to_string(l) + " neuron " +
                                                      std::to_string(r));
        hash.word(range.min.iterations);
        hash.word(range.max.iterations);
        iterations += range.min.iterations + range.max.iterations;
        double lo = iv.lo, hi = iv.hi;
        if (range.min.status == SolveStatus::kOptimal) lo = std::max(lo, range.min.objective - 1e-9);
        if (range.max.status == SolveStatus::kOptimal) hi = std::min(hi, range.max.objective + 1e-9);
        if (lo > hi) lo = hi;
        lp.set_bounds(y, lo, hi);
        next_vars.push_back(y);
        next_bounds.emplace_back(lo, hi);
      }
    } else {  // ReLU: stable ones eliminated, unstable ones big-M plus triangle
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const double lo = bounds[i].lo, hi = bounds[i].hi;
        if (lo >= 0.0) {
          next_vars.push_back(vars[i]);
          next_bounds.push_back(bounds[i]);
          continue;
        }
        if (hi <= 0.0) {
          next_vars.push_back(lp.add_variable(0.0, 0.0));
          next_bounds.emplace_back(0.0, 0.0);
          continue;
        }
        const std::size_t x = vars[i];
        const std::size_t y = lp.add_variable(0.0, hi);
        const std::size_t z = lp.add_variable(0.0, 1.0);
        lp.add_row({{y, 1.0}, {x, -1.0}}, RowSense::kGreaterEqual, 0.0);
        lp.add_row({{y, 1.0}, {z, -hi}}, RowSense::kLessEqual, 0.0);
        lp.add_row({{y, 1.0}, {x, -1.0}, {z, -lo}}, RowSense::kLessEqual, -lo);
        const double slope = hi / (hi - lo);
        lp.add_row({{y, 1.0}, {x, -slope}}, RowSense::kLessEqual, -slope * lo);
        next_vars.push_back(y);
        next_bounds.push_back(absint::relu(bounds[i]));
      }
    }
    for (const absint::Interval& iv : next_bounds) {
      hash.dbl(iv.lo);
      hash.dbl(iv.hi);
    }
    realized.push_back(next_bounds);
    vars = std::move(next_vars);
    bounds = std::move(next_bounds);
  }
  EXPECT_EQ(lp.variable_count(), 162u);
  EXPECT_EQ(lp.row_count(), 242u);
  EXPECT_EQ(iterations, 9482u);
  EXPECT_EQ(hash.state, 17032079666615126816ull);

  verify::VerificationQuery query;
  query.network = &net;
  query.attach_layer = 0;
  query.input_box = absint::uniform_box(16, -1.0, 1.0);
  query.risk.output_at_least(0, 2, 12.0);
  verify::EncodeOptions options;
  options.bounds = verify::BoundMethod::kLpTightening;
  const verify::TailEncoding enc = verify::encode_tail_query(query, options);
  ASSERT_EQ(enc.realized_tail_boxes.size(), realized.size());
  for (std::size_t k = 0; k < realized.size(); ++k) {
    ASSERT_EQ(enc.realized_tail_boxes[k].size(), realized[k].size()) << "layer " << k;
    for (std::size_t i = 0; i < realized[k].size(); ++i) {
      EXPECT_TRUE(same_bits(enc.realized_tail_boxes[k][i].lo, realized[k][i].lo)) << k << "/" << i;
      EXPECT_TRUE(same_bits(enc.realized_tail_boxes[k][i].hi, realized[k][i].hi)) << k << "/" << i;
    }
  }
}

}  // namespace
}  // namespace dpv::lp
