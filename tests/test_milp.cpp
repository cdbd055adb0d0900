// Branch & bound MILP tests: knapsack instances with known optima,
// feasibility/infeasibility proofs, big-M ReLU gadgets, and randomized
// cross-checks, serial and threaded with and without root cuts, against
// brute-force enumeration of binary assignments (tests/milp_oracle.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp_oracle.hpp"

namespace dpv::milp {
namespace {

constexpr double kTol = 1e-5;

TEST(Milp, SolvesSmallKnapsack) {
  // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6; optimum a=c? enumerate:
  // a+c: w=5 v=17; b+c: w=6 v=20; a+b: w=7 infeasible. Optimum 20.
  MilpProblem p;
  const std::size_t a = p.add_variable(VarType::kBinary, 0.0, 1.0, "a");
  const std::size_t b = p.add_variable(VarType::kBinary, 0.0, 1.0, "b");
  const std::size_t c = p.add_variable(VarType::kBinary, 0.0, 1.0, "c");
  p.add_row({{a, 3.0}, {b, 4.0}, {c, 2.0}}, lp::RowSense::kLessEqual, 6.0);
  p.set_objective({{a, 10.0}, {b, 13.0}, {c, 7.0}}, lp::Objective::kMaximize);

  const MilpResult r = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 20.0, kTol);
  EXPECT_NEAR(r.values[a], 0.0, kTol);
  EXPECT_NEAR(r.values[b], 1.0, kTol);
  EXPECT_NEAR(r.values[c], 1.0, kTol);
}

TEST(Milp, IntegralityMatters) {
  // LP relaxation of max x s.t. 2x <= 3 with x binary gives 1.5 -> the
  // MILP must return 1.
  MilpProblem p;
  const std::size_t x = p.add_variable(VarType::kBinary, 0.0, 1.0, "x");
  p.add_row({{x, 2.0}}, lp::RowSense::kLessEqual, 3.0);
  p.set_objective({{x, 1.0}}, lp::Objective::kMaximize);
  const MilpResult r = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 1.0, kTol);
}

TEST(Milp, ProvesIntegerInfeasibility) {
  // 0.4 <= x <= 0.6 admits no binary x even though the LP relaxation is
  // feasible.
  MilpProblem p;
  const std::size_t x = p.add_variable(VarType::kBinary, 0.0, 1.0, "x");
  p.add_row({{x, 1.0}}, lp::RowSense::kGreaterEqual, 0.4);
  p.add_row({{x, 1.0}}, lp::RowSense::kLessEqual, 0.6);
  const MilpResult r = BranchAndBoundSolver().solve(p);
  EXPECT_EQ(r.status, MilpStatus::kInfeasible);
}

TEST(Milp, MixedContinuousBinary) {
  // max y s.t. y <= 2 + 3z, y <= 7 - 4z, y in [0, 10], z binary.
  // z=0 -> y<=2; z=1 -> y<=3 (7-4=3 and 2+3=5). Optimum 3 at z=1.
  MilpProblem p;
  const std::size_t y = p.add_variable(VarType::kContinuous, 0.0, 10.0, "y");
  const std::size_t z = p.add_variable(VarType::kBinary, 0.0, 1.0, "z");
  p.add_row({{y, 1.0}, {z, -3.0}}, lp::RowSense::kLessEqual, 2.0);
  p.add_row({{y, 1.0}, {z, 4.0}}, lp::RowSense::kLessEqual, 7.0);
  p.set_objective({{y, 1.0}}, lp::Objective::kMaximize);
  const MilpResult r = BranchAndBoundSolver().solve(p);
  ASSERT_EQ(r.status, MilpStatus::kOptimal);
  EXPECT_NEAR(r.objective, 3.0, kTol);
  EXPECT_NEAR(r.values[z], 1.0, kTol);
}

TEST(Milp, FeasibilityModeStopsEarly) {
  MilpProblem p;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(p.add_variable(VarType::kBinary, 0.0, 1.0));
  // sum = 4 has many solutions; feasibility mode should find one quickly.
  std::vector<lp::LinearTerm> sum;
  for (const std::size_t v : vars) sum.push_back({v, 1.0});
  p.add_row(sum, lp::RowSense::kEqual, 4.0);

  BranchAndBoundOptions options;
  options.stop_at_first_feasible = true;
  const MilpResult r = BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(r.status, MilpStatus::kFeasible);
  double total = 0.0;
  for (const std::size_t v : vars) {
    EXPECT_NEAR(r.values[v], std::round(r.values[v]), 1e-6);
    total += r.values[v];
  }
  EXPECT_NEAR(total, 4.0, kTol);
}

TEST(Milp, BigMReluGadgetBothPhases) {
  // Encode y = relu(x) for x in [-2, 3] with the verifier's big-M rows
  // and check that forcing x to each side yields the right y.
  for (const double x_fixed : {-1.5, 2.0}) {
    MilpProblem p;
    const std::size_t x = p.add_variable(VarType::kContinuous, x_fixed, x_fixed, "x");
    const std::size_t y = p.add_variable(VarType::kContinuous, 0.0, 3.0, "y");
    const std::size_t z = p.add_variable(VarType::kBinary, 0.0, 1.0, "z");
    p.add_row({{y, 1.0}, {x, -1.0}}, lp::RowSense::kGreaterEqual, 0.0);
    p.add_row({{y, 1.0}, {z, -3.0}}, lp::RowSense::kLessEqual, 0.0);
    p.add_row({{y, 1.0}, {x, -1.0}, {z, 2.0}}, lp::RowSense::kLessEqual, 2.0);
    p.set_objective({{y, 1.0}}, lp::Objective::kMaximize);
    const MilpResult r = BranchAndBoundSolver().solve(p);
    ASSERT_EQ(r.status, MilpStatus::kOptimal);
    EXPECT_NEAR(r.values[y], std::max(x_fixed, 0.0), kTol) << "x = " << x_fixed;
  }
}

TEST(Milp, NodeLimitReportsUnknown) {
  MilpProblem p;
  std::vector<lp::LinearTerm> parity;
  for (int i = 0; i < 10; ++i)
    parity.push_back({p.add_variable(VarType::kBinary, 0.0, 1.0), 1.0});
  // sum == 5.5 is integrally infeasible but needs search to prove.
  p.add_row(parity, lp::RowSense::kEqual, 5.5);
  BranchAndBoundOptions options;
  options.max_nodes = 1;  // starve the solver
  const MilpResult r = BranchAndBoundSolver(options).solve(p);
  EXPECT_EQ(r.status, MilpStatus::kNodeLimit);
}

// ------------------------------------------------ brute-force oracle

/// One random binary MILP: maximize a random objective over n_bin
/// binaries under n_rows random <= rows, drawn from Rng(seed * multiplier
/// + offset). Three generator families, one instance list.
struct RandomMilpCase {
  char family;
  std::uint64_t seed;
};

MilpProblem random_binary_milp(const RandomMilpCase& c) {
  struct Family {
    std::uint64_t multiplier, offset;
    int min_bin, max_bin, min_rows, max_rows;
  };
  static constexpr Family kFamilies[] = {
      {7919, 1, 2, 5, 1, 4}, {6151, 3, 2, 5, 1, 4}, {6151, 11, 3, 6, 2, 4}};
  const Family& f = kFamilies[c.family - 'a'];
  Rng rng(c.seed * f.multiplier + f.offset);
  const std::size_t n_bin = static_cast<std::size_t>(rng.uniform_int(f.min_bin, f.max_bin));
  const std::size_t n_rows =
      static_cast<std::size_t>(rng.uniform_int(f.min_rows, f.max_rows));
  MilpProblem p;
  std::vector<std::size_t> bins;
  for (std::size_t i = 0; i < n_bin; ++i)
    bins.push_back(p.add_variable(VarType::kBinary, 0.0, 1.0));
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<lp::LinearTerm> terms;
    for (std::size_t c = 0; c < n_bin; ++c) terms.push_back({bins[c], rng.uniform(-3.0, 3.0)});
    p.add_row(terms, lp::RowSense::kLessEqual, rng.uniform(-2.0, 4.0));
  }
  std::vector<lp::LinearTerm> objective;
  for (std::size_t c = 0; c < n_bin; ++c) objective.push_back({bins[c], rng.uniform(-2.0, 2.0)});
  p.set_objective(objective, lp::Objective::kMaximize);
  return p;
}

std::vector<RandomMilpCase> random_milp_cases() {
  std::vector<RandomMilpCase> cases;
  for (const auto& [family, count] : {std::pair{'a', 30}, {'b', 25}, {'c', 24}})
    for (int seed = 0; seed < count; ++seed)
      cases.push_back({family, static_cast<std::uint64_t>(seed)});
  return cases;
}

/// Random small MILPs: the search, serial and threaded, with and without
/// root cuts, against brute force over every binary assignment.
class MilpOracleSweep : public ::testing::TestWithParam<RandomMilpCase> {};

TEST_P(MilpOracleSweep, MatchesBruteForceAcrossThreadsAndCuts) {
  const MilpProblem p = random_binary_milp(GetParam());
  const oracle::BruteForceResult expected = oracle::brute_force_milp(p);
  for (const std::size_t threads : {1u, 4u}) {
    for (const std::size_t cut_rounds : {0u, 2u}) {
      BranchAndBoundOptions options;
      options.threads = threads;
      options.cuts.root_rounds = cut_rounds;
      const MilpResult r = BranchAndBoundSolver(options).solve(p);
      const std::string label =
          "t" + std::to_string(threads) + "/cuts" + std::to_string(cut_rounds);
      if (!expected.feasible) {
        EXPECT_EQ(r.status, MilpStatus::kInfeasible) << label;
      } else {
        ASSERT_EQ(r.status, MilpStatus::kOptimal) << label;
        EXPECT_NEAR(r.objective, expected.objective, kTol) << label;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMilps, MilpOracleSweep, ::testing::ValuesIn(random_milp_cases()),
                         [](const ::testing::TestParamInfo<RandomMilpCase>& info) {
                           return std::string(1, info.param.family) +
                                  std::to_string(info.param.seed);
                         });

}  // namespace
}  // namespace dpv::milp
