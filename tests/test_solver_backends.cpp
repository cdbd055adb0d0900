// LP engine and search plumbing tests: revised simplex vs dense-tableau
// parity on LPs, warm-start correctness and economy and its solve
// accounting, parallel branch & bound feasibility mode, verifier
// plumbing, and campaign determinism across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <regex>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kTol = 1e-5;

using lp::LinearTerm;
using lp::LpProblem;
using lp::LpSolution;
using lp::Objective;
using lp::RevisedSimplex;
using lp::RowSense;
using lp::SolveStatus;

/// Solves `p` with the revised simplex and the dense tableau and checks
/// status (and objective when optimal) agree.
void expect_lp_parity(const LpProblem& p, const char* label) {
  const LpSolution a = lp::SimplexSolver().solve(p);
  RevisedSimplex revised;
  revised.load(p);
  const LpSolution b = revised.solve();
  ASSERT_EQ(a.status, b.status) << label;
  if (a.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(a.objective, b.objective, kTol) << label;
    // Both points must satisfy every row and box of the problem.
    for (const auto& sol : {a, b}) {
      for (std::size_t v = 0; v < p.variable_count(); ++v) {
        EXPECT_GE(sol.values[v], p.lower_bound(v) - kTol) << label;
        EXPECT_LE(sol.values[v], p.upper_bound(v) + kTol) << label;
      }
      for (const auto& row : p.rows()) {
        double activity = 0.0;
        for (const LinearTerm& t : row.terms) activity += t.coeff * sol.values[t.var];
        if (row.sense == RowSense::kLessEqual) EXPECT_LE(activity, row.rhs + kTol) << label;
        if (row.sense == RowSense::kGreaterEqual)
          EXPECT_GE(activity, row.rhs - kTol) << label;
        if (row.sense == RowSense::kEqual) EXPECT_NEAR(activity, row.rhs, kTol) << label;
      }
    }
  }
}

TEST(SimplexParity, TextbookMaximization) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, Objective::kMaximize);
  expect_lp_parity(p, "textbook");

  RevisedSimplex revised;
  revised.load(p);
  const LpSolution s = revised.solve();
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, kTol);
  EXPECT_NEAR(s.values[x], 2.0, kTol);
  EXPECT_NEAR(s.values[y], 6.0, kTol);
}

TEST(SimplexParity, EqualityAndNegativeBounds) {
  LpProblem p;
  const std::size_t x = p.add_variable(-50.0, 50.0, "x");
  const std::size_t y = p.add_variable(-50.0, 50.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kEqual, 2.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMinimize);
  expect_lp_parity(p, "equalities");
}

TEST(SimplexParity, Infeasibility) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  p.add_row({{x, 1.0}}, RowSense::kGreaterEqual, 5.0);
  p.add_row({{x, 1.0}}, RowSense::kLessEqual, 3.0);
  expect_lp_parity(p, "infeasible");
}

TEST(SimplexParity, PureBoundsAndFixedVariables) {
  LpProblem p;
  const std::size_t x = p.add_variable(-1.5, 2.5, "x");
  const std::size_t y = p.add_variable(0.5, 3.0, "y");
  const std::size_t z = p.add_variable(2.0, 2.0, "z");  // fixed
  p.add_row({{z, 1.0}, {y, 1.0}}, RowSense::kLessEqual, 6.0);
  p.set_objective({{x, 1.0}, {y, -1.0}}, Objective::kMinimize);
  expect_lp_parity(p, "bounds+fixed");
}

TEST(SimplexParity, RedundantEqualityRows) {
  LpProblem p;
  const std::size_t x = p.add_variable(-10.0, 10.0, "x");
  const std::size_t y = p.add_variable(-10.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 1.0}}, RowSense::kEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 2.0}}, RowSense::kEqual, 8.0);
  p.set_objective({{x, 1.0}}, Objective::kMaximize);
  expect_lp_parity(p, "redundant-equalities");
}

TEST(WarmStart, BoundTighteningResolvesCheaply) {
  // A chain of coupled rows so the cold solve needs real work; then
  // tighten one variable's box (the branch & bound move) and resolve.
  Rng rng(91);
  const std::size_t n = 12;
  LpProblem p;
  for (std::size_t i = 0; i < n; ++i) p.add_variable(-2.0, 2.0);
  for (std::size_t i = 0; i + 1 < n; ++i)
    p.add_row({{i, 1.0}, {i + 1, rng.uniform(0.3, 1.5)}}, RowSense::kLessEqual,
              rng.uniform(0.5, 2.0));
  std::vector<LinearTerm> objective;
  for (std::size_t i = 0; i < n; ++i) objective.push_back({i, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, Objective::kMinimize);

  RevisedSimplex revised;
  revised.load(p);
  const LpSolution cold = revised.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const lp::SimplexBasis basis = revised.capture_basis();
  ASSERT_FALSE(basis.empty());

  // Tighten: fix variable 3 to its model value rounded toward zero.
  revised.set_bounds(3, 0.0, 0.0);
  const LpSolution warm = revised.resolve(basis);

  // Reference: a dense-tableau solve of the tightened problem.
  LpProblem tightened = p;
  tightened.set_bounds(3, 0.0, 0.0);
  const LpSolution ref = lp::SimplexSolver().solve(tightened);

  ASSERT_EQ(warm.status, ref.status);
  if (ref.status == SolveStatus::kOptimal) {
    EXPECT_NEAR(warm.objective, ref.objective, kTol);
  }
  // The warm resolve must be much cheaper than solving from scratch.
  EXPECT_LE(warm.iterations, std::max<std::size_t>(cold.iterations, 2));

  // The simplex's own accounting, as SolverStats reports it.
  const solver::SolverStats stats = solver::simplex_stats(revised);
  EXPECT_EQ(stats.lp_solves, 2u);
  EXPECT_EQ(stats.warm_attempts, 1u);
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.lp_iterations, cold.iterations + warm.iterations);
  EXPECT_EQ(stats.warm_iterations, warm.iterations);
  EXPECT_GT(stats.basis_factorizations, 0u);
}

TEST(WarmStart, StaleBasisFallsBackToColdSolve) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  p.add_row({{0, 1.0}}, RowSense::kLessEqual, 0.5);
  RevisedSimplex revised;
  revised.load(p);
  lp::SimplexBasis wrong;
  wrong.basic = {5};             // out of range for this problem
  wrong.at_upper = {0, 0, 0, 0};
  const LpSolution s = revised.resolve(wrong);
  EXPECT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_FALSE(revised.last_resolve_was_warm());
  EXPECT_EQ(revised.solve_stats().warm_attempts, 1u);
  EXPECT_EQ(revised.solve_stats().warm_hits, 0u);
}

// ---------------------------------------------------------------- MILP

milp::MilpResult solve_milp(const milp::MilpProblem& p, std::size_t threads = 1,
                            bool stop_at_first_feasible = false) {
  milp::BranchAndBoundOptions options;
  options.threads = threads;
  options.stop_at_first_feasible = stop_at_first_feasible;
  return milp::BranchAndBoundSolver(options).solve(p);
}

TEST(MilpWarmStart, RevisedBackendReusesParentBases) {
  // An integrally-infeasible instance that forces a full tree search, so
  // the warm-start machinery gets real traffic.
  milp::MilpProblem p;
  std::vector<LinearTerm> parity;
  for (int i = 0; i < 8; ++i)
    parity.push_back({p.add_variable(milp::VarType::kBinary, 0.0, 1.0), 1.0});
  p.add_row(parity, RowSense::kEqual, 3.5);
  const milp::MilpResult r = solve_milp(p);
  EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible);
  EXPECT_GT(r.solver_stats.warm_attempts, 0u);
  EXPECT_GT(r.solver_stats.warm_hits, 0u);
  EXPECT_GE(r.solver_stats.warm_hit_rate(), 0.9);
}

TEST(ParallelBnb, FeasibilityModeStopsEarlyOnAllThreadCounts) {
  milp::MilpProblem p;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 8; ++i)
    vars.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
  std::vector<LinearTerm> sum;
  for (const std::size_t v : vars) sum.push_back({v, 1.0});
  p.add_row(sum, RowSense::kEqual, 4.0);
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    const milp::MilpResult r = solve_milp(p, threads, true);
    ASSERT_EQ(r.status, milp::MilpStatus::kFeasible) << "threads " << threads;
    double total = 0.0;
    for (const std::size_t v : vars) {
      EXPECT_NEAR(r.values[v], std::round(r.values[v]), 1e-6);
      total += r.values[v];
    }
    EXPECT_NEAR(total, 4.0, kTol) << "threads " << threads;
  }
}

// ------------------------------------------------------------- verifier

TEST(VerifierPlumbing, LpIterationLimitSurfacesAsExplainedUnknown) {
  // Starve the LP (not the node budget): the verdict must be UNKNOWN
  // with an explanatory note, not silently folded into node accounting.
  Rng rng(21);
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(6, 6);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto out = std::make_unique<nn::Dense>(6, 2);
  out->init_he(rng);
  net.add(std::move(out));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(6, -1.0, 1.0);
  q.risk.output_at_least(0, 2, 1e6);  // unreachable: forces a proof search

  verify::TailVerifierOptions options;
  options.milp.lp_options.max_iterations = 1;  // starve every relaxation
  options.encode.lp_options.max_iterations = 1;
  // Keep the feasibility objective: the risk-margin objective lets the
  // dual simplex prove this root infeasible in zero iterations, which
  // is sound but defeats the starvation this test is about.
  options.risk_margin_objective = false;
  const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
  EXPECT_EQ(r.verdict, verify::Verdict::kUnknown);
  EXPECT_NE(r.summary().find("LP iteration limit"), std::string::npos) << r.summary();
}

// ------------------------------------------------------------- campaign

train::Dataset labelled_cloud(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

nn::Network make_small_net(Rng& rng) {
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(2, 4);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto readout = std::make_unique<nn::Dense>(4, 2);
  readout->init_he(rng);
  net.add(std::move(readout));
  return net;
}

std::vector<core::CampaignEntry> make_entries(Rng& rng) {
  std::vector<core::CampaignEntry> entries;
  verify::RiskSpec unreachable("far-out");
  unreachable.output_at_least(0, 2, 1e6);
  verify::RiskSpec reachable("reachable");
  reachable.output_at_most(0, 2, 1e6);
  for (int i = 0; i < 3; ++i)
    entries.push_back({"x0-positive-" + std::to_string(i), labelled_cloud(rng, 60),
                       labelled_cloud(rng, 30), i % 2 == 0 ? unreachable : reachable});
  return entries;
}

/// Blanks the legitimately run-dependent report fields (wall times).
std::string strip_timings(std::string text) {
  const std::regex timing("(encode=|solve=|, )[0-9.e+-]+s");
  return std::regex_replace(text, timing, "$1<t>s");
}

TEST(ParallelCampaign, ReportsAreBitIdenticalAcrossThreadCounts) {
  Rng rng(101);
  const nn::Network net = make_small_net(rng);
  const std::vector<core::CampaignEntry> entries = make_entries(rng);

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 20;

  std::vector<std::string> tables;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    config.campaign_threads = threads;
    const core::CampaignReport report = core::run_campaign(net, 2, entries, config);
    std::string all = report.format_table();
    for (const core::WorkflowReport& wr : report.reports) all += "\n" + wr.to_string();
    tables.push_back(strip_timings(std::move(all)));
  }
  EXPECT_EQ(tables[0], tables[1]);
  EXPECT_EQ(tables[0], tables[2]);
}

TEST(ParallelCampaign, PerEntryNodeBudgetApplies) {
  Rng rng(103);
  const nn::Network net = make_small_net(rng);
  const std::vector<core::CampaignEntry> entries = make_entries(rng);

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 20;
  config.entry_node_budget = 1;  // starve every entry's MILP search
  const core::CampaignReport report = core::run_campaign(net, 2, entries, config);
  for (const core::WorkflowReport& wr : report.reports)
    EXPECT_LE(wr.safety.verification.milp_nodes, 1u) << wr.property_name;
}

}  // namespace
}  // namespace dpv
