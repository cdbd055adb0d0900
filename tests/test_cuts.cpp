// Cutting-plane engine tests: tableau accessor identity, cut soundness
// against pools of feasible integer points (no feasible point may ever
// be cut off — a verifier that loses a counterexample reports a false
// SAFE), verdicts with cuts on/off at 1 and 4 threads against ReLU phase
// enumeration, and stats plumbing through the verifier and campaign.
// The reference points and verdicts come from tests/milp_oracle.hpp.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "milp_oracle.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kTol = 1e-6;

using lp::LinearTerm;
using lp::LpProblem;
using lp::LpSolution;
using lp::Objective;
using lp::RowSense;
using lp::SolveStatus;

// ---------------------------------------------------------------- tableau

TEST(TableauAccess, TableauRowIdentityHoldsAtTheOptimum) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 14.0);
  p.add_row({{x, 3.0}, {y, -1.0}}, RowSense::kGreaterEqual, 0.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 2.0);
  p.set_objective({{x, 3.0}, {y, 4.0}}, Objective::kMaximize);

  lp::RevisedSimplex simplex;
  simplex.load(p);
  const LpSolution sol = simplex.solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  // The tableau identity x[basic] + sum alpha * x[col] = 0 must hold at
  // the optimum, with nonbasic columns at their recorded resting bound.
  std::size_t rows_read = 0;
  for (std::size_t r = 0; r < p.row_count(); ++r) {
    lp::TableauRow row;
    ASSERT_TRUE(simplex.tableau_row(r, row)) << "row " << r;
    ++rows_read;
    double activity = row.basic_value;
    for (const auto& e : row.entries) {
      const double rest = e.at_upper ? e.up : e.lo;
      activity += e.alpha * rest;
    }
    EXPECT_NEAR(activity, 0.0, 1e-7) << "row " << r;
    // A structural basic column's value must match the solution.
    if (row.basic_col >= 0 && static_cast<std::size_t>(row.basic_col) < p.variable_count())
      EXPECT_NEAR(sol.values[static_cast<std::size_t>(row.basic_col)], row.basic_value, 1e-7);
  }
  EXPECT_EQ(rows_read, p.row_count());
  lp::TableauRow out_of_range;
  EXPECT_FALSE(simplex.tableau_row(p.row_count(), out_of_range));
}

// ------------------------------------------------------------- soundness

double row_activity(const lp::Row& row, const std::vector<double>& x) {
  double activity = 0.0;
  for (const LinearTerm& t : row.terms) activity += t.coeff * x[t.var];
  return activity;
}

bool row_satisfied(const lp::Row& row, const std::vector<double>& x, double tol) {
  const double activity = row_activity(row, x);
  switch (row.sense) {
    case RowSense::kLessEqual:
      return activity <= row.rhs + tol;
    case RowSense::kGreaterEqual:
      return activity >= row.rhs - tol;
    case RowSense::kEqual:
      return std::abs(activity - row.rhs) <= tol;
  }
  return false;
}

/// Runs root cuts on a copy of `p` and returns the appended rows.
std::vector<lp::Row> generate_root_cuts(const milp::MilpProblem& p, std::size_t rounds = 6) {
  milp::MilpProblem working = p;
  milp::cuts::CutOptions options;
  options.root_rounds = rounds;
  const milp::cuts::RootCutReport report =
      milp::cuts::run_root_cuts(working, options, lp::SimplexOptions{}, 1e-6);
  const auto& rows = working.relaxation().rows();
  std::vector<lp::Row> cuts(rows.begin() + static_cast<std::ptrdiff_t>(p.relaxation().row_count()),
                            rows.end());
  EXPECT_EQ(cuts.size(), report.cuts_added);
  return cuts;
}

/// For every binary assignment feasible in `p`, the oracle's LP
/// completion is a genuine mixed-integer point: every generated cut must
/// hold on it.
void expect_cuts_sound_by_enumeration(const milp::MilpProblem& p,
                                      const std::vector<lp::Row>& cuts) {
  const oracle::BruteForceResult pool = oracle::brute_force_milp(p);
  for (std::size_t point = 0; point < pool.points.size(); ++point)
    for (std::size_t k = 0; k < cuts.size(); ++k)
      EXPECT_TRUE(row_satisfied(cuts[k], pool.points[point], 1e-5))
          << "cut " << k << " removes feasible point " << point << " (activity "
          << row_activity(cuts[k], pool.points[point]) << " rhs " << cuts[k].rhs << ")";
  // The pool must be non-trivial or the test proves nothing.
  EXPECT_FALSE(pool.points.empty());
}

/// Random mixed MILP built around an integer-feasible anchor point, so
/// the soundness pool below is never vacuous.
milp::MilpProblem random_mixed_milp(Rng& rng) {
  milp::MilpProblem p;
  const std::size_t n_bin = static_cast<std::size_t>(rng.uniform_int(3, 6));
  const std::size_t n_cont = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(2, 5));
  std::vector<std::size_t> vars;
  std::vector<double> anchor;
  for (std::size_t i = 0; i < n_bin; ++i) {
    vars.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
    anchor.push_back(rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  for (std::size_t i = 0; i < n_cont; ++i) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = rng.uniform(0.5, 2.0);
    vars.push_back(p.add_variable(milp::VarType::kContinuous, lo, hi));
    anchor.push_back(0.5 * (lo + hi));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<LinearTerm> terms;
    double at_anchor = 0.0;
    for (std::size_t c = 0; c < vars.size(); ++c) {
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({vars[c], coeff});
      at_anchor += coeff * anchor[c];
    }
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0)
      p.add_row(terms, RowSense::kLessEqual, at_anchor + rng.uniform(0.1, 2.0));
    else if (sense == 1)
      p.add_row(terms, RowSense::kGreaterEqual, at_anchor - rng.uniform(0.1, 2.0));
    else
      p.add_row(terms, RowSense::kEqual, at_anchor);
  }
  std::vector<LinearTerm> obj;
  for (const std::size_t v : vars) obj.push_back({v, rng.uniform(-2.0, 2.0)});
  p.set_objective(obj, rng.bernoulli(0.5) ? Objective::kMaximize : Objective::kMinimize);
  return p;
}

class CutSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(CutSoundnessSweep, NoFeasibleIntegerPointIsCutOff) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 11);
  const milp::MilpProblem p = random_mixed_milp(rng);
  expect_cuts_sound_by_enumeration(p, generate_root_cuts(p));
}

INSTANTIATE_TEST_SUITE_P(RandomMixedMilps, CutSoundnessSweep, ::testing::Range(0, 30));

// ---------------------------------------------------- network encodings

nn::Network make_tail_net(Rng& rng, std::size_t in_n, std::size_t hidden) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

verify::VerificationQuery tail_query(const nn::Network& net, std::size_t in_n,
                                     double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(in_n, -1.0, 1.0);
  q.risk.output_at_least(0, 1, threshold);
  return q;
}

/// A threshold above every sampled output (so the verdict is a SAFE
/// proof) but below the LP-relaxation optimum (so the proof branches
/// and the root is fractional — cuts have something to do).
double forcing_threshold(const nn::Network& net, std::size_t in_n, Rng& rng) {
  double sampled_max = -1e100;
  for (int i = 0; i < 2000; ++i) {
    Tensor x(Shape{in_n});
    for (std::size_t j = 0; j < in_n; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  verify::VerificationQuery probe = tail_query(net, in_n, -1e9);
  verify::TailEncoding enc = verify::encode_tail_query(probe, {});
  enc.problem.relaxation().set_objective({{enc.output_vars[0], 1.0}}, Objective::kMaximize);
  const LpSolution root = lp::SimplexSolver().solve(enc.problem.relaxation());
  const double relax_max =
      root.status == SolveStatus::kOptimal ? root.objective : sampled_max + 1.0;
  return sampled_max + 0.75 * std::max(relax_max - sampled_max, 0.1);
}

TEST(ReluSplitCuts, EncoderRegistersBigMBlocksAndCutsStaySound) {
  Rng rng(77);
  const std::size_t in_n = 3, hidden = 5;
  const nn::Network net = make_tail_net(rng, in_n, hidden);
  // Vacuous risk: the encoding is feasible, so every phase assignment
  // with an LP completion populates the soundness pool.
  const verify::VerificationQuery q = tail_query(net, in_n, -1e9);
  const verify::TailEncoding enc = verify::encode_tail_query(q, {});

  // Every unstable ReLU's block must be on record with its true affine
  // pre-image (hidden width inputs each).
  EXPECT_EQ(enc.problem.relu_splits().size(), enc.stats.binaries);
  for (const milp::ReluSplitInfo& rs : enc.problem.relu_splits()) {
    EXPECT_GE(rs.pre_terms.size(), 2u);
    EXPECT_EQ(enc.problem.variable_type(rs.phase_var), milp::VarType::kBinary);
  }

  // Cuts generated on the real encoding must not cut off any feasible
  // completion of any phase assignment.
  expect_cuts_sound_by_enumeration(enc.problem, generate_root_cuts(enc.problem));
}

// ----------------------------------------------------- parity and gains

TEST(CutParity, VerdictsMatchCutsOnOffAndPhaseEnumeration) {
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    // Mix of SAFE proofs (forcing threshold) and easy UNSAFE queries.
    const double threshold = seed % 2 == 0 ? forcing_threshold(net, in_n, rng) : -5.0;
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);
    const verify::Verdict reference =
        oracle::risk_reachable_by_phases(net, q.input_box, q.risk) ? verify::Verdict::kUnsafe
                                                                  : verify::Verdict::kSafe;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t rounds : {std::size_t{0}, std::size_t{5}}) {
        verify::TailVerifierOptions options;
        options.milp.max_nodes = 20000;
        options.milp.threads = threads;
        options.milp.cuts.root_rounds = rounds;
        const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
        EXPECT_EQ(r.verdict, reference)
            << "seed " << seed << " threads " << threads << " rounds " << rounds;
        if (r.verdict == verify::Verdict::kUnsafe) {
          EXPECT_TRUE(r.counterexample_validated) << "seed " << seed;
        }
        if (rounds > 0) {
          EXPECT_GT(r.solver_stats.cut_rounds + r.solver_stats.cuts_added, 0u)
              << "cut engine never engaged; seed " << seed;
        }
      }
    }
  }
}

TEST(CutParity, MilpOptimaMatchBruteForceWithCutsEnabled) {
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 3271 + 29);
    const milp::MilpProblem p = random_mixed_milp(rng);
    const oracle::BruteForceResult expected = oracle::brute_force_milp(p);

    milp::BranchAndBoundOptions options;
    options.cuts.root_rounds = 5;
    const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(p);
    if (!expected.feasible) {
      EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, milp::MilpStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(r.objective, expected.objective, 1e-5) << "seed " << seed;
    }
  }
}

TEST(CutGains, RootCutsNeverGrowAForcedProofTree) {
  Rng rng(123);
  const std::size_t in_n = 4, hidden = 8;
  const nn::Network net = make_tail_net(rng, in_n, hidden);
  const verify::VerificationQuery q =
      tail_query(net, in_n, forcing_threshold(net, in_n, rng));

  verify::TailVerifierOptions off;
  off.milp.max_nodes = 60000;
  verify::TailVerifierOptions on = off;
  on.milp.cuts.root_rounds = 6;

  const verify::VerificationResult a = verify::TailVerifier(off).verify(q);
  const verify::VerificationResult b = verify::TailVerifier(on).verify(q);
  ASSERT_EQ(a.verdict, verify::Verdict::kSafe);
  ASSERT_EQ(b.verdict, verify::Verdict::kSafe);
  // Deterministic instance (serial search, fixed seed): the cut-tightened
  // relaxation must not explore a larger tree.
  EXPECT_LE(b.milp_nodes, a.milp_nodes);
  EXPECT_GT(b.solver_stats.cuts_added, 0u);
  EXPECT_NE(b.summary().find("cuts="), std::string::npos) << b.summary();
  EXPECT_EQ(a.summary().find("cuts="), std::string::npos) << a.summary();
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

TEST(CutPlumbing, CampaignAggregatesCutCounters) {
  Rng rng(211);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 6);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto d2 = std::make_unique<nn::Dense>(6, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  // Three risk rungs: some resolve UNSAFE, some force a branching
  // proof — at least one lands on a fractional root where the engine
  // separates.
  std::vector<core::CampaignEntry> entries;
  int i = 0;
  for (const double threshold : {0.3, 1.0, 3.0}) {
    verify::RiskSpec risk("rung-" + std::to_string(i));
    risk.output_at_least(0, 2, threshold);
    entries.push_back({"x0-positive-" + std::to_string(i++), labelled_cloud(rng, 50),
                       labelled_cloud(rng, 25), risk});
  }

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 15;
  config.assume_guarantee.verifier.milp.cuts.root_rounds = 4;
  // Cut counters only accumulate in the B&B; keep the staged pipeline
  // from settling these queries before the engine runs.
  config.falsify_first = false;
  const core::CampaignReport report = core::run_campaign(net, 1, entries, config);
  EXPECT_GT(report.milp_nodes, 0u);
  EXPECT_GT(report.cut_rounds + report.cuts_added, 0u);
  EXPECT_NE(report.format_encoding_summary().find("cuts:"), std::string::npos)
      << report.format_encoding_summary();
}

}  // namespace
}  // namespace dpv
