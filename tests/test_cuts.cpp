// Cutting-plane engine tests: tableau accessor identity, cut soundness
// against pools of feasible integer points (no feasible point may ever
// be cut off — a verifier that loses a counterexample reports a false
// SAFE), verdict parity with cuts on/off across both backends at 1 and
// 4 threads, and stats plumbing through the verifier and campaign.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
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
using solver::LpBackendKind;

// ---------------------------------------------------------------- tableau

TEST(TableauAccess, RowOfBasisIdentityHoldsAtTheOptimum) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 14.0);
  p.add_row({{x, 3.0}, {y, -1.0}}, RowSense::kGreaterEqual, 0.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 2.0);
  p.set_objective({{x, 3.0}, {y, 4.0}}, Objective::kMaximize);

  auto backend = solver::make_lp_backend(LpBackendKind::kRevisedBounded, {});
  backend->load(p);
  ASSERT_TRUE(backend->supports_tableau());
  const LpSolution sol = backend->solve();
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);

  // The tableau identity x[basic] + sum alpha * x[col] = 0 must hold at
  // the optimum, with nonbasic columns at their recorded resting bound.
  std::size_t rows_read = 0;
  for (std::size_t r = 0; r < p.row_count(); ++r) {
    solver::TableauRow row;
    ASSERT_TRUE(backend->row_of_basis(r, row)) << "row " << r;
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
  solver::TableauRow out_of_range;
  EXPECT_FALSE(backend->row_of_basis(p.row_count(), out_of_range));
}

TEST(TableauAccess, DenseBackendDeclinesTableauQueries) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  p.add_row({{0, 1.0}}, RowSense::kLessEqual, 0.5);
  auto dense = solver::make_lp_backend(LpBackendKind::kDenseTableau, {});
  dense->load(p);
  dense->solve();
  EXPECT_FALSE(dense->supports_tableau());
  solver::TableauRow row;
  EXPECT_FALSE(dense->row_of_basis(0, row));
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
std::vector<lp::Row> generate_root_cuts(const milp::MilpProblem& p, LpBackendKind backend,
                                        std::size_t rounds = 6) {
  milp::MilpProblem working = p;
  milp::cuts::CutOptions options;
  options.root_rounds = rounds;
  const milp::cuts::RootCutReport report = milp::cuts::run_root_cuts(
      working, options, backend, lp::SimplexOptions{}, 1e-6);
  const auto& rows = working.relaxation().rows();
  std::vector<lp::Row> cuts(rows.begin() + static_cast<std::ptrdiff_t>(p.relaxation().row_count()),
                            rows.end());
  EXPECT_EQ(cuts.size(), report.cuts_added);
  return cuts;
}

/// For every binary assignment feasible in `p` (feasibility decided by
/// an LP over the fixed binaries), the LP completion is a genuine
/// mixed-integer point: every generated cut must hold on it.
void expect_cuts_sound_by_enumeration(const milp::MilpProblem& p,
                                      const std::vector<lp::Row>& cuts, const char* label) {
  const std::vector<std::size_t>& bins = p.binary_variables();
  ASSERT_LE(bins.size(), 16u) << label;
  auto lp_backend = solver::make_lp_backend(LpBackendKind::kDenseTableau, {});
  lp_backend->load(p.relaxation());
  std::size_t feasible_points = 0;
  for (std::size_t mask = 0; mask < (std::size_t{1} << bins.size()); ++mask) {
    for (std::size_t c = 0; c < bins.size(); ++c) {
      const double v = (mask >> c) & 1u ? 1.0 : 0.0;
      lp_backend->set_bounds(bins[c], v, v);
    }
    const LpSolution sol = lp_backend->solve();
    if (sol.status != SolveStatus::kOptimal) continue;
    ++feasible_points;
    for (std::size_t k = 0; k < cuts.size(); ++k)
      EXPECT_TRUE(row_satisfied(cuts[k], sol.values, 1e-5))
          << label << ": cut " << k << " removes feasible point with mask " << mask
          << " (activity " << row_activity(cuts[k], sol.values) << " rhs " << cuts[k].rhs
          << ")";
  }
  // The pool must be non-trivial or the test proves nothing.
  EXPECT_GT(feasible_points, 0u) << label;
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
  for (const LpBackendKind backend :
       {LpBackendKind::kRevisedBounded, LpBackendKind::kDenseTableau}) {
    const std::vector<lp::Row> cuts = generate_root_cuts(p, backend);
    expect_cuts_sound_by_enumeration(p, cuts, solver::lp_backend_kind_name(backend));
  }
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
  for (const LpBackendKind backend :
       {LpBackendKind::kRevisedBounded, LpBackendKind::kDenseTableau}) {
    const std::vector<lp::Row> cuts = generate_root_cuts(enc.problem, backend);
    expect_cuts_sound_by_enumeration(enc.problem, cuts,
                                     solver::lp_backend_kind_name(backend));
  }
}

// ----------------------------------------------------- parity and gains

TEST(CutParity, VerdictsMatchCutsOnOffAcrossBackendsAndThreads) {
  for (const std::uint64_t seed : {5u, 6u, 7u, 8u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    // Mix of SAFE proofs (forcing threshold) and easy UNSAFE queries.
    const double threshold = seed % 2 == 0 ? forcing_threshold(net, in_n, rng) : -5.0;
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);

    verify::TailVerifierOptions base;
    base.milp.max_nodes = 20000;
    const verify::VerificationResult reference = verify::TailVerifier(base).verify(q);
    ASSERT_NE(reference.verdict, verify::Verdict::kUnknown) << "seed " << seed;

    for (const LpBackendKind backend :
         {LpBackendKind::kRevisedBounded, LpBackendKind::kDenseTableau}) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        for (const std::size_t rounds : {std::size_t{0}, std::size_t{5}}) {
          verify::TailVerifierOptions options = base;
          options.milp.backend = backend;
          options.milp.threads = threads;
          options.milp.cuts.root_rounds = rounds;
          const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
          EXPECT_EQ(r.verdict, reference.verdict)
              << "seed " << seed << " backend " << solver::lp_backend_kind_name(backend)
              << " threads " << threads << " rounds " << rounds;
          if (r.verdict == verify::Verdict::kUnsafe)
            EXPECT_TRUE(r.counterexample_validated) << "seed " << seed;
          if (rounds > 0)
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

    // Brute force: best objective over feasible binary assignments,
    // completing the continuous part with an LP.
    const std::vector<std::size_t>& bins = p.binary_variables();
    auto lp_backend = solver::make_lp_backend(LpBackendKind::kDenseTableau, {});
    lp_backend->load(p.relaxation());
    const bool maximize = p.relaxation().objective_direction() == Objective::kMaximize;
    bool any = false;
    double best = maximize ? -1e100 : 1e100;
    for (std::size_t mask = 0; mask < (std::size_t{1} << bins.size()); ++mask) {
      for (std::size_t c = 0; c < bins.size(); ++c) {
        const double v = (mask >> c) & 1u ? 1.0 : 0.0;
        lp_backend->set_bounds(bins[c], v, v);
      }
      const LpSolution sol = lp_backend->solve();
      if (sol.status != SolveStatus::kOptimal) continue;
      any = true;
      best = maximize ? std::max(best, sol.objective) : std::min(best, sol.objective);
    }

    milp::BranchAndBoundOptions options;
    options.cuts.root_rounds = 5;
    const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(p);
    if (!any) {
      EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, milp::MilpStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(r.objective, best, 1e-5) << "seed " << seed;
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
