// Run-control tests: token semantics (cancel / poll budget / deadline /
// parent chaining) and graceful deadline degradation at every layer —
// the simplex returns kDeadline, branch & bound stops with its
// post-mortem intact, the verifier degrades to an explained UNKNOWN, and
// the falsifier returns early as "not falsified". The honesty property
// under test everywhere: an expiring run may lose a verdict, it may
// never invent one.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/falsifier.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

// ---------------------------------------------------------------------
// Token semantics.

TEST(RunControlToken, CancelLatchesImmediately) {
  RunControl rc;
  EXPECT_FALSE(rc.expired());
  rc.cancel();
  EXPECT_TRUE(rc.expired());
  EXPECT_TRUE(rc.expired());  // latched, never reverts
}

TEST(RunControlToken, PollBudgetExpiresAfterExactlyNPolls) {
  RunControl rc;
  rc.set_poll_budget(3);
  EXPECT_FALSE(rc.expired());
  EXPECT_FALSE(rc.expired());
  EXPECT_FALSE(rc.expired());
  EXPECT_TRUE(rc.expired());  // 4th poll trips the budget
  EXPECT_TRUE(rc.expired());  // and it latches

  RunControl zero;
  zero.set_poll_budget(0);
  EXPECT_TRUE(zero.expired());  // zero budget: first poll expires
}

TEST(RunControlToken, DeadlineSemantics) {
  RunControl immediate;
  immediate.set_deadline_after(0.0);
  EXPECT_TRUE(immediate.expired());

  RunControl past;
  past.set_deadline_after(-5.0);
  EXPECT_TRUE(past.expired());

  RunControl future;
  future.set_deadline_after(3600.0);
  EXPECT_FALSE(future.expired());
}

TEST(RunControlToken, ParentChainPropagatesOneWay) {
  RunControl parent;
  RunControl child(&parent);
  EXPECT_FALSE(child.expired());
  parent.cancel();
  EXPECT_TRUE(child.expired());  // parent expiry reaches the child

  RunControl parent2;
  RunControl child2(&parent2);
  child2.cancel();
  EXPECT_TRUE(child2.expired());
  EXPECT_FALSE(parent2.expired());  // child expiry never leaks upward
}

TEST(RunControlToken, NullSafeHelper) {
  EXPECT_FALSE(run_expired(nullptr));
  RunControl rc;
  EXPECT_FALSE(run_expired(&rc));
  rc.cancel();
  EXPECT_TRUE(run_expired(&rc));
}

// ---------------------------------------------------------------------
// LP layer: the revised simplex polls on entry and every 64 pivots.

lp::LpProblem textbook_lp() {
  lp::LpProblem p;
  const std::size_t x = p.add_variable(0.0, 100.0, "x");
  const std::size_t y = p.add_variable(0.0, 100.0, "y");
  p.add_row({{x, 1.0}}, lp::RowSense::kLessEqual, 4.0);
  p.add_row({{y, 2.0}}, lp::RowSense::kLessEqual, 12.0);
  p.add_row({{x, 3.0}, {y, 2.0}}, lp::RowSense::kLessEqual, 18.0);
  p.set_objective({{x, 3.0}, {y, 5.0}}, lp::Objective::kMaximize);
  return p;
}

TEST(RunControlSimplex, ExpiredControlReturnsDeadlineStatus) {
  const lp::LpProblem p = textbook_lp();

  RunControl rc;
  rc.cancel();
  lp::SimplexOptions options;
  options.run_control = &rc;
  lp::RevisedSimplex solver(options);
  solver.load(p);
  const lp::LpSolution cut = solver.solve();
  EXPECT_EQ(cut.status, lp::SolveStatus::kDeadline);

  // The same problem without a control solves to optimality — the
  // deadline status is attributable to the token, nothing else.
  lp::RevisedSimplex clean;
  clean.load(p);
  EXPECT_EQ(clean.solve().status, lp::SolveStatus::kOptimal);
}

TEST(RunControlSimplex, GenerousBudgetDoesNotPerturbTheOptimum) {
  RunControl rc;
  rc.set_poll_budget(1000000);
  lp::SimplexOptions options;
  options.run_control = &rc;
  lp::RevisedSimplex solver(options);
  solver.load(textbook_lp());
  const lp::LpSolution s = solver.solve();
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 36.0, 1e-6);
}

// ---------------------------------------------------------------------
// MILP layer: branch & bound checks the token at every node pop.

milp::MilpProblem small_knapsack() {
  milp::MilpProblem p;
  const std::size_t a = p.add_variable(milp::VarType::kBinary, 0.0, 1.0, "a");
  const std::size_t b = p.add_variable(milp::VarType::kBinary, 0.0, 1.0, "b");
  const std::size_t c = p.add_variable(milp::VarType::kBinary, 0.0, 1.0, "c");
  p.add_row({{a, 3.0}, {b, 4.0}, {c, 2.0}}, lp::RowSense::kLessEqual, 6.0);
  p.set_objective({{a, 10.0}, {b, 13.0}, {c, 7.0}}, lp::Objective::kMaximize);
  return p;
}

TEST(RunControlMilp, ExpiredControlStopsWithoutAVerdict) {
  RunControl rc;
  rc.cancel();
  milp::BranchAndBoundOptions options;
  options.run_control = &rc;
  const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(small_knapsack());
  EXPECT_TRUE(r.deadline_expired);
  EXPECT_NE(r.status, milp::MilpStatus::kOptimal);
  EXPECT_NE(r.status, milp::MilpStatus::kInfeasible);
}

TEST(RunControlMilp, EveryPollBudgetIsHonest) {
  // Sweep expiry through the whole search: at every cut point the solver
  // either finished (then the answer must equal the unlimited optimum)
  // or reports deadline_expired — never a different "verdict".
  const milp::MilpProblem p = small_knapsack();
  const milp::MilpResult full = milp::BranchAndBoundSolver().solve(p);
  ASSERT_EQ(full.status, milp::MilpStatus::kOptimal);
  bool saw_expiry = false;
  bool saw_completion = false;
  for (std::uint64_t budget = 0; budget <= 4096; budget = budget == 0 ? 1 : budget * 2) {
    RunControl rc;
    rc.set_poll_budget(budget);
    milp::BranchAndBoundOptions options;
    options.run_control = &rc;
    const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(p);
    if (r.deadline_expired) {
      saw_expiry = true;
      EXPECT_NE(r.status, milp::MilpStatus::kOptimal) << "budget " << budget;
    } else {
      saw_completion = true;
      ASSERT_EQ(r.status, milp::MilpStatus::kOptimal) << "budget " << budget;
      EXPECT_NEAR(r.objective, full.objective, 1e-6) << "budget " << budget;
    }
  }
  EXPECT_TRUE(saw_expiry);      // tightest budgets must cut the search
  EXPECT_TRUE(saw_completion);  // loosest budgets must not
}

// ---------------------------------------------------------------------
// Verify layer: explained UNKNOWNs, never wrong verdicts.

/// dense(2->8) relu dense(8->1) tail over the full network (attach 0).
nn::Network small_net(unsigned seed) {
  Rng rng(seed);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 8);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{8}));
  auto d2 = std::make_unique<nn::Dense>(8, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

verify::VerificationQuery reachable_query(const nn::Network& net) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, -1.0, 1.0);
  q.risk.output_at_least(0, 1, 0.0);
  return q;
}

TEST(RunControlVerifier, PreExpiredControlDegradesToExplainedUnknown) {
  const nn::Network net = small_net(91);
  RunControl rc;
  rc.cancel();
  verify::TailVerifierOptions options;
  options.run_control = &rc;
  const verify::VerificationResult r =
      verify::TailVerifier(options).verify(reachable_query(net));
  EXPECT_EQ(r.verdict, verify::Verdict::kUnknown);
  EXPECT_TRUE(r.hit_deadline);
  EXPECT_FALSE(r.hit_node_limit);  // distinct resource reason
  EXPECT_NE(r.note.find("deadline expired"), std::string::npos) << r.note;
}

TEST(RunControlVerifier, TimeBudgetBuildsAChildDeadline) {
  const nn::Network net = small_net(91);
  verify::TailVerifierOptions options;
  options.time_budget_seconds = 1e-9;  // expires before any stage runs
  const verify::VerificationResult r =
      verify::TailVerifier(options).verify(reachable_query(net));
  EXPECT_EQ(r.verdict, verify::Verdict::kUnknown);
  EXPECT_TRUE(r.hit_deadline);
  EXPECT_NE(r.note.find("deadline expired"), std::string::npos) << r.note;

  // A generous budget must leave the verdict untouched.
  verify::TailVerifierOptions roomy;
  roomy.time_budget_seconds = 3600.0;
  const verify::VerificationResult full =
      verify::TailVerifier(roomy).verify(reachable_query(net));
  EXPECT_FALSE(full.hit_deadline);
  EXPECT_NE(full.verdict, verify::Verdict::kUnknown);
}

TEST(RunControlVerifier, EveryPollBudgetIsHonest) {
  // The deadline can land between any two polls of the whole pipeline
  // (falsify starts, encode, B&B pops, simplex pivots). Wherever it
  // lands, the result is either the unlimited verdict or an explained
  // deadline UNKNOWN — never a flipped verdict.
  const nn::Network net = small_net(92);
  const verify::VerificationQuery q = reachable_query(net);
  const verify::VerificationResult full = verify::TailVerifier().verify(q);
  ASSERT_NE(full.verdict, verify::Verdict::kUnknown);
  bool saw_expiry = false;
  for (std::uint64_t budget = 0; budget <= 65536; budget = budget == 0 ? 1 : budget * 4) {
    RunControl rc;
    rc.set_poll_budget(budget);
    verify::TailVerifierOptions options;
    options.run_control = &rc;
    const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
    if (r.hit_deadline) {
      saw_expiry = true;
      EXPECT_EQ(r.verdict, verify::Verdict::kUnknown) << "budget " << budget;
      EXPECT_NE(r.note.find("deadline expired"), std::string::npos) << "budget " << budget;
    } else {
      EXPECT_EQ(r.verdict, full.verdict) << "budget " << budget;
    }
  }
  EXPECT_TRUE(saw_expiry);
}

TEST(RunControlFalsifier, ExpiredControlReturnsNotFalsified) {
  // Early-out is sound for an attack: "not falsified" just forwards the
  // query to the next stage, which is itself deadline-checked.
  const nn::Network net = small_net(93);
  verify::VerificationQuery q = reachable_query(net);
  verify::FalsifyOptions options;
  options.enabled = true;
  RunControl rc;
  rc.cancel();
  options.run_control = &rc;
  const verify::FalsifyReport r = verify::falsify_query(q, options);
  EXPECT_FALSE(r.falsified);
  EXPECT_EQ(r.starts, 0u);
}

}  // namespace
}  // namespace dpv
