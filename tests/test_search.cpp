// Search-layer tests: node-store ordering, pseudocost bookkeeping
// against hand-computed degradations, verifier verdict parity across
// cuts, run-to-run determinism of node-limited searches (and a pinned
// node count and peak), and best-bound gap reporting on node-limit
// stops. The random-MILP parity against brute force lives in
// tests/test_milp.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/search/branching_rule.hpp"
#include "milp/search/node_store.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/verifier.hpp"

namespace dpv::milp {
namespace {

constexpr double kTol = 1e-5;

search::SearchNode make_node(std::uint64_t id, double bound) {
  search::SearchNode node;
  node.id = id;
  node.bound = bound;
  node.has_bound = true;
  return node;
}

// ------------------------------------------------------------ stores

/// Pushes `count` filler nodes (ids from `first_id`, bound 50) on top
/// of whatever the store holds and pops them again: exactly one
/// plunge's worth of LIFO pops, so the next pop spills the dive stack
/// into the heap.
void plunge_through_fillers(search::NodeStore& store, std::uint64_t first_id) {
  constexpr std::size_t kPlunge = 8;
  for (std::uint64_t k = 0; k < kPlunge; ++k) store.push(make_node(first_id + k, 50.0));
  search::SearchNode node;
  for (std::uint64_t k = kPlunge; k-- > 0;) {
    ASSERT_TRUE(store.pop(node));
    ASSERT_EQ(node.id, first_id + k);  // LIFO: newest first
  }
}

TEST(NodeStore, PlungesEightPopsThenResumesFromBestBound) {
  search::NodeStore store(/*minimize=*/true);
  store.push(make_node(0, 1.0));  // best bound, but oldest
  store.push(make_node(1, 9.0));
  plunge_through_fillers(store, 10);

  search::SearchNode node;
  ASSERT_TRUE(store.pop(node));
  EXPECT_EQ(node.id, 0u);  // plunge exhausted: best bound (1 < 9), not LIFO
  // A fresh child starts a new plunge even though the heap holds a
  // better bound.
  store.push(make_node(2, 100.0));
  ASSERT_TRUE(store.pop(node));
  EXPECT_EQ(node.id, 2u);
  ASSERT_TRUE(store.pop(node));
  EXPECT_EQ(node.id, 1u);  // dive ran dry: back to the heap
  EXPECT_FALSE(store.pop(node));
  EXPECT_TRUE(store.empty());
}

TEST(NodeStore, HeapPopsBoundOrderWithStableIdTieBreak) {
  search::NodeStore store(/*minimize=*/true);
  store.push(make_node(0, 7.0));
  store.push(make_node(1, 2.0));
  store.push(make_node(2, 2.0));  // same bound as id 1: id order decides
  store.push(make_node(3, 5.0));
  search::SearchNode root;  // no bound yet: ranks as most promising
  root.id = 4;
  store.push(root);
  plunge_through_fillers(store, 10);

  search::SearchNode node;
  for (const std::uint64_t expected : {4u, 1u, 2u, 3u, 0u}) {
    ASSERT_TRUE(store.pop(node));
    EXPECT_EQ(node.id, expected);
  }
  EXPECT_FALSE(store.pop(node));

  // Maximize orientation flips the order.
  search::NodeStore max_store(/*minimize=*/false);
  max_store.push(make_node(0, 1.0));
  max_store.push(make_node(1, 9.0));
  max_store.push(make_node(2, 5.0));
  plunge_through_fillers(max_store, 10);
  for (const std::uint64_t expected : {1u, 2u, 0u}) {
    ASSERT_TRUE(max_store.pop(node));
    EXPECT_EQ(node.id, expected);
  }
}

TEST(NodeStore, BestBoundCoversDiveAndHeap) {
  search::NodeStore store(/*minimize=*/true);
  double bound = 0.0;
  EXPECT_FALSE(store.best_bound(bound));
  search::SearchNode root;  // unbounded nodes carry no bound to report
  store.push(root);
  EXPECT_FALSE(store.best_bound(bound));

  store.push(make_node(1, 4.0));
  store.push(make_node(2, 6.0));
  plunge_through_fillers(store, 10);
  search::SearchNode node;
  ASSERT_TRUE(store.pop(node));  // spill; the unbounded root pops first
  EXPECT_EQ(node.id, 0u);
  store.push(make_node(3, 3.0));  // dive stack
  ASSERT_TRUE(store.best_bound(bound));
  EXPECT_DOUBLE_EQ(bound, 3.0);  // from the dive stack
  ASSERT_TRUE(store.pop(node));
  EXPECT_EQ(node.id, 3u);
  ASSERT_TRUE(store.best_bound(bound));
  EXPECT_DOUBLE_EQ(bound, 4.0);  // from the heap

  search::NodeStore max_store(/*minimize=*/false);
  max_store.push(make_node(0, 4.0));
  max_store.push(make_node(1, 6.0));
  ASSERT_TRUE(max_store.best_bound(bound));
  EXPECT_DOUBLE_EQ(bound, 6.0);
}

// -------------------------------------------------------- pseudocosts

TEST(PseudocostTable, BookkeepingMatchesHandComputedValues) {
  search::PseudocostTable table(3);
  EXPECT_EQ(table.stats(1, true).observations(), 0u);
  EXPECT_DOUBLE_EQ(table.stats(1, true).average_gain(), 0.0);
  EXPECT_DOUBLE_EQ(table.global_average_gain(), 0.0);

  table.record(1, true, 2.0);
  table.record(1, true, 4.0);
  table.record_infeasible(1, true);
  table.record(1, false, 1.0);
  table.record_infeasible(2, false);

  EXPECT_EQ(table.stats(1, true).observations(), 3u);
  EXPECT_DOUBLE_EQ(table.stats(1, true).average_gain(), 3.0);  // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(table.stats(1, true).infeasible_rate(), 1.0 / 3.0);
  EXPECT_EQ(table.stats(1, false).observations(), 1u);
  EXPECT_DOUBLE_EQ(table.stats(1, false).average_gain(), 1.0);
  EXPECT_DOUBLE_EQ(table.stats(1, false).infeasible_rate(), 0.0);
  EXPECT_EQ(table.stats(2, false).observations(), 1u);
  EXPECT_DOUBLE_EQ(table.stats(2, false).infeasible_rate(), 1.0);
  // Global mean over the 3 solved observations: (2 + 4 + 1) / 3.
  EXPECT_DOUBLE_EQ(table.global_average_gain(), 7.0 / 3.0);
}

TEST(PseudocostRule, ReliabilityProbesRecordHandComputedDegradations) {
  // max b0 + b1 s.t. 2 b0 + 2 b1 <= 3: the revised simplex lands on the
  // vertex b0 = 0.5, b1 = 1 (objective 1.5, total fractionality 0.5),
  // so b0 is the only fractional candidate.
  //   fix b0 = 0: LP -> b1 = 1, objective 1.0.
  //     degradation 0.5, fractionality drop 0.5, distance 0.5
  //     => gain (0.5 + 0.5) / 0.5 = 2.
  //   fix b0 = 1: LP -> b1 = 0.5, objective 1.5.
  //     degradation 0, drop 0, distance 0.5 => gain 0.
  MilpProblem p;
  const std::size_t b0 = p.add_variable(VarType::kBinary, 0.0, 1.0, "b0");
  const std::size_t b1 = p.add_variable(VarType::kBinary, 0.0, 1.0, "b1");
  p.add_row({{b0, 2.0}, {b1, 2.0}}, lp::RowSense::kLessEqual, 3.0);
  p.set_objective({{b0, 1.0}, {b1, 1.0}}, lp::Objective::kMaximize);

  lp::RevisedSimplex simplex;
  simplex.load(p.relaxation());
  const lp::LpSolution lp = simplex.solve();
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  ASSERT_NEAR(lp.values[b0], 0.5, kTol);
  ASSERT_NEAR(lp.values[b1], 1.0, kTol);

  search::PseudocostTable table(p.variable_count());
  search::BranchContext ctx;
  ctx.problem = &p;
  ctx.simplex = &simplex;
  ctx.lp = &lp;
  ctx.minimize = false;
  ctx.pseudocosts = &table;
  EXPECT_EQ(search::decide_branch(ctx).var, b0);

  EXPECT_EQ(table.stats(b0, false).observations(), 1u);
  EXPECT_EQ(table.stats(b0, true).observations(), 1u);
  EXPECT_NEAR(table.stats(b0, false).average_gain(), 2.0, kTol);
  EXPECT_NEAR(table.stats(b0, true).average_gain(), 0.0, kTol);
  EXPECT_DOUBLE_EQ(table.stats(b0, false).infeasible_rate(), 0.0);
  EXPECT_DOUBLE_EQ(table.stats(b0, true).infeasible_rate(), 0.0);
  // b1 was integral at the node: never probed.
  EXPECT_EQ(table.stats(b1, false).observations(), 0u);
  EXPECT_EQ(table.stats(b1, true).observations(), 0u);
}

TEST(PseudocostRule, InfeasibleProbeChildrenAreRecorded) {
  // max b0 s.t. b0 + b1 = 0.5: LP optimum b0 = 0.5, b1 = 0.
  //   fix b0 = 0: LP -> b1 = 0.5, objective 0. degradation 0.5, drop 0,
  //     distance 0.5 => gain 1.
  //   fix b0 = 1: infeasible.
  MilpProblem p;
  const std::size_t b0 = p.add_variable(VarType::kBinary, 0.0, 1.0, "b0");
  const std::size_t b1 = p.add_variable(VarType::kBinary, 0.0, 1.0, "b1");
  p.add_row({{b0, 1.0}, {b1, 1.0}}, lp::RowSense::kEqual, 0.5);
  p.set_objective({{b0, 1.0}}, lp::Objective::kMaximize);

  lp::RevisedSimplex simplex;
  simplex.load(p.relaxation());
  const lp::LpSolution lp = simplex.solve();
  ASSERT_EQ(lp.status, lp::SolveStatus::kOptimal);
  ASSERT_NEAR(lp.values[b0], 0.5, kTol);

  search::PseudocostTable table(p.variable_count());
  search::BranchContext ctx;
  ctx.problem = &p;
  ctx.simplex = &simplex;
  ctx.lp = &lp;
  ctx.minimize = false;
  ctx.pseudocosts = &table;
  const search::BranchDecision decision = search::decide_branch(ctx);
  EXPECT_EQ(decision.var, b0);
  // The probe was the children's solve: the search must neither push
  // the infeasible child nor record either outcome again.
  EXPECT_TRUE(decision.up_infeasible);
  EXPECT_FALSE(decision.down_infeasible);
  EXPECT_TRUE(decision.down_recorded);
  EXPECT_TRUE(decision.up_recorded);
  ASSERT_TRUE(decision.have_down_bound);
  EXPECT_NEAR(decision.down_bound, 0.0, kTol);

  EXPECT_NEAR(table.stats(b0, false).average_gain(), 1.0, kTol);
  EXPECT_DOUBLE_EQ(table.stats(b0, true).infeasible_rate(), 1.0);
  EXPECT_EQ(table.stats(b0, true).observations(), 1u);
}

// -------------------------------------------------- verdict parity

/// The verifier's shape: a small ReLU tail with a proof-forcing
/// threshold, identical verdicts with and without root cuts.
TEST(SearchParity, VerifierVerdictsAgreeAcrossCuts) {
  Rng rng(77);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(5, 8);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{8}));
  auto d2 = std::make_unique<nn::Dense>(8, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  double sampled_max = -1e100;
  for (int i = 0; i < 200; ++i) {
    Tensor x(Shape{5});
    for (std::size_t j = 0; j < 5; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }

  for (const double threshold : {sampled_max + 2.0, sampled_max - 3.0}) {
    verify::VerificationQuery q;
    q.network = &net;
    q.attach_layer = 0;
    q.input_box = absint::uniform_box(5, -1.0, 1.0);
    q.risk.output_at_least(0, 2, threshold);

    bool have_reference = false;
    verify::Verdict reference = verify::Verdict::kUnknown;
    for (const std::size_t cut_rounds : {0u, 2u}) {
      verify::TailVerifierOptions options;
      options.milp.cuts.root_rounds = cut_rounds;
      const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
      if (!have_reference) {
        reference = r.verdict;
        have_reference = true;
      }
      EXPECT_EQ(r.verdict, reference) << "cuts" << cut_rounds << " threshold " << threshold;
      if (r.verdict == verify::Verdict::kUnsafe) {
        EXPECT_TRUE(r.counterexample_validated);
      }
    }
  }
}

// ------------------------------------------------------- determinism

/// An integrally infeasible parity row (ten binaries summing to 5.5)
/// under a weighted objective: every node's relaxation sits on the row,
/// so no incumbent ever appears and a node-limited search stops with a
/// frontier point, a best open bound and a gap against its target.
MilpProblem weighted_parity_gadget() {
  MilpProblem p;
  std::vector<lp::LinearTerm> parity, obj;
  for (int i = 0; i < 10; ++i) {
    const std::size_t b = p.add_variable(VarType::kBinary, 0.0, 1.0);
    parity.push_back({b, 1.0});
    obj.push_back({b, 1.0 + (i * 3) % 5});  // small integers: exact LP arithmetic
  }
  p.add_row(parity, lp::RowSense::kEqual, 5.5);
  p.set_objective(obj, lp::Objective::kMaximize);
  return p;
}

TEST(SearchDeterminism, NodeLimitedMilpRepeatsBitForBit) {
  const MilpProblem p = weighted_parity_gadget();
  BranchAndBoundOptions options;
  options.max_nodes = 9;
  options.bound_target = 5.0;
  const MilpResult a = BranchAndBoundSolver(options).solve(p);
  const MilpResult b = BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(a.status, MilpStatus::kNodeLimit);
  ASSERT_TRUE(a.have_best_bound);
  ASSERT_TRUE(a.have_frontier_point);
  EXPECT_EQ(b.status, a.status);
  EXPECT_EQ(b.nodes_explored, a.nodes_explored);
  EXPECT_EQ(b.lp_iterations, a.lp_iterations);
  EXPECT_EQ(b.have_best_bound, a.have_best_bound);
  EXPECT_EQ(b.best_bound, a.best_bound);  // bit for bit, not within a tolerance
  EXPECT_EQ(b.best_bound_gap, a.best_bound_gap);
  EXPECT_EQ(b.have_frontier_point, a.have_frontier_point);
  EXPECT_EQ(b.frontier_values, a.frontier_values);
  EXPECT_EQ(b.solver_stats.peak_open_nodes, a.solver_stats.peak_open_nodes);
}

TEST(SearchDeterminism, NodeLimitedVerifierQueryRepeatsBitForBit) {
  Rng rng(1002);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(7, 7);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{7}));
  auto d2 = std::make_unique<nn::Dense>(7, 2);
  d2->init_he(rng);
  net.add(std::move(d2));
  double sampled_max = -1e100;
  for (int i = 0; i < 200; ++i) {
    Tensor x(Shape{7});
    for (std::size_t j = 0; j < 7; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(7, -1.0, 1.0);
  q.risk.output_at_least(0, 2, sampled_max + 0.5);
  verify::TailVerifierOptions options;
  options.milp.max_nodes = 3;
  const verify::VerificationResult a = verify::TailVerifier(options).verify(q);
  const verify::VerificationResult b = verify::TailVerifier(options).verify(q);
  ASSERT_EQ(a.verdict, verify::Verdict::kUnknown);
  ASSERT_TRUE(a.hit_node_limit);
  ASSERT_TRUE(a.have_best_bound_gap);
  ASSERT_TRUE(a.have_frontier_activation);
  EXPECT_EQ(b.verdict, a.verdict);
  EXPECT_EQ(b.milp_nodes, a.milp_nodes);
  EXPECT_EQ(b.lp_iterations, a.lp_iterations);
  EXPECT_EQ(b.best_bound_gap, a.best_bound_gap);
  ASSERT_EQ(b.frontier_activation.numel(), a.frontier_activation.numel());
  for (std::size_t i = 0; i < a.frontier_activation.numel(); ++i) {
    EXPECT_EQ(b.frontier_activation[i], a.frontier_activation[i]) << "activation " << i;
  }
  EXPECT_EQ(b.solver_stats.peak_open_nodes, a.solver_stats.peak_open_nodes);
  EXPECT_EQ(b.summary().substr(0, b.summary().find(", encode=")),
            a.summary().substr(0, a.summary().find(", encode=")));
}

TEST(SearchDeterminism, FullSearchNodeCountAndPeakArePinned) {
  // A change to node order, branching or open-node accounting moves
  // these. They hold in every build: the gadget's LP arithmetic is
  // exact, and a -O0 build without the SIMD bodies prints the same.
  const MilpResult r = BranchAndBoundSolver().solve(weighted_parity_gadget());
  ASSERT_EQ(r.status, MilpStatus::kInfeasible);
  EXPECT_EQ(r.nodes_explored, 461u);
  EXPECT_EQ(r.solver_stats.peak_open_nodes, 48u);
}

// ------------------------------------------------------ gap reporting

TEST(GapReporting, NodeLimitReportsBestBoundAndGap) {
  // Wide knapsack stopped mid-search: the result must carry the best
  // surviving bound and the gap to the incumbent.
  Rng rng(5);
  MilpProblem p;
  std::vector<lp::LinearTerm> weight_row, obj;
  for (int i = 0; i < 12; ++i) {
    const std::size_t b = p.add_variable(VarType::kBinary, 0.0, 1.0);
    weight_row.push_back({b, rng.uniform(1.0, 3.0)});
    obj.push_back({b, rng.uniform(1.0, 4.0)});
  }
  p.add_row(weight_row, lp::RowSense::kLessEqual, 6.0);
  p.set_objective(obj, lp::Objective::kMaximize);

  BranchAndBoundOptions options;
  options.max_nodes = 8;
  const MilpResult r = BranchAndBoundSolver(options).solve(p);
  ASSERT_TRUE(r.status == MilpStatus::kFeasible || r.status == MilpStatus::kNodeLimit);
  ASSERT_TRUE(r.have_best_bound);
  if (r.status == MilpStatus::kFeasible) {
    // Maximize: the surviving relaxation bound dominates the incumbent.
    EXPECT_GE(r.best_bound, r.objective - kTol);
    EXPECT_NEAR(r.best_bound_gap, std::abs(r.best_bound - r.objective), kTol);
    EXPECT_NEAR(r.solver_stats.best_bound_gap, r.best_bound_gap, kTol);
  }

  // The full search closes the gap entirely.
  BranchAndBoundOptions full;
  const MilpResult exact = BranchAndBoundSolver(full).solve(p);
  ASSERT_EQ(exact.status, MilpStatus::kOptimal);
  EXPECT_FALSE(exact.have_best_bound);
  EXPECT_DOUBLE_EQ(exact.best_bound_gap, 0.0);
  // The reported bound was sound: no integral point beats it.
  if (r.have_best_bound) {
    EXPECT_LE(exact.objective, r.best_bound + kTol);
  }
}

TEST(GapReporting, BoundTargetServesIncumbentFreeSearches) {
  // Integrally infeasible parity gadget with an objective: stop early
  // and the gap must be measured against the caller's bound target.
  MilpProblem p;
  std::vector<lp::LinearTerm> parity;
  std::vector<lp::LinearTerm> obj;
  for (int i = 0; i < 10; ++i) {
    const std::size_t b = p.add_variable(VarType::kBinary, 0.0, 1.0);
    parity.push_back({b, 1.0});
    obj.push_back({b, 1.0});
  }
  p.add_row(parity, lp::RowSense::kEqual, 5.5);
  p.set_objective(obj, lp::Objective::kMaximize);

  BranchAndBoundOptions options;
  options.max_nodes = 3;
  options.bound_target = 5.0;
  const MilpResult r = BranchAndBoundSolver(options).solve(p);
  ASSERT_EQ(r.status, MilpStatus::kNodeLimit);
  ASSERT_TRUE(r.have_best_bound);
  EXPECT_NEAR(r.best_bound, 5.5, kTol);  // every open relaxation sits on the row
  EXPECT_NEAR(r.best_bound_gap, 0.5, kTol);
  EXPECT_NEAR(r.solver_stats.best_bound_gap, 0.5, kTol);
}

TEST(GapReporting, VerifierNodeLimitUnknownCarriesMarginGap) {
  Rng rng(91);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(6, 10);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{10}));
  auto d2 = std::make_unique<nn::Dense>(10, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  double sampled_max = -1e100;
  for (int i = 0; i < 200; ++i) {
    Tensor x(Shape{6});
    for (std::size_t j = 0; j < 6; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(6, -1.0, 1.0);
  q.risk.output_at_least(0, 2, sampled_max + 1.0);  // forces a branching proof

  verify::TailVerifierOptions options;
  options.milp.max_nodes = 2;  // starve the proof
  const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
  if (r.verdict == verify::Verdict::kUnknown) {
    EXPECT_TRUE(r.hit_node_limit);
    ASSERT_TRUE(r.have_best_bound_gap);
    EXPECT_GE(r.best_bound_gap, 0.0);
    EXPECT_NE(r.note.find("best-bound gap"), std::string::npos) << r.note;
    EXPECT_NE(r.summary().find("gap="), std::string::npos) << r.summary();
  } else {
    // The tightened search occasionally proves these outright; the
    // verdict itself is then the (stronger) regression signal.
    EXPECT_EQ(r.verdict, verify::Verdict::kSafe);
  }
}

}  // namespace
}  // namespace dpv::milp
