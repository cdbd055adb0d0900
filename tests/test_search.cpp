// Search-layer tests: node-store ordering and steal semantics,
// work-stealing frontier stress (every node processed exactly once),
// pseudocost bookkeeping against hand-computed degradations, verifier
// verdict parity across threads and cuts, and best-bound gap reporting
// on node-limit stops. The random-MILP parity against brute force lives
// in tests/test_milp.cpp.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <thread>
#include <vector>

#include "common/rng.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/search/branching_rule.hpp"
#include "milp/search/frontier.hpp"
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

TEST(NodeStore, StealsBestHeapHalfElseOldestDiveHalf) {
  // Dive stack only: thieves take the oldest half, the owner keeps the
  // newest (its dive).
  search::NodeStore dive(/*minimize=*/true);
  for (std::uint64_t id = 0; id < 5; ++id) dive.push(make_node(id, 0.0));
  std::vector<search::SearchNode> loot;
  EXPECT_EQ(dive.steal_half(loot), 3u);  // ceil(5/2) oldest entries
  ASSERT_EQ(loot.size(), 3u);
  EXPECT_EQ(loot[0].id, 0u);
  EXPECT_EQ(loot[1].id, 1u);
  EXPECT_EQ(loot[2].id, 2u);
  search::SearchNode node;
  ASSERT_TRUE(dive.pop(node));
  EXPECT_EQ(node.id, 4u);
  ASSERT_TRUE(dive.pop(node));
  EXPECT_EQ(node.id, 3u);
  EXPECT_FALSE(dive.pop(node));

  // Heap non-empty: thieves take its best half and leave the dive alone.
  search::NodeStore store(/*minimize=*/true);
  for (std::uint64_t id = 0; id < 4; ++id) store.push(make_node(id, static_cast<double>(id)));
  plunge_through_fillers(store, 10);
  ASSERT_TRUE(store.pop(node));  // spills ids 0..3, pops the best
  EXPECT_EQ(node.id, 0u);
  store.push(make_node(20, 0.5));
  store.push(make_node(21, 0.5));
  loot.clear();
  EXPECT_EQ(store.steal_half(loot), 2u);  // ceil(3/2) of the heap
  ASSERT_EQ(loot.size(), 2u);
  EXPECT_EQ(loot[0].id, 1u);  // best bounds leave first
  EXPECT_EQ(loot[1].id, 2u);
  EXPECT_EQ(store.size(), 3u);
  loot.clear();
  EXPECT_EQ(store.steal_half(loot), 1u);
  EXPECT_EQ(loot[0].id, 3u);
  loot.clear();
  EXPECT_EQ(store.steal_half(loot), 1u);  // heap empty: oldest dive entry
  EXPECT_EQ(loot[0].id, 20u);
  EXPECT_EQ(store.size(), 1u);
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

// ---------------------------------------------------------- frontier

/// Wide synthetic tree driven straight through the frontier: every
/// worker expands nodes into `kFanout` children down to `kDepth`, and
/// each processed id is recorded. The invariant under test is the
/// scheduler's: every pushed node is processed exactly once, across
/// owners and thieves alike.
TEST(WorkStealingFrontier, WideTreeProcessesEveryNodeExactlyOnce) {
  constexpr std::size_t kWorkers = 4;
  constexpr std::size_t kFanout = 3;
  constexpr std::size_t kDepth = 7;  // (3^8 - 1) / 2 = 3280 nodes
  std::size_t expected = 0, layer = 1;
  for (std::size_t d = 0; d <= kDepth; ++d, layer *= kFanout) expected += layer;

  search::ParallelFrontier frontier(kWorkers, /*minimize=*/true);
  std::atomic<std::uint64_t> next_id{1};
  search::SearchNode root;  // id 0, depth encoded in `bound`
  root.bound = 0.0;
  root.has_bound = true;
  frontier.push(0, root);

  std::vector<std::vector<std::uint64_t>> seen(kWorkers);
  const auto work = [&](std::size_t w) {
    search::SearchNode node;
    while (frontier.acquire(w, node) == search::ParallelFrontier::Acquire::kGot) {
      seen[w].push_back(node.id);
      const auto depth = static_cast<std::size_t>(node.bound);
      if (depth < kDepth) {
        for (std::size_t c = 0; c < kFanout; ++c) {
          search::SearchNode child;
          child.id = next_id.fetch_add(1);
          child.bound = static_cast<double>(depth + 1);
          child.has_bound = true;
          frontier.push(w, child);
        }
      }
      frontier.complete();
    }
  };
  std::vector<std::thread> pool;
  for (std::size_t w = 0; w < kWorkers; ++w) pool.emplace_back(work, w);
  for (std::thread& t : pool) t.join();

  std::vector<std::uint64_t> all;
  bool others_worked = false;
  for (std::size_t w = 0; w < kWorkers; ++w) {
    all.insert(all.end(), seen[w].begin(), seen[w].end());
    if (w > 0 && !seen[w].empty()) others_worked = true;
  }
  ASSERT_EQ(all.size(), expected);
  std::sort(all.begin(), all.end());
  for (std::uint64_t id = 0; id < expected; ++id)
    ASSERT_EQ(all[id], id) << "duplicate or lost node";
  // Only worker 0 holds the root: anything processed elsewhere must
  // have been stolen.
  if (others_worked) {
    EXPECT_GT(frontier.nodes_stolen(), 0u);
  }
  EXPECT_EQ(frontier.open_count(), 0u);
  EXPECT_GE(frontier.peak_open(), kFanout);
}

// -------------------------------------------------------- pseudocosts

TEST(PseudocostTable, BookkeepingMatchesHandComputedValues) {
  search::PseudocostTable table(3);
  EXPECT_EQ(table.observations(1, true), 0u);
  EXPECT_DOUBLE_EQ(table.average_gain(1, true), 0.0);
  EXPECT_DOUBLE_EQ(table.global_average_gain(), 0.0);

  table.record(1, true, 2.0);
  table.record(1, true, 4.0);
  table.record_infeasible(1, true);
  table.record(1, false, 1.0);
  table.record_infeasible(2, false);

  EXPECT_EQ(table.observations(1, true), 3u);
  EXPECT_DOUBLE_EQ(table.average_gain(1, true), 3.0);     // (2 + 4) / 2
  EXPECT_DOUBLE_EQ(table.infeasible_rate(1, true), 1.0 / 3.0);
  EXPECT_EQ(table.observations(1, false), 1u);
  EXPECT_DOUBLE_EQ(table.average_gain(1, false), 1.0);
  EXPECT_DOUBLE_EQ(table.infeasible_rate(1, false), 0.0);
  EXPECT_EQ(table.observations(2, false), 1u);
  EXPECT_DOUBLE_EQ(table.infeasible_rate(2, false), 1.0);
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

  EXPECT_EQ(table.observations(b0, false), 1u);
  EXPECT_EQ(table.observations(b0, true), 1u);
  EXPECT_NEAR(table.average_gain(b0, false), 2.0, kTol);
  EXPECT_NEAR(table.average_gain(b0, true), 0.0, kTol);
  EXPECT_DOUBLE_EQ(table.infeasible_rate(b0, false), 0.0);
  EXPECT_DOUBLE_EQ(table.infeasible_rate(b0, true), 0.0);
  // b1 was integral at the node: never probed.
  EXPECT_EQ(table.observations(b1, false), 0u);
  EXPECT_EQ(table.observations(b1, true), 0u);
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

  EXPECT_NEAR(table.average_gain(b0, false), 1.0, kTol);
  EXPECT_DOUBLE_EQ(table.infeasible_rate(b0, true), 1.0);
  EXPECT_EQ(table.observations(b0, true), 1u);
}

// -------------------------------------------------- verdict parity

/// The verifier's shape: a small ReLU tail with a proof-forcing
/// threshold, identical verdicts serial and threaded, with and without
/// root cuts.
TEST(SearchParity, VerifierVerdictsAgreeAcrossThreadsAndCuts) {
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
    for (const std::size_t threads : {1u, 4u}) {
      for (const std::size_t cut_rounds : {0u, 2u}) {
        verify::TailVerifierOptions options;
        options.milp.threads = threads;
        options.milp.cuts.root_rounds = cut_rounds;
        const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
        if (!have_reference) {
          reference = r.verdict;
          have_reference = true;
        }
        EXPECT_EQ(r.verdict, reference)
            << "t" << threads << "/cuts" << cut_rounds << " threshold " << threshold;
        if (r.verdict == verify::Verdict::kUnsafe) {
          EXPECT_TRUE(r.counterexample_validated);
        }
      }
    }
  }
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
  if (r.have_best_bound) EXPECT_LE(exact.objective, r.best_bound + kTol);
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
