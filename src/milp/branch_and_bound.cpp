#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>

#include "common/check.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "milp/search/branching_rule.hpp"
#include "milp/search/frontier.hpp"

namespace dpv::milp {

namespace {

using search::SearchNode;

/// Search state shared by the worker pool beside the frontier: the
/// incumbent and termination flags live under `mutex`; counters that
/// only need atomicity do not.
struct SharedSearch {
  std::mutex mutex;
  bool have_incumbent = false;
  double incumbent_objective = 0.0;
  std::vector<double> incumbent_values;
  bool found_first_feasible = false;
  bool node_budget_exhausted = false;
  bool lp_iteration_limit_hit = false;
  bool deadline_expired = false;
  /// Best fractional relaxation point expanded so far (frontier seed for
  /// counterexample recycling on node-limit stops). Guarded by `mutex`.
  bool have_frontier_point = false;
  double frontier_objective = 0.0;
  std::vector<double> frontier_values;
  std::exception_ptr error;

  std::atomic<std::size_t> nodes_explored{0};
  /// Stable node ids: all node-store tie-breaking orders on them.
  std::atomic<std::uint64_t> next_node_id{1};
};

class Worker {
 public:
  Worker(std::size_t index, const MilpProblem& problem,
         const BranchAndBoundOptions& options, SharedSearch& shared,
         search::ParallelFrontier& frontier, search::PseudocostTable& pseudocosts)
      : index_(index), problem_(problem), options_(options), shared_(shared),
        frontier_(frontier), pseudocosts_(pseudocosts), simplex_(options.lp_options) {
    simplex_.load(problem.relaxation());
  }

  void run() {
    try {
      loop();
    } catch (...) {
      {
        std::lock_guard<std::mutex> lock(shared_.mutex);
        if (!shared_.error) shared_.error = std::current_exception();
      }
      frontier_.request_stop();
    }
  }

  solver::SolverStats stats() const {
    solver::SolverStats stats = solver::simplex_stats(simplex_);
    stats.sibling_batches = sibling_batches_;
    stats.root_warm_starts = root_warm_starts_;
    return stats;
  }

 private:
  bool better(double a, double b) const {
    const bool minimize =
        problem_.relaxation().objective_direction() == lp::Objective::kMinimize;
    return minimize ? a < b : a > b;
  }

  void loop() {
    while (true) {
      SearchNode node;
      if (frontier_.acquire(index_, node) != search::ParallelFrontier::Acquire::kGot)
        return;

      // ---- Cooperative deadline ------------------------------------
      // Checked at the pop — a safe point: the node goes back to the
      // frontier unexplored, so the node-budget post-mortem (best open
      // bound, gap, frontier seed) explains the partial result exactly
      // as it would a budget stop.
      if (run_expired(options_.run_control)) {
        {
          std::lock_guard<std::mutex> lock(shared_.mutex);
          shared_.deadline_expired = true;
          shared_.node_budget_exhausted = true;
        }
        frontier_.abandon(index_, std::move(node));
        frontier_.request_stop();
        return;
      }

      // ---- Node budget ---------------------------------------------
      if (shared_.nodes_explored.fetch_add(1) >= options_.max_nodes) {
        shared_.nodes_explored.fetch_sub(1);
        {
          std::lock_guard<std::mutex> lock(shared_.mutex);
          shared_.node_budget_exhausted = true;
        }
        frontier_.abandon(index_, std::move(node));
        frontier_.request_stop();
        return;
      }

      // ---- Pop-time pruning -----------------------------------------
      bool retired = false;
      {
        std::lock_guard<std::mutex> lock(shared_.mutex);
        retired = node.has_bound && shared_.have_incumbent &&
                  !better(node.bound, shared_.incumbent_objective);
      }
      if (retired) {
        // A later incumbent retired this queued subtree; no LP work.
        frontier_.complete();
        continue;
      }

      // ---- LP solve outside any lock -------------------------------
      apply_fixings(node);
      // A node presolved by its parent's sibling batch carries its own
      // relaxation solution: the pop skips the LP entirely. The fixings
      // above still land on the simplex, so reliability probes and this
      // node's own sibling batch solve against the right box.
      const lp::LpSolution lp = node.presolved ? node.presolved->solution
                                : node.parent_basis
                                    ? simplex_.resolve(*node.parent_basis)
                                    : simplex_.solve();
      if (node.branch_var == search::kNoBranchVariable && node.parent_basis &&
          simplex_.last_resolve_was_warm())
        ++root_warm_starts_;

      // Feed the pseudocost table with this child's actual outcome —
      // degradation statistics learned for free from solves the search
      // does anyway.
      record_branch_outcome(node, lp);

      // ---- Branch selection ----------------------------------------
      bool any_fractional = false;
      if (lp.status == lp::SolveStatus::kOptimal) {
        for (const std::size_t b : problem_.binary_variables()) {
          const double v = lp.values[b];
          if (std::abs(v - std::round(v)) > options_.integrality_tolerance) {
            any_fractional = true;
            break;
          }
        }
      }
      std::shared_ptr<const lp::SimplexBasis> basis;
      if (lp.status == lp::SolveStatus::kOptimal && any_fractional) {
        // For a presolved node the simplex holds whatever its batch
        // solved last, not this node's basis — use the snapshot cached
        // with the solution (null only on a failed capture: children
        // then cold-solve, which is merely slower).
        if (node.presolved)
          basis = node.presolved->basis;
        else
          basis = std::make_shared<const lp::SimplexBasis>(simplex_.capture_basis());
      }
      search::BranchDecision decision;
      if (any_fractional) {
        if (frontier_.stopped()) {
          // Don't spend branching-probe LP re-solves on a search that
          // is already stopping; hand the solved-but-unexpanded node
          // back so the post-mortem bound scan still counts it — with
          // the just-computed relaxation objective, strictly tighter
          // than the parent bound it was queued under.
          node.bound = lp.objective;
          node.has_bound = true;
          frontier_.abandon(index_, std::move(node));
          return;
        }
        search::BranchContext ctx;
        ctx.problem = &problem_;
        ctx.simplex = &simplex_;
        ctx.lp = &lp;
        ctx.warm_basis = basis.get();
        ctx.integrality_tolerance = options_.integrality_tolerance;
        ctx.minimize =
            problem_.relaxation().objective_direction() == lp::Objective::kMinimize;
        ctx.pseudocosts = &pseudocosts_;
        ctx.stop = &frontier_.stop_flag();
        decision = search::decide_branch(ctx);
        // A fractional node MUST branch: a decision of "integral" here
        // would publish a fractional point as an incumbent — under
        // feasibility mode, a bogus counterexample. Fail loudly instead.
        internal_check(decision.var != search::kNoBranchVariable,
                       "branching returned no variable on a fractional node");
      }
      const std::size_t branch_var = decision.var;

      // ---- Publish the outcome -------------------------------------
      std::unique_lock<std::mutex> lock(shared_.mutex);
      if (lp.status == lp::SolveStatus::kOptimal &&
          branch_var == search::kNoBranchVariable) {
        // Integral: new incumbent. Published even when a concurrent
        // stop was set — a feasible integral point is sound evidence
        // regardless of why the search is ending (a counterexample in
        // hand beats "node budget exhausted").
        if (!shared_.have_incumbent ||
            better(lp.objective, shared_.incumbent_objective)) {
          shared_.have_incumbent = true;
          shared_.incumbent_objective = lp.objective;
          shared_.incumbent_values = lp.values;
        }
        const bool stop_now = options_.stop_at_first_feasible;
        if (stop_now) shared_.found_first_feasible = true;
        lock.unlock();
        frontier_.complete();
        if (stop_now || frontier_.stopped()) {
          frontier_.request_stop();
          return;
        }
        continue;
      }
      if (lp.status == lp::SolveStatus::kInfeasible) {
        lock.unlock();
        frontier_.complete();
        if (frontier_.stopped()) return;
        continue;  // pruned
      }
      if (lp.status != lp::SolveStatus::kOptimal) {
        // A node whose relaxation could not be solved (iteration limit /
        // numerical trouble / deadline) cannot be pruned soundly; the
        // search result is inconclusive. Report the resource that ran
        // out rather than guess.
        if (lp.status == lp::SolveStatus::kDeadline)
          shared_.deadline_expired = true;
        else
          shared_.lp_iteration_limit_hit = true;
        shared_.node_budget_exhausted = true;
        lock.unlock();
        frontier_.abandon(index_, std::move(node));
        frontier_.request_stop();
        return;
      }
      if (frontier_.stopped()) {
        // The node is solved but will not be expanded; hand it back so
        // the post-mortem bound scan still counts its subtree, under
        // its own (tighter) relaxation bound.
        lock.unlock();
        node.bound = lp.objective;
        node.has_bound = true;
        frontier_.abandon(index_, std::move(node));
        return;
      }
      // Bound pruning against the incumbent.
      if (shared_.have_incumbent &&
          !better(lp.objective, shared_.incumbent_objective)) {
        lock.unlock();
        frontier_.complete();
        continue;
      }

      // Remember the most optimistic fractional point expanded: if the
      // node budget runs out before a proof, it is the search's best
      // near-miss and seeds the falsifier's start-point pool.
      if (!shared_.have_frontier_point ||
          better(lp.objective, shared_.frontier_objective)) {
        shared_.have_frontier_point = true;
        shared_.frontier_objective = lp.objective;
        shared_.frontier_values = lp.values;
      }
      lock.unlock();

      // ---- Children ------------------------------------------------
      // A reliability probe may already have proved a child's
      // relaxation infeasible; the probe *was* that child's solve, so
      // it is never pushed (its pseudocost outcome was recorded by the
      // probe).
      const double value = lp.values[branch_var];
      const double parent_frac = search::total_fractionality(problem_, lp.values);
      SearchNode zero;
      zero.fixings = node.fixings;
      zero.fixings.emplace_back(branch_var, 0.0);
      SearchNode one;
      one.fixings = std::move(node.fixings);
      one.fixings.emplace_back(branch_var, 1.0);
      for (SearchNode* child : {&zero, &one}) {
        child->id = shared_.next_node_id.fetch_add(1);
        child->parent_basis = basis;
        child->bound = lp.objective;
        child->has_bound = true;
        child->branch_var = branch_var;
        child->parent_fractionality = parent_frac;
      }
      zero.branch_up = false;
      zero.branch_frac = value;
      zero.probe_recorded = decision.down_recorded;
      if (decision.have_down_bound) zero.bound = decision.down_bound;
      one.branch_up = true;
      one.branch_frac = 1.0 - value;
      one.probe_recorded = decision.up_recorded;
      if (decision.have_up_bound) one.bound = decision.up_bound;
      bool push_zero = !decision.down_infeasible;
      bool push_one = !decision.up_infeasible;

      // ---- Batched sibling re-solves -------------------------------
      // Solve both children now, while the parent basis is the one the
      // simplex just worked from (sharing its factorization and Devex
      // pricing weights via the matching-basis fast path), and queue
      // them under their own — strictly tighter — relaxation objectives;
      // an infeasible child is pruned without entering the frontier.
      // Skipped when the reliability probes already solved either child:
      // the probe WAS that solve, and batching would repeat the LP work
      // it paid for. Such children are re-solved at pop time.
      const bool probe_touched =
          decision.down_recorded || decision.up_recorded ||
          decision.down_infeasible || decision.up_infeasible ||
          decision.have_down_bound || decision.have_up_bound;
      if (!probe_touched && basis != nullptr) {
        ++sibling_batches_;
        lp::LpSolution solutions[2];
        lp::SimplexBasis bases[2];
        for (int c = 0; c < 2; ++c) {
          simplex_.set_bounds(branch_var, c, c);
          solutions[c] = simplex_.resolve(*basis);
          if (solutions[c].status == lp::SolveStatus::kOptimal)
            bases[c] = simplex_.capture_basis();
        }
        // The last child's override is still active on the simplex; track
        // it so apply_fixings resets the box before the next node's solve.
        overridden_.push_back(branch_var);
        push_zero = attach_presolved(zero, solutions[0], bases[0]);
        push_one = attach_presolved(one, solutions[1], bases[1]);
      }

      // Push the rounded-toward branch last so the plunge pops it first
      // (dive toward integrality); order is irrelevant to the heap.
      if (value >= 0.5) {
        if (push_zero) frontier_.push(index_, std::move(zero));
        if (push_one) frontier_.push(index_, std::move(one));
      } else {
        if (push_one) frontier_.push(index_, std::move(one));
        if (push_zero) frontier_.push(index_, std::move(zero));
      }
      frontier_.complete();
    }
  }

  /// Pseudocost bookkeeping for the branch that created `node`: the
  /// child relaxation either proved infeasible (the strongest outcome)
  /// or degraded the parent objective / reduced total fractionality.
  void record_branch_outcome(const SearchNode& node, const lp::LpSolution& lp) {
    if (node.branch_var == search::kNoBranchVariable || node.probe_recorded) return;
    if (lp.status == lp::SolveStatus::kInfeasible) {
      search::record_child_outcome(pseudocosts_, node.branch_var, node.branch_up,
                                   node.branch_frac, /*infeasible=*/true, 0.0, 0.0);
      return;
    }
    if (lp.status != lp::SolveStatus::kOptimal || !node.has_bound) return;
    const bool minimize =
        problem_.relaxation().objective_direction() == lp::Objective::kMinimize;
    const double degradation = std::max(
        0.0, minimize ? lp.objective - node.bound : node.bound - lp.objective);
    const double drop =
        std::max(0.0, node.parent_fractionality -
                          search::total_fractionality(problem_, lp.values));
    search::record_child_outcome(pseudocosts_, node.branch_var, node.branch_up,
                                 node.branch_frac, /*infeasible=*/false, degradation,
                                 drop);
  }

  /// Folds one batched child solve into its SearchNode: records the
  /// pseudocost outcome now (the batch was this child's solve — its pop
  /// must not record the same event again), tightens the queue bound to
  /// the child's own relaxation objective, and caches the solution +
  /// basis snapshot so the pop skips the LP. Returns false when the
  /// child's relaxation proved infeasible: pruned without ever entering
  /// the frontier. A child the batch could not solve to completion
  /// (iteration limit) is pushed plain and re-solved at pop time.
  bool attach_presolved(SearchNode& child, lp::LpSolution& lp,
                        lp::SimplexBasis& basis) {
    if (lp.status != lp::SolveStatus::kOptimal &&
        lp.status != lp::SolveStatus::kInfeasible)
      return true;
    record_branch_outcome(child, lp);
    child.probe_recorded = true;
    if (lp.status == lp::SolveStatus::kInfeasible) return false;
    child.bound = lp.objective;
    child.has_bound = true;
    auto cached = std::make_shared<SearchNode::PresolvedChild>();
    cached->solution = std::move(lp);
    if (!basis.empty())
      cached->basis = std::make_shared<const lp::SimplexBasis>(std::move(basis));
    child.presolved = std::move(cached);
    return true;
  }

  /// Resets the previous node's overrides, then applies this node's.
  void apply_fixings(const SearchNode& node) {
    const lp::LpProblem& base = problem_.relaxation();
    for (const std::size_t var : overridden_)
      simplex_.set_bounds(var, base.lower_bound(var), base.upper_bound(var));
    overridden_.clear();
    for (const auto& [var, value] : node.fixings) {
      simplex_.set_bounds(var, value, value);
      overridden_.push_back(var);
    }
  }

  const std::size_t index_;
  const MilpProblem& problem_;
  const BranchAndBoundOptions& options_;
  SharedSearch& shared_;
  search::ParallelFrontier& frontier_;
  search::PseudocostTable& pseudocosts_;
  lp::RevisedSimplex simplex_;
  std::vector<std::size_t> overridden_;
  std::size_t sibling_batches_ = 0;
  std::size_t root_warm_starts_ = 0;
};

}  // namespace

MilpResult BranchAndBoundSolver::solve(const MilpProblem& problem) const {
  // Node relaxations inherit the search's run control unless the caller
  // pinned a different one on the LP layer explicitly, so the deadline
  // reaches mid-solve pivot loops, not just node boundaries.
  BranchAndBoundOptions options = options_;
  if (options.run_control != nullptr && options.lp_options.run_control == nullptr)
    options.lp_options.run_control = options.run_control;

  // Root cutting-plane rounds run on a working copy appended through
  // MilpProblem::add_rows, so the caller's problem — possibly a frozen
  // cache base's stamp-out — is never mutated.
  const bool root_cuts_enabled =
      options.cuts.root_rounds > 0 && !problem.binary_variables().empty();
  const bool inject_cuts =
      options.cuts.initial_cuts != nullptr && !options.cuts.initial_cuts->empty();
  MilpProblem working;
  const MilpProblem* active = &problem;
  cuts::RootCutReport root_cuts;
  std::size_t cuts_recycled = 0;
  if (root_cuts_enabled || inject_cuts) {
    working = problem;
    if (inject_cuts) {
      // Recycled pool first, so separation rounds see (and dedup
      // against) the injected rows instead of re-deriving them.
      std::vector<lp::Row> injected;
      injected.reserve(options.cuts.initial_cuts->size());
      for (const cuts::Cut& cut : *options.cuts.initial_cuts) injected.push_back(cut.row);
      working.add_rows(std::move(injected));
      cuts_recycled = options.cuts.initial_cuts->size();
    }
    if (root_cuts_enabled) {
      // Round 0 starts from the caller's root basis when it covers
      // exactly this problem's columns and rows; the injected cuts'
      // logicals pad it.
      lp::SimplexBasis start;
      const lp::SimplexBasis* stored = options.cuts.root_basis;
      const std::size_t n = problem.relaxation().variable_count();
      const std::size_t m = problem.relaxation().row_count();
      if (stored != nullptr && stored->basic.size() == m && stored->at_upper.size() == n + m) {
        start = *stored;
        cuts::pad_basis(start, n, working.relaxation().row_count());
      }
      root_cuts = cuts::run_root_cuts(working, options.cuts, options.lp_options,
                                      options.integrality_tolerance, std::move(start));
    }
    // Injected rows count as live cuts from here on: the harvest window
    // below and the provenance list both cover them (injected sources
    // first — row order in the problem).
    root_cuts.cuts_live += cuts_recycled;
    if (inject_cuts) {
      std::vector<const char*> merged;
      merged.reserve(root_cuts.cuts_live);
      for (const cuts::Cut& cut : *options.cuts.initial_cuts) merged.push_back(cut.source);
      merged.insert(merged.end(), root_cuts.live_sources.begin(),
                    root_cuts.live_sources.end());
      root_cuts.live_sources = std::move(merged);
    }
    active = &working;
  }

  const bool minimize =
      active->relaxation().objective_direction() == lp::Objective::kMinimize;
  const std::size_t thread_count = std::max<std::size_t>(options.threads, 1);

  SharedSearch shared;
  search::ParallelFrontier frontier(thread_count, minimize);
  // Root: id 0, no fixings, no bound yet; warm from the basis the cut
  // loop stopped on.
  SearchNode root;
  if (!root_cuts.basis.empty())
    root.parent_basis = std::make_shared<const lp::SimplexBasis>(std::move(root_cuts.basis));
  frontier.push(0, std::move(root));

  // One shared pseudocost table: every worker's child re-solves feed
  // it, so learning crosses worker boundaries.
  search::PseudocostTable pseudocosts(problem.variable_count());
  if (options.pseudocost_priors != nullptr)
    pseudocosts.seed(*options.pseudocost_priors, options.pseudocost_prior_weight);

  std::vector<std::unique_ptr<Worker>> workers;
  workers.reserve(thread_count);
  for (std::size_t t = 0; t < thread_count; ++t)
    workers.push_back(
        std::make_unique<Worker>(t, *active, options, shared, frontier, pseudocosts));

  if (thread_count == 1) {
    workers[0]->run();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(thread_count);
    for (auto& worker : workers)
      pool.emplace_back([&worker] { worker->run(); });
    for (std::thread& t : pool) t.join();
  }
  if (shared.error) std::rethrow_exception(shared.error);

  MilpResult result;
  result.nodes_explored = shared.nodes_explored.load();
  for (const auto& worker : workers) result.solver_stats.merge(worker->stats());
  result.solver_stats.merge(root_cuts.solver_stats);
  result.solver_stats.cuts_added = root_cuts.cuts_added;
  result.solver_stats.cut_rounds = root_cuts.rounds;
  result.solver_stats.nodes_stolen = frontier.nodes_stolen();
  result.solver_stats.steal_attempts = frontier.steal_attempts();
  result.solver_stats.peak_open_nodes = frontier.peak_open();
  result.lp_iterations = result.solver_stats.lp_iterations;
  result.lp_iteration_limit_hit = shared.lp_iteration_limit_hit;
  result.deadline_expired = shared.deadline_expired || root_cuts.deadline_expired;
  result.cuts_recycled = cuts_recycled;
  if (options.cuts.harvest_root_cuts && root_cuts.cuts_live > 0) {
    const std::vector<lp::Row>& rows = active->relaxation().rows();
    const std::size_t first = rows.size() - root_cuts.cuts_live;
    result.root_cut_rows.reserve(root_cuts.cuts_live);
    for (std::size_t k = 0; k < root_cuts.cuts_live; ++k) {
      const char* source =
          k < root_cuts.live_sources.size() ? root_cuts.live_sources[k] : "";
      result.root_cut_rows.push_back({rows[first + k], 0.0, source});
    }
  }
  if (options.cuts.harvest_root_cuts) {
    result.root_basis = std::move(root_cuts.first_basis);
    if (!cuts::truncate_basis(result.root_basis, problem.relaxation().variable_count(),
                              problem.relaxation().row_count()))
      result.root_basis = {};
  }
  if (options.export_pseudocosts) result.pseudocost_snapshot = pseudocosts.snapshot_all();
  if (shared.have_incumbent) {
    result.objective = shared.incumbent_objective;
    result.values = std::move(shared.incumbent_values);
  }
  if (shared.found_first_feasible) {
    result.status = MilpStatus::kFeasible;
  } else if (shared.node_budget_exhausted) {
    result.status = shared.have_incumbent ? MilpStatus::kFeasible : MilpStatus::kNodeLimit;
    if (!shared.have_incumbent && shared.have_frontier_point) {
      result.have_frontier_point = true;
      result.frontier_values = std::move(shared.frontier_values);
    }
    // The frontier that survived the stop bounds every unexplored
    // integral point: report it, and the optimality gap against the
    // incumbent (or the caller's bound target) — the "how close did
    // the proof get" number for node-limit UNKNOWNs.
    double best_bound = 0.0;
    if (frontier.best_open_bound(best_bound)) {
      result.have_best_bound = true;
      result.best_bound = best_bound;
      double reference = std::numeric_limits<double>::quiet_NaN();
      if (shared.have_incumbent)
        reference = shared.incumbent_objective;
      else if (!std::isnan(options.bound_target))
        reference = options.bound_target;
      if (!std::isnan(reference)) {
        // Directional, clamped at zero: an open bound the reference
        // already dominates (queued nodes not yet pop-pruned) leaves
        // no real gap — the incumbent is provably optimal.
        result.best_bound_gap = minimize ? std::max(0.0, reference - best_bound)
                                         : std::max(0.0, best_bound - reference);
        result.solver_stats.best_bound_gap = result.best_bound_gap;
      }
    }
  } else {
    result.status = shared.have_incumbent ? MilpStatus::kOptimal : MilpStatus::kInfeasible;
  }
  return result;
}

}  // namespace dpv::milp
