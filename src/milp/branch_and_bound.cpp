#include "milp/branch_and_bound.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/check.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "milp/search/branching_rule.hpp"
#include "milp/search/node_store.hpp"

namespace dpv::milp {

namespace {

using search::SearchNode;

/// One branch & bound search: the open nodes, the simplex that solves
/// their relaxations, the pseudocost table, the incumbent, and the
/// accounting the result reports.
class Search {
 public:
  Search(const MilpProblem& problem, const BranchAndBoundOptions& options)
      : problem_(problem), options_(options),
        minimize_(problem.relaxation().objective_direction() == lp::Objective::kMinimize),
        store_(minimize_), simplex_(options.lp_options),
        pseudocosts_(problem.variable_count()) {
    simplex_.load(problem.relaxation());
    if (options.pseudocost_priors != nullptr)
      pseudocosts_.seed(*options.pseudocost_priors, options.pseudocost_prior_weight);
  }

  /// Runs the search from `root` and reports it: status, incumbent,
  /// node and LP accounting, and — when it stopped with nodes still
  /// open — the post-mortem (best open bound, gap, frontier point).
  MilpResult run(SearchNode root) {
    explore(std::move(root));
    return report();
  }

 private:
  bool better(double a, double b) const { return minimize_ ? a < b : a > b; }

  /// Expands nodes until the tree is exhausted, the first integral
  /// point ends a feasibility search, or the search is interrupted
  /// (node budget, deadline, a node LP it could not solve).
  void explore(SearchNode root) {
    store_.push(std::move(root));
    peak_open_ = 1;
    SearchNode node;
    while (store_.pop(node)) {
      // ---- Cooperative deadline and node budget --------------------
      // Checked at the pop — a safe point: the node goes back to the
      // store unexplored, so the post-mortem (best open bound, gap,
      // frontier seed) explains a deadline stop exactly as it would a
      // budget stop.
      if (run_expired(options_.run_control)) {
        deadline_expired_ = true;
        interrupt(std::move(node));
        return;
      }
      if (nodes_explored_ >= options_.max_nodes) {
        interrupt(std::move(node));
        return;
      }
      ++nodes_explored_;

      // ---- Pop-time pruning -----------------------------------------
      // A later incumbent retired this queued subtree; no LP work.
      if (node.has_bound && have_incumbent_ && !better(node.bound, incumbent_objective_))
        continue;

      // ---- LP solve -------------------------------------------------
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

      if (lp.status == lp::SolveStatus::kInfeasible) continue;  // pruned
      if (lp.status != lp::SolveStatus::kOptimal) {
        // A node whose relaxation could not be solved (iteration limit /
        // numerical trouble / deadline) cannot be pruned soundly; the
        // search result is inconclusive. Report the resource that ran
        // out rather than guess.
        if (lp.status == lp::SolveStatus::kDeadline)
          deadline_expired_ = true;
        else
          lp_iteration_limit_hit_ = true;
        interrupt(std::move(node));
        return;
      }

      bool any_fractional = false;
      for (const std::size_t b : problem_.binary_variables()) {
        const double v = lp.values[b];
        if (std::abs(v - std::round(v)) > options_.integrality_tolerance) {
          any_fractional = true;
          break;
        }
      }
      if (!any_fractional) {
        // Integral: a new incumbent, and in feasibility mode the end of
        // the search.
        if (!have_incumbent_ || better(lp.objective, incumbent_objective_)) {
          have_incumbent_ = true;
          incumbent_objective_ = lp.objective;
          incumbent_values_ = lp.values;
        }
        if (options_.stop_at_first_feasible) {
          found_first_feasible_ = true;
          return;
        }
        continue;
      }

      // ---- Branch selection ----------------------------------------
      // For a presolved node the simplex holds whatever its batch
      // solved last, not this node's basis — use the snapshot cached
      // with the solution (null only on a failed capture: children
      // then cold-solve, which is merely slower).
      std::shared_ptr<const lp::SimplexBasis> basis =
          node.presolved ? node.presolved->basis
                         : std::make_shared<const lp::SimplexBasis>(simplex_.capture_basis());
      search::BranchContext ctx;
      ctx.problem = &problem_;
      ctx.simplex = &simplex_;
      ctx.lp = &lp;
      ctx.warm_basis = basis.get();
      ctx.integrality_tolerance = options_.integrality_tolerance;
      ctx.minimize = minimize_;
      ctx.pseudocosts = &pseudocosts_;
      const search::BranchDecision decision = search::decide_branch(ctx);
      // A fractional node MUST branch: a decision of "integral" here
      // would publish a fractional point as an incumbent — under
      // feasibility mode, a bogus counterexample. Fail loudly instead.
      internal_check(decision.var != search::kNoBranchVariable,
                     "branching returned no variable on a fractional node");

      // Bound pruning against the incumbent.
      if (have_incumbent_ && !better(lp.objective, incumbent_objective_)) continue;

      // Remember the most optimistic fractional point expanded: if the
      // node budget runs out before a proof, it is the search's best
      // near-miss and seeds the falsifier's start-point pool.
      if (!have_frontier_point_ || better(lp.objective, frontier_objective_)) {
        have_frontier_point_ = true;
        frontier_objective_ = lp.objective;
        frontier_values_ = lp.values;
      }
      branch(std::move(node), lp, basis, decision);
    }
  }

  /// The search's half of the result; the cut loop's counters and
  /// harvest are solve()'s.
  MilpResult report() {
    MilpResult result;
    result.nodes_explored = nodes_explored_;
    result.solver_stats = solver::simplex_stats(simplex_);
    result.solver_stats.sibling_batches = sibling_batches_;
    result.solver_stats.root_warm_starts = root_warm_starts_;
    result.solver_stats.peak_open_nodes = peak_open_;
    result.lp_iteration_limit_hit = lp_iteration_limit_hit_;
    result.deadline_expired = deadline_expired_;
    if (options_.export_pseudocosts) result.pseudocost_snapshot = pseudocosts_.snapshot_all();
    if (have_incumbent_) {
      result.objective = incumbent_objective_;
      result.values = std::move(incumbent_values_);
    }
    if (found_first_feasible_) {
      result.status = MilpStatus::kFeasible;
      return result;
    }
    if (!interrupted_) {
      result.status = have_incumbent_ ? MilpStatus::kOptimal : MilpStatus::kInfeasible;
      return result;
    }
    result.status = have_incumbent_ ? MilpStatus::kFeasible : MilpStatus::kNodeLimit;
    if (!have_incumbent_ && have_frontier_point_) {
      result.have_frontier_point = true;
      result.frontier_values = std::move(frontier_values_);
    }
    // The open nodes left at the stop bound every unexplored integral
    // point: report the best of them, and the optimality gap against
    // the incumbent (or the caller's bound target) — the "how close did
    // the proof get" number for node-limit UNKNOWNs.
    double best_bound = 0.0;
    if (!store_.best_bound(best_bound)) return result;
    result.have_best_bound = true;
    result.best_bound = best_bound;
    const double reference = have_incumbent_ ? incumbent_objective_ : options_.bound_target;
    if (!std::isnan(reference)) {
      // Directional, clamped at zero: an open bound the reference
      // already dominates (queued nodes not yet pop-pruned) leaves no
      // real gap — the incumbent is provably optimal.
      result.best_bound_gap = minimize_ ? std::max(0.0, reference - best_bound)
                                        : std::max(0.0, best_bound - reference);
      result.solver_stats.best_bound_gap = result.best_bound_gap;
    }
    return result;
  }

  /// Stops the search with `node` still open: it goes back to the store
  /// so the post-mortem bound scan counts its subtree.
  void interrupt(SearchNode node) {
    interrupted_ = true;
    store_.push(std::move(node));
  }

  /// Queues the children of a fractional node, splitting on
  /// `decision.var`.
  void branch(SearchNode node, const lp::LpSolution& lp,
              const std::shared_ptr<const lp::SimplexBasis>& basis,
              const search::BranchDecision& decision) {
    // A reliability probe may already have proved a child's
    // relaxation infeasible; the probe *was* that child's solve, so
    // it is never pushed (its pseudocost outcome was recorded by the
    // probe).
    const std::size_t branch_var = decision.var;
    const double value = lp.values[branch_var];
    const double parent_frac = search::total_fractionality(problem_, lp.values);
    SearchNode zero;
    zero.fixings = node.fixings;
    zero.fixings.emplace_back(branch_var, 0.0);
    SearchNode one;
    one.fixings = std::move(node.fixings);
    one.fixings.emplace_back(branch_var, 1.0);
    for (SearchNode* child : {&zero, &one}) {
      child->id = next_node_id_++;
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
    // an infeasible child is pruned without entering the store.
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
      if (push_zero) push_child(std::move(zero));
      if (push_one) push_child(std::move(one));
    } else {
      if (push_one) push_child(std::move(one));
      if (push_zero) push_child(std::move(zero));
    }
  }

  /// Queues a child. The node being expanded still counts as open until
  /// its children are queued, so the peak includes it.
  void push_child(SearchNode child) {
    store_.push(std::move(child));
    peak_open_ = std::max(peak_open_, store_.size() + 1);
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
    const double degradation = std::max(
        0.0, minimize_ ? lp.objective - node.bound : node.bound - lp.objective);
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
  /// the store. A child the batch could not solve to completion
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

  const MilpProblem& problem_;
  const BranchAndBoundOptions& options_;
  const bool minimize_;
  search::NodeStore store_;
  lp::RevisedSimplex simplex_;
  search::PseudocostTable pseudocosts_;
  std::vector<std::size_t> overridden_;

  /// Stable node ids (the root is 0): all node-store tie-breaking
  /// orders on them.
  std::uint64_t next_node_id_ = 1;
  std::size_t nodes_explored_ = 0;
  std::size_t peak_open_ = 0;
  std::size_t sibling_batches_ = 0;
  std::size_t root_warm_starts_ = 0;

  bool have_incumbent_ = false;
  double incumbent_objective_ = 0.0;
  std::vector<double> incumbent_values_;
  bool found_first_feasible_ = false;
  bool interrupted_ = false;
  bool lp_iteration_limit_hit_ = false;
  bool deadline_expired_ = false;
  /// Best fractional relaxation point expanded so far (frontier seed for
  /// counterexample recycling on node-limit stops).
  bool have_frontier_point_ = false;
  double frontier_objective_ = 0.0;
  std::vector<double> frontier_values_;
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
  MilpProblem working;
  const MilpProblem* active = &problem;
  cuts::RootCutReport root_cuts;
  if (options.cuts.root_rounds > 0 && !problem.binary_variables().empty()) {
    working = problem;
    // Round 0 starts from the caller's root basis when it covers
    // exactly this problem's columns and rows.
    lp::SimplexBasis start;
    const lp::SimplexBasis* stored = options.cuts.root_basis;
    const std::size_t m = problem.relaxation().row_count();
    if (stored != nullptr && stored->basic.size() == m &&
        stored->at_upper.size() == problem.relaxation().variable_count() + m)
      start = *stored;
    root_cuts = cuts::run_root_cuts(working, options.cuts, options.lp_options,
                                    options.integrality_tolerance, std::move(start));
    active = &working;
  }

  // Root: id 0, no fixings, no bound yet; warm from the basis the cut
  // loop stopped on.
  SearchNode root;
  if (!root_cuts.basis.empty())
    root.parent_basis = std::make_shared<const lp::SimplexBasis>(std::move(root_cuts.basis));
  MilpResult result = Search(*active, options).run(std::move(root));
  result.solver_stats.merge(root_cuts.solver_stats);
  result.solver_stats.cuts_added = root_cuts.cuts_added;
  result.solver_stats.cut_rounds = root_cuts.rounds;
  result.lp_iterations = result.solver_stats.lp_iterations;
  result.deadline_expired = result.deadline_expired || root_cuts.deadline_expired;
  result.root_basis = std::move(root_cuts.first_basis);
  return result;
}

}  // namespace dpv::milp
