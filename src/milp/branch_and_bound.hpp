// LP-relaxation branch & bound for MILP.
//
// One serial search (src/milp/search/): a NodeStore orders the open
// nodes (a bounded depth-first plunge, then a restart from the best
// open relaxation bound), and reliability-initialized pseudocost
// branching picks the split variable (fed by every child re-solve's
// objective degradation, fractionality reduction and infeasibility).
// Nodes are pruned by LP infeasibility and by objective bound against
// the incumbent (checked again at pop time, so a late incumbent
// retires queued subtrees without an LP solve). For pure feasibility
// queries (`stop_at_first_feasible`), the solver returns as soon as any
// integral point is found — the common mode for safety verification,
// where any feasible point is a counterexample and exhaustive
// infeasibility is the proof.
//
// Node relaxations are solved by the bounded-variable revised simplex
// (src/lp/revised_simplex.hpp): each node carries its parent's optimal
// basis, and since branching only tightens a single variable's box, the
// warm re-solve takes a handful of dual-simplex pivots instead of a
// full cold solve. When a node branches, both children are solved at
// once from the parent basis still in the simplex and queued under
// their own relaxation objectives, unless reliability probes already
// solved them.
//
// The search is deterministic: the same problem and options give the
// same node order, node count, incumbent and post-mortem on every run,
// under a node budget too (a wall-clock deadline stop, by nature, is
// not). Parallelism lives one level up, across queries (campaign
// entries, coverage cells), each running its own search.
//
// A search that stops on its node budget reports the most optimistic
// relaxation bound still open and the optimality gap against the
// incumbent (or against `options.bound_target` — the verifier's risk
// threshold — when no incumbent exists), so a node-limit UNKNOWN
// carries how close the proof got instead of nothing.
//
// When `options.cuts` enables it, the search is preceded by root-node
// cutting-plane rounds (ReLU-split + Gomory, see src/milp/cuts/) on a
// working copy of the problem; cut rows persist for the whole search,
// so every warm-started node re-solve benefits from them. The search's
// root node starts from the basis the cut loop stopped on instead of
// solving the root LP cold a second time.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "milp/cuts/cut_generator.hpp"
#include "milp/milp_problem.hpp"
#include "milp/search/branching_rule.hpp"
#include "solver/lp_backend.hpp"

namespace dpv::milp {

enum class MilpStatus {
  kOptimal,     ///< proven optimal incumbent
  kFeasible,    ///< integral point found, search stopped early
  kInfeasible,  ///< proven: no integral point exists
  kNodeLimit,   ///< search exhausted the node budget without a proof
};

struct MilpResult {
  MilpStatus status = MilpStatus::kNodeLimit;
  double objective = 0.0;
  std::vector<double> values;  ///< incumbent (valid for kOptimal/kFeasible)
  std::size_t nodes_explored = 0;
  std::size_t lp_iterations = 0;
  /// True when some node relaxation hit the LP iteration limit — the
  /// search is then inconclusive for a resource reason distinct from the
  /// node budget (surfaced by the verifier as an explained UNKNOWN).
  bool lp_iteration_limit_hit = false;
  /// True when the search stopped because `options.run_control` expired
  /// (at a node pop or inside a node relaxation). The stop is graceful:
  /// the node-limit post-mortem still runs, so `best_bound`
  /// / `best_bound_gap` / `frontier_values` are populated exactly as for
  /// a node-budget stop, and any incumbent found before expiry stands.
  bool deadline_expired = false;
  /// Warm-start and iteration accounting; also carries the
  /// cutting-plane counters (`cuts_added`, `cut_rounds`) when the engine
  /// ran, and the search-layer counters (`peak_open_nodes`,
  /// `best_bound_gap`).
  solver::SolverStats solver_stats;
  /// Most optimistic relaxation bound over the nodes still open when a
  /// kNodeLimit search stopped (every unexplored integral point is
  /// bounded by it). Valid when `have_best_bound`.
  bool have_best_bound = false;
  double best_bound = 0.0;
  /// |incumbent − best_bound|, or |options.bound_target − best_bound|
  /// when the search holds no incumbent; 0 on a finished proof.
  double best_bound_gap = 0.0;
  /// Relaxation point of the best fractional node the search expanded
  /// (by objective, in the search direction). Surfaced on node-limit
  /// stops without an incumbent so callers can recycle the near-miss as
  /// attack seed material — the staged falsifier's start-point pool.
  bool have_frontier_point = false;
  std::vector<double> frontier_values;
  /// Rows injected from options.cuts.initial_cuts (the recycled pool).
  std::size_t cuts_recycled = 0;
  /// The basis round 0 of the root cut loop stopped on (optimal, or
  /// proving the root LP infeasible) over the structural columns and the
  /// problem's own rows, injected cut rows dropped
  /// (cuts::truncate_basis); populated when
  /// options.cuts.harvest_root_cuts and round 0 solved, empty when an
  /// injected cut's logical was nonbasic. Delta re-certification stores
  /// it as the next run's options.cuts.root_basis.
  lp::SimplexBasis root_basis;
  /// Live root cuts on return (injected + separated, post aging);
  /// populated when options.cuts.harvest_root_cuts. Rows reference the
  /// solved problem's variable indices; `source` carries the generator
  /// provenance ("relu-split", "gomory-mi", or the source an injected
  /// cut arrived with), which delta re-certification needs to decide
  /// recyclability. `violation` is not meaningful here.
  std::vector<cuts::Cut> root_cut_rows;
  /// Final pseudocost table in variable order (element [var] =
  /// (down, up)); populated when options.export_pseudocosts. Persisted
  /// by delta re-certification as warm priors for the next model
  /// version's searches.
  std::vector<std::pair<search::PseudocostTable::DirectionStats,
                        search::PseudocostTable::DirectionStats>>
      pseudocost_snapshot;
};

struct BranchAndBoundOptions {
  std::size_t max_nodes = 200000;
  double integrality_tolerance = 1e-6;
  /// Return at the first integral solution (feasibility mode).
  bool stop_at_first_feasible = false;
  lp::SimplexOptions lp_options = {};
  /// Cutting-plane engine (off by default; `cuts.root_rounds > 0`
  /// enables root separation, `cuts.initial_cuts` injects a recycled
  /// pool). Cuts are appended to a working copy of the problem — the
  /// caller's instance, including cached/stamped encodings, is never
  /// mutated.
  cuts::CutOptions cuts = {};
  /// Reference for the reported `best_bound_gap` when a node-limit stop
  /// holds no incumbent (NaN = no reference). The verifier sets this to
  /// the risk threshold of its margin objective, so an UNKNOWN reports
  /// how much objective headroom the surviving frontier still admits.
  double bound_target = std::numeric_limits<double>::quiet_NaN();
  /// Cooperative cancellation: polled at every node pop (and inherited
  /// by `lp_options.run_control` when that is unset, so node relaxations
  /// stop mid-solve too). Expiry degrades to a node-budget-style stop
  /// with `MilpResult::deadline_expired` set. Not owned.
  const RunControl* run_control = nullptr;
  /// Warm-start priors for the pseudocost table (element [var] =
  /// (down, up) statistics exported by a previous solve of a
  /// structurally identical problem), demoted by
  /// `pseudocost_prior_weight` before the search starts — see
  /// search::PseudocostTable::seed. Priors bias node order, never
  /// verdicts. Not owned.
  const std::vector<std::pair<search::PseudocostTable::DirectionStats,
                              search::PseudocostTable::DirectionStats>>*
      pseudocost_priors = nullptr;
  /// Demotion factor in (0, 1] applied to prior observation counts.
  double pseudocost_prior_weight = 0.25;
  /// Export the final table into MilpResult::pseudocost_snapshot.
  bool export_pseudocosts = false;
};

class BranchAndBoundSolver {
 public:
  explicit BranchAndBoundSolver(BranchAndBoundOptions options = {}) : options_(options) {}

  MilpResult solve(const MilpProblem& problem) const;

 private:
  BranchAndBoundOptions options_;
};

}  // namespace dpv::milp
