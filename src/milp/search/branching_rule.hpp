// Branching: which fractional binary a node splits on.
//
// Reliability-initialized pseudocost branching. The search's
// PseudocostTable accumulates, per (variable, direction), the observed
// branch gain of every child LP re-solve the search performs: objective
// degradation plus integer-infeasibility reduction per unit of
// fractional distance, and the rate of outright child infeasibility
// (the dominant signal on the verifier's feasibility MILPs, where the
// objective is zero). Candidates with no observation yet in either
// direction are strong-branch probed first — both children re-solved
// through the node's warm basis, at most 4 candidates per node —
// seeding the table before its estimates are trusted.
//
// The rule is a stateless function; what the search learns lives in
// the PseudocostTable.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "lp/revised_simplex.hpp"
#include "milp/milp_problem.hpp"
#include "milp/search/node_store.hpp"

namespace dpv::milp::search {

/// Per-variable branch-outcome statistics feeding pseudocost scores;
/// one table per search.
///
/// The recorded gain of a solved child is
///   (max(0, objective degradation) + max(0, fractionality reduction))
///       / fractional distance of the branch,
/// where degradation is measured in the minimize orientation and
/// fractionality is the node's total integer infeasibility
/// (sum over binaries of the distance to the nearest integer). An
/// LP-infeasible child records no gain but counts toward the
/// direction's infeasibility rate — the strongest branch outcome.
class PseudocostTable {
 public:
  explicit PseudocostTable(std::size_t variable_count);

  /// Records a solved child: `gain` already normalized per unit of
  /// fractional distance (callers divide by the branch distance).
  void record(std::size_t var, bool up, double gain);
  /// Records an LP-infeasible child in direction `up`.
  void record_infeasible(std::size_t var, bool up);

  /// One (variable, direction)'s accumulated statistics.
  struct DirectionStats {
    double gain_sum = 0.0;
    std::size_t solved = 0;
    std::size_t infeasible = 0;

    std::size_t observations() const { return solved + infeasible; }
    double average_gain() const {
      return solved == 0 ? 0.0 : gain_sum / static_cast<double>(solved);
    }
    double infeasible_rate() const {
      const std::size_t n = observations();
      return n == 0 ? 0.0 : static_cast<double>(infeasible) / static_cast<double>(n);
    }
  };

  /// The statistics of `var` in direction `up`.
  const DirectionStats& stats(std::size_t var, bool up) const;

  /// The whole table in variable order (element [var] = (down, up)) —
  /// the export delta re-certification persists as warm priors.
  std::vector<std::pair<DirectionStats, DirectionStats>> snapshot_all() const;

  /// Seeds the table with demoted prior statistics (the delta warm
  /// start): observation counts are scaled by `weight` (keeping at
  /// least one observation for any observed direction) and gain sums
  /// rescaled to preserve the average gain, so priors steer early
  /// branching like real history but with less confidence — the
  /// reliability probes re-earn trust on the new problem. Priors past
  /// the table width are ignored. Seeding only biases node order;
  /// verdicts of searches run to completion are unaffected.
  void seed(const std::vector<std::pair<DirectionStats, DirectionStats>>& priors,
            double weight);

  /// Mean gain across every (variable, direction) with a solved child —
  /// the fallback estimate for directions never observed. O(1): kept as
  /// a running aggregate by record().
  double global_average_gain() const;

 private:
  DirectionStats& entry(std::size_t var, bool up);

  std::vector<DirectionStats> entries_;  ///< [var * 2 + up]
  double global_gain_sum_ = 0.0;
  std::size_t global_solved_ = 0;
};

/// Everything the rule consults for one node. The simplex is loaded
/// with the node's bound fixings already applied and `lp` is its
/// optimal relaxation, so the reliability probes re-solve children in
/// place (restoring every bound they touch before returning).
struct BranchContext {
  const MilpProblem* problem = nullptr;
  lp::RevisedSimplex* simplex = nullptr;
  const lp::LpSolution* lp = nullptr;
  /// Node's optimal basis for warm probe re-solves (may be null).
  const lp::SimplexBasis* warm_basis = nullptr;
  double integrality_tolerance = 1e-6;
  bool minimize = true;
  /// The search's table (required).
  PseudocostTable* pseudocosts = nullptr;
};

/// The rule's verdict for one node: the variable to split on, plus any
/// probe evidence about the chosen variable's children. A probe that
/// already solved a child to LP infeasibility hands the proof to the
/// search, which then skips pushing (and later re-solving) that child
/// entirely.
struct BranchDecision {
  std::size_t var = kNoBranchVariable;
  bool down_infeasible = false;  ///< probe proved the var = 0 child infeasible
  bool up_infeasible = false;    ///< probe proved the var = 1 child infeasible
  /// True when the probe already recorded that direction's outcome into
  /// the pseudocost table — the search must not record the pushed
  /// child's re-solve again, or probe outcomes would carry double
  /// weight versus organically observed branches.
  bool down_recorded = false;
  bool up_recorded = false;
  /// The probe-solved child's own relaxation objective (valid when the
  /// matching have_* flag is set): strictly tighter than the parent
  /// bound, so the search queues the child under it — better best-first
  /// order, more pop-time pruning, tighter reported gaps.
  bool have_down_bound = false;
  bool have_up_bound = false;
  double down_bound = 0.0;
  double up_bound = 0.0;
};

/// The branching decision for one solved node, `var ==
/// kNoBranchVariable` when every binary is integral within tolerance.
/// Deterministic for a given context and pseudocost-table state.
BranchDecision decide_branch(const BranchContext& ctx);

/// Total integer infeasibility of `values`: sum over the problem's
/// binaries of the distance to the nearest integer. The fractionality
/// measure used by pseudocost gains.
double total_fractionality(const MilpProblem& problem, const std::vector<double>& values);

/// The one entry point for feeding the table a child outcome, shared by
/// the in-search bookkeeping (every popped child's actual re-solve) and
/// the reliability probes, so both sources stay on the same gain scale:
/// infeasible children count toward the direction's infeasibility rate,
/// solved ones record (degradation + fractionality drop) per unit of
/// branch distance.
void record_child_outcome(PseudocostTable& table, std::size_t var, bool up,
                          double distance, bool infeasible, double degradation,
                          double fractionality_drop);

}  // namespace dpv::milp::search
