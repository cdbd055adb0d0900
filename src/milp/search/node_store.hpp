// Node store: the open-node container behind branch & bound.
//
// A NodeStore owns the order in which the search expands its open
// nodes: dive-then-best-bound with plunging. Fresh children land on a
// LIFO dive stack and pop from it for up to 8 consecutive pops (the
// plunge, which reaches integral points fast); then the dive stack
// spills into a binary heap keyed on the node's relaxation bound and
// the next pop restarts a dive from the best open bound, so the proved
// bound keeps moving and a node-limit stop reports a tight gap.
//
// Determinism: every heap decision tie-breaks on the stable node id
// (`SearchNode::id`, assigned from a per-search counter) — never on
// pointer values or insertion addresses — so the search replays
// identically and heap order is reproducible across runs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "lp/revised_simplex.hpp"

namespace dpv::milp::search {

/// Sentinel for "no fractional binary": the root's branch_var and the
/// decision of an integral node.
constexpr std::size_t kNoBranchVariable = static_cast<std::size_t>(-1);

/// One open node of the branch & bound tree: bound overrides along its
/// branch, the parent's optimal basis for warm re-solves, and the
/// bookkeeping the search orders and learns from.
struct SearchNode {
  /// Stable id from the search-wide counter; all tie-breaking uses it.
  std::uint64_t id = 0;
  /// (binary variable, 0 or 1) fixings accumulated along the branch.
  std::vector<std::pair<std::size_t, double>> fixings;
  /// Optimal basis of the parent relaxation (shared between siblings).
  std::shared_ptr<const lp::SimplexBasis> parent_basis;

  /// Parent relaxation objective in the user's direction — a sound
  /// bound on every integral point under this node. The root carries
  /// no bound yet (`has_bound = false`).
  double bound = 0.0;
  bool has_bound = false;

  /// How this node was created, for pseudocost accounting: the branched
  /// variable (kNoBranchVariable for the root), the branch direction,
  /// the fractional distance moved, and the parent's total integer
  /// infeasibility.
  std::size_t branch_var = kNoBranchVariable;
  bool branch_up = false;
  double branch_frac = 0.0;
  double parent_fractionality = 0.0;
  /// A reliability probe already recorded this branch's outcome into
  /// the pseudocost table; the node's own re-solve must not record the
  /// same event again.
  bool probe_recorded = false;

  /// Relaxation already solved at push time by the parent's batched
  /// sibling re-solve: the pop skips the LP and reuses this
  /// solution/basis.
  struct PresolvedChild {
    lp::LpSolution solution;
    std::shared_ptr<const lp::SimplexBasis> basis;
  };
  std::shared_ptr<const PresolvedChild> presolved;
};

/// Open-node container; see the file comment for the order.
class NodeStore {
 public:
  /// `minimize` orients bound comparisons.
  explicit NodeStore(bool minimize) : minimize_(minimize) {}

  void push(SearchNode node) { dive_.push_back(std::move(node)); }
  /// Pops the next node to expand; false when empty.
  bool pop(SearchNode& out);
  std::size_t size() const { return dive_.size() + heap_.size(); }
  bool empty() const { return size() == 0; }

  /// Most optimistic bound over the open nodes (direction-aware);
  /// false when empty or no stored node carries a bound yet.
  bool best_bound(double& out) const;

 private:
  void heap_push(SearchNode node);
  SearchNode heap_pop();

  bool minimize_;
  std::vector<SearchNode> dive_;  ///< LIFO: newest child on top
  std::vector<SearchNode> heap_;  ///< binary heap, best bound on top
  std::size_t plunge_pops_ = 0;
};

}  // namespace dpv::milp::search
