// Pluggable LP backend layer.
//
// Everything above the raw simplex codes (branch & bound, the verifier,
// benchmarks) talks to this interface instead of a concrete solver, so
// backends can be swapped per query and compared head-to-head:
//   * kDenseTableau   — the original stateless two-phase dense-tableau
//                       SimplexSolver; every resolve is a cold solve.
//                       Kept as the reference implementation for parity.
//   * kRevisedBounded — bounded-variable revised simplex; variables keep
//                       their boxes natively and a resolve warm-starts
//                       from a caller-supplied basis via the dual simplex
//                       (the ideal case after a single bound tightening,
//                       which is exactly what branch & bound does).
//
// See src/solver/README.md for the warm-start contract.
#pragma once

#include <cstddef>
#include <memory>

#include "lp/lp_problem.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"

namespace dpv::solver {

enum class LpBackendKind { kDenseTableau, kRevisedBounded };

const char* lp_backend_kind_name(LpBackendKind kind);

/// Opaque restart token passed between solves; produced by
/// LpBackend::capture_basis and consumed by LpBackend::resolve.
using WarmBasis = lp::SimplexBasis;

/// One simplex tableau row over the loaded problem's columns; see
/// lp::TableauRow for the identity it encodes. Produced by
/// LpBackend::row_of_basis on tableau-capable backends.
using TableauRow = lp::TableauRow;

/// Counters aggregated across the solves issued through one backend (or
/// merged across backends by the MILP layer).
struct SolverStats {
  std::size_t lp_solves = 0;       ///< total solve/resolve calls
  std::size_t warm_attempts = 0;   ///< resolves offered a non-empty basis
  std::size_t warm_hits = 0;       ///< resolves that actually ran warm
  std::size_t lp_iterations = 0;   ///< simplex iterations, all solves
  std::size_t warm_iterations = 0; ///< iterations spent inside warm runs
  /// Cutting-plane accounting, filled by the MILP search (see
  /// src/milp/cuts/): rows appended (root + node-local) and separation
  /// rounds actually run at the root.
  std::size_t cuts_added = 0;
  std::size_t cut_rounds = 0;
  /// Basis-factorization accounting from the revised simplex (see
  /// lp::BasisFactorStats; all zero on the dense-tableau backend):
  /// full (re)factorizations, pivots absorbed as Forrest–Tomlin
  /// updates, nonzeros appended to the update file, and singular-basis
  /// fallbacks to the all-logical crash basis.
  std::size_t basis_factorizations = 0;
  std::size_t basis_updates = 0;
  std::size_t eta_nonzeros = 0;
  std::size_t singular_recoveries = 0;
  /// Non-finite FTRAN/BTRAN/pivot values caught by the revised simplex
  /// before they could poison a verdict; each forced a refactorization
  /// (see lp::BasisFactorStats::nonfinite_recoveries).
  std::size_t nonfinite_recoveries = 0;
  /// Devex reference-framework restarts of the revised simplex
  /// (weights reset to 1 after growing past trust — a pricing-quality
  /// signal: frequent resets mean the steepest-edge estimates keep
  /// degenerating into most-violated-row pricing).
  std::size_t pricing_resets = 0;
  /// Batched sibling re-solves issued through solve_children (each batch
  /// covers every child of one branch from the shared parent basis).
  std::size_t sibling_batches = 0;
  /// Where LP wall time goes: inside factorize/refactorize vs the rest
  /// of the pivot loop (pricing, ratio tests, FTRAN/BTRAN, updates).
  double factor_seconds = 0.0;
  double pivot_seconds = 0.0;
  /// Work-stealing search accounting, filled by the MILP layer (see
  /// src/milp/search/frontier.hpp): nodes moved between per-worker
  /// deques, victim probes issued, and the frontier's high-water mark
  /// of simultaneously open nodes (merge keeps the max — a width, not
  /// a volume).
  std::size_t nodes_stolen = 0;
  std::size_t steal_attempts = 0;
  std::size_t peak_open_nodes = 0;
  /// Optimality gap still open when a search stopped on its node
  /// budget: |incumbent − best surviving bound|, or |bound target −
  /// best bound| for verifier margin objectives (see
  /// milp::BranchAndBoundOptions::bound_target). Zero when the search
  /// finished with a proof; merge keeps the max (worst entry).
  double best_bound_gap = 0.0;

  void merge(const SolverStats& other);
  /// Fraction of warm attempts that did not fall back to a cold solve.
  double warm_hit_rate() const;
  /// Mean nonzeros per eta update (0 when no updates were recorded).
  double avg_eta_nonzeros() const;
};

/// One child of a branch for LpBackend::solve_children: override the box
/// of `var` to [lo, up] on top of the backend's currently loaded bounds.
struct ChildBounds {
  std::size_t var = 0;
  double lo = 0.0;
  double up = 0.0;
};

/// Per-child outcome of a batched sibling solve.
struct ChildResult {
  lp::LpSolution solution;
  WarmBasis basis;  ///< child basis snapshot (empty when the solve failed)
};

/// One loaded LP instance with mutable variable boxes. Not thread-safe;
/// parallel searches give each worker its own backend.
class LpBackend {
 public:
  virtual ~LpBackend() = default;

  virtual LpBackendKind kind() const = 0;
  virtual bool supports_warm_start() const = 0;

  /// Copies `problem` into the backend. Must precede any solve.
  virtual void load(const lp::LpProblem& problem) = 0;

  /// Overrides the box of `var` on the loaded copy (lo <= up).
  virtual void set_bounds(std::size_t var, double lo, double up) = 0;

  /// Solves with the current boxes from scratch.
  virtual lp::LpSolution solve() = 0;

  /// Solves with the current boxes, warm-starting from `basis` when
  /// supported and the basis fits; otherwise a cold solve. Backends
  /// record hit/miss in stats().
  virtual lp::LpSolution resolve(const WarmBasis& basis) = 0;

  /// Basis snapshot after a successful solve; empty when unsupported.
  virtual WarmBasis capture_basis() const = 0;

  /// Batched sibling re-solves: solves every child of one branch from
  /// the shared `parent` basis, writing `children[i]`'s solution and
  /// basis snapshot into `out[i]`. The point of batching is that the
  /// expensive per-child setup is shared: the first child typically
  /// finds the parent's factors still in memory (the revised backend's
  /// matching-basis fast path skips its refactorization entirely)
  /// and the Devex pricing weights trained on the parent carry into
  /// both children instead of being rebuilt per pop.
  ///
  /// Bounds contract: each child's override is applied before its solve
  /// and left in place for the next, so on return the LAST child's
  /// override is still active. Callers re-apply their own bounds before
  /// the next solve (branch & bound re-applies node fixings per pop
  /// anyway). Counted once in stats().sibling_batches plus the usual
  /// per-resolve counters.
  virtual void solve_children(const WarmBasis& parent,
                              const ChildBounds* children, std::size_t count,
                              ChildResult* out);

  /// True when row_of_basis can read the simplex tableau of the last
  /// optimal solve (the raw material for Gomory cuts).
  virtual bool supports_tableau() const { return false; }

  /// Fills `out` with tableau row `row` (0 <= row < loaded row count)
  /// of the most recent optimal solve; columns are structural j < n and
  /// logical n + i for problem row i. Returns false when the backend
  /// has no tableau, nothing was solved yet, or `row` is out of range.
  virtual bool row_of_basis(std::size_t row, TableauRow& out) const {
    (void)row;
    (void)out;
    return false;
  }

  const SolverStats& stats() const { return stats_; }
  void reset_stats() { stats_ = {}; }

  /// Simplex iterations of the most recent solve()/resolve() alone —
  /// the warm-resolve delta exposed for per-call effort accounting
  /// (e.g. bounding strong-branching probe cost) without diffing the
  /// cumulative stats() counters. Contract pinned by
  /// tests/test_search.cpp (WarmResolveIterationDelta).
  std::size_t last_solve_iterations() const { return last_solve_iterations_; }

 protected:
  SolverStats stats_;
  std::size_t last_solve_iterations_ = 0;
};

/// Factory for the kind; `options` bounds the per-solve iteration budget.
std::unique_ptr<LpBackend> make_lp_backend(LpBackendKind kind,
                                           const lp::SimplexOptions& options = {});

}  // namespace dpv::solver
