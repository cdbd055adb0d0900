// Bounded-variable revised simplex with dual-simplex warm restart.
//
// Unlike the dense-tableau SimplexSolver, variables keep their boxes
// x ∈ [lo, up] natively: nonbasic variables rest at either bound and the
// tableau never grows per-variable upper-bound rows, roughly halving the
// row count on verification encodings. Each row i becomes an equality
// sum_j a_ij x_j - s_i = 0 against a logical variable s_i whose bounds
// carry the row sense.
//
// Everything is driven by the dual simplex: the all-logical starting
// basis is made dual feasible by parking each structural variable at the
// bound its (minimize-oriented) cost favours, so a cold solve is dual
// iterations until primal feasibility — and a *warm* solve after a bound
// tightening (the branch-and-bound case: one variable's box shrinks)
// restarts from the parent's optimal basis, which stays dual feasible,
// typically needing only a handful of pivots.
//
// The basis is a sparse LU (lp::BasisLu) absorbing pivots as
// Forrest–Tomlin updates: FTRAN/BTRAN and the pivot-row pricing all
// scale with nonzeros, and refactorization is driven by an adaptive
// update cadence plus a numerical-drift trigger. A refactorization that
// discovers a singular basis falls back to the all-logical crash basis
// (reported in factor_stats()) instead of failing the solve. Reduced
// costs are maintained incrementally from each pivot row and rebuilt
// with the factors.
//
// The leaving row is priced by Devex reference weights, estimates of
// ||e_r B^{-1}||² (the dual steepest-edge measure) kept up to date from
// the FTRAN column each pivot already computes. Factors and Devex state
// survive a warm resolve() whose basis is the one already factorized
// (the branch-and-bound dive fast path: only the bounds changed), and a
// resolve() from the basis factorized last copies that factorization
// back instead of recomputing it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "lp/basis_lu.hpp"
#include "lp/simplex.hpp"

namespace dpv::lp {

/// A restartable basis snapshot: which variable is basic in each row
/// position, and which nonbasic variables rest at their upper bound.
struct SimplexBasis {
  std::vector<std::int32_t> basic;
  std::vector<std::uint8_t> at_upper;

  bool empty() const { return basic.empty(); }
};

/// One row of the simplex tableau after a solve, expressed over the
/// loaded problem's columns (structural j < n, logical n + i standing
/// for row i's activity). For every point x satisfying the loaded rows:
///
///   x[basic_col] + sum_entries alpha * x[col] = 0
///
/// Nonbasic columns rest at the recorded bound (`at_upper` picks which);
/// `basic_value` is the basic column's current — possibly fractional —
/// value. This identity is the raw material for Gomory mixed-integer
/// cuts (src/milp/cuts/gomory_cuts.cpp).
struct TableauRow {
  std::int32_t basic_col = -1;
  double basic_value = 0.0;
  struct Entry {
    std::size_t col = 0;
    double alpha = 0.0;
    bool at_upper = false;
    double lo = 0.0;
    double up = 0.0;
  };
  std::vector<Entry> entries;  ///< nonbasic columns with alpha != 0
};

/// Solve accounting of one RevisedSimplex, next to its BasisFactorStats.
/// A resolve() from an empty basis counts as a plain solve().
struct SolveStats {
  std::size_t solves = 0;           ///< solve() and resolve() calls
  std::size_t warm_attempts = 0;    ///< resolves offered a non-empty basis
  std::size_t warm_hits = 0;        ///< resolves that ran warm to the end
  std::size_t iterations = 0;       ///< simplex iterations, all solves
  std::size_t warm_iterations = 0;  ///< iterations of the warm hits
};

/// Stateful revised simplex over one loaded problem. `load` copies the
/// problem; `set_bounds` overrides variable boxes in place (the branch &
/// bound fixings); `solve` runs from the all-logical basis while
/// `resolve` warm-starts from a caller-supplied basis snapshot.
class RevisedSimplex {
 public:
  explicit RevisedSimplex(SimplexOptions options = {}) : options_(options) {}

  void load(const LpProblem& problem);
  bool loaded() const { return total_ > 0; }

  /// Overrides the box of structural variable `var` (must keep lo <= up).
  void set_bounds(std::size_t var, double lo, double up);

  /// Cold solve from the dual-feasible all-logical basis.
  LpSolution solve();

  /// Warm solve from `basis`; falls back to a cold solve when the basis
  /// is empty, does not fit the loaded problem or cannot be
  /// refactorized.
  LpSolution resolve(const SimplexBasis& basis);

  /// True when the last resolve() actually ran from the supplied basis.
  bool last_resolve_was_warm() const { return last_resolve_was_warm_; }

  /// Snapshot of the current basis (valid after a solve).
  SimplexBasis capture_basis() const;

  /// Reads tableau row `row` (0 <= row < row count) of the current
  /// basis into `out`; valid after a solve that returned kOptimal.
  /// Returns false before any solve or when `row` is out of range.
  bool tableau_row(std::size_t row, TableauRow& out) const;

  /// The basic_col and basic_value tableau_row(row, ...) would report,
  /// without its BTRAN and pricing; false where tableau_row is.
  bool basic_in_row(std::size_t row, std::int32_t& col, double& value) const;

  /// Cumulative solve accounting (across loads).
  const SolveStats& solve_stats() const { return solve_stats_; }

  /// Cumulative factorization-engine counters (across loads).
  const BasisFactorStats& factor_stats() const { return factor_stats_; }

  /// Cumulative Devex reference-framework restarts (weights reset to 1
  /// after growing past trust).
  std::size_t pricing_resets() const { return pricing_resets_; }

  std::size_t structural_count() const { return n_; }
  std::size_t basis_row_count() const { return m_; }

 private:
  enum : std::int8_t { kAtLower = 0, kAtUpper = 1, kBasic = 2 };

  /// solve() without the accounting (resolve's cold fallback).
  LpSolution solve_cold();
  void reset_to_logical_basis();
  bool install_basis(const SimplexBasis& basis);
  /// Rebuilds the factorization from basic_; false when singular.
  /// `allow_fault` gates the lp.refactor_singular injection probe so the
  /// singular-recovery crash refactorization (all-logical, provably
  /// nonsingular) cannot be failed by the harness it is recovering from.
  bool refactorize(bool allow_fault = true);
  /// Puts back the factors of the last computed factorization, whose
  /// basis is snapshot_basic_, with refactorize()'s side effects.
  void restore_factors();
  /// Singular-basis recovery: crash to the all-logical basis (always
  /// factorizable) and count it in factor_stats().
  void recover_singular_basis();
  void recompute_basic_values();
  double nonbasic_value(std::size_t j) const;
  /// alpha_j = rho · A_j for one column j (rho dense over rows).
  double row_dot_column(const double* rho, std::size_t j) const;
  /// rho := e_position^T B^{-1}, dense over constraint rows.
  void btran_unit(std::size_t position, std::vector<double>& rho) const;
  /// w := B^{-1} A_q, dense over basis positions.
  void ftran_column(std::size_t q, std::vector<double>& w) const;
  /// Scatters alpha = rho^T A over all columns into alpha_/touched_
  /// (structural via the CSR mirror, logical n+i as -rho[i]).
  void compute_pivot_row(const std::vector<double>& rho, bool sort_touched);
  /// Rebuilds dval_ from scratch: one BTRAN for the duals, one pass over
  /// the columns. Called when dval_valid_ is down (fresh factorization,
  /// cold basis install) — every dual pivot afterwards maintains dval_
  /// incrementally from the pivot row it already computed.
  void recompute_reduced_costs();
  /// Runs dual simplex to primal feasibility; fills `solution`.
  void run_dual(LpSolution& solution);
  void extract(LpSolution& solution) const;

  SimplexOptions options_;

  // Problem in computational form (set by load()).
  std::size_t n_ = 0;      ///< structural variables
  std::size_t m_ = 0;      ///< rows (= logical variables)
  std::size_t total_ = 0;  ///< n_ + m_
  std::vector<double> lo_, up_;  ///< per column, logicals included
  std::vector<double> cost_;     ///< minimize orientation, logicals 0
  bool all_costs_zero_ = true;
  /// Structural columns, compressed sparse column (logical n_+i is -e_i
  /// implicitly) plus a row-major CSR mirror for pivot-row pricing.
  CscMatrix A_;
  std::vector<std::size_t> row_start_;  ///< size m_ + 1
  std::vector<std::size_t> row_col_;
  std::vector<double> row_val_;
  double objective_sign_ = 1.0;  ///< +1 minimize, -1 maximize

  // Basis state.
  std::vector<std::int32_t> basic_;   ///< size m_
  /// basic_ of the factors lu_ saved last (see BasisLu::save_snapshot);
  /// empty after load().
  std::vector<std::int32_t> snapshot_basic_;
  std::vector<std::int8_t> status_;   ///< size total_
  BasisLu lu_;
  std::vector<double> xb_;            ///< basic values, size m_
  /// Pivot-row pricing scratch: dense alpha over all columns, the
  /// indices touched by the last scatter (each once) and their marks.
  std::vector<double> alpha_;
  std::vector<std::size_t> touched_;
  std::vector<std::uint8_t> is_touched_;
  std::size_t pivots_since_refactor_ = 0;
  bool last_resolve_was_warm_ = false;
  SolveStats solve_stats_;
  /// Reduced costs d_j = c_j - y^T A_j, maintained incrementally across
  /// dual pivots (d -= θ_d · α over the touched pivot-row columns — the
  /// textbook update, sparing a full duals BTRAN plus a sparse dot per
  /// ratio-test column every iteration). Invalidated by refactorization
  /// and cold installs; bound changes never touch it (reduced costs
  /// depend on costs and the basic set only). Unused (all zero) when
  /// all_costs_zero_.
  std::vector<double> dval_;
  bool dval_valid_ = false;
  /// Dense per-row copies of the basic variable's box (blo_[r] =
  /// lo_[basic_[r]], bup_[r] = up_[basic_[r]]): the leaving-row scan is
  /// the one O(m)-every-iteration loop left in the dual pivot, and these
  /// turn its double indirection through basic_ into three contiguous
  /// streams that simd::argmax_violation consumes 4 lanes at a time.
  /// Rebuilt at run_dual entry (covers set_bounds and installs), patched
  /// O(1) per pivot, re-derived after a singular-basis recovery.
  std::vector<double> blo_, bup_;
  void rebuild_basic_bounds();
  /// Devex reference weights per basis row (estimates of ||e_r B^{-1}||²;
  /// reset to 1 on refactorized installs and framework restarts).
  std::vector<double> devex_;
  std::size_t pricing_resets_ = 0;
  BasisFactorStats factor_stats_;
};

}  // namespace dpv::lp
