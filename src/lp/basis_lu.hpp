// Sparse LU basis factorization with Forrest–Tomlin updates — the
// factorization engine behind the revised simplex.
//
// Verification bases are overwhelmingly sparse: big-M ReLU rows touch a
// handful of neurons, characterizer and cut rows a few more, and most
// basis columns are logicals (-e_i). A dense m×m inverse makes every
// pivot O(m²) regardless; this engine factorizes the basis matrix B as
// P B Q = L U with Markowitz-style pivoting (free singleton
// triangularization first, then a (r-1)(c-1) fill-minimizing search over
// the residual bump with threshold stability), and absorbs simplex
// pivots as Forrest–Tomlin updates: the entering column's spike v = U w
// replaces column r of U, the now non-triangular row is moved to the
// back of the pivot sequence and eliminated against the rows below it,
// and the elimination multipliers are recorded as a short row-eta
// applied between L and U in every later solve. U stays genuinely
// triangular, so a long pivot run costs O(nnz(U)) per update instead of
// densifying a product-form eta file — the property that keeps deep
// branch-and-bound dives at hardware speed.
//
// FTRAN (B x = b) applies the recorded L row-operations, then the
// Forrest–Tomlin row-etas oldest-first, then back-substitutes through
// U. BTRAN (Bᵀ x = b) runs the transposes in reverse order. All solves
// skip zero entries, so work scales with the nonzeros actually touched
// (the hyper-sparse case — unit BTRAN rhs for the dual pivot row — stays
// far below O(m)). Inner loops run over SoA (int32 index / double value)
// arrays so the gather-heavy halves vectorize through simd.hpp.
//
// Refactorization policy: `should_refactorize()` fires when the update
// file length passes an adaptive cadence (scaled with the basis
// dimension — see refactor_cadence()) or when accumulated update
// nonzeros dwarf the LU factors; numerical-drift triggers live in the
// simplex (it cross-checks the FTRAN'd pivot element against the
// BTRAN'd pivot row). `update()` refuses tiny pivots, which also forces
// a refactorization. A snapshot of fresh factors (`save_snapshot`) can be
// put back later (`restore_snapshot`), so re-installing a basis the
// engine already factorized costs a copy.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace dpv::lp {

/// Compressed sparse column matrix: the loaded constraint matrix's
/// structural columns. Entries within a column are sorted by row.
struct CscMatrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<std::size_t> col_start;  ///< size cols + 1
  std::vector<std::size_t> row_index;  ///< size nnz
  std::vector<double> value;           ///< size nnz

  std::size_t nonzeros() const { return row_index.size(); }
};

/// Cumulative factorization-engine counters. Kept by the simplex across
/// loads; solver::simplex_stats copies them into SolverStats.
struct BasisFactorStats {
  std::size_t factorizations = 0;       ///< computed (re)factorizations
  /// Re-installs of the most recently factorized basis answered by
  /// copying its saved factors back instead of recomputing them.
  std::size_t restores = 0;
  std::size_t updates = 0;              ///< pivots absorbed as Forrest–Tomlin updates
  std::size_t eta_nonzeros = 0;         ///< nnz appended to the update file
  std::size_t singular_recoveries = 0;  ///< crash-basis fallbacks
  /// Non-finite FTRAN/BTRAN/update results caught before they could
  /// poison a verdict; each one forced a refactorization (falling back
  /// to the crash basis when even that failed).
  std::size_t nonfinite_recoveries = 0;
  std::size_t refactor_cadence = 0;     ///< adaptive update cap chosen for the basis dimension
  double factor_seconds = 0.0;          ///< wall time factorizing, saving and restoring factors
  double pivot_seconds = 0.0;           ///< wall time pivoting (solve loop minus factor)
};

/// Structure-of-arrays sparse vector: parallel int32 index / double
/// value arrays. The hot FTRAN/BTRAN loops stream idx/val contiguously
/// and feed AVX2's vpgatherdpd (which takes int32 indices) directly.
struct SparseVec {
  std::vector<std::int32_t> idx;
  std::vector<double> val;

  std::size_t size() const { return idx.size(); }
  bool empty() const { return idx.empty(); }
  void clear() {
    idx.clear();
    val.clear();
  }
  void push(std::size_t i, double v) {
    idx.push_back(static_cast<std::int32_t>(i));
    val.push_back(v);
  }
  /// Drops every entry from position `n` on.
  void truncate(std::size_t n) {
    idx.resize(n);
    val.resize(n);
  }
};

/// The part of the basis matrix a factorization has not yet pivoted:
/// live (row, value) entries per column, each active row's count of
/// entries in active columns, and each active column's entry count.
/// BasisLu::factorize keeps it as its working state; it is public so
/// the pivot search can be tested on hand-built instances.
struct ActiveSubmatrix {
  std::vector<std::vector<std::pair<std::size_t, double>>> cols;
  std::vector<std::size_t> row_count, col_count;
  std::vector<std::uint8_t> row_active, col_active;
};

/// Markowitz bump search: over the entries of the active submatrix that
/// pass threshold stability (|a| >= max(1e-11, 0.01 · column max)), the
/// one with the lowest cost (r-1)(c-1), then the larger |a|, then the
/// lower column index and position. A full scan in column order also
/// stops after the first column holding a cost-0 entry (a singleton).
///
/// pick() visits columns in ascending count order instead and stops
/// once (r_min-1)(c-1) exceeds the best cost found, where r_min is the
/// smallest active row count: no unvisited column can reach the best.
/// With no singleton active every cost is at least 1, so the full
/// scan's early stop never applies and both return the same entry;
/// while a singleton is active (one whose entry failed the threshold),
/// or when a visited entry is NaN (whose comparisons make the full
/// scan's result depend on its order), pick() runs the full scan.
class MarkowitzSearch {
 public:
  /// Forgets the active row/column lists; call once per factorization.
  void reset() { listed_ = false; }

  /// Picks the pivot of `a` into (row, col); false when no entry passes
  /// the threshold (the basis is numerically singular). Between calls
  /// rows and columns may only leave the active set.
  bool pick(const ActiveSubmatrix& a, std::size_t& row, std::size_t& col);

 private:
  /// The column-order full scan.
  static bool full_scan(const ActiveSubmatrix& a, std::size_t& row, std::size_t& col);

  bool listed_ = false;
  std::vector<std::size_t> rows_, cols_;  ///< active rows/columns (compacted per pick)
  std::vector<std::size_t> order_;        ///< cols_ by ascending count
  std::vector<std::size_t> bucket_;       ///< counting-sort offsets
};

/// Sparse LU factors of one basis matrix plus the update file of pivots
/// applied since the last factorization. Input/output index spaces:
/// FTRAN maps constraint-row space to basis-position space, BTRAN the
/// reverse — matching B's shape (rows × basis positions).
class BasisLu {
 public:
  /// Factorizes the basis selected by `basic` (size m): entry j < n is
  /// structural column j of `A`, entry j >= n the logical column
  /// -e_{j-n}. Clears the update file. Returns false (and invalidates
  /// the engine) when the basis is numerically singular.
  bool factorize(const CscMatrix& A, std::size_t n,
                 const std::vector<std::int32_t>& basic);

  bool valid() const { return factors_.valid; }
  std::size_t dimension() const { return factors_.m; }

  /// x := B^{-1} x (x dense, size m; zeros are skipped, not scanned-free).
  void ftran(std::vector<double>& x) const;

  /// x := B^{-T} x (x dense, size m).
  void btran(std::vector<double>& x) const;

  /// Absorbs a simplex pivot replacing basis position `r`, where `w` is
  /// the FTRAN'd entering column (w = B^{-1} a_q). Returns false when
  /// the resulting pivot element is too small to trust — the caller
  /// must refactorize instead.
  bool update(std::size_t r, const std::vector<double>& w);

  /// Copies the factors into the snapshot slot. Call right after a
  /// successful factorize(), before any update.
  void save_snapshot();

  /// Replaces the factors with the snapshot's and clears the update
  /// file: the state factorize() left when save_snapshot() ran, bit for
  /// bit. Only valid after save_snapshot().
  void restore_snapshot();

  /// Update-file-driven refactorization trigger (see file comment).
  bool should_refactorize() const;

  /// Adaptive update cap chosen by the last factorize() for this basis
  /// dimension (the satellite replacing the historical hard-coded 64/96).
  std::size_t refactor_cadence() const { return factors_.cadence; }

  std::size_t eta_count() const { return eta_target_.size(); }
  std::size_t lu_nonzeros() const { return factors_.lu_nonzeros; }
  std::size_t eta_file_nonzeros() const { return eta_file_nonzeros_; }

 private:
  /// L and U of one basis as Forrest–Tomlin updates leave them: what a
  /// snapshot copies.
  struct Factors {
    std::size_t m = 0;
    bool valid = false;
    // ---- L: immutable once factorized (updates never touch it) ----
    /// L as row operations applied in factorization order: at step t,
    /// x[i] -= mult * x[lrow[t]] for the (i, mult) of lentries in
    /// [lstart[t], lstart[t + 1]).
    std::vector<std::size_t> lrow;
    std::vector<std::size_t> lstart;
    SparseVec lentries;
    // ---- U: pivot sequence, rotated in place by Forrest–Tomlin ----
    /// Step t eliminates constraint row prow[t] against basis position
    /// pcol[t] with pivot element udiag[t]; urows[prow[t]] holds that
    /// row's entries right of the diagonal as (basis position, coeff).
    /// Keying rows by constraint row lets an update rotate a step to
    /// the back by moving three scalars.
    std::vector<std::size_t> prow;
    std::vector<std::size_t> pcol;
    std::vector<double> udiag;
    std::vector<SparseVec> urows;
    /// urows_of_col[c]: the constraint rows whose U row may hold basis
    /// position c (a superset: a row whose tail an update cleared stays
    /// listed until c itself is replaced).
    std::vector<std::vector<std::int32_t>> urows_of_col;
    /// step_of_col[basis position] = current step index in the U
    /// sequence (maintained across FT permutations).
    std::vector<std::int32_t> step_of_col;
    std::size_t lu_nonzeros = 0;
    std::size_t cadence = 0;
  };

  Factors factors_;
  Factors snapshot_;

  // ---- update file ----
  /// Forrest–Tomlin row-etas, the multipliers that re-triangularized U
  /// after each spike: eta e applies x[eta_target_[e]] -= Σ μ·x[source]
  /// over the (source constraint row, μ) of eta_entries_ in
  /// [eta_start_[e], eta_start_[e + 1]) in FTRAN, the transpose in
  /// BTRAN. Both index constraint-row space (between L and U). Pooled
  /// so an update appends instead of allocating.
  std::vector<std::size_t> eta_target_;
  std::vector<std::size_t> eta_start_;
  SparseVec eta_entries_;
  std::size_t eta_file_nonzeros_ = 0;
  std::size_t updates_since_factor_ = 0;
  std::size_t u_fill_ = 0;  ///< net U nonzeros added by FT spikes
  void clear_update_file();

  /// Solve scratch reused across ftran/btran calls (no per-call heap
  /// allocation in the pivot loop). BasisLu is single-owner,
  /// single-threaded — parallel searches give each worker its own
  /// simplex and therefore its own engine.
  mutable std::vector<double> solve_scratch_;
  /// FT update scratch: spike values per basis position + per step.
  std::vector<double> spike_vals_;
  std::vector<double> vstep_;
  /// FTRAN intermediate x right before U back-substitution — which *is*
  /// U·(result) in constraint-row space, i.e. the Forrest–Tomlin spike
  /// of a subsequent update(result). Caching it turns the update's
  /// O(nnz(U)) spike pass into an O(m) copy; update() validates the
  /// cache against one directly-computed entry before trusting it, so a
  /// stale cache (an intervening ftran on a different column) degrades
  /// to the slow path, never to a wrong spike.
  mutable std::vector<double> spike_cache_;
  mutable bool spike_cache_valid_ = false;
  /// factorize() working state, persistent so inner-vector capacities
  /// survive across the thousands of refactorizations of a long search.
  ActiveSubmatrix active_;
  MarkowitzSearch search_;
  std::vector<std::vector<std::size_t>> fac_rowpat_;
  std::vector<std::size_t> fac_colsing_, fac_rowsing_;
  std::vector<std::size_t> fac_pos_, fac_stamp_;
};

}  // namespace dpv::lp
