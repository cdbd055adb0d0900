#include "lp/basis_lu.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/simd.hpp"

namespace dpv::lp {

namespace {

/// Absolute floor under which a pivot element is never trusted.
constexpr double kAbsPivotTol = 1e-11;
/// Threshold (relative to the column max) for Markowitz pivot stability.
constexpr double kRelPivotTol = 0.01;
/// Update pivots (the new FT spike diagonal) below this force a
/// refactorization instead of an update.
constexpr double kEtaPivotTol = 1e-10;
/// Entries below this are dropped from update columns/rows.
constexpr double kEtaDropTol = 1e-12;

/// Adaptive update cadence: small bases refactorize eagerly (the LU is
/// nearly free and short files keep solves tight); large bases amortize
/// the O(nnz) refactorization over proportionally more updates.
/// Forrest–Tomlin keeps U genuinely triangular — its per-update solve tax
/// is a short row-eta, not a densifying eta column — so the cap can grow
/// with the dimension (the nonzero-growth trigger still guards
/// pathological fill).
std::size_t cadence_for_dimension(std::size_t m) {
  return std::clamp<std::size_t>(m, 64, 512);
}

/// Threshold stability: the smallest |a| a column's pivot may have.
double acceptance(const std::vector<std::pair<std::size_t, double>>& col) {
  double colmax = 0.0;
  for (const auto& [i, v] : col) colmax = std::max(colmax, std::abs(v));
  return std::max(kAbsPivotTol, kRelPivotTol * colmax);
}

}  // namespace

bool MarkowitzSearch::full_scan(const ActiveSubmatrix& a, std::size_t& row,
                                std::size_t& col) {
  const std::size_t m = a.cols.size();
  std::size_t best_cost = std::numeric_limits<std::size_t>::max();
  double best_abs = 0.0;
  col = m;
  for (std::size_t k = 0; k < m; ++k) {
    if (!a.col_active[k]) continue;
    const double accept = acceptance(a.cols[k]);
    for (const auto& [i, v] : a.cols[k]) {
      const double mag = std::abs(v);
      if (mag < accept) continue;
      const std::size_t cost = (a.row_count[i] - 1) * (a.col_count[k] - 1);
      if (cost < best_cost || (cost == best_cost && mag > best_abs)) {
        best_cost = cost;
        best_abs = mag;
        row = i;
        col = k;
      }
    }
    if (best_cost == 0) break;
  }
  return col != m;
}

bool MarkowitzSearch::pick(const ActiveSubmatrix& a, std::size_t& row, std::size_t& col) {
  const std::size_t m = a.cols.size();
  if (!listed_) {
    rows_.clear();
    cols_.clear();
    for (std::size_t i = 0; i < m; ++i)
      if (a.row_active[i]) rows_.push_back(i);
    for (std::size_t k = 0; k < m; ++k)
      if (a.col_active[k]) cols_.push_back(k);
    listed_ = true;
  }
  // Drop what the pivots since the last call deactivated; note any
  // singleton and the smallest row count above one.
  bool singleton = false;
  std::size_t row_min = std::numeric_limits<std::size_t>::max();
  std::size_t kept = 0;
  for (std::size_t e = 0; e < rows_.size(); ++e) {
    const std::size_t i = rows_[e];
    if (!a.row_active[i]) continue;
    rows_[kept++] = i;
    if (a.row_count[i] == 1) singleton = true;
    if (a.row_count[i] > 1) row_min = std::min(row_min, a.row_count[i]);
  }
  rows_.resize(kept);
  kept = 0;
  std::size_t count_max = 0;
  for (std::size_t e = 0; e < cols_.size(); ++e) {
    const std::size_t k = cols_[e];
    if (!a.col_active[k]) continue;
    cols_[kept++] = k;
    if (a.col_count[k] == 1) singleton = true;
    count_max = std::max(count_max, a.col_count[k]);
  }
  cols_.resize(kept);
  if (singleton) return full_scan(a, row, col);

  // Counting sort of the active columns by count.
  bucket_.assign(count_max + 2, 0);
  for (const std::size_t k : cols_) ++bucket_[a.col_count[k] + 1];
  for (std::size_t c = 1; c < bucket_.size(); ++c) bucket_[c] += bucket_[c - 1];
  order_.resize(cols_.size());
  for (const std::size_t k : cols_) order_[bucket_[a.col_count[k]]++] = k;

  std::size_t best_cost = std::numeric_limits<std::size_t>::max();
  double best_abs = 0.0;
  col = m;
  for (const std::size_t k : order_) {
    const std::size_t count = a.col_count[k];
    if (count == 0) continue;
    // Every entry of this and each later column costs at least this.
    if (col != m && (row_min - 1) * (count - 1) > best_cost) break;
    const double accept = acceptance(a.cols[k]);
    for (const auto& [i, v] : a.cols[k]) {
      const double mag = std::abs(v);
      if (mag < accept) continue;
      if (std::isnan(mag)) return full_scan(a, row, col);
      const std::size_t cost = (a.row_count[i] - 1) * (count - 1);
      if (cost < best_cost ||
          (cost == best_cost && (mag > best_abs || (mag == best_abs && k < col)))) {
        best_cost = cost;
        best_abs = mag;
        row = i;
        col = k;
      }
    }
  }
  return col != m;
}

void BasisLu::clear_update_file() {
  eta_target_.clear();
  eta_start_.assign(1, 0);
  eta_entries_.clear();
  eta_file_nonzeros_ = 0;
  updates_since_factor_ = 0;
  u_fill_ = 0;
}

bool BasisLu::factorize(const CscMatrix& A, std::size_t n,
                        const std::vector<std::int32_t>& basic) {
  Factors& f = factors_;
  const std::size_t m = basic.size();
  f.m = m;
  f.valid = false;
  f.lrow.assign(m, 0);
  f.lstart.assign(m + 1, 0);
  f.lentries.clear();
  f.prow.assign(m, 0);
  f.pcol.assign(m, 0);
  // Keep inner-vector capacities alive across factorizations: the
  // engine refactorizes thousands of times per verification query and
  // the allocation churn of rebuilding these from scratch shows up
  // directly in the profile.
  f.urows.resize(m);
  for (SparseVec& r : f.urows) r.clear();
  f.urows_of_col.resize(m);
  for (auto& rows : f.urows_of_col) rows.clear();
  f.udiag.assign(m, 0.0);
  f.step_of_col.assign(m, 0);
  f.lu_nonzeros = 0;
  f.cadence = cadence_for_dimension(m);
  clear_update_file();
  spike_cache_valid_ = false;
  if (m == 0) {
    f.valid = true;
    return true;
  }

  // Active submatrix: columns hold the live entries, rows keep a
  // (possibly stale, deduplicated on use) pattern of touching columns.
  // All persistent scratch, same churn argument as above.
  auto& colv = active_.cols;
  colv.resize(m);
  for (auto& c : colv) c.clear();
  fac_rowpat_.resize(m);
  for (auto& r : fac_rowpat_) r.clear();
  auto& rowpat = fac_rowpat_;
  auto& rowcount = active_.row_count;
  auto& colcount = active_.col_count;
  auto& rowactive = active_.row_active;
  auto& colactive = active_.col_active;
  rowcount.assign(m, 0);
  colcount.assign(m, 0);
  rowactive.assign(m, 1);
  colactive.assign(m, 1);
  search_.reset();

  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t j = static_cast<std::size_t>(basic[k]);
    if (j >= n) {
      const std::size_t i = j - n;
      if (i >= m) return false;
      colv[k].emplace_back(i, -1.0);
    } else {
      if (j >= A.cols) return false;
      for (std::size_t e = A.col_start[j]; e < A.col_start[j + 1]; ++e) {
        if (A.row_index[e] >= m) return false;
        colv[k].emplace_back(A.row_index[e], A.value[e]);
      }
    }
    if (colv[k].empty()) return false;  // structurally singular column
    // Merge duplicate rows defensively (the simplex's CSC is already
    // merged; hand-built matrices may not be) — the elimination assumes
    // one entry per (row, column).
    std::sort(colv[k].begin(), colv[k].end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t e = 0; e < colv[k].size(); ++e) {
      if (out > 0 && colv[k][out - 1].first == colv[k][e].first)
        colv[k][out - 1].second += colv[k][e].second;
      else
        colv[k][out++] = colv[k][e];
    }
    colv[k].resize(out);
    colcount[k] = colv[k].size();
    for (const auto& [i, v] : colv[k]) {
      (void)v;
      rowpat[i].push_back(k);
      ++rowcount[i];
    }
  }
  for (std::size_t i = 0; i < m; ++i)
    if (rowcount[i] == 0) return false;  // structurally singular row

  // Singleton queues: columns/rows that can be pivoted with zero fill.
  fac_colsing_.clear();
  fac_rowsing_.clear();
  auto& col_singletons = fac_colsing_;
  auto& row_singletons = fac_rowsing_;
  for (std::size_t k = 0; k < m; ++k)
    if (colcount[k] == 1) col_singletons.push_back(k);
  for (std::size_t i = 0; i < m; ++i)
    if (rowcount[i] == 1) row_singletons.push_back(i);

  // Scratch for scatter updates and per-step rowpat dedup.
  fac_pos_.assign(m, 0);
  fac_stamp_.assign(m, 0);
  auto& pos = fac_pos_;
  auto& stamp = fac_stamp_;
  std::size_t stamp_clock = 0;

  const auto note_col = [&](std::size_t c) {
    if (colactive[c] && colcount[c] == 1) col_singletons.push_back(c);
  };
  const auto note_row = [&](std::size_t i) {
    if (rowactive[i] && rowcount[i] == 1) row_singletons.push_back(i);
  };

  // One elimination step with pivot at (row ip, basis position jp).
  const auto do_pivot = [&](std::size_t t, std::size_t ip, std::size_t jp) {
    f.lrow[t] = ip;
    f.prow[t] = ip;
    f.pcol[t] = jp;
    f.step_of_col[jp] = static_cast<std::int32_t>(t);
    double pv = 0.0;
    for (const auto& [i, v] : colv[jp])
      if (i == ip) pv = v;
    f.udiag[t] = pv;

    // L: the other rows of the pivot column, scaled. The column leaves
    // the active submatrix with them.
    const std::size_t lbegin = f.lentries.size();
    for (const auto& [i, v] : colv[jp]) {
      if (i == ip) continue;
      f.lentries.push(i, v / pv);
      --rowcount[i];
      note_row(i);
    }
    const std::size_t lend = f.lentries.size();
    f.lstart[t + 1] = lend;
    colactive[jp] = 0;
    colv[jp].clear();

    // U: the pivot row's remaining entries — extracted, removed, and
    // (when L is non-trivial) eliminated into their columns.
    ++stamp_clock;
    auto& urow = f.urows[ip];
    for (const std::size_t c : rowpat[ip]) {
      if (!colactive[c] || stamp[c] == stamp_clock) continue;
      stamp[c] = stamp_clock;
      auto& col = colv[c];
      double u = 0.0;
      std::size_t at = col.size();
      for (std::size_t e = 0; e < col.size(); ++e) {
        if (col[e].first == ip) {
          u = col[e].second;
          at = e;
          break;
        }
      }
      if (at == col.size()) continue;  // stale pattern entry
      urow.push(c, u);
      f.urows_of_col[c].push_back(static_cast<std::int32_t>(ip));
      col[at] = col.back();
      col.pop_back();
      --colcount[c];
      if (lend > lbegin && u != 0.0) {
        for (std::size_t e = 0; e < col.size(); ++e) pos[col[e].first] = e + 1;
        for (std::size_t e = lbegin; e < lend; ++e) {
          const std::size_t i = static_cast<std::size_t>(f.lentries.idx[e]);
          const double delta = -f.lentries.val[e] * u;
          if (pos[i] != 0) {
            col[pos[i] - 1].second += delta;
          } else {
            col.emplace_back(i, delta);
            pos[i] = col.size();
            rowpat[i].push_back(c);
            ++rowcount[i];
            ++colcount[c];
          }
        }
        for (std::size_t e = 0; e < col.size(); ++e) pos[col[e].first] = 0;
      }
      note_col(c);
    }
    rowactive[ip] = 0;
    rowpat[ip].clear();
    f.lu_nonzeros += (lend - lbegin) + urow.size() + 1;
  };

  for (std::size_t t = 0; t < m; ++t) {
    std::size_t ip = m, jp = m;
    // Free pivots first: column singletons, then row singletons — the
    // triangularization that handles the (dominant) logical part of
    // verification bases in O(nnz).
    while (!col_singletons.empty() && jp == m) {
      const std::size_t k = col_singletons.back();
      col_singletons.pop_back();
      if (!colactive[k] || colcount[k] != 1) continue;
      if (std::abs(colv[k].front().second) < kAbsPivotTol) continue;  // bump decides
      ip = colv[k].front().first;
      jp = k;
    }
    while (!row_singletons.empty() && jp == m) {
      const std::size_t i = row_singletons.back();
      row_singletons.pop_back();
      if (!rowactive[i] || rowcount[i] != 1) continue;
      for (const std::size_t c : rowpat[i]) {
        if (!colactive[c]) continue;
        for (const auto& [r, v] : colv[c]) {
          if (r != i) continue;
          if (std::abs(v) >= kAbsPivotTol) {
            ip = i;
            jp = c;
          }
          break;
        }
        if (jp != m) break;
      }
    }
    // Markowitz bump search: minimize (r-1)(c-1) over stability-
    // acceptable entries of the remaining active submatrix.
    if (jp == m && !search_.pick(active_, ip, jp)) return false;  // numerically singular
    do_pivot(t, ip, jp);
  }

  f.valid = true;
  return true;
}

void BasisLu::ftran(std::vector<double>& x) const {
  const Factors& f = factors_;
  const std::size_t m = f.m;
  // L row operations in factorization order (immutable under updates).
  for (std::size_t t = 0; t < m; ++t) {
    const std::size_t b = f.lstart[t], e = f.lstart[t + 1];
    if (b == e) continue;
    const double xp = x[f.lrow[t]];
    if (xp == 0.0) continue;
    simd::sparse_scatter_axpy(f.lentries.idx.data() + b, f.lentries.val.data() + b, xp,
                              x.data(), e - b);
  }
  // Forrest–Tomlin row-etas, oldest first, between L and U: each one
  // replays the row elimination that re-triangularized U after a spike.
  for (std::size_t k = 0; k < eta_target_.size(); ++k) {
    const std::size_t b = eta_start_[k];
    x[eta_target_[k]] -=
        simd::sparse_gather_dot(eta_entries_.idx.data() + b, eta_entries_.val.data() + b,
                                x.data(), eta_start_[k + 1] - b);
  }
  // Stash the pre-back-substitution vector: it equals U·(final result)
  // in row space, which is exactly the spike a Forrest–Tomlin update of
  // this column would otherwise recompute with a full pass over U.
  spike_cache_.assign(x.begin(), x.end());
  spike_cache_valid_ = true;
  // Back substitution through U into basis-position space.
  solve_scratch_.assign(m, 0.0);
  std::vector<double>& out = solve_scratch_;
  for (std::size_t t = m; t-- > 0;) {
    const SparseVec& urow = f.urows[f.prow[t]];
    double v = x[f.prow[t]];
    v -= simd::sparse_gather_dot(urow.idx.data(), urow.val.data(), out.data(),
                                 urow.size());
    out[f.pcol[t]] = v / f.udiag[t];
  }
  x.swap(solve_scratch_);
}

void BasisLu::btran(std::vector<double>& x) const {
  const Factors& f = factors_;
  const std::size_t m = f.m;
  // Forward solve through Uᵀ (column-oriented scatter), result lands in
  // constraint-row space.
  solve_scratch_.assign(m, 0.0);
  std::vector<double>& out = solve_scratch_;
  for (std::size_t t = 0; t < m; ++t) {
    const double xv = x[f.pcol[t]];
    if (xv == 0.0) continue;  // out is pre-zeroed; skip the division too
    const double v = xv / f.udiag[t];
    out[f.prow[t]] = v;
    const SparseVec& urow = f.urows[f.prow[t]];
    simd::sparse_scatter_axpy(urow.idx.data(), urow.val.data(), v, x.data(),
                              urow.size());
  }
  // Forrest–Tomlin row-eta transposes, newest first.
  for (std::size_t k = eta_target_.size(); k-- > 0;) {
    const double xt = out[eta_target_[k]];
    if (xt == 0.0) continue;
    const std::size_t b = eta_start_[k];
    simd::sparse_scatter_axpy(eta_entries_.idx.data() + b, eta_entries_.val.data() + b,
                              xt, out.data(), eta_start_[k + 1] - b);
  }
  // Lᵀ gathers in reverse factorization order.
  for (std::size_t t = m; t-- > 0;) {
    const std::size_t b = f.lstart[t], e = f.lstart[t + 1];
    if (b == e) continue;
    out[f.lrow[t]] -= simd::sparse_gather_dot(f.lentries.idx.data() + b,
                                              f.lentries.val.data() + b, out.data(), e - b);
  }
  x.swap(solve_scratch_);
}

bool BasisLu::update(std::size_t r, const std::vector<double>& w) {
  Factors& f = factors_;
  const std::size_t m = f.m;
  if (!f.valid || r >= m) return false;
  // Non-finite entries in the FTRAN'd column mean the factors (or the
  // input data) have degraded past repair-by-update: refuse before any
  // state is mutated so the caller refactorizes from clean data. NaN in
  // particular would sail through the magnitude tests below (every
  // comparison on it is false) and poison U permanently.
  for (const double v : w)
    if (!std::isfinite(v)) return false;

  // Forrest–Tomlin: replacing the column at basis position r turns U's
  // column r into the spike v = U w (w is already B^{-1} a_q, so v costs
  // one pass over U — no second L solve). The spiked row is moved to the
  // back of the pivot sequence and re-eliminated against the rows below
  // it; the multipliers become one row-eta. Only the spike pass when the
  // FTRAN cache misses is O(nnz(U)); the rest touches the rows that hold
  // column r, the spiked row's eliminations and O(m) scalars.
  const std::size_t tr = static_cast<std::size_t>(f.step_of_col[r]);
  const std::size_t row_id = f.prow[tr];

  // Spike v in step space: v_t = udiag[t]·w[pcol[t]] + Σ u·w[col].
  // The spiked step's entry is computed directly either way — it doubles
  // as the validation probe for the FTRAN spike cache: when the cache
  // matches it (the dominant case — update() always follows the FTRAN
  // that produced w), the remaining entries are an O(m) copy instead of
  // a full gather pass over U.
  const SparseVec& spike_row = f.urows[row_id];
  const double vtr =
      f.udiag[tr] * w[f.pcol[tr]] +
      simd::sparse_gather_dot(spike_row.idx.data(), spike_row.val.data(), w.data(),
                              spike_row.size());
  vstep_.assign(m, 0.0);
  const bool cache_hit =
      spike_cache_valid_ && spike_cache_.size() == m &&
      std::abs(spike_cache_[row_id] - vtr) <= 1e-9 + 1e-7 * std::abs(vtr);
  spike_cache_valid_ = false;  // consumed (or stale) either way
  if (cache_hit) {
    for (std::size_t t = 0; t < m; ++t) {
      const double v = spike_cache_[f.prow[t]];
      if (std::abs(v) > kEtaDropTol) vstep_[t] = v;
    }
  } else {
    for (std::size_t t = 0; t < m; ++t) {
      const SparseVec& urow = f.urows[f.prow[t]];
      double v = f.udiag[t] * w[f.pcol[t]];
      v += simd::sparse_gather_dot(urow.idx.data(), urow.val.data(), w.data(),
                                   urow.size());
      if (std::abs(v) > kEtaDropTol) vstep_[t] = v;
    }
  }
  vstep_[tr] = std::abs(vtr) > kEtaDropTol ? vtr : 0.0;

  // Row-spike elimination (scratch plus the eta pool's tail; committed
  // only after the new diagonal passes the stability check). The spike
  // row is old row tr: its surviving entries plus the new column-r
  // entry v_tr. Eliminating its entry at column pcol[t] (t > tr) folds
  // in row t's entries AND row t's column-r spike value v_t.
  spike_vals_.assign(m, 0.0);
  for (std::size_t k = 0; k < spike_row.size(); ++k)
    spike_vals_[static_cast<std::size_t>(spike_row.idx[k])] = spike_row.val[k];
  spike_vals_[r] = vstep_[tr];

  const std::size_t eta_begin = eta_entries_.size();
  for (std::size_t t = tr + 1; t < m; ++t) {
    const double z = spike_vals_[f.pcol[t]];
    if (z == 0.0) continue;
    spike_vals_[f.pcol[t]] = 0.0;
    if (std::abs(z) <= kEtaDropTol) continue;
    const double mu = z / f.udiag[t];
    const SparseVec& urow = f.urows[f.prow[t]];
    simd::sparse_scatter_axpy(urow.idx.data(), urow.val.data(), mu,
                              spike_vals_.data(), urow.size());
    spike_vals_[r] -= mu * vstep_[t];
    eta_entries_.push(f.prow[t], mu);
  }
  // The new diagonal folds in existing U entries, so it can go non-finite
  // even when w itself was clean (NaN would sail through the magnitude
  // test — every comparison on it is false).
  const double d = spike_vals_[r];
  if (!std::isfinite(d) || std::abs(d) < kEtaPivotTol) {
    eta_entries_.truncate(eta_begin);
    return false;  // caller refactorizes
  }

  // ---- commit ----
  // Old column-r entries live in rows with step < tr (U is triangular in
  // the current sequence), all listed in urows_of_col[r]; delete them,
  // then write the spike column.
  std::vector<std::int32_t>& holders = f.urows_of_col[r];
  for (const std::int32_t row : holders) {
    SparseVec& urow = f.urows[static_cast<std::size_t>(row)];
    for (std::size_t k = 0; k < urow.size(); ++k) {
      if (static_cast<std::size_t>(urow.idx[k]) == r) {
        urow.idx[k] = urow.idx.back();
        urow.val[k] = urow.val.back();
        urow.idx.pop_back();
        urow.val.pop_back();
        break;
      }
    }
  }
  holders.clear();
  std::size_t added = 0;
  for (std::size_t t = 0; t < m; ++t) {
    if (t == tr || std::abs(vstep_[t]) <= kEtaDropTol) continue;
    f.urows[f.prow[t]].push(r, vstep_[t]);
    holders.push_back(static_cast<std::int32_t>(f.prow[t]));
    ++added;
  }
  u_fill_ += added;

  // Rotate step tr to the back of the sequence; its row keeps its
  // constraint row id but now pivots column r on the new diagonal d
  // with an empty tail (everything right of it was just eliminated).
  f.urows[row_id].clear();
  f.prow.erase(f.prow.begin() + static_cast<std::ptrdiff_t>(tr));
  f.pcol.erase(f.pcol.begin() + static_cast<std::ptrdiff_t>(tr));
  f.udiag.erase(f.udiag.begin() + static_cast<std::ptrdiff_t>(tr));
  f.prow.push_back(row_id);
  f.pcol.push_back(r);
  f.udiag.push_back(d);
  for (std::size_t t = tr; t < m; ++t)
    f.step_of_col[f.pcol[t]] = static_cast<std::int32_t>(t);

  eta_target_.push_back(row_id);
  eta_start_.push_back(eta_entries_.size());
  eta_file_nonzeros_ += (eta_entries_.size() - eta_begin) + added + 1;
  ++updates_since_factor_;
  return true;
}

void BasisLu::save_snapshot() { snapshot_ = factors_; }

void BasisLu::restore_snapshot() {
  factors_ = snapshot_;
  clear_update_file();
  spike_cache_valid_ = false;
}

bool BasisLu::should_refactorize() const {
  if (updates_since_factor_ >= factors_.cadence) return true;
  // Every update taxes every later solve (spike fill plus row-etas); once
  // the accumulated update nonzeros outweigh the LU factors several times
  // over, refactorizing is the cheaper steady state.
  return eta_file_nonzeros_ + u_fill_ > 4 * (factors_.lu_nonzeros + factors_.m);
}

}  // namespace dpv::lp
