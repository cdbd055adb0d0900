#include "lp/revised_simplex.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "common/simd.hpp"

namespace dpv::lp {

namespace {

constexpr double kInf = 1e30;
constexpr double kPrimalTol = 1e-7;
constexpr double kZeroTol = 1e-9;
constexpr double kPivotTol = 1e-8;
/// Devex weights past this trigger a reference-framework restart (all
/// weights back to 1, counted in pricing_resets()).
constexpr double kDevexResetCap = 1e10;

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

}  // namespace

void RevisedSimplex::load(const LpProblem& problem) {
  n_ = problem.variable_count();
  m_ = problem.row_count();
  total_ = n_ + m_;

  lo_.assign(total_, 0.0);
  up_.assign(total_, 0.0);
  for (std::size_t v = 0; v < n_; ++v) {
    lo_[v] = problem.lower_bound(v);
    up_[v] = problem.upper_bound(v);
    internal_check(lo_[v] <= up_[v], "RevisedSimplex: inconsistent bounds");
  }

  std::vector<std::vector<std::pair<std::size_t, double>>> cols(n_);
  const auto& rows = problem.rows();
  for (std::size_t i = 0; i < m_; ++i) {
    for (const LinearTerm& term : rows[i].terms) {
      internal_check(term.var < n_, "RevisedSimplex: row references unknown variable");
      cols[term.var].emplace_back(i, term.coeff);
    }
    const std::size_t s = n_ + i;
    switch (rows[i].sense) {
      case RowSense::kLessEqual:
        lo_[s] = -kInf;
        up_[s] = rows[i].rhs;
        break;
      case RowSense::kGreaterEqual:
        lo_[s] = rows[i].rhs;
        up_[s] = kInf;
        break;
      case RowSense::kEqual:
        lo_[s] = rows[i].rhs;
        up_[s] = rows[i].rhs;
        break;
    }
  }
  // Merge duplicate (row, var) entries so each column has one coefficient
  // per row — simplifies every later dot product.
  for (auto& col : cols) {
    std::sort(col.begin(), col.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    std::size_t out = 0;
    for (std::size_t k = 0; k < col.size(); ++k) {
      if (out > 0 && col[out - 1].first == col[k].first)
        col[out - 1].second += col[k].second;
      else
        col[out++] = col[k];
    }
    col.resize(out);
  }
  // Flatten to compressed sparse column, plus a row-major (CSR) mirror so
  // the pivot row can be priced by scattering only the BTRAN nonzeros.
  A_.rows = m_;
  A_.cols = n_;
  A_.col_start.assign(n_ + 1, 0);
  A_.row_index.clear();
  A_.value.clear();
  for (std::size_t j = 0; j < n_; ++j) {
    A_.col_start[j] = A_.row_index.size();
    for (const auto& [row, coeff] : cols[j]) {
      A_.row_index.push_back(row);
      A_.value.push_back(coeff);
    }
  }
  A_.col_start[n_] = A_.row_index.size();
  row_start_.assign(m_ + 1, 0);
  for (const std::size_t row : A_.row_index) ++row_start_[row + 1];
  for (std::size_t i = 0; i < m_; ++i) row_start_[i + 1] += row_start_[i];
  row_col_.assign(A_.nonzeros(), 0);
  row_val_.assign(A_.nonzeros(), 0.0);
  std::vector<std::size_t> fill = row_start_;
  for (std::size_t j = 0; j < n_; ++j) {
    for (std::size_t e = A_.col_start[j]; e < A_.col_start[j + 1]; ++e) {
      const std::size_t at = fill[A_.row_index[e]]++;
      row_col_[at] = j;
      row_val_[at] = A_.value[e];
    }
  }

  cost_.assign(total_, 0.0);
  objective_sign_ = problem.objective_direction() == Objective::kMinimize ? 1.0 : -1.0;
  for (const LinearTerm& term : problem.objective_terms())
    cost_[term.var] += objective_sign_ * term.coeff;
  all_costs_zero_ = true;
  for (std::size_t j = 0; j < n_; ++j)
    if (cost_[j] != 0.0) all_costs_zero_ = false;

  basic_.clear();
  status_.clear();
  xb_.clear();
  alpha_.assign(total_, 0.0);
  is_touched_.assign(total_, 0);
  touched_.clear();
  devex_.clear();
  dval_.clear();
  dval_valid_ = false;
  snapshot_basic_.clear();
}

void RevisedSimplex::set_bounds(std::size_t var, double lo, double up) {
  internal_check(var < n_, "RevisedSimplex::set_bounds: variable out of range");
  internal_check(lo <= up, "RevisedSimplex::set_bounds: inverted bounds");
  lo_[var] = lo;
  up_[var] = up;
}

double RevisedSimplex::nonbasic_value(std::size_t j) const {
  return status_[j] == kAtUpper ? up_[j] : lo_[j];
}

double RevisedSimplex::row_dot_column(const double* rho, std::size_t j) const {
  if (j >= n_) return -rho[j - n_];
  double sum = 0.0;
  for (std::size_t e = A_.col_start[j]; e < A_.col_start[j + 1]; ++e)
    sum += rho[A_.row_index[e]] * A_.value[e];
  return sum;
}

void RevisedSimplex::btran_unit(std::size_t position, std::vector<double>& rho) const {
  rho.assign(m_, 0.0);
  rho[position] = 1.0;
  lu_.btran(rho);
}

void RevisedSimplex::ftran_column(std::size_t q, std::vector<double>& w) const {
  w.assign(m_, 0.0);
  if (q >= n_) {
    w[q - n_] = -1.0;
  } else {
    for (std::size_t e = A_.col_start[q]; e < A_.col_start[q + 1]; ++e)
      w[A_.row_index[e]] = A_.value[e];
  }
  lu_.ftran(w);
}

void RevisedSimplex::compute_pivot_row(const std::vector<double>& rho, bool sort_touched) {
  for (const std::size_t j : touched_) {
    alpha_[j] = 0.0;
    is_touched_[j] = 0;
  }
  touched_.clear();
  for (std::size_t i = 0; i < m_; ++i) {
    const double r = rho[i];
    if (r == 0.0) continue;
    // A structural column is listed once even when its partial sum
    // cancels to 0.0 between two rows: run_dual's reduced-cost update
    // walks touched_ and must subtract each column's share once.
    for (std::size_t e = row_start_[i]; e < row_start_[i + 1]; ++e) {
      const std::size_t j = row_col_[e];
      if (!is_touched_[j]) {
        is_touched_[j] = 1;
        touched_.push_back(j);
      }
      alpha_[j] += r * row_val_[e];
    }
    // Logical n + i has its single entry in row i.
    const std::size_t s = n_ + i;
    is_touched_[s] = 1;
    touched_.push_back(s);
    alpha_[s] -= r;
  }
  // Bland's anti-cycling rule wants the smallest eligible index, so give
  // it an ascending scan; the default ratio test keeps the (equally
  // deterministic) scatter order.
  if (sort_touched) std::sort(touched_.begin(), touched_.end());
}

void RevisedSimplex::reset_to_logical_basis() {
  basic_.resize(m_);
  status_.assign(total_, kAtLower);
  for (std::size_t i = 0; i < m_; ++i) {
    basic_[i] = static_cast<std::int32_t>(n_ + i);
    status_[n_ + i] = kBasic;
  }
  // Park each structural variable at the bound its cost favours: with the
  // all-logical basis the duals are zero, so d_j = c_j and this choice is
  // dual feasible (d >= 0 at lower, d <= 0 at upper) for the true
  // objective — no phase-1 needed, the dual simplex does everything.
  for (std::size_t j = 0; j < n_; ++j)
    status_[j] = cost_[j] < 0.0 ? kAtUpper : kAtLower;
  // All-logical B factors as m column singletons; never singular. The
  // injection probe is suppressed here: this is the recovery path.
  const bool ok = refactorize(/*allow_fault=*/false);
  internal_check(ok, "RevisedSimplex: logical basis must factorize");
  devex_.assign(m_, 1.0);
  // All-logical basis ⇒ duals are zero ⇒ d = c directly (logicals cost 0).
  dval_ = cost_;
  dval_valid_ = true;
  // basic_ changed wholesale — the per-row bound caches follow (this is
  // the singular-recovery path; run_dual cannot see them stale).
  rebuild_basic_bounds();
  recompute_basic_values();
}

bool RevisedSimplex::install_basis(const SimplexBasis& basis) {
  if (basis.basic.size() != m_ || basis.at_upper.size() != total_) return false;
  std::vector<std::int8_t> status(total_, kAtLower);
  for (std::size_t j = 0; j < total_; ++j)
    if (basis.at_upper[j]) status[j] = kAtUpper;
  for (const std::int32_t j : basis.basic) {
    if (j < 0 || static_cast<std::size_t>(j) >= total_) return false;
    if (status[j] == kBasic) return false;  // duplicate basic entry
    status[j] = kBasic;
  }
  // A nonbasic variable must rest at a finite bound.
  for (std::size_t j = 0; j < total_; ++j) {
    if (status[j] == kAtLower && lo_[j] <= -kInf) return false;
    if (status[j] == kAtUpper && up_[j] >= kInf) return false;
  }
  // Dive fast path: when the incoming basis is exactly the one whose
  // factors are already in memory (a child node popped right after its
  // parent solved — the dominant warm-restart pattern on depth-first
  // dives), the factorization, update file and Devex weights all remain
  // valid: the basis matrix only depends on which columns are basic, not
  // on the bounds the caller just tightened. Only the nonbasic resting
  // values need recomputing.
  const bool reuse = lu_.valid() && basic_.size() == m_ &&
                     std::equal(basic_.begin(), basic_.end(), basis.basic.begin());
  basic_.assign(basis.basic.begin(), basis.basic.end());
  status_ = std::move(status);
  if (!reuse) {
    // Going back to the basis factorized last (the second child of a
    // batched branch, a reliability probe) copies its saved factors
    // back: the same bits factorize() would compute.
    if (basic_ == snapshot_basic_) {
      restore_factors();
    } else if (!refactorize()) {
      // A singular warm basis: the caller crashes back to the all-logical
      // basis (a cold solve); surface the event in the stats.
      ++factor_stats_.singular_recoveries;
      return false;
    }
    devex_.assign(m_, 1.0);
  }
  recompute_basic_values();
  return true;
}

bool RevisedSimplex::basic_in_row(std::size_t row, std::int32_t& col, double& value) const {
  if (row >= m_ || basic_.empty()) return false;
  col = basic_[row];
  value = xb_[row];
  return true;
}

bool RevisedSimplex::tableau_row(std::size_t row, TableauRow& out) const {
  if (!basic_in_row(row, out.basic_col, out.basic_value)) return false;
  std::vector<double> rho;
  btran_unit(row, rho);
  out.entries.clear();
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == kBasic) continue;
    const double alpha = row_dot_column(rho.data(), j);
    if (std::abs(alpha) < 1e-11) continue;
    out.entries.push_back({j, alpha, status_[j] == kAtUpper, lo_[j], up_[j]});
  }
  return true;
}

SimplexBasis RevisedSimplex::capture_basis() const {
  SimplexBasis basis;
  if (basic_.empty()) return basis;
  basis.basic = basic_;
  basis.at_upper.assign(total_, 0);
  for (std::size_t j = 0; j < total_; ++j)
    if (status_[j] == kAtUpper) basis.at_upper[j] = 1;
  return basis;
}

bool RevisedSimplex::refactorize(bool allow_fault) {
  const auto start = std::chrono::steady_clock::now();
  // Fresh factors get fresh reduced costs: the incremental d updates
  // accumulate the same kind of drift the factorization does, so the
  // two are rebuilt on the same cadence.
  dval_valid_ = false;
  bool ok = lu_.factorize(A_, n_, basic_);
  // Chaos probe: simulate the factorization discovering a singular basis
  // so the crash-basis fallback is exercised, not assumed.
  if (ok && allow_fault && fault::should_fire("lp.refactor_singular")) ok = false;
  if (ok) {
    // Only factors that passed the probe are saved for restore_factors.
    lu_.save_snapshot();
    snapshot_basic_ = basic_;
    ++factor_stats_.factorizations;
    factor_stats_.refactor_cadence = lu_.refactor_cadence();
    pivots_since_refactor_ = 0;
  }
  factor_stats_.factor_seconds += seconds_since(start);
  return ok;
}

void RevisedSimplex::restore_factors() {
  const auto start = std::chrono::steady_clock::now();
  dval_valid_ = false;
  lu_.restore_snapshot();
  ++factor_stats_.restores;
  factor_stats_.refactor_cadence = lu_.refactor_cadence();
  pivots_since_refactor_ = 0;
  factor_stats_.factor_seconds += seconds_since(start);
}

void RevisedSimplex::recover_singular_basis() {
  ++factor_stats_.singular_recoveries;
  reset_to_logical_basis();
}

void RevisedSimplex::recompute_basic_values() {
  // xB = B^{-1} (0 - N x_N): accumulate the nonbasic activity, then apply
  // the factorization.
  std::vector<double> residual(m_, 0.0);
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == kBasic) continue;
    const double v = nonbasic_value(j);
    if (v == 0.0) continue;
    if (j >= n_) {
      residual[j - n_] += v;  // logical column is -e_i
    } else {
      for (std::size_t e = A_.col_start[j]; e < A_.col_start[j + 1]; ++e)
        residual[A_.row_index[e]] -= A_.value[e] * v;
    }
  }
  lu_.ftran(residual);
  xb_ = std::move(residual);
}

void RevisedSimplex::rebuild_basic_bounds() {
  blo_.resize(m_);
  bup_.resize(m_);
  for (std::size_t r = 0; r < m_; ++r) {
    const std::size_t j = static_cast<std::size_t>(basic_[r]);
    blo_[r] = lo_[j];
    bup_[r] = up_[j];
  }
}

void RevisedSimplex::recompute_reduced_costs() {
  dval_.assign(total_, 0.0);
  if (!all_costs_zero_) {
    std::vector<double> duals(m_, 0.0);
    for (std::size_t k = 0; k < m_; ++k) duals[k] = cost_[basic_[k]];
    lu_.btran(duals);
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == kBasic) continue;
      dval_[j] = cost_[j] - row_dot_column(duals.data(), j);
    }
  }
  dval_valid_ = true;
}

void RevisedSimplex::run_dual(LpSolution& solution) {
  // Wall-time split: refactorize() accumulates factor_seconds itself;
  // everything else in this loop is pivot time.
  struct SecondsSplit {
    std::chrono::steady_clock::time_point start;
    double factor_before;
    BasisFactorStats& stats;
    ~SecondsSplit() {
      const double total = seconds_since(start);
      stats.pivot_seconds +=
          std::max(0.0, total - (stats.factor_seconds - factor_before));
    }
  } split{std::chrono::steady_clock::now(), factor_stats_.factor_seconds, factor_stats_};

  std::vector<double> rho(m_);
  std::vector<double> w(m_);
  std::size_t iterations = 0;
  if (devex_.size() != m_) devex_.assign(m_, 1.0);
  rebuild_basic_bounds();
  // Non-finite recovery strikes: reset on every clean pivot, and after
  // three back-to-back recoveries the data is judged poisoned beyond
  // refactorization — bail with a no-verdict status instead of looping.
  std::size_t consecutive_recoveries = 0;
  const auto nonfinite_recover = [&] {
    ++consecutive_recoveries;
    ++factor_stats_.nonfinite_recoveries;
    if (!refactorize()) recover_singular_basis();
    recompute_basic_values();
    ++iterations;
  };

  while (true) {
    if (iterations >= options_.max_iterations) {
      solution.status = SolveStatus::kIterationLimit;
      solution.iterations = iterations;
      return;
    }
    // Cooperative deadline, polled every 64 pivots (and on entry): stop
    // at the iteration boundary — a safe point by construction — and
    // report the distinct no-verdict status (resolve() must not burn a
    // cold retry on it the way it does for kIterationLimit).
    if ((iterations & 63) == 0 && run_expired(options_.run_control)) {
      solution.status = SolveStatus::kDeadline;
      solution.iterations = iterations;
      return;
    }
    const bool use_bland = iterations >= options_.bland_after;
    if (!dval_valid_) recompute_reduced_costs();

    // Leaving row (Devex): the violation squared is weighted down by the
    // reference estimate of ||e_r B^{-1}||², approximating the dual
    // steepest-edge row choice at O(1) extra cost. (Bland: the smallest
    // variable index among the violated.)
    std::size_t leave_row = m_;
    bool below = false;
    if (use_bland) {
      for (std::size_t r = 0; r < m_; ++r) {
        const bool this_below = xb_[r] < blo_[r] - kPrimalTol;
        if (!this_below && xb_[r] <= bup_[r] + kPrimalTol) continue;
        if (leave_row == m_ || basic_[r] < basic_[leave_row]) {
          leave_row = r;
          below = this_below;
        }
      }
    } else {
      leave_row = simd::argmax_violation(xb_.data(), blo_.data(), bup_.data(),
                                         devex_.data(), kPrimalTol, m_);
      if (leave_row < m_) below = xb_[leave_row] < blo_[leave_row] - kPrimalTol;
    }
    if (leave_row == m_) {
      // NaN basic values never register as violated (every comparison on
      // NaN is false), so certify finiteness before declaring optimality:
      // poisoned values get a clean-data retry, never a bogus OPTIMAL.
      bool finite = true;
      for (std::size_t r = 0; r < m_; ++r) {
        if (std::isfinite(xb_[r])) continue;
        finite = false;
        break;
      }
      if (!finite && consecutive_recoveries < 3) {
        nonfinite_recover();
        continue;
      }
      solution.status =
          finite ? SolveStatus::kOptimal : SolveStatus::kIterationLimit;
      solution.iterations = iterations;
      return;
    }

    // Pivot row rho^T A scattered over the BTRAN nonzeros only.
    btran_unit(leave_row, rho);
    if (fault::should_fire("lp.btran_nonfinite"))
      rho[leave_row] = std::numeric_limits<double>::quiet_NaN();
    compute_pivot_row(rho, use_bland);
    const double dir = below ? 1.0 : -1.0;  // wanted sign of d(xB_r)

    // Dual ratio test over eligible nonbasic columns. alpha~ = dir*alpha;
    // eligible: at-lower needs alpha~ < 0, at-upper needs alpha~ > 0.
    // Among columns attaining the minimal ratio |d_j|/|alpha_j| we keep
    // the largest |alpha| (stability); Bland keeps the smallest index.
    std::size_t entering = total_;
    double best_ratio = std::numeric_limits<double>::infinity();
    double best_alpha = 0.0;
    // A poisoned pivot row makes its columns silently ineligible (NaN
    // fails every comparison), which would misread "no entering column"
    // as a Farkas infeasibility proof. Track it and recover instead.
    bool saw_nonfinite = false;
    for (const std::size_t j : touched_) {
      if (status_[j] == kBasic) continue;
      if (up_[j] - lo_[j] < kZeroTol) continue;  // fixed: can never move
      const double alpha = alpha_[j];
      if (!std::isfinite(alpha)) {
        saw_nonfinite = true;
        continue;
      }
      const double signed_alpha = dir * alpha;
      if (status_[j] == kAtLower ? signed_alpha >= -kPivotTol
                                 : signed_alpha <= kPivotTol)
        continue;
      const double d = dval_[j];
      if (!std::isfinite(d)) {
        saw_nonfinite = true;
        continue;
      }
      const double ratio = std::abs(d) / std::abs(alpha);
      const bool take =
          use_bland
              ? (ratio < best_ratio - kZeroTol ||
                 (ratio < best_ratio + kZeroTol &&
                  (entering == total_ || j < entering)))
              : (ratio < best_ratio - kZeroTol ||
                 (ratio < best_ratio + kZeroTol && std::abs(alpha) > std::abs(best_alpha)));
      if (take) {
        if (ratio < best_ratio) best_ratio = ratio;
        best_alpha = alpha;
        entering = j;
      }
    }
    if (entering == total_) {
      if (saw_nonfinite) {
        // Not a certificate — the pivot row was poisoned. Retry from
        // refactorized data; after three strikes report no-verdict.
        if (consecutive_recoveries < 3) {
          nonfinite_recover();
          continue;
        }
        solution.status = SolveStatus::kIterationLimit;
        solution.iterations = iterations;
        return;
      }
      // The violated row cannot be repaired by any movable column: the
      // primal is infeasible (a Farkas certificate in basis terms).
      solution.status = SolveStatus::kInfeasible;
      solution.iterations = iterations;
      return;
    }

    // Pivot column w = B^{-1} A_q.
    const std::size_t q = entering;
    ftran_column(q, w);
    if (fault::should_fire("lp.ftran_nonfinite"))
      w[leave_row] = std::numeric_limits<double>::quiet_NaN();
    // The drift and tiny-pivot tests below are magnitude comparisons a
    // NaN silently passes; catch a non-finite pivot element explicitly
    // and take the same refactorize-and-retry path.
    if (!std::isfinite(w[leave_row])) {
      if (consecutive_recoveries < 3) {
        nonfinite_recover();
        continue;
      }
      solution.status = SolveStatus::kIterationLimit;
      solution.iterations = iterations;
      return;
    }
    // Numerical-stability trigger: the FTRAN'd pivot element must agree
    // with the BTRAN'd pivot row's view of the same entry. Drift means
    // the factors (or the eta file) have degraded — refactorize and
    // retry the iteration with clean data. Fresh factors are trusted.
    if (pivots_since_refactor_ > 0 &&
        std::abs(w[leave_row] - best_alpha) >
            1e-9 + 1e-7 * std::abs(best_alpha)) {
      if (!refactorize()) recover_singular_basis();
      recompute_basic_values();
      ++iterations;
      continue;
    }
    if (std::abs(w[leave_row]) < kPivotTol) {
      // Too small a pivot to trust: refactorize and retry the iteration
      // with clean data.
      if (!refactorize()) recover_singular_basis();
      recompute_basic_values();
      ++iterations;
      continue;
    }

    // Step: the leaving variable exits exactly at its violated bound.
    const std::size_t leave_var = static_cast<std::size_t>(basic_[leave_row]);
    const double target = below ? lo_[leave_var] : up_[leave_var];
    const double t = (xb_[leave_row] - target) / w[leave_row];
    // Full-vector axpy (leave_row included — its slot is overwritten on
    // the next line anyway, which keeps the loop branch-free).
    simd::axpy(-t, w.data(), xb_.data(), m_);
    xb_[leave_row] = nonbasic_value(q) + t;
    // Dual-pivot reduced-cost maintenance: d ← d − θ_d·α over the pivot
    // row (α is zero outside touched_, so those entries are untouched).
    // Runs before the status flips so "basic" still means pre-pivot.
    if (!all_costs_zero_) {
      const double theta_d = dval_[q] / best_alpha;
      if (theta_d != 0.0)
        for (const std::size_t j : touched_)
          if (status_[j] != kBasic) dval_[j] -= theta_d * alpha_[j];
      dval_[leave_var] = -theta_d;
      dval_[q] = 0.0;
    }
    status_[leave_var] = below ? kAtLower : kAtUpper;
    status_[q] = kBasic;
    basic_[leave_row] = static_cast<std::int32_t>(q);
    blo_[leave_row] = lo_[q];
    bup_[leave_row] = up_[q];

    // Devex reference-framework update (Forrest–Goldfarb): propagate the
    // leaving row's weight through the pivot column the iteration already
    // FTRAN'd, so the estimates track ||e_r B^{-1}||² without extra
    // solves. Estimates past the trust cap restart the framework.
    const double alpha_pivot = w[leave_row];
    const double gr = devex_[leave_row];
    const double inv_a2 = 1.0 / (alpha_pivot * alpha_pivot);
    const double gnew = std::max(gr * inv_a2, 1.0);
    if (gnew > kDevexResetCap) {
      devex_.assign(m_, 1.0);
      ++pricing_resets_;
    } else {
      // leave_row rides along (its candidate is exactly gr, a no-op
      // against the current weight) and is then set explicitly.
      simd::max_square_scaled(w.data(), inv_a2 * gr, devex_.data(), m_);
      devex_[leave_row] = gnew;
    }

    // Absorb the pivot into the factorization.
    const std::size_t eta_before = lu_.eta_file_nonzeros();
    if (lu_.update(leave_row, w)) {
      ++factor_stats_.updates;
      factor_stats_.eta_nonzeros += lu_.eta_file_nonzeros() - eta_before;
    } else if (!refactorize()) {
      recover_singular_basis();
      recompute_basic_values();
      ++iterations;
      continue;
    }

    ++iterations;
    ++pivots_since_refactor_;
    consecutive_recoveries = 0;
    if (lu_.should_refactorize()) {
      if (!refactorize()) recover_singular_basis();
      recompute_basic_values();
    }
  }
}

void RevisedSimplex::extract(LpSolution& solution) const {
  solution.values.assign(n_, 0.0);
  for (std::size_t j = 0; j < n_; ++j)
    if (status_[j] != kBasic) solution.values[j] = nonbasic_value(j);
  for (std::size_t r = 0; r < m_; ++r) {
    const std::size_t j = static_cast<std::size_t>(basic_[r]);
    if (j < n_) {
      // Clamp basic values into the box: dual termination guarantees
      // feasibility only up to kPrimalTol.
      solution.values[j] = std::clamp(xb_[r], lo_[j], up_[j]);
    }
  }
  double raw = 0.0;
  for (std::size_t j = 0; j < n_; ++j) raw += cost_[j] * solution.values[j];
  solution.objective = objective_sign_ * raw;
}

LpSolution RevisedSimplex::solve_cold() {
  internal_check(loaded() || (n_ == 0 && m_ == 0),
                 "RevisedSimplex::solve before load");
  LpSolution solution;
  // Infeasible boxes are caught before any pivoting.
  for (std::size_t j = 0; j < total_; ++j) {
    if (lo_[j] <= up_[j] + kPrimalTol) continue;
    solution.status = SolveStatus::kInfeasible;
    return solution;
  }
  reset_to_logical_basis();
  run_dual(solution);
  if (solution.status == SolveStatus::kOptimal) extract(solution);
  return solution;
}

LpSolution RevisedSimplex::solve() {
  LpSolution solution = solve_cold();
  ++solve_stats_.solves;
  solve_stats_.iterations += solution.iterations;
  return solution;
}

LpSolution RevisedSimplex::resolve(const SimplexBasis& basis) {
  last_resolve_was_warm_ = false;
  if (basis.empty()) return solve();
  ++solve_stats_.solves;
  ++solve_stats_.warm_attempts;
  LpSolution solution;
  for (std::size_t j = 0; j < total_; ++j) {
    if (lo_[j] <= up_[j] + kPrimalTol) continue;
    solution.status = SolveStatus::kInfeasible;
    return solution;
  }
  last_resolve_was_warm_ = install_basis(basis);
  if (last_resolve_was_warm_) {
    run_dual(solution);
    if (solution.status == SolveStatus::kOptimal) extract(solution);
    if (solution.status == SolveStatus::kIterationLimit) {
      // A warm basis that leads nowhere numerically: one cold retry.
      last_resolve_was_warm_ = false;
      const std::size_t warm_iterations = solution.iterations;
      solution = solve_cold();
      solution.iterations += warm_iterations;
    }
  } else {
    solution = solve_cold();
  }
  solve_stats_.iterations += solution.iterations;
  if (last_resolve_was_warm_) {
    ++solve_stats_.warm_hits;
    solve_stats_.warm_iterations += solution.iterations;
  }
  return solution;
}

}  // namespace dpv::lp
