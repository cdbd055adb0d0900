#include "lp/simplex.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace dpv::lp {

namespace {

/// Marks a variable fixed by its box: it has no tableau column.
constexpr std::size_t kNoColumn = static_cast<std::size_t>(-1);

/// Dense simplex tableau with an explicit basis, stored column-major:
/// column c is rows() contiguous entries, the right-hand side is column
/// cols(). Dropped rows shrink rows() and keep the column stride.
class Tableau {
 public:
  Tableau(std::size_t rows, std::size_t cols)
      : rows_(rows), stride_(rows), cols_(cols), cells_(rows * (cols + 1), 0.0),
        basis_(rows, 0) {}

  double& at(std::size_t r, std::size_t c) { return cells_[c * stride_ + r]; }
  double at(std::size_t r, std::size_t c) const { return cells_[c * stride_ + r]; }
  double& rhs(std::size_t r) { return at(r, cols_); }
  double rhs(std::size_t r) const { return at(r, cols_); }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  std::size_t basis(std::size_t r) const { return basis_[r]; }
  void set_basis(std::size_t r, std::size_t col) { basis_[r] = col; }

  /// Columns (the rhs column cols() included) where the last pivot's
  /// normalized pivot row is nonzero, ascending.
  const std::vector<std::size_t>& pivot_nonzeros() const { return pivot_nonzeros_; }

  /// Gauss-Jordan pivot on (pivot_row, pivot_col): normalize the pivot
  /// row, then eliminate the pivot column from every other row, one
  /// whole-column fma pass per nonzero of the normalized pivot row.
  void pivot(std::size_t pivot_row, std::size_t pivot_col) {
    const double inv = 1.0 / at(pivot_row, pivot_col);
    const double* pivot_column = &cells_[pivot_col * stride_];
    neg_factor_.resize(rows_);
    for (std::size_t r = 0; r < rows_; ++r) neg_factor_[r] = -pivot_column[r];
    // A zero factor leaves the (normalized) pivot row as it is.
    neg_factor_[pivot_row] = 0.0;
    pivot_nonzeros_.clear();
    for (std::size_t c = 0; c <= cols_; ++c) {
      double& p = at(pivot_row, c);
      p *= inv;
      if (p != 0.0) pivot_nonzeros_.push_back(c);
    }
    for (const std::size_t c : pivot_nonzeros_) {
      double* column = &cells_[c * stride_];
      const double p = column[pivot_row];
      for (std::size_t r = 0; r < rows_; ++r)
        column[r] = std::fma(neg_factor_[r], p, column[r]);
    }
    basis_[pivot_row] = pivot_col;
  }

  /// Removes columns [first, cols()), keeping the rhs column.
  void drop_columns_from(std::size_t first) {
    std::copy_n(&cells_[cols_ * stride_], rows_, &cells_[first * stride_]);
    cols_ = first;
    cells_.resize((cols_ + 1) * stride_);
  }

  /// Removes row `r` by swapping with the last row and shrinking.
  void drop_row(std::size_t r) {
    const std::size_t last = rows_ - 1;
    if (r != last) {
      for (std::size_t c = 0; c <= cols_; ++c) at(r, c) = at(last, c);
      basis_[r] = basis_[last];
    }
    --rows_;
    basis_.resize(rows_);
  }

 private:
  std::size_t rows_;
  std::size_t stride_;
  std::size_t cols_;
  std::vector<double> cells_;
  std::vector<std::size_t> basis_;
  // Pivot scratch: the negated pivot column before elimination, and the
  // normalized pivot row's nonzero columns.
  std::vector<double> neg_factor_;
  std::vector<std::size_t> pivot_nonzeros_;
};

/// Price-out state for one phase: reduced-cost row + objective cell.
struct CostRow {
  std::vector<double> reduced;  // length cols
  double value = 0.0;           // current objective value (to be minimized)
};

/// Prices out the basic columns: each entry accumulates over the rows
/// whose basic column has a cost, in row order.
CostRow build_cost_row(const Tableau& t, const std::vector<double>& costs) {
  CostRow cost;
  cost.reduced = costs;
  cost.reduced.resize(t.cols(), 0.0);
  std::vector<std::size_t> priced_rows;
  for (std::size_t r = 0; r < t.rows(); ++r) {
    const double cb = costs.size() > t.basis(r) ? costs[t.basis(r)] : 0.0;
    if (cb == 0.0) continue;
    priced_rows.push_back(r);
    cost.value = std::fma(-cb, t.rhs(r), cost.value);
  }
  for (std::size_t c = 0; c < t.cols(); ++c)
    for (const std::size_t r : priced_rows)
      cost.reduced[c] = std::fma(-costs[t.basis(r)], t.at(r, c), cost.reduced[c]);
  return cost;
}

enum class PhaseResult { kOptimal, kUnbounded, kIterationLimit };

/// Runs simplex iterations minimizing the phase objective in place;
/// every column may enter.
PhaseResult run_phase(Tableau& t, CostRow& cost, const SimplexOptions& options,
                      std::size_t& iterations) {
  while (true) {
    if (iterations >= options.max_iterations) return PhaseResult::kIterationLimit;
    const bool use_bland = iterations >= options.bland_after;

    // Entering column: most negative reduced cost (Dantzig) or first
    // negative (Bland).
    std::size_t entering = t.cols();
    double best = -options.tolerance;
    for (std::size_t c = 0; c < t.cols(); ++c) {
      const double rc = cost.reduced[c];
      if (rc < best) {
        entering = c;
        if (use_bland) break;
        best = rc;
      }
    }
    if (entering == t.cols()) return PhaseResult::kOptimal;

    // Ratio test: smallest rhs/coeff over positive coefficients; ties to
    // the smallest basis index (lexicographic-ish anti-cycling aid).
    std::size_t leaving = t.rows();
    double best_ratio = std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < t.rows(); ++r) {
      const double a = t.at(r, entering);
      if (a <= options.tolerance) continue;
      const double ratio = t.rhs(r) / a;
      if (ratio < best_ratio - options.tolerance ||
          (ratio < best_ratio + options.tolerance && leaving < t.rows() &&
           t.basis(r) < t.basis(leaving))) {
        best_ratio = ratio;
        leaving = r;
      }
    }
    if (leaving == t.rows()) return PhaseResult::kUnbounded;

    // Pivot, then price the cost row with the normalized pivot row (its
    // zero columns leave the cost row as it is).
    const double rc = cost.reduced[entering];
    t.pivot(leaving, entering);
    if (rc != 0.0) {
      for (const std::size_t c : t.pivot_nonzeros())
        if (c < t.cols()) cost.reduced[c] = std::fma(-rc, t.at(leaving, c), cost.reduced[c]);
      cost.value = std::fma(-rc, t.rhs(leaving), cost.value);
    }
    cost.reduced[entering] = 0.0;  // exact by construction
    ++iterations;
  }
}

/// The problem in tableau form: one column per non-fixed variable
/// (shifted to x - lo >= 0), then slack/surplus, then artificial columns.
struct StandardForm {
  Tableau tableau;
  std::vector<std::size_t> column_of;  ///< per variable; kNoColumn when fixed
  std::size_t structural = 0;          ///< shifted variable columns
  std::size_t art_base = 0;            ///< first artificial column
};

StandardForm standard_form(const LpProblem& problem) {
  const std::size_t n = problem.variable_count();

  // Quick bound-consistency screen (also handles the zero-row case).
  for (std::size_t v = 0; v < n; ++v)
    internal_check(problem.lower_bound(v) <= problem.upper_bound(v),
                   "SimplexSolver: inconsistent bounds");

  // Map from original variable to shifted column (fixed vars excluded).
  std::vector<std::size_t> column_of(n, kNoColumn);
  std::size_t n_cols = 0;
  for (std::size_t v = 0; v < n; ++v)
    if (problem.upper_bound(v) > problem.lower_bound(v)) column_of[v] = n_cols++;

  // The shifted row system: every original row (fixed variables
  // contribute constants only), then one upper-bound row x' <= up - lo
  // per column, in column order. A row with a negative rhs is negated
  // (rhs, coefficients and sense) so every rhs is nonnegative.
  struct RowShape {
    RowSense sense;
    double rhs;
    bool negated;
  };
  const std::vector<Row>& rows = problem.rows();
  std::vector<RowShape> shapes;
  shapes.reserve(rows.size() + n_cols);
  for (const Row& row : rows) {
    double rhs = row.rhs;
    for (const LinearTerm& term : row.terms)
      rhs = std::fma(-term.coeff, problem.lower_bound(term.var), rhs);
    shapes.push_back({row.sense, rhs, false});
  }
  for (std::size_t v = 0; v < n; ++v)
    if (column_of[v] != kNoColumn)
      shapes.push_back(
          {RowSense::kLessEqual, problem.upper_bound(v) - problem.lower_bound(v), false});
  for (RowShape& shape : shapes) {
    if (shape.rhs >= 0.0) continue;
    shape.rhs = -shape.rhs;
    shape.negated = true;
    if (shape.sense == RowSense::kLessEqual)
      shape.sense = RowSense::kGreaterEqual;
    else if (shape.sense == RowSense::kGreaterEqual)
      shape.sense = RowSense::kLessEqual;
  }

  // Column layout: [structural | slack/surplus | artificial].
  const std::size_t m = shapes.size();
  std::size_t n_slack = 0, n_artificial = 0;
  for (const RowShape& shape : shapes) {
    if (shape.sense != RowSense::kEqual) ++n_slack;
    if (shape.sense != RowSense::kLessEqual) ++n_artificial;
  }
  const std::size_t slack_base = n_cols;
  const std::size_t art_base = n_cols + n_slack;

  StandardForm form{Tableau(m, n_cols + n_slack + n_artificial), std::move(column_of), n_cols,
                    art_base};
  Tableau& t = form.tableau;
  std::size_t next_slack = 0, next_artificial = 0;
  for (std::size_t r = 0; r < m; ++r) {
    const RowShape& shape = shapes[r];
    if (r < rows.size()) {
      for (const LinearTerm& term : rows[r].terms) {
        const std::size_t c = form.column_of[term.var];
        if (c != kNoColumn) t.at(r, c) += shape.negated ? -term.coeff : term.coeff;
      }
    } else {
      t.at(r, r - rows.size()) = 1.0;
    }
    t.rhs(r) = shape.rhs;
    switch (shape.sense) {
      case RowSense::kLessEqual: {
        const std::size_t s = slack_base + next_slack++;
        t.at(r, s) = 1.0;
        t.set_basis(r, s);
        break;
      }
      case RowSense::kGreaterEqual: {
        const std::size_t s = slack_base + next_slack++;
        t.at(r, s) = -1.0;
        const std::size_t a = art_base + next_artificial++;
        t.at(r, a) = 1.0;
        t.set_basis(r, a);
        break;
      }
      case RowSense::kEqual: {
        const std::size_t a = art_base + next_artificial++;
        t.at(r, a) = 1.0;
        t.set_basis(r, a);
        break;
      }
    }
  }
  return form;
}

/// Phase 1: minimizes the sum of artificials, drives them out of the
/// basis (or drops redundant rows), then drops the artificial columns:
/// phase 2 never lets them enter, so it never reads them. Returns
/// kOptimal when `form` holds a basic feasible solution, else
/// kInfeasible or kIterationLimit.
SolveStatus run_phase_one(StandardForm& form, const SimplexOptions& options,
                          std::size_t& iterations) {
  Tableau& t = form.tableau;
  const std::size_t total_cols = t.cols();
  if (form.art_base == total_cols) return SolveStatus::kOptimal;  // no artificials
  std::vector<double> phase1_costs(total_cols, 0.0);
  for (std::size_t a = form.art_base; a < total_cols; ++a) phase1_costs[a] = 1.0;
  CostRow cost = build_cost_row(t, phase1_costs);
  const PhaseResult pr = run_phase(t, cost, options, iterations);
  if (pr == PhaseResult::kIterationLimit) return SolveStatus::kIterationLimit;
  internal_check(pr != PhaseResult::kUnbounded, "SimplexSolver: phase 1 unbounded");
  // cost.value tracks the standard tableau cell -z, so the phase-1
  // optimum (sum of artificials) is -cost.value.
  if (-cost.value > 1e-7) return SolveStatus::kInfeasible;
  for (std::size_t r = 0; r < t.rows();) {
    if (t.basis(r) < form.art_base) {
      ++r;
      continue;
    }
    std::size_t col = total_cols;
    for (std::size_t c = 0; c < form.art_base; ++c) {
      if (std::abs(t.at(r, c)) > 1e-7) {
        col = c;
        break;
      }
    }
    if (col == total_cols) {
      t.drop_row(r);  // redundant constraint
    } else {
      t.pivot(r, col);
      ++r;
    }
  }
  t.drop_columns_from(form.art_base);
  return SolveStatus::kOptimal;
}

/// Phase 2 from `form`'s feasible basis for `objective` in `direction`;
/// `iterations` carries phase 1's count.
LpSolution run_phase_two(StandardForm& form, const LpProblem& problem,
                         const std::vector<LinearTerm>& objective, Objective direction,
                         const SimplexOptions& options, std::size_t iterations) {
  Tableau& t = form.tableau;
  LpSolution solution;
  std::vector<double> costs(t.cols(), 0.0);
  const double sign = direction == Objective::kMinimize ? 1.0 : -1.0;
  for (const LinearTerm& term : objective) {
    const std::size_t c = form.column_of[term.var];
    if (c != kNoColumn) costs[c] = std::fma(sign, term.coeff, costs[c]);
  }
  CostRow cost = build_cost_row(t, costs);
  const PhaseResult pr = run_phase(t, cost, options, iterations);
  solution.iterations = iterations;
  if (pr == PhaseResult::kIterationLimit) {
    solution.status = SolveStatus::kIterationLimit;
    return solution;
  }
  if (pr == PhaseResult::kUnbounded) {
    solution.status = SolveStatus::kUnbounded;
    return solution;
  }

  // Extract the original-variable values: x = lo + x'.
  std::vector<double> shifted(form.structural, 0.0);
  for (std::size_t r = 0; r < t.rows(); ++r)
    if (t.basis(r) < form.structural) shifted[t.basis(r)] = t.rhs(r);
  const std::size_t n = problem.variable_count();
  solution.values.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    const double lo = problem.lower_bound(v);
    const std::size_t c = form.column_of[v];
    solution.values[v] = c == kNoColumn ? lo : lo + shifted[c];
  }
  // Recompute the objective from the extracted point rather than from the
  // tableau bookkeeping: it is exact in the user's variable space.
  double raw = 0.0;
  for (const LinearTerm& term : objective)
    raw = std::fma(term.coeff, solution.values[term.var], raw);
  solution.objective = raw;
  solution.status = SolveStatus::kOptimal;
  return solution;
}

}  // namespace

LpSolution SimplexSolver::solve(const LpProblem& problem) const {
  StandardForm form = standard_form(problem);
  std::size_t iterations = 0;
  const SolveStatus feasible = run_phase_one(form, options_, iterations);
  if (feasible != SolveStatus::kOptimal) {
    LpSolution solution;
    solution.status = feasible;
    solution.iterations = iterations;
    return solution;
  }
  return run_phase_two(form, problem, problem.objective_terms(),
                       problem.objective_direction(), options_, iterations);
}

LpRange SimplexSolver::solve_range(const LpProblem& problem, std::size_t var) const {
  check(var < problem.variable_count(), "SimplexSolver::solve_range: variable out of range");
  StandardForm form = standard_form(problem);
  std::size_t iterations = 0;
  LpRange range;
  const SolveStatus feasible = run_phase_one(form, options_, iterations);
  if (feasible != SolveStatus::kOptimal) {
    range.min.status = range.max.status = feasible;
    range.min.iterations = range.max.iterations = iterations;
    return range;
  }
  const std::vector<LinearTerm> objective{{var, 1.0}};
  StandardForm for_min = form;
  range.min = run_phase_two(for_min, problem, objective, Objective::kMinimize, options_,
                            iterations);
  range.max = run_phase_two(form, problem, objective, Objective::kMaximize, options_,
                            iterations);
  return range;
}

}  // namespace dpv::lp
