#include "milp/cuts/cut_engine.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <unordered_set>

#include "milp/cuts/gomory_cuts.hpp"
#include "milp/cuts/relu_split_cuts.hpp"

namespace dpv::milp::cuts {

namespace {

/// Keep only the most violated cuts of each root round.
constexpr std::size_t kMaxCutsPerRound = 32;
/// Reject cuts whose max/min absolute coefficient ratio exceeds this.
constexpr double kMaxDynamism = 1e7;

void hash_mix(std::size_t& h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
}

std::uint64_t double_bits(double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// Order-sensitive content hash of a row, for cut deduplication.
std::size_t cut_row_hash(const lp::Row& row) {
  std::size_t h = 1469598103934665603ull;
  hash_mix(h, static_cast<std::uint64_t>(row.sense));
  hash_mix(h, double_bits(row.rhs));
  for (const lp::LinearTerm& t : row.terms) {
    hash_mix(h, t.var);
    hash_mix(h, double_bits(t.coeff));
  }
  return h;
}

}  // namespace

bool sanitize_cut(const MilpProblem& problem, const std::vector<double>& values,
                  Cut& cut) {
  lp::Row& row = cut.row;
  if (row.sense == lp::RowSense::kEqual) return false;  // generators emit inequalities
  const lp::LpProblem& relax = problem.relaxation();

  // Merge duplicate variables so hashing and dropping see one term each.
  std::sort(row.terms.begin(), row.terms.end(),
            [](const lp::LinearTerm& a, const lp::LinearTerm& b) { return a.var < b.var; });
  std::size_t out = 0;
  for (std::size_t k = 0; k < row.terms.size(); ++k) {
    if (out > 0 && row.terms[out - 1].var == row.terms[k].var)
      row.terms[out - 1].coeff += row.terms[k].coeff;
    else
      row.terms[out++] = row.terms[k];
  }
  row.terms.resize(out);

  double max_abs = 0.0;
  for (const lp::LinearTerm& t : row.terms) {
    if (t.var >= relax.variable_count() || !std::isfinite(t.coeff)) return false;
    max_abs = std::max(max_abs, std::abs(t.coeff));
  }
  if (!std::isfinite(row.rhs) || max_abs == 0.0 || max_abs > 1e12) return false;

  // Unit inf-norm: keeps the violation threshold scale-free and the
  // appended rows well conditioned.
  const double scale = 1.0 / max_abs;
  for (lp::LinearTerm& t : row.terms) t.coeff *= scale;
  row.rhs *= scale;

  // Drop near-zero coefficients, padding the rhs with the dropped
  // term's worst-case activity over its box so the cut stays valid
  // (simply deleting a term would *strengthen* the inequality).
  constexpr double kDropTol = 1e-10;
  double min_abs = 1.0;
  out = 0;
  for (std::size_t k = 0; k < row.terms.size(); ++k) {
    const lp::LinearTerm& t = row.terms[k];
    if (std::abs(t.coeff) >= kDropTol) {
      min_abs = std::min(min_abs, std::abs(t.coeff));
      row.terms[out++] = t;
      continue;
    }
    const double lo = relax.lower_bound(t.var);
    const double up = relax.upper_bound(t.var);
    // >=: subtract max(coeff * x); <=: subtract min(coeff * x).
    const bool want_max = row.sense == lp::RowSense::kGreaterEqual;
    const double extreme = (t.coeff >= 0.0) == want_max ? t.coeff * up : t.coeff * lo;
    if (!std::isfinite(extreme)) return false;
    row.rhs -= extreme;
  }
  row.terms.resize(out);
  if (row.terms.empty()) return false;
  if (1.0 / min_abs > kMaxDynamism) return false;

  double activity = 0.0;
  for (const lp::LinearTerm& t : row.terms) {
    if (t.var >= values.size()) return false;
    activity += t.coeff * values[t.var];
  }
  cut.violation = row.sense == lp::RowSense::kGreaterEqual ? row.rhs - activity
                                                           : activity - row.rhs;
  return std::isfinite(cut.violation) && cut.violation >= kMinCutViolation;
}

namespace {

/// Is `row` active (binding) at the point `values`? Equality rows are
/// always binding; inequalities within tolerance of their rhs are.
bool row_binding(const lp::Row& row, const std::vector<double>& values) {
  double activity = 0.0;
  for (const lp::LinearTerm& t : row.terms) activity += t.coeff * values[t.var];
  constexpr double kBindTol = 1e-6;
  switch (row.sense) {
    case lp::RowSense::kLessEqual:
      return activity >= row.rhs - kBindTol;
    case lp::RowSense::kGreaterEqual:
      return activity <= row.rhs + kBindTol;
    case lp::RowSense::kEqual:
      return true;
  }
  return true;
}

/// Pads `basis` (over `structural` columns and its own rows) to `rows`
/// rows, each added row's logical basic: a valid basis of the problem
/// with those rows appended, dual feasible when `basis` was.
void pad_basis(lp::SimplexBasis& basis, std::size_t structural, std::size_t rows) {
  for (std::size_t i = basis.basic.size(); i < rows; ++i)
    basis.basic.push_back(static_cast<std::int32_t>(structural + i));
  basis.at_upper.resize(structural + rows, 0);
}

}  // namespace

RootCutReport run_root_cuts(MilpProblem& problem, const CutOptions& options,
                            const lp::SimplexOptions& lp_options,
                            double integrality_tolerance, lp::SimplexBasis start) {
  RootCutReport report;
  if (options.root_rounds == 0 || problem.binary_variables().empty()) return report;

  const ReluSplitCutGenerator relu_split;
  const GomoryCutGenerator gomory;
  const CutGenerator* const generators[] = {&relu_split, &gomory};

  lp::RevisedSimplex simplex(lp_options);
  const std::size_t n = problem.relaxation().variable_count();
  const std::size_t base_rows = problem.relaxation().row_count();
  std::unordered_set<std::size_t> seen;
  // Incumbent basis carried across rounds, padded each round with the
  // appended cut rows' logicals: the grown basis is block triangular
  // ([B 0; C -I]) and keeps the old duals, so it stays valid and dual
  // feasible — the dual simplex only repairs the violated cuts. Round 0
  // starts from `start` (cold when it is empty or does not fit).
  lp::SimplexBasis basis = std::move(start);
  // True while the simplex holds the optimal or infeasible basis of the
  // problem as it stands (no row added or removed since the last solve).
  bool solved = false;
  bool warm_round0 = false;
  // Consecutive non-binding rounds per live cut row (problem row
  // base_rows + k), for aging.
  std::vector<std::size_t> ages;

  for (std::size_t round = 0; round < options.root_rounds; ++round) {
    // Cooperative deadline between rounds: every appended cut is already
    // sound, so stopping here simply hands the search a less-tightened
    // root. (A mid-solve expiry surfaces as kDeadline below.)
    if (run_expired(lp_options.run_control)) {
      report.deadline_expired = true;
      break;
    }
    simplex.load(problem.relaxation());
    const lp::LpSolution lp = simplex.resolve(basis);
    if (round == 0) warm_round0 = simplex.last_resolve_was_warm();
    if (lp.status == lp::SolveStatus::kDeadline) {
      report.deadline_expired = true;
      break;
    }
    if (lp.status != lp::SolveStatus::kOptimal && lp.status != lp::SolveStatus::kInfeasible)
      break;  // iteration limit: the search decides
    // The simplex holds the basis this solve stopped on: the optimum, or
    // the basis whose row proved the LP infeasible (a warm start from it
    // re-proves that at once).
    solved = true;
    if (round == 0) report.first_basis = simplex.capture_basis();
    if (lp.status == lp::SolveStatus::kInfeasible) break;
    bool fractional = false;
    for (const std::size_t b : problem.binary_variables()) {
      if (std::abs(lp.values[b] - std::round(lp.values[b])) > integrality_tolerance) {
        fractional = true;
        break;
      }
    }
    if (!fractional) break;  // integral root: nothing to separate
    ++report.rounds;

    const CutContext ctx{problem, lp, simplex};
    std::vector<Cut> candidates;
    for (const CutGenerator* generator : generators) generator->generate(ctx, candidates);
    std::vector<Cut> kept;
    for (Cut& cut : candidates) {
      if (!sanitize_cut(problem, lp.values, cut)) continue;
      if (!seen.insert(cut_row_hash(cut.row)).second) continue;
      kept.push_back(std::move(cut));
    }

    // Update cut ages at this round's optimum and collect the rows to
    // age out. (A stale cut's slack is strictly interior, so its
    // logical is basic and dropping row + basic entry keeps the padded
    // basis square and nonsingular.)
    const std::vector<lp::Row>& rows_now = problem.relaxation().rows();
    for (std::size_t k = 0; k < ages.size(); ++k) {
      if (row_binding(rows_now[base_rows + k], lp.values))
        ages[k] = 0;
      else
        ++ages[k];
    }
    std::vector<std::size_t> drop;  // indices into the live-cut list
    if (options.root_age_limit > 0)
      for (std::size_t k = 0; k < ages.size(); ++k)
        if (ages[k] >= options.root_age_limit) drop.push_back(k);

    if (kept.empty() && drop.empty()) break;  // separation dried up

    basis = simplex.capture_basis();

    // Only drop rows whose logical is basic (the expected case for a
    // non-binding cut); anything else would leave the basis unusable.
    std::vector<std::uint8_t> is_basic(n + basis.basic.size(), 0);
    for (const std::int32_t b : basis.basic) is_basic[static_cast<std::size_t>(b)] = 1;
    std::vector<std::uint8_t> removed(ages.size(), 0);
    std::vector<std::size_t> drop_rows;
    for (const std::size_t k : drop) {
      if (!is_basic[n + base_rows + k]) continue;
      removed[k] = 1;
      drop_rows.push_back(base_rows + k);
    }
    // Re-check dryness against the *filtered* drops: when separation
    // found nothing and no row is actually removable, further rounds
    // would re-solve and re-separate to no effect.
    if (kept.empty() && drop_rows.empty()) break;
    solved = false;

    if (!drop_rows.empty()) {
      problem.remove_rows(drop_rows);
      report.cuts_aged_out += drop_rows.size();
      const auto row_gone = [&](std::size_t i) {
        return i >= base_rows && i < base_rows + removed.size() && removed[i - base_rows];
      };
      // Re-index: structural columns keep their ids; logical n + i maps
      // to n + (i minus removed rows before i), dropped logicals leave
      // the basis with their row.
      const std::size_t old_m = basis.basic.size();
      std::vector<std::size_t> shift(old_m, 0);
      std::size_t dropped = 0;
      for (std::size_t i = 0; i < old_m; ++i) {
        if (row_gone(i)) ++dropped;
        shift[i] = dropped;
      }
      lp::SimplexBasis fixed;
      for (const std::int32_t b : basis.basic) {
        const std::size_t j = static_cast<std::size_t>(b);
        if (j < n) {
          fixed.basic.push_back(b);
          continue;
        }
        const std::size_t i = j - n;
        if (row_gone(i)) continue;
        fixed.basic.push_back(static_cast<std::int32_t>(n + i - shift[i]));
      }
      fixed.at_upper.assign(n + old_m - dropped, 0);
      for (std::size_t j = 0; j < n; ++j) fixed.at_upper[j] = basis.at_upper[j];
      for (std::size_t i = 0; i < old_m; ++i) {
        if (row_gone(i)) continue;
        fixed.at_upper[n + i - shift[i]] = basis.at_upper[n + i];
      }
      basis = std::move(fixed);
      std::vector<std::size_t> survivors;
      for (std::size_t k = 0; k < ages.size(); ++k)
        if (!removed[k]) survivors.push_back(ages[k]);
      ages = std::move(survivors);
    }

    if (!kept.empty()) {
      std::stable_sort(kept.begin(), kept.end(),
                       [](const Cut& a, const Cut& b) { return a.violation > b.violation; });
      if (kept.size() > kMaxCutsPerRound) kept.resize(kMaxCutsPerRound);
      std::vector<lp::Row> rows;
      rows.reserve(kept.size());
      for (Cut& cut : kept) rows.push_back(std::move(cut.row));
      report.cuts_added += rows.size();
      ages.insert(ages.end(), rows.size(), 0);
      problem.add_rows(std::move(rows));
      // Each appended row's logical enters basic.
      pad_basis(basis, n, problem.relaxation().row_count());
    }
  }
  // The search's root starts where the loop stopped: the last solve's
  // basis when the problem did not change after it, else `basis`, which
  // already covers every row appended since.
  report.basis = solved ? simplex.capture_basis() : std::move(basis);
  report.cuts_live = ages.size();
  report.solver_stats = solver::simplex_stats(simplex);
  report.solver_stats.root_warm_starts = warm_round0 ? 1 : 0;
  report.warm_rounds = report.solver_stats.warm_hits;
  return report;
}

}  // namespace dpv::milp::cuts
