// Sparse LU factorization engine tests: factor/solve identity against a
// dense reference on randomized sparse bases, Forrest–Tomlin update
// equivalence to refactorization across pivot chains, revised-simplex
// optima against the dense-tableau SimplexSolver, tableau rows against
// the dense row e_r^T B^{-1} [A | -I], verdicts across threads x cuts
// against ReLU phase enumeration, and the singular-basis crash recovery
// path.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <memory>
#include <string>

#include "absint/interval.hpp"
#include "common/rng.hpp"
#include "lp/basis_lu.hpp"
#include "lp/revised_simplex.hpp"
#include "milp/cuts/cut_engine.hpp"
#include "milp_oracle.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

constexpr double kTol = 1e-6;

using lp::BasisLu;
using lp::CscMatrix;
using lp::LinearTerm;
using lp::LpProblem;
using lp::LpSolution;
using lp::Objective;
using lp::RevisedSimplex;
using lp::RowSense;
using lp::SimplexOptions;
using lp::SolveStatus;

// ------------------------------------------------------- dense reference

/// Builds the dense basis matrix selected by `basic` (j < n: structural
/// column j of A; j >= n: logical -e_{j-n}).
std::vector<double> dense_basis(const CscMatrix& A, std::size_t n,
                                const std::vector<std::int32_t>& basic) {
  const std::size_t m = basic.size();
  std::vector<double> B(m * m, 0.0);
  for (std::size_t k = 0; k < m; ++k) {
    const std::size_t j = static_cast<std::size_t>(basic[k]);
    if (j >= n) {
      B[(j - n) * m + k] = -1.0;
    } else {
      for (std::size_t e = A.col_start[j]; e < A.col_start[j + 1]; ++e)
        B[A.row_index[e] * m + k] += A.value[e];
    }
  }
  return B;
}

/// Solves M x = b by Gaussian elimination with partial pivoting.
/// Returns false when M is (near) singular.
bool dense_solve(std::vector<double> M, std::size_t m, std::vector<double>& b) {
  std::vector<std::size_t> perm(m);
  for (std::size_t i = 0; i < m; ++i) perm[i] = i;
  for (std::size_t col = 0; col < m; ++col) {
    std::size_t pivot = col;
    double best = std::abs(M[perm[col] * m + col]);
    for (std::size_t r = col + 1; r < m; ++r) {
      const double a = std::abs(M[perm[r] * m + col]);
      if (a > best) {
        best = a;
        pivot = r;
      }
    }
    if (best < 1e-10) return false;
    std::swap(perm[col], perm[pivot]);
    const double inv = 1.0 / M[perm[col] * m + col];
    for (std::size_t r = col + 1; r < m; ++r) {
      const double f = M[perm[r] * m + col] * inv;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < m; ++c) M[perm[r] * m + c] -= f * M[perm[col] * m + c];
      b[perm[r]] -= f * b[perm[col]];
    }
  }
  std::vector<double> x(m, 0.0);
  for (std::size_t col = m; col-- > 0;) {
    double v = b[perm[col]];
    for (std::size_t c = col + 1; c < m; ++c) v -= M[perm[col] * m + c] * x[c];
    x[col] = v / M[perm[col] * m + col];
  }
  b = std::move(x);
  return true;
}

std::vector<double> transpose(const std::vector<double>& M, std::size_t m) {
  std::vector<double> T(m * m);
  for (std::size_t r = 0; r < m; ++r)
    for (std::size_t c = 0; c < m; ++c) T[c * m + r] = M[r * m + c];
  return T;
}

/// Random sparse structural columns: ~3 nonzeros each on distinct rows,
/// entries O(1) and bounded away from zero.
CscMatrix random_csc(Rng& rng, std::size_t m, std::size_t n) {
  CscMatrix A;
  A.rows = m;
  A.cols = n;
  A.col_start.assign(n + 1, 0);
  std::vector<std::size_t> rows(m);
  for (std::size_t i = 0; i < m; ++i) rows[i] = i;
  for (std::size_t j = 0; j < n; ++j) {
    A.col_start[j] = A.row_index.size();
    const std::size_t nnz =
        std::min<std::size_t>(m, static_cast<std::size_t>(rng.uniform_int(1, 4)));
    // Partial Fisher-Yates: the first nnz entries of `rows` become a
    // uniform sample of distinct row indices.
    for (std::size_t k = 0; k < nnz; ++k) {
      const std::size_t pick = static_cast<std::size_t>(
          rng.uniform_int(static_cast<int>(k), static_cast<int>(m) - 1));
      std::swap(rows[k], rows[pick]);
      A.row_index.push_back(rows[k]);
      A.value.push_back(rng.uniform(-3.0, 3.0) + (rng.bernoulli(0.5) ? 1.5 : -1.5));
    }
  }
  A.col_start[n] = A.row_index.size();
  return A;
}

/// A random basis mixing structural and logical columns.
std::vector<std::int32_t> random_basis(Rng& rng, std::size_t m, std::size_t n) {
  std::vector<std::int32_t> basic(m);
  std::vector<std::uint8_t> used(n, 0);
  for (std::size_t k = 0; k < m; ++k) {
    if (rng.bernoulli(0.45)) {
      const std::size_t j = static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      if (!used[j]) {
        used[j] = 1;
        basic[k] = static_cast<std::int32_t>(j);
        continue;
      }
    }
    basic[k] = static_cast<std::int32_t>(n + k);  // logical of its own row
  }
  return basic;
}

// --------------------------------------------------- factor/solve parity

TEST(BasisLuFactor, FtranAndBtranMatchDenseSolvesOnRandomSparseBases) {
  std::size_t factored = 0;
  for (int seed = 0; seed < 40; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 65537 + 3);
    // Random structural/logical bases are frequently singular; redraw
    // until the dense oracle accepts one so every seed tests a solve.
    for (int attempt = 0; attempt < 40; ++attempt) {
      const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, 30));
      const std::size_t n = m + static_cast<std::size_t>(rng.uniform_int(1, 20));
      const CscMatrix A = random_csc(rng, m, n);
      const std::vector<std::int32_t> basic = random_basis(rng, m, n);
      const std::vector<double> B = dense_basis(A, n, basic);

      std::vector<double> rhs(m);
      for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-2.0, 2.0);

      std::vector<double> dense_x = rhs;
      if (!dense_solve(B, m, dense_x)) continue;  // singular draw: redraw

      BasisLu lu;
      ASSERT_TRUE(lu.factorize(A, n, basic)) << "seed " << seed << " m " << m;
      ++factored;

      std::vector<double> x = rhs;
      lu.ftran(x);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(x[i], dense_x[i], 1e-7) << "ftran seed " << seed << " i " << i;

      std::vector<double> dense_y = rhs;
      ASSERT_TRUE(dense_solve(transpose(B, m), m, dense_y));
      std::vector<double> y = rhs;
      lu.btran(y);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(y[i], dense_y[i], 1e-7) << "btran seed " << seed << " i " << i;
      break;
    }
  }
  EXPECT_GE(factored, 35u);  // the sweep must exercise real factorizations
}

TEST(BasisLuFactor, EtaUpdatesStayEquivalentToRefactorizationAcrossPivotChains) {
  for (int seed = 0; seed < 8; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 2417 + 7);
    const std::size_t m = 18;
    const std::size_t n = 40;
    const CscMatrix A = random_csc(rng, m, n);
    std::vector<std::int32_t> basic(m);
    for (std::size_t k = 0; k < m; ++k) basic[k] = static_cast<std::int32_t>(n + k);

    BasisLu lu;
    ASSERT_TRUE(lu.factorize(A, n, basic));

    std::size_t applied = 0;
    for (int pivot = 0; pivot < 50; ++pivot) {
      // Entering column: a random structural column not already basic.
      const std::size_t q =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      bool in_basis = false;
      for (const std::int32_t b : basic)
        if (static_cast<std::size_t>(b) == q) in_basis = true;
      if (in_basis) continue;
      std::vector<double> w(m, 0.0);
      for (std::size_t e = A.col_start[q]; e < A.col_start[q + 1]; ++e)
        w[A.row_index[e]] = A.value[e];
      lu.ftran(w);
      // Leaving position: largest |w[r]| (a stable replacement exists).
      std::size_t r = m;
      double best = 1e-7;
      for (std::size_t i = 0; i < m; ++i) {
        if (std::abs(w[i]) > best) {
          best = std::abs(w[i]);
          r = i;
        }
      }
      if (r == m) continue;
      ASSERT_TRUE(lu.update(r, w)) << "seed " << seed << " pivot " << pivot;
      basic[r] = static_cast<std::int32_t>(q);
      ++applied;

      // The eta-updated engine must agree with a from-scratch
      // factorization of the *current* basis, in both directions.
      BasisLu fresh;
      ASSERT_TRUE(fresh.factorize(A, n, basic)) << "seed " << seed << " pivot " << pivot;
      std::vector<double> rhs(m);
      for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-1.0, 1.0);
      std::vector<double> via_etas = rhs, via_fresh = rhs;
      lu.ftran(via_etas);
      fresh.ftran(via_fresh);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(via_etas[i], via_fresh[i], 1e-6)
            << "ftran seed " << seed << " pivot " << pivot;
      via_etas = rhs;
      via_fresh = rhs;
      lu.btran(via_etas);
      fresh.btran(via_fresh);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(via_etas[i], via_fresh[i], 1e-6)
            << "btran seed " << seed << " pivot " << pivot;
    }
    EXPECT_GT(applied, 10u) << "seed " << seed;
    EXPECT_GT(lu.eta_count(), 0u);
  }
}

TEST(BasisLuFactor, ForrestTomlinMatchesRefactorizationOverHundredPivotChains) {
  for (int seed = 0; seed < 4; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    const std::size_t m = 24;
    const std::size_t n = 60;
    const CscMatrix A = random_csc(rng, m, n);
    std::vector<std::int32_t> basic(m);
    for (std::size_t k = 0; k < m; ++k) basic[k] = static_cast<std::int32_t>(n + k);

    BasisLu ft;
    ASSERT_TRUE(ft.factorize(A, n, basic));

    std::size_t applied = 0;
    for (int attempt = 0; attempt < 1000 && applied < 100; ++attempt) {
      const std::size_t q =
          static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
      bool in_basis = false;
      for (const std::int32_t b : basic)
        if (static_cast<std::size_t>(b) == q) in_basis = true;
      if (in_basis) continue;
      std::vector<double> w(m, 0.0);
      for (std::size_t e = A.col_start[q]; e < A.col_start[q + 1]; ++e)
        w[A.row_index[e]] = A.value[e];
      ft.ftran(w);
      std::size_t r = m;
      double best = 1e-6;
      for (std::size_t i = 0; i < m; ++i) {
        if (std::abs(w[i]) > best) {
          best = std::abs(w[i]);
          r = i;
        }
      }
      if (r == m) continue;
      const bool ok = ft.update(r, w);
      basic[r] = static_cast<std::int32_t>(q);
      // A declined marginal pivot restarts from a fresh factorization of
      // the current basis and the chain continues.
      if (!ok) ASSERT_TRUE(ft.factorize(A, n, basic));
      ++applied;

      // The updated engine must agree with a from-scratch factorization
      // of the current basis in both directions.
      BasisLu fresh;
      ASSERT_TRUE(fresh.factorize(A, n, basic)) << "seed " << seed;
      std::vector<double> rhs(m);
      for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-1.0, 1.0);
      std::vector<double> via_ft = rhs, via_fresh = rhs;
      ft.ftran(via_ft);
      fresh.ftran(via_fresh);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(via_ft[i], via_fresh[i], 1e-5)
            << "ftran seed " << seed << " pivot " << applied;
      via_ft = via_fresh = rhs;
      ft.btran(via_ft);
      fresh.btran(via_fresh);
      for (std::size_t i = 0; i < m; ++i)
        EXPECT_NEAR(via_ft[i], via_fresh[i], 1e-5)
            << "btran seed " << seed << " pivot " << applied;
    }
    ASSERT_GE(applied, 100u) << "seed " << seed;
  }
}

TEST(BasisLuFactor, AdaptiveCadenceScalesWithBasisDimension) {
  Rng rng(91);
  for (const std::size_t m : {std::size_t{8}, std::size_t{200}, std::size_t{900}}) {
    const CscMatrix A = random_csc(rng, m, m + 4);
    std::vector<std::int32_t> basic(m);
    for (std::size_t k = 0; k < m; ++k)
      basic[k] = static_cast<std::int32_t>(m + 4 + k);
    // Forrest–Tomlin keeps U triangular, so the update run grows with the
    // basis: cadence clamp(m, 64, 512).
    BasisLu ft;
    ASSERT_TRUE(ft.factorize(A, m + 4, basic));
    EXPECT_GE(ft.refactor_cadence(), 64u);
    EXPECT_LE(ft.refactor_cadence(), 512u);
    if (m >= 200) EXPECT_GE(ft.refactor_cadence(), m / 2);
  }
}

// ------------------------------------------- revised simplex parity

/// Random box-bounded LP with a known interior point. `sparse` rows drop
/// each coefficient with probability 1/2, like the encoder's; dense rows
/// keep them all.
LpProblem random_lp(Rng& rng, bool sparse = true) {
  const std::size_t n = static_cast<std::size_t>(rng.uniform_int(2, sparse ? 10 : 8));
  const std::size_t m = static_cast<std::size_t>(rng.uniform_int(1, sparse ? 14 : 10));
  LpProblem p;
  std::vector<double> interior(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = rng.uniform(-5.0, 0.0);
    const double hi = rng.uniform(0.5, 5.0);
    p.add_variable(lo, hi);
    interior[i] = 0.5 * (lo + hi);
  }
  for (std::size_t r = 0; r < m; ++r) {
    double activity = 0.0;
    std::vector<LinearTerm> terms;
    for (std::size_t c = 0; c < n; ++c) {
      if (sparse && rng.bernoulli(0.5)) continue;
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({c, coeff});
      activity += coeff * interior[c];
    }
    if (terms.empty()) terms.push_back({0, 1.0}), activity = interior[0];
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0)
      p.add_row(terms, RowSense::kLessEqual, activity + rng.uniform(0.1, 2.0));
    else if (sense == 1)
      p.add_row(terms, RowSense::kGreaterEqual, activity - rng.uniform(0.1, 2.0));
    else
      p.add_row(terms, RowSense::kEqual, activity);
  }
  std::vector<LinearTerm> objective;
  for (std::size_t c = 0; c < n; ++c) objective.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(objective, rng.bernoulli(0.5) ? Objective::kMinimize
                                                : Objective::kMaximize);
  return p;
}

void expect_feasible(const LpProblem& p, const LpSolution& sol, const char* label) {
  for (std::size_t v = 0; v < p.variable_count(); ++v) {
    EXPECT_GE(sol.values[v], p.lower_bound(v) - kTol) << label;
    EXPECT_LE(sol.values[v], p.upper_bound(v) + kTol) << label;
  }
  for (const auto& row : p.rows()) {
    double activity = 0.0;
    for (const LinearTerm& t : row.terms) activity += t.coeff * sol.values[t.var];
    if (row.sense == RowSense::kLessEqual) {
      EXPECT_LE(activity, row.rhs + kTol) << label;
    } else if (row.sense == RowSense::kGreaterEqual) {
      EXPECT_GE(activity, row.rhs - kTol) << label;
    } else {
      EXPECT_NEAR(activity, row.rhs, kTol) << label;
    }
  }
}

/// The loaded problem's structural columns, duplicates merged (the
/// revised simplex's computational form; logical n + i is -e_i).
CscMatrix csc_of(const LpProblem& p) {
  std::vector<std::map<std::size_t, double>> cols(p.variable_count());
  for (std::size_t i = 0; i < p.row_count(); ++i)
    for (const LinearTerm& t : p.rows()[i].terms) cols[t.var][i] += t.coeff;
  CscMatrix A;
  A.rows = p.row_count();
  A.cols = p.variable_count();
  for (const auto& col : cols) {
    A.col_start.push_back(A.row_index.size());
    for (const auto& [row, coeff] : col) {
      A.row_index.push_back(row);
      A.value.push_back(coeff);
    }
  }
  A.col_start.push_back(A.row_index.size());
  return A;
}

/// Checks every tableau_row of an optimal `simplex` against the dense
/// row e_r^T B^{-1} [A | -I] of its captured basis: the basic column,
/// every nonbasic alpha (none missing, none spurious), each entry's
/// resting bound, and the basic value -sum alpha_j x_j over the nonbasic
/// resting values.
void expect_tableau_rows_match_dense(const LpProblem& p, const RevisedSimplex& simplex,
                                     const std::string& label) {
  const std::size_t n = p.variable_count();
  const std::size_t m = p.row_count();
  const CscMatrix A = csc_of(p);
  const lp::SimplexBasis basis = simplex.capture_basis();
  ASSERT_EQ(basis.basic.size(), m) << label;
  const std::vector<double> Bt = transpose(dense_basis(A, n, basis.basic), m);
  std::vector<std::uint8_t> is_basic(n + m, 0);
  for (const std::int32_t b : basis.basic) is_basic[static_cast<std::size_t>(b)] = 1;
  // Resting value of a nonbasic column. Logical n + i carries row i's
  // sense as its box, so it can only rest at its finite bound, the rhs.
  const auto resting_value = [&](std::size_t j) {
    if (j >= n) return p.rows()[j - n].rhs;
    return basis.at_upper[j] ? p.upper_bound(j) : p.lower_bound(j);
  };
  for (std::size_t r = 0; r < m; ++r) {
    std::vector<double> y(m, 0.0);
    y[r] = 1.0;
    ASSERT_TRUE(dense_solve(Bt, m, y)) << label << " row " << r;
    std::vector<double> alpha(n + m, 0.0);
    for (std::size_t j = 0; j < n; ++j)
      for (std::size_t e = A.col_start[j]; e < A.col_start[j + 1]; ++e)
        alpha[j] += y[A.row_index[e]] * A.value[e];
    for (std::size_t i = 0; i < m; ++i) alpha[n + i] = -y[i];

    lp::TableauRow row;
    ASSERT_TRUE(simplex.tableau_row(r, row)) << label << " row " << r;
    EXPECT_EQ(row.basic_col, basis.basic[r]) << label << " row " << r;
    std::vector<std::uint8_t> listed(n + m, 0);
    for (const auto& e : row.entries) {
      ASSERT_LT(e.col, n + m) << label;
      EXPECT_FALSE(is_basic[e.col]) << label << " row " << r << " col " << e.col;
      EXPECT_NEAR(e.alpha, alpha[e.col], 1e-7 * std::max(1.0, std::abs(alpha[e.col])))
          << label << " row " << r << " col " << e.col;
      EXPECT_EQ(e.at_upper, basis.at_upper[e.col] != 0) << label << " col " << e.col;
      listed[e.col] = 1;
    }
    double basic_value = 0.0;
    for (std::size_t j = 0; j < n + m; ++j) {
      if (is_basic[j]) continue;
      if (!listed[j])
        EXPECT_LT(std::abs(alpha[j]), 1e-9) << label << " row " << r << " col " << j;
      basic_value -= alpha[j] * resting_value(j);
    }
    EXPECT_NEAR(row.basic_value, basic_value, 1e-7 * std::max(1.0, std::abs(basic_value)))
        << label << " row " << r;
  }
}

/// One LP of the random parity sweep: 60 sparse-row and 40 dense-row
/// instances, each family from its own seed sequence.
struct RandomLpCase {
  bool sparse;
  std::uint64_t seed;
};

LpProblem random_lp(const RandomLpCase& c) {
  Rng rng(c.sparse ? c.seed * 92821 + 5 : c.seed * 104729 + 17);
  return random_lp(rng, c.sparse);
}

std::vector<RandomLpCase> random_lp_cases() {
  std::vector<RandomLpCase> cases;
  for (std::uint64_t seed = 0; seed < 60; ++seed) cases.push_back({true, seed});
  for (std::uint64_t seed = 0; seed < 40; ++seed) cases.push_back({false, seed});
  return cases;
}

class FactorizationRandomLp : public ::testing::TestWithParam<RandomLpCase> {};

TEST_P(FactorizationRandomLp, SparseLuAgreesWithDenseTableau) {
  const LpProblem p = random_lp(GetParam());
  const LpSolution a = lp::SimplexSolver().solve(p);
  RevisedSimplex sparse;
  sparse.load(p);
  const LpSolution b = sparse.solve();
  ASSERT_EQ(a.status, b.status);
  if (a.status != SolveStatus::kOptimal) return;
  EXPECT_NEAR(a.objective, b.objective, kTol);
  expect_feasible(p, a, "dense-tableau");
  expect_feasible(p, b, "sparse-lu");
  EXPECT_GT(sparse.factor_stats().factorizations, 0u);
}

TEST_P(FactorizationRandomLp, TableauRowsMatchDenseRows) {
  const LpProblem p = random_lp(GetParam());
  RevisedSimplex simplex;
  simplex.load(p);
  if (simplex.solve().status != SolveStatus::kOptimal) return;
  expect_tableau_rows_match_dense(p, simplex, "seed " + std::to_string(GetParam().seed));
}

INSTANTIATE_TEST_SUITE_P(RandomLps, FactorizationRandomLp,
                         ::testing::ValuesIn(random_lp_cases()),
                         [](const ::testing::TestParamInfo<RandomLpCase>& info) {
                           return (info.param.sparse ? "sparse" : "dense") +
                                  std::to_string(info.param.seed);
                         });

TEST(FactorizationParity, TableauRowsMatchOnTextbookLp) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 14.0);
  p.add_row({{x, 3.0}, {y, -1.0}}, RowSense::kGreaterEqual, 0.0);
  p.add_row({{x, 1.0}, {y, -1.0}}, RowSense::kLessEqual, 2.0);
  p.set_objective({{x, 3.0}, {y, 4.0}}, Objective::kMaximize);

  RevisedSimplex simplex;
  simplex.load(p);
  ASSERT_EQ(simplex.solve().status, SolveStatus::kOptimal);
  expect_tableau_rows_match_dense(p, simplex, "textbook");
}

TEST(FactorizationParity, WarmResolveMatchesColdSolve) {
  // The branch & bound move: solve, tighten one box, resolve warm.
  Rng rng(99);
  const LpProblem p = random_lp(rng);
  RevisedSimplex simplex;
  simplex.load(p);
  const LpSolution cold = simplex.solve();
  ASSERT_EQ(cold.status, SolveStatus::kOptimal);
  const lp::SimplexBasis basis = simplex.capture_basis();
  simplex.set_bounds(0, p.lower_bound(0), 0.5 * (p.lower_bound(0) + p.upper_bound(0)));
  const LpSolution warm = simplex.resolve(basis);
  EXPECT_TRUE(simplex.last_resolve_was_warm());
  // Reference: a cold solve of the tightened problem.
  LpProblem tightened = p;
  tightened.set_bounds(0, p.lower_bound(0),
                       0.5 * (p.lower_bound(0) + p.upper_bound(0)));
  RevisedSimplex reference;
  reference.load(tightened);
  const LpSolution expect = reference.solve();
  ASSERT_EQ(warm.status, expect.status);
  if (warm.status == SolveStatus::kOptimal)
    EXPECT_NEAR(warm.objective, expect.objective, kTol);
}

// ----------------------------------------------- singular-basis recovery

TEST(SingularBasisRecovery, SingularWarmStartFallsBackAndIsReported) {
  // Columns of x and y are linearly dependent across the two rows, so a
  // basis of {x, y} is singular by construction.
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 4.0}}, RowSense::kLessEqual, 8.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMaximize);

  RevisedSimplex simplex;
  simplex.load(p);
  lp::SimplexBasis degenerate;
  degenerate.basic = {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
  // Logicals of <= rows must rest at their (finite) upper bound.
  degenerate.at_upper = {0, 0, 1, 1};
  const LpSolution sol = simplex.resolve(degenerate);
  EXPECT_FALSE(simplex.last_resolve_was_warm());
  ASSERT_EQ(sol.status, SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, 4.0, kTol);
  EXPECT_GE(simplex.factor_stats().singular_recoveries, 1u);
}

TEST(SingularBasisRecovery, SolverStatsSurfaceRecoveries) {
  LpProblem p;
  const std::size_t x = p.add_variable(0.0, 10.0, "x");
  const std::size_t y = p.add_variable(0.0, 10.0, "y");
  p.add_row({{x, 1.0}, {y, 2.0}}, RowSense::kLessEqual, 4.0);
  p.add_row({{x, 2.0}, {y, 4.0}}, RowSense::kLessEqual, 8.0);
  p.set_objective({{x, 1.0}, {y, 1.0}}, Objective::kMaximize);

  RevisedSimplex simplex;
  simplex.load(p);
  lp::SimplexBasis degenerate;
  degenerate.basic = {static_cast<std::int32_t>(x), static_cast<std::int32_t>(y)};
  degenerate.at_upper = {0, 0, 1, 1};
  ASSERT_EQ(simplex.resolve(degenerate).status, SolveStatus::kOptimal);
  const solver::SolverStats stats = solver::simplex_stats(simplex);
  EXPECT_EQ(stats.warm_attempts, 1u);
  EXPECT_EQ(stats.warm_hits, 0u);  // the degenerate basis missed
  EXPECT_GE(stats.singular_recoveries, 1u);
  EXPECT_GT(stats.basis_factorizations, 0u);
}

// ------------------------------------------------------- verdict parity

nn::Network make_tail_net(Rng& rng, std::size_t in_n, std::size_t hidden) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

verify::VerificationQuery tail_query(const nn::Network& net, std::size_t in_n,
                                     double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(in_n, -1.0, 1.0);
  q.risk.output_at_least(0, 1, threshold);
  return q;
}

double forcing_threshold(const nn::Network& net, std::size_t in_n, Rng& rng) {
  double sampled_max = -1e100;
  for (int i = 0; i < 1500; ++i) {
    Tensor x(Shape{in_n});
    for (std::size_t j = 0; j < in_n; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  verify::VerificationQuery probe = tail_query(net, in_n, -1e9);
  verify::TailEncoding enc = verify::encode_tail_query(probe, {});
  enc.problem.relaxation().set_objective({{enc.output_vars[0], 1.0}}, Objective::kMaximize);
  const LpSolution root = lp::SimplexSolver().solve(enc.problem.relaxation());
  const double relax_max =
      root.status == SolveStatus::kOptimal ? root.objective : sampled_max + 1.0;
  return sampled_max + 0.75 * std::max(relax_max - sampled_max, 0.1);
}

/// The encoder's kLpTightening walk (src/verify/encoder.cpp) over a
/// Dense/ReLU tail, replayed with the revised simplex's optima setting
/// each neuron's bounds: every tightening LP must match the dense tableau.
/// On this tail a pivot-row column whose partial sum cancels to exactly
/// 0.0 was once listed twice, so the incremental reduced-cost update
/// subtracted its share twice; the output neuron's max LP then stopped at
/// a non-optimal basis 1.45e-4 below the optimum (an unsound bound).
TEST(PivotRowScatter, TighteningReplayOnReluTailMatchesDenseTableau) {
  Rng rng(2020);  // the recertify benchmark's base tail
  nn::Network net;
  for (int d = 0; d < 3; ++d) {
    auto dense = std::make_unique<nn::Dense>(16, 16);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{16}));
  }
  auto out = std::make_unique<nn::Dense>(16, 2);
  out->init_he(rng);
  net.add(std::move(out));

  LpProblem lp;
  std::vector<std::size_t> vars;
  std::vector<absint::Interval> bounds;
  for (std::size_t i = 0; i < 16; ++i) {
    vars.push_back(lp.add_variable(-1.0, 1.0));
    bounds.emplace_back(-1.0, 1.0);
  }
  std::size_t lps = 0;
  const auto solve_both = [&](std::size_t var, Objective direction) {
    lp.set_objective({{var, 1.0}}, direction);
    const LpSolution dense = lp::SimplexSolver().solve(lp);
    RevisedSimplex revised;
    revised.load(lp);
    const LpSolution rs = revised.solve();
    ++lps;
    EXPECT_EQ(rs.status, dense.status) << "variable " << var;
    if (rs.status == SolveStatus::kOptimal && dense.status == SolveStatus::kOptimal) {
      EXPECT_NEAR(rs.objective, dense.objective, 1e-9 * std::max(1.0, std::abs(dense.objective)))
          << "variable " << var << (direction == Objective::kMaximize ? " max" : " min");
    }
    return rs;
  };
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    std::vector<std::size_t> next_vars;
    std::vector<absint::Interval> next_bounds;
    if (net.layer(l).kind() == nn::LayerKind::kDense) {
      const auto& layer = static_cast<const nn::Dense&>(net.layer(l));
      for (std::size_t r = 0; r < layer.output_shape().numel(); ++r) {
        absint::Interval iv(layer.bias()[r], layer.bias()[r]);
        for (std::size_t c = 0; c < vars.size(); ++c)
          iv = iv + absint::scale(bounds[c], layer.weight().at2(r, c));
        const std::size_t y = lp.add_variable(iv.lo, iv.hi);
        std::vector<LinearTerm> terms{{y, 1.0}};
        for (std::size_t c = 0; c < vars.size(); ++c) {
          const double weight = layer.weight().at2(r, c);
          if (weight != 0.0) terms.push_back({vars[c], -weight});
        }
        lp.add_row(std::move(terms), RowSense::kEqual, layer.bias()[r]);
        double lo = iv.lo, hi = iv.hi;
        const LpSolution min_sol = solve_both(y, Objective::kMinimize);
        if (min_sol.status == SolveStatus::kOptimal) lo = std::max(lo, min_sol.objective - 1e-9);
        const LpSolution max_sol = solve_both(y, Objective::kMaximize);
        if (max_sol.status == SolveStatus::kOptimal) hi = std::min(hi, max_sol.objective + 1e-9);
        lp.set_objective({}, Objective::kMinimize);
        if (lo > hi) lo = hi;
        lp.set_bounds(y, lo, hi);
        next_vars.push_back(y);
        next_bounds.emplace_back(lo, hi);
      }
    } else {  // ReLU: stable ones eliminated, unstable ones big-M plus triangle
      for (std::size_t i = 0; i < vars.size(); ++i) {
        const double lo = bounds[i].lo, hi = bounds[i].hi;
        if (lo >= 0.0) {
          next_vars.push_back(vars[i]);
          next_bounds.push_back(bounds[i]);
          continue;
        }
        if (hi <= 0.0) {
          next_vars.push_back(lp.add_variable(0.0, 0.0));
          next_bounds.emplace_back(0.0, 0.0);
          continue;
        }
        const std::size_t x = vars[i];
        const std::size_t y = lp.add_variable(0.0, hi);
        const std::size_t z = lp.add_variable(0.0, 1.0);
        lp.add_row({{y, 1.0}, {x, -1.0}}, RowSense::kGreaterEqual, 0.0);
        lp.add_row({{y, 1.0}, {z, -hi}}, RowSense::kLessEqual, 0.0);
        lp.add_row({{y, 1.0}, {x, -1.0}, {z, -lo}}, RowSense::kLessEqual, -lo);
        const double slope = hi / (hi - lo);
        lp.add_row({{y, 1.0}, {x, -slope}}, RowSense::kLessEqual, -slope * lo);
        next_vars.push_back(y);
        next_bounds.push_back(absint::relu(bounds[i]));
      }
    }
    vars = std::move(next_vars);
    bounds = std::move(next_bounds);
  }
  EXPECT_EQ(lps, 2u * (3 * 16 + 2));
  EXPECT_EQ(lp.variable_count(), 162u);
  EXPECT_EQ(lp.row_count(), 242u);
}

TEST(FactorizationVerdictParity, FullBatteryAcrossThreadsAndCuts) {
  for (const std::uint64_t seed : {31u, 32u, 41u, 42u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    // One SAFE proof that must branch, one easy UNSAFE query per pair.
    const double threshold = seed % 2 == 0 ? -5.0 : forcing_threshold(net, in_n, rng);
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);
    const verify::Verdict reference =
        oracle::risk_reachable_by_phases(net, q.input_box, q.risk) ? verify::Verdict::kUnsafe
                                                                  : verify::Verdict::kSafe;

    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t rounds : {std::size_t{0}, std::size_t{4}}) {
        verify::TailVerifierOptions options;
        options.milp.max_nodes = 20000;
        options.milp.threads = threads;
        options.milp.cuts.root_rounds = rounds;
        const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
        EXPECT_EQ(r.verdict, reference)
            << "seed " << seed << " threads " << threads << " rounds " << rounds;
        if (r.verdict == verify::Verdict::kUnsafe) {
          EXPECT_TRUE(r.counterexample_validated) << "seed " << seed;
        }
        EXPECT_GT(r.solver_stats.basis_factorizations, 0u) << "seed " << seed;
        if (r.solver_stats.basis_updates > 0) {
          EXPECT_GT(r.solver_stats.eta_nonzeros, 0u) << "seed " << seed;
        }
        // A serial branching search expands at least one node through
        // the batched sibling re-solve.
        if (r.milp_nodes > 2 && threads == 1 && rounds == 0) {
          EXPECT_GT(r.solver_stats.sibling_batches, 0u)
              << "seed " << seed << " nodes " << r.milp_nodes;
        }
      }
    }
  }
}

TEST(FactorizationStats, SummaryNamesBasisWorkAndTimeSplit) {
  Rng rng(123);
  const std::size_t in_n = 3, hidden = 6;
  const nn::Network net = make_tail_net(rng, in_n, hidden);
  const verify::VerificationQuery q =
      tail_query(net, in_n, forcing_threshold(net, in_n, rng));
  verify::TailVerifierOptions options;
  options.milp.max_nodes = 20000;
  const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
  ASSERT_EQ(r.verdict, verify::Verdict::kSafe);
  EXPECT_GT(r.solver_stats.basis_factorizations, 0u);
  EXPECT_GE(r.solver_stats.factor_seconds, 0.0);
  EXPECT_GE(r.solver_stats.pivot_seconds, 0.0);
  EXPECT_GT(r.solver_stats.factor_seconds + r.solver_stats.pivot_seconds, 0.0);
  EXPECT_NE(r.summary().find("basis="), std::string::npos) << r.summary();
}

// --------------------------------------------- root-cut warm start/aging

TEST(RemoveRows, DropsExactlyTheRequestedRows) {
  LpProblem p;
  p.add_variable(0.0, 1.0);
  for (double rhs : {1.0, 2.0, 3.0, 4.0, 5.0})
    p.add_row({{0, 1.0}}, RowSense::kLessEqual, rhs);
  p.remove_rows({1, 3});
  ASSERT_EQ(p.row_count(), 3u);
  EXPECT_EQ(p.rows()[0].rhs, 1.0);
  EXPECT_EQ(p.rows()[1].rhs, 3.0);
  EXPECT_EQ(p.rows()[2].rhs, 5.0);
}

/// Random mixed MILP around an integer-feasible anchor point; Gomory
/// separation sustains several rounds on these, so the warm loop and
/// the aging path both engage (tail encodings tend to go integral after
/// one round and would leave those paths untested).
milp::MilpProblem random_mixed_milp(Rng& rng) {
  milp::MilpProblem p;
  const std::size_t n_bin = static_cast<std::size_t>(rng.uniform_int(4, 8));
  const std::size_t n_cont = static_cast<std::size_t>(rng.uniform_int(1, 3));
  const std::size_t n_rows = static_cast<std::size_t>(rng.uniform_int(3, 6));
  std::vector<std::size_t> vars;
  std::vector<double> anchor;
  for (std::size_t i = 0; i < n_bin; ++i) {
    vars.push_back(p.add_variable(milp::VarType::kBinary, 0.0, 1.0));
    anchor.push_back(rng.bernoulli(0.5) ? 1.0 : 0.0);
  }
  for (std::size_t i = 0; i < n_cont; ++i) {
    const double lo = rng.uniform(-2.0, 0.0);
    const double hi = rng.uniform(0.5, 2.0);
    vars.push_back(p.add_variable(milp::VarType::kContinuous, lo, hi));
    anchor.push_back(0.5 * (lo + hi));
  }
  for (std::size_t r = 0; r < n_rows; ++r) {
    std::vector<LinearTerm> terms;
    double at_anchor = 0.0;
    for (std::size_t c = 0; c < vars.size(); ++c) {
      const double coeff = rng.uniform(-3.0, 3.0);
      terms.push_back({vars[c], coeff});
      at_anchor += coeff * anchor[c];
    }
    const int sense = rng.uniform_int(0, 2);
    if (sense == 0)
      p.add_row(terms, RowSense::kLessEqual, at_anchor + rng.uniform(0.1, 2.0));
    else if (sense == 1)
      p.add_row(terms, RowSense::kGreaterEqual, at_anchor - rng.uniform(0.1, 2.0));
    else
      p.add_row(terms, RowSense::kEqual, at_anchor);
  }
  std::vector<LinearTerm> obj;
  for (const std::size_t v : vars) obj.push_back({v, rng.uniform(-2.0, 2.0)});
  p.set_objective(obj, rng.bernoulli(0.5) ? Objective::kMaximize : Objective::kMinimize);
  return p;
}

TEST(RootCutWarmStart, WarmLoopReusesBasesAndAgesOutStaleCuts) {
  std::size_t warm_resolves = 0, aged_out = 0, multi_round_runs = 0;
  for (int seed = 0; seed < 16; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919 + 11);
    const milp::MilpProblem p = random_mixed_milp(rng);
    milp::cuts::CutOptions options;
    options.root_rounds = 10;
    options.warm_root = true;
    options.root_age_limit = 1;  // age out after a single stale round
    milp::MilpProblem copy = p;
    const std::size_t base_rows = p.relaxation().row_count();
    const milp::cuts::RootCutReport report =
        milp::cuts::run_root_cuts(copy, options, SimplexOptions{}, 1e-6);

    // Bookkeeping invariants: live + aged == appended, and the problem
    // holds exactly base + live rows.
    EXPECT_EQ(report.cuts_live + report.cuts_aged_out, report.cuts_added)
        << "seed " << seed;
    EXPECT_EQ(copy.relaxation().row_count(), base_rows + report.cuts_live)
        << "seed " << seed;
    warm_resolves += report.warm_rounds;
    aged_out += report.cuts_aged_out;
    if (report.rounds > 1) ++multi_round_runs;
  }
  // The sweep as a whole must exercise the warm path, multi-round
  // separation, and the aging/removal path.
  EXPECT_GT(warm_resolves, 0u);
  EXPECT_GT(multi_round_runs, 0u);
  EXPECT_GT(aged_out, 0u);
}

TEST(RootCutWarmStart, WarmAndAgedSearchStillFindsBruteForceOptima) {
  for (int seed = 0; seed < 12; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 3271 + 29);
    const milp::MilpProblem p = random_mixed_milp(rng);
    const oracle::BruteForceResult expected = oracle::brute_force_milp(p);

    milp::BranchAndBoundOptions options;
    options.cuts.root_rounds = 8;
    options.cuts.warm_root = true;
    options.cuts.root_age_limit = 1;
    const milp::MilpResult r = milp::BranchAndBoundSolver(options).solve(p);
    if (!expected.feasible) {
      EXPECT_EQ(r.status, milp::MilpStatus::kInfeasible) << "seed " << seed;
    } else {
      ASSERT_EQ(r.status, milp::MilpStatus::kOptimal) << "seed " << seed;
      EXPECT_NEAR(r.objective, expected.objective, 1e-5) << "seed " << seed;
    }
  }
}

TEST(RootCutWarmStart, TailVerdictsUnchangedByWarmLoopAndAging) {
  for (const std::uint64_t seed : {71u, 72u, 73u}) {
    Rng rng(seed);
    const std::size_t in_n = 3, hidden = 6;
    const nn::Network net = make_tail_net(rng, in_n, hidden);
    const double threshold = seed % 2 == 0 ? -5.0 : forcing_threshold(net, in_n, rng);
    const verify::VerificationQuery q = tail_query(net, in_n, threshold);

    verify::TailVerifierOptions off;
    off.milp.max_nodes = 20000;
    const verify::VerificationResult reference = verify::TailVerifier(off).verify(q);
    ASSERT_NE(reference.verdict, verify::Verdict::kUnknown);

    for (const bool warm : {false, true}) {
      verify::TailVerifierOptions on = off;
      on.milp.cuts.root_rounds = 6;
      on.milp.cuts.warm_root = warm;
      on.milp.cuts.root_age_limit = warm ? 1 : 0;
      const verify::VerificationResult r = verify::TailVerifier(on).verify(q);
      EXPECT_EQ(r.verdict, reference.verdict) << "seed " << seed << " warm " << warm;
    }
  }
}

}  // namespace
}  // namespace dpv
