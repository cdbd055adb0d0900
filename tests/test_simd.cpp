// SIMD dispatch layer differential tests: every vector kernel against
// its forced-scalar body on randomized data (lengths straddling the
// vector width, including tails), plus end-to-end parity of the two
// consumers — zonotope propagation and the sparse-LU FTRAN/BTRAN /
// revised-simplex pipeline — with the toggle flipped. On a binary built
// without AVX2 the two paths are the same code and the tests degenerate
// to self-comparisons, which keeps them portable.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "absint/box_domain.hpp"
#include "absint/zonotope.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "lp/basis_lu.hpp"
#include "lp/revised_simplex.hpp"

namespace dpv {
namespace {

using absint::Box;
using absint::Zonotope;

/// Forces the scalar bodies for the lifetime of the object.
class ScopedForceScalar {
 public:
  ScopedForceScalar() { simd::set_force_scalar(true); }
  ~ScopedForceScalar() { simd::set_force_scalar(false); }
};

std::vector<double> random_vector(Rng& rng, std::size_t n) {
  std::vector<double> v(n);
  for (double& x : v) x = rng.uniform(-3.0, 3.0);
  return v;
}

/// Lengths that cover the empty case, sub-width tails, exact multiples
/// of the 4-lane width, and the >= 8 unrolled-loop threshold.
const std::size_t kLengths[] = {0, 1, 3, 4, 5, 7, 8, 9, 16, 31, 64, 129};

TEST(SimdKernels, DenseKernelsMatchScalarBodies) {
  Rng rng(2024);
  for (const std::size_t n : kLengths) {
    const std::vector<double> a = random_vector(rng, n);
    const std::vector<double> b = random_vector(rng, n);

    double dot_simd = 0.0, dot_scalar = 0.0;
    double sum_simd = 0.0, sum_scalar = 0.0;
    std::vector<double> axpy_simd = b, axpy_scalar = b;
    std::vector<double> had_simd = a, had_scalar = a;
    std::vector<double> fma_simd = a, fma_scalar = a;
    std::vector<double> acc_simd = b, acc_scalar = b;

    dot_simd = simd::dot(a.data(), b.data(), n);
    sum_simd = simd::sum_abs(a.data(), n);
    simd::axpy(0.75, a.data(), axpy_simd.data(), n);
    simd::hadamard(had_simd.data(), b.data(), n);
    simd::hadamard_fma(fma_simd.data(), b.data(), b.data(), n);
    simd::accumulate_abs(a.data(), acc_simd.data(), n);
    {
      ScopedForceScalar scalar;
      dot_scalar = simd::dot(a.data(), b.data(), n);
      sum_scalar = simd::sum_abs(a.data(), n);
      simd::axpy(0.75, a.data(), axpy_scalar.data(), n);
      simd::hadamard(had_scalar.data(), b.data(), n);
      simd::hadamard_fma(fma_scalar.data(), b.data(), b.data(), n);
      simd::accumulate_abs(a.data(), acc_scalar.data(), n);
    }

    EXPECT_NEAR(dot_simd, dot_scalar, 1e-9) << "n " << n;
    EXPECT_NEAR(sum_simd, sum_scalar, 1e-9) << "n " << n;
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(axpy_simd[i], axpy_scalar[i], 1e-12) << "n " << n << " i " << i;
      EXPECT_NEAR(had_simd[i], had_scalar[i], 1e-12) << "n " << n << " i " << i;
      EXPECT_NEAR(fma_simd[i], fma_scalar[i], 1e-12) << "n " << n << " i " << i;
      EXPECT_NEAR(acc_simd[i], acc_scalar[i], 1e-12) << "n " << n << " i " << i;
    }
  }
}

TEST(SimdKernels, SparseGatherDotMatchesScalarBody) {
  Rng rng(77);
  for (const std::size_t n : kLengths) {
    const std::size_t x_len = 256;
    const std::vector<double> x = random_vector(rng, x_len);
    std::vector<std::int32_t> idx(n);
    std::vector<double> val(n);
    for (std::size_t k = 0; k < n; ++k) {
      idx[k] = rng.uniform_int(0, static_cast<int>(x_len) - 1);
      val[k] = rng.uniform(-2.0, 2.0);
    }
    const double vec = simd::sparse_gather_dot(idx.data(), val.data(), x.data(), n);
    double ref = 0.0;
    {
      ScopedForceScalar scalar;
      ref = simd::sparse_gather_dot(idx.data(), val.data(), x.data(), n);
    }
    EXPECT_NEAR(vec, ref, 1e-9) << "n " << n;

    // The scatter half is scalar by design; it must still be exact.
    std::vector<double> target = x;
    simd::sparse_scatter_axpy(idx.data(), val.data(), 0.5, target.data(), n);
    std::vector<double> expect = x;
    for (std::size_t k = 0; k < n; ++k) expect[idx[k]] -= 0.5 * val[k];
    for (std::size_t i = 0; i < x_len; ++i) EXPECT_EQ(target[i], expect[i]);
  }
}

TEST(SimdKernels, ArgmaxViolationMatchesScalarIncludingTies) {
  Rng rng(4242);
  for (const std::size_t n : kLengths) {
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<double> xb(n), lo(n), up(n), w(n);
      for (std::size_t i = 0; i < n; ++i) {
        lo[i] = rng.uniform(-2.0, 0.0);
        up[i] = lo[i] + rng.uniform(0.0, 2.0);
        // Mix of in-box, below-lo, and above-up rows; quantized offsets
        // manufacture exact score ties so the smallest-index rule is
        // actually exercised, not just the generic max.
        const double off = 0.25 * rng.uniform_int(0, 8);
        switch (rng.uniform_int(0, 2)) {
          case 0: xb[i] = lo[i] + 0.5 * (up[i] - lo[i]); break;
          case 1: xb[i] = lo[i] - off; break;
          default: xb[i] = up[i] + off; break;
        }
        w[i] = rng.bernoulli(0.5) ? 1.0 : 4.0;  // exact in binary FP
      }
      const std::size_t vec =
          simd::argmax_violation(xb.data(), lo.data(), up.data(), w.data(), 1e-7, n);
      std::size_t ref = n;
      {
        ScopedForceScalar scalar;
        ref = simd::argmax_violation(xb.data(), lo.data(), up.data(), w.data(), 1e-7, n);
      }
      EXPECT_EQ(vec, ref) << "n " << n << " trial " << trial;
    }
  }
}

TEST(SimdKernels, BackendNameFollowsToggle) {
  if (simd::compiled_with_avx2()) {
    EXPECT_STREQ(simd::backend_name(), "avx2");
    ScopedForceScalar scalar;
    EXPECT_STREQ(simd::backend_name(), "scalar");
  } else {
    EXPECT_STREQ(simd::backend_name(), "scalar");
  }
}

// ---------------------------------------------------- zonotope parity

Zonotope random_zonotope(Rng& rng, std::size_t n, std::size_t gens) {
  Box box(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double c = rng.uniform(-1.0, 1.0);
    box[i] = absint::Interval(c - rng.uniform(0.1, 1.0), c + rng.uniform(0.1, 1.0));
  }
  Zonotope z = Zonotope::from_box(box);
  // Rotate through a dense affine map so the generators stop being axis
  // aligned and every later kernel sees full rows.
  std::vector<std::vector<double>> weight(gens ? n : n, std::vector<double>(n));
  std::vector<double> bias(n);
  for (std::size_t r = 0; r < n; ++r) {
    bias[r] = rng.uniform(-0.5, 0.5);
    for (std::size_t c = 0; c < n; ++c) weight[r][c] = rng.uniform(-1.0, 1.0);
  }
  return z.affine(weight, bias);
}

void expect_box_near(const Box& a, const Box& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i].lo, b[i].lo, tol) << "dim " << i;
    EXPECT_NEAR(a[i].hi, b[i].hi, tol) << "dim " << i;
  }
}

TEST(SimdZonotopeParity, AffineScaleShiftReluAndReduceMatchScalar) {
  Rng rng(311);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const std::size_t out_n = static_cast<std::size_t>(rng.uniform_int(1, 19));
    const Zonotope z = random_zonotope(rng, n, n);

    std::vector<std::vector<double>> weight(out_n, std::vector<double>(n));
    std::vector<double> bias(out_n);
    for (std::size_t r = 0; r < out_n; ++r) {
      bias[r] = rng.uniform(-1.0, 1.0);
      for (std::size_t c = 0; c < n; ++c) weight[r][c] = rng.uniform(-1.5, 1.5);
    }
    std::vector<double> scale(n), shift(n);
    for (std::size_t i = 0; i < n; ++i) {
      scale[i] = rng.uniform(-2.0, 2.0);
      shift[i] = rng.uniform(-1.0, 1.0);
    }

    const Box affine_vec = z.affine(weight, bias).to_box();
    const Box scaled_vec = z.scale_shift(scale, shift).to_box();
    const Box relu_vec = z.relu(nullptr).to_box();
    const Box reduced_vec = z.reduce(n / 2 + 1).to_box();
    ScopedForceScalar scalar;
    expect_box_near(affine_vec, z.affine(weight, bias).to_box(), 1e-9);
    expect_box_near(scaled_vec, z.scale_shift(scale, shift).to_box(), 1e-9);
    expect_box_near(relu_vec, z.relu(nullptr).to_box(), 1e-9);
    expect_box_near(reduced_vec, z.reduce(n / 2 + 1).to_box(), 1e-9);
  }
}

// ------------------------------------------- basis LU / simplex parity

TEST(SimdLuParity, FtranBtranMatchScalarAcrossPivotChains) {
  Rng rng(555);
  const std::size_t m = 32;
  const std::size_t n = 70;
  // Random sparse columns, ~4 nonzeros each.
  lp::CscMatrix A;
  A.rows = m;
  A.cols = n;
  A.col_start.assign(n + 1, 0);
  for (std::size_t j = 0; j < n; ++j) {
    A.col_start[j] = A.row_index.size();
    for (int k = 0; k < 4; ++k) {
      A.row_index.push_back(static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<int>(m) - 1)));
      A.value.push_back(rng.uniform(0.5, 2.5) * (rng.bernoulli(0.5) ? 1.0 : -1.0));
    }
  }
  A.col_start[n] = A.row_index.size();
  std::vector<std::int32_t> basic(m);
  for (std::size_t k = 0; k < m; ++k) basic[k] = static_cast<std::int32_t>(n + k);

  lp::BasisLu vec_lu, scalar_lu;
  ASSERT_TRUE(vec_lu.factorize(A, n, basic));
  {
    ScopedForceScalar scalar;
    ASSERT_TRUE(scalar_lu.factorize(A, n, basic));
  }
  std::size_t applied = 0;
  for (int attempt = 0; attempt < 300 && applied < 60; ++attempt) {
    const std::size_t q =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(n) - 1));
    bool in_basis = false;
    for (const std::int32_t b : basic)
      if (static_cast<std::size_t>(b) == q) in_basis = true;
    if (in_basis) continue;
    std::vector<double> column(m, 0.0);
    for (std::size_t e = A.col_start[q]; e < A.col_start[q + 1]; ++e)
      column[A.row_index[e]] += A.value[e];
    std::vector<double> w_vec = column, w_scalar = column;
    vec_lu.ftran(w_vec);
    {
      ScopedForceScalar scalar;
      scalar_lu.ftran(w_scalar);
    }
    for (std::size_t i = 0; i < m; ++i)
      ASSERT_NEAR(w_vec[i], w_scalar[i], 1e-8) << "pivot " << applied;
    std::size_t r = m;
    double best = 1e-6;
    for (std::size_t i = 0; i < m; ++i) {
      if (std::abs(w_vec[i]) > best) {
        best = std::abs(w_vec[i]);
        r = i;
      }
    }
    if (r == m) continue;
    const bool ok_vec = vec_lu.update(r, w_vec);
    bool ok_scalar = false;
    {
      ScopedForceScalar scalar;
      ok_scalar = scalar_lu.update(r, w_scalar);
    }
    ASSERT_EQ(ok_vec, ok_scalar) << "pivot " << applied;
    basic[r] = static_cast<std::int32_t>(q);
    if (!ok_vec) {
      ASSERT_TRUE(vec_lu.factorize(A, n, basic));
      ScopedForceScalar scalar;
      ASSERT_TRUE(scalar_lu.factorize(A, n, basic));
    }
    ++applied;

    std::vector<double> rhs(m);
    for (std::size_t i = 0; i < m; ++i) rhs[i] = rng.uniform(-1.0, 1.0);
    std::vector<double> y_vec = rhs, y_scalar = rhs;
    vec_lu.btran(y_vec);
    {
      ScopedForceScalar scalar;
      scalar_lu.btran(y_scalar);
    }
    for (std::size_t i = 0; i < m; ++i)
      ASSERT_NEAR(y_vec[i], y_scalar[i], 1e-8) << "btran pivot " << applied;
  }
  ASSERT_GE(applied, 40u);
}

TEST(SimdSimplexParity, RevisedSimplexOptimaMatchScalarOnRandomLps) {
  for (int seed = 0; seed < 20; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 10007 + 23);
    const std::size_t n_vars = static_cast<std::size_t>(rng.uniform_int(2, 9));
    const std::size_t m_rows = static_cast<std::size_t>(rng.uniform_int(1, 12));
    lp::LpProblem p;
    std::vector<double> interior(n_vars);
    for (std::size_t i = 0; i < n_vars; ++i) {
      const double lo = rng.uniform(-4.0, 0.0);
      const double hi = rng.uniform(0.5, 4.0);
      p.add_variable(lo, hi);
      interior[i] = 0.5 * (lo + hi);
    }
    for (std::size_t r = 0; r < m_rows; ++r) {
      std::vector<lp::LinearTerm> terms;
      double activity = 0.0;
      for (std::size_t c = 0; c < n_vars; ++c) {
        if (rng.bernoulli(0.4)) continue;
        const double coeff = rng.uniform(-2.0, 2.0);
        terms.push_back({c, coeff});
        activity += coeff * interior[c];
      }
      if (terms.empty()) terms.push_back({0, 1.0}), activity = interior[0];
      p.add_row(terms, lp::RowSense::kLessEqual, activity + rng.uniform(0.1, 1.5));
    }
    std::vector<lp::LinearTerm> objective;
    for (std::size_t c = 0; c < n_vars; ++c)
      objective.push_back({c, rng.uniform(-1.0, 1.0)});
    p.set_objective(objective, lp::Objective::kMinimize);

    lp::RevisedSimplex vec, sca;
    vec.load(p);
    sca.load(p);
    const lp::LpSolution a = vec.solve();
    lp::LpSolution b;
    {
      ScopedForceScalar scalar;
      b = sca.solve();
    }
    ASSERT_EQ(a.status, b.status) << "seed " << seed;
    if (a.status == lp::SolveStatus::kOptimal) {
      EXPECT_NEAR(a.objective, b.objective, 1e-7) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace dpv
