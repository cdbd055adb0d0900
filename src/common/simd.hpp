// Small SIMD dispatch layer for the numeric hot loops (FTRAN/BTRAN and
// dual-simplex pricing, zonotope generator-matrix affine maps,
// convolution and max-pool rows, the MT19937-64 engine and its normal
// deviates).
//
// Design rules:
//   * The scalar fallback is ALWAYS compiled and reachable at runtime via
//     `set_force_scalar(true)`, so differential tests can A/B the
//     vector and scalar paths inside one process. Compile-time
//     dispatch alone cannot produce that in-process comparison.
//   * Vector bodies are guarded by __AVX2__ (plus FMA where used); when
//     the translation unit is built without those flags the dispatchers
//     collapse to the scalar bodies and the toggle becomes a no-op.
//   * Kernels take raw pointers + lengths over contiguous storage. Hot
//     data structures (the basis LU's SoA sparse vectors, zonotope
//     generator rows) are laid out so these apply directly; there is no
//     gather-free guarantee, but index arrays are int32 so AVX2's
//     vpgatherdpd can consume them.
//   * No alignment requirement: loads/stores are unaligned (loadu/storeu).
//     On every AVX2 core that matters, unaligned ops on cache-resident
//     data cost the same as aligned ones, and the solver's vectors come
//     from std::vector which only guarantees 16-byte alignment.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dpv::simd {

namespace detail {
inline std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// When true every dispatcher below takes its scalar body, regardless of
/// how the binary was compiled. Used by the differential tests and by the
/// bench's per-optimization sweep to isolate the SIMD contribution.
inline void set_force_scalar(bool value) {
  detail::force_scalar_flag().store(value, std::memory_order_relaxed);
}
inline bool force_scalar() {
  return detail::force_scalar_flag().load(std::memory_order_relaxed);
}

/// True when the binary carries AVX2 bodies (i.e. the toggle can change
/// anything at all). The bench records this next to its SIMD axis.
constexpr bool compiled_with_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

/// Name of the active backend, for bench/report output.
inline const char* backend_name() {
  return (compiled_with_avx2() && !force_scalar()) ? "avx2" : "scalar";
}

/// Returns `v` unchanged but opaque to the optimizer, so `acc += rounded(a * b)`
/// rounds the product before the add instead of contracting the two into one
/// fused multiply-add. Marks the library's unfused multiply-add sites.
inline double rounded(double v) {
#if defined(__GNUC__) && defined(__x86_64__)
  __asm__("" : "+x"(v));
#else
  volatile double opaque = v;
  v = opaque;
#endif
  return v;
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i]
inline double dot(const double* a, const double* b, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4), acc1);
    }
    acc0 = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc0);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) sum += a[i] * b[i];
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y[i] += alpha * x[i]
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 4) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vy = _mm256_loadu_pd(y + i);
      _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), vy));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// x[i] *= s[i] — elementwise (Hadamard) product; the zonotope
/// generator half of a diagonal affine map (batchnorm scale).
inline void hadamard(double* x, const double* s, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(s + i)));
    for (; i < n; ++i) x[i] *= s[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] *= s[i];
}

/// x[i] = s[i] * x[i] + b[i] — the zonotope center half of a diagonal
/// affine map (batchnorm scale + shift).
inline void hadamard_fma(double* x, const double* s, const double* b,
                         std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 4) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(x + i,
                       _mm256_fmadd_pd(_mm256_loadu_pd(s + i),
                                       _mm256_loadu_pd(x + i),
                                       _mm256_loadu_pd(b + i)));
    for (; i < n; ++i) x[i] = s[i] * x[i] + b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = s[i] * x[i] + b[i];
}

/// g[i] = max(g[i], c * w[i]²) — the Forrest–Goldfarb Devex reference-
/// weight propagation over the FTRAN'd pivot column.
inline void max_square_scaled(const double* w, double c, double* g,
                              std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    const __m256d vc = _mm256_set1_pd(c);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vw = _mm256_loadu_pd(w + i);
      const __m256d cand = _mm256_mul_pd(vc, _mm256_mul_pd(vw, vw));
      _mm256_storeu_pd(g + i, _mm256_max_pd(_mm256_loadu_pd(g + i), cand));
    }
    for (; i < n; ++i) g[i] = std::max(g[i], c * w[i] * w[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) g[i] = std::max(g[i], c * w[i] * w[i]);
}

/// Dual-simplex leaving-row scan: over rows i with xb[i] outside
/// [lo[i], up[i]] by more than `tol`, returns the index maximizing the
/// Devex score v² / weights[i], where v = max(lo[i] - xb[i], xb[i] - up[i])
/// is the violation and weights[i] > 0 the row's reference weight — or
/// `n` when no row is violated. Ties keep the smallest
/// index, which is exactly what the scalar first-strict-win loop
/// produces, so the vector and scalar paths pick identical rows (the
/// per-lane running max uses the same strict > and the horizontal
/// reduction breaks equal lane scores toward the earlier index).
inline std::size_t argmax_violation(const double* xb, const double* lo,
                                    const double* up, const double* weights,
                                    double tol, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 8) {
    const __m256d vtol = _mm256_set1_pd(tol);
    __m256d best = _mm256_setzero_pd();
    __m256i besti = _mm256_set1_epi64x(-1);
    __m256i cur = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i four = _mm256_set1_epi64x(4);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, cur = _mm256_add_epi64(cur, four)) {
      const __m256d vxb = _mm256_loadu_pd(xb + i);
      const __m256d v =
          _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lo + i), vxb),
                        _mm256_sub_pd(vxb, _mm256_loadu_pd(up + i)));
      const __m256d valid = _mm256_cmp_pd(v, vtol, _CMP_GT_OQ);
      __m256d score =
          _mm256_div_pd(_mm256_mul_pd(v, v), _mm256_loadu_pd(weights + i));
      // Invalid lanes become 0.0 and can never beat the strict > below
      // (valid scores are positive: v > tol >= 0, weights positive).
      score = _mm256_and_pd(score, valid);
      const __m256d gt = _mm256_cmp_pd(score, best, _CMP_GT_OQ);
      best = _mm256_blendv_pd(best, score, gt);
      besti = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(besti), _mm256_castsi256_pd(cur), gt));
    }
    alignas(32) double lane_score[4];
    alignas(32) std::int64_t lane_index[4];
    _mm256_store_pd(lane_score, best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_index), besti);
    double best_score = 0.0;
    std::int64_t best_index = -1;
    for (int l = 0; l < 4; ++l) {
      if (lane_index[l] < 0) continue;
      if (best_score < lane_score[l] ||
          (best_score == lane_score[l] && lane_index[l] < best_index)) {
        best_score = lane_score[l];
        best_index = lane_index[l];
      }
    }
    for (; i < n; ++i) {  // scalar tail, strict > keeps earlier winners
      const double v = std::max(lo[i] - xb[i], xb[i] - up[i]);
      if (v <= tol) continue;
      const double score = v * v / weights[i];
      if (score > best_score) {
        best_score = score;
        best_index = static_cast<std::int64_t>(i);
      }
    }
    return best_index < 0 ? n : static_cast<std::size_t>(best_index);
  }
#endif
  std::size_t best_index = n;
  double best_score = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = std::max(lo[i] - xb[i], xb[i] - up[i]);
    if (v <= tol) continue;
    const double score = v * v / weights[i];
    if (score > best_score) {
      best_score = score;
      best_index = i;
    }
  }
  return best_index;
}

/// acc[i] += |x[i]| — the zonotope to_box / reduce accumulation.
inline void accumulate_abs(const double* x, double* acc, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    // Clear the sign bit: andpd with ~(1<<63) in every lane.
    const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vx = _mm256_and_pd(_mm256_loadu_pd(x + i), mask);
      _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), vx));
    }
    for (; i < n; ++i) acc[i] += std::fabs(x[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) acc[i] += std::fabs(x[i]);
}

/// sum_i |x[i]| — generator mass for zonotope order reduction.
inline double sum_abs(const double* x, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      acc = _mm256_add_pd(acc, _mm256_and_pd(_mm256_loadu_pd(x + i), mask));
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) sum += std::fabs(x[i]);
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

// ---------------------------------------------------------------------------
// Sparse kernels (SoA index/value pairs, int32 indices)
// ---------------------------------------------------------------------------

/// sum_k val[k] * x[idx[k]] — the FTRAN/BTRAN gather-dot. AVX2 has a
/// vector gather (vpgatherdpd) but no scatter, which is why the basis LU
/// routes its *reads* through this kernel and keeps writes scalar.
inline double sparse_gather_dot(const std::int32_t* idx, const double* val,
                                const double* x, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 8) {
    __m256d acc = _mm256_setzero_pd();
    // All-lanes mask + zeroed source: same codegen as the plain gather
    // but avoids GCC's maybe-uninitialized false positive on
    // _mm256_undefined_pd inside _mm256_i32gather_pd.
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
      const __m256d vx =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, vi, ones, 8);
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(val + k), vx, acc);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; k < n; ++k) sum += val[k] * x[idx[k]];
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += val[k] * x[idx[k]];
  return sum;
}

/// x[idx[k]] -= scale * val[k] — the scatter half of an eta / L-column
/// application. AVX2 has no scatter instruction, so this stays scalar by
/// design; the SoA layout still buys contiguous streaming of idx/val.
inline void sparse_scatter_axpy(const std::int32_t* idx, const double* val,
                                double scale, double* x, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) x[idx[k]] -= scale * val[k];
}

// ---------------------------------------------------------------------------
// Register-blocked nn forward kernels (convolution and max-pool rows)
//
// Each output is specified step by step, so the vector and scalar bodies
// return the same bits in every build: the vector bodies only run several
// outputs side by side. A block of up to 16 outputs stays in registers
// until its last step; when n is not a multiple of 4, the last vector of
// a block is shifted left to end at n and recomputes a few outputs of the
// vector before it, bit for bit.
// ---------------------------------------------------------------------------

/// A planes × rows × cols grid of taps: tap (p, r, c) weighs the input
/// x[p * x_plane + r * x_row + c] by w[p * w_plane + r * w_row + c].
struct TapGrid {
  std::size_t planes = 0, rows = 0, cols = 0;
  std::size_t w_plane = 0, w_row = 0;
  std::size_t x_plane = 0, x_row = 0;
};

namespace detail {
#if defined(__AVX2__) && defined(__FMA__)
/// fma_taps over the V vectors of outputs starting at j0 + 4 v, each
/// clamped to end by n.
template <std::size_t V>
inline void fma_taps_block(const double* w, const double* x, const TapGrid& g, double init,
                           double* y, std::size_t j0, std::size_t n) {
  std::size_t at[V];
  __m256d acc[V];
  for (std::size_t v = 0; v < V; ++v) {
    at[v] = std::min(j0 + 4 * v, n - 4);
    acc[v] = _mm256_set1_pd(init);
  }
  for (std::size_t p = 0; p < g.planes; ++p)
    for (std::size_t r = 0; r < g.rows; ++r) {
      const double* wr = w + p * g.w_plane + r * g.w_row;
      const double* xr = x + p * g.x_plane + r * g.x_row;
      for (std::size_t c = 0; c < g.cols; ++c) {
        const __m256d wv = _mm256_set1_pd(wr[c]);
        for (std::size_t v = 0; v < V; ++v)
          acc[v] = _mm256_fmadd_pd(wv, _mm256_loadu_pd(xr + c + at[v]), acc[v]);
      }
    }
  for (std::size_t v = 0; v < V; ++v) _mm256_storeu_pd(y + at[v], acc[v]);
}

/// fma_taps_shared_input over the V vectors of chains starting at
/// i0 + 4 v, each clamped to end by m.
template <std::size_t V>
inline void fma_taps_shared_block(const double* w, std::size_t w_step, const double* x,
                                  const TapGrid& g, const double* init, double* y,
                                  std::size_t y_step, std::size_t i0, std::size_t m) {
  std::size_t at[V];
  __m256d acc[V];
  for (std::size_t v = 0; v < V; ++v) {
    at[v] = std::min(i0 + 4 * v, m - 4);
    acc[v] = _mm256_loadu_pd(init + at[v]);
  }
  for (std::size_t p = 0; p < g.planes; ++p)
    for (std::size_t r = 0; r < g.rows; ++r) {
      const double* wr = w + p * g.w_plane + r * g.w_row;
      const double* xr = x + p * g.x_plane + r * g.x_row;
      for (std::size_t c = 0; c < g.cols; ++c) {
        const __m256d xv = _mm256_set1_pd(xr[c]);
        for (std::size_t v = 0; v < V; ++v) {
          const double* wc = wr + c + at[v] * w_step;
          const __m256d wv =
              _mm256_setr_pd(wc[0], wc[w_step], wc[2 * w_step], wc[3 * w_step]);
          acc[v] = _mm256_fmadd_pd(wv, xv, acc[v]);
        }
      }
    }
  alignas(32) double lanes[4];
  for (std::size_t v = 0; v < V; ++v) {
    _mm256_store_pd(lanes, acc[v]);
    for (std::size_t l = 0; l < 4; ++l) y[(at[v] + l) * y_step] = lanes[l];
  }
}
#endif
}  // namespace detail

/// n fused multiply-add chains over the tap grid, output j reading every
/// tap's input j columns further on (a stride-1 correlation row): y[j] =
/// init, then y[j] = fma(w(p, r, c), x(p, r, c)[j], y[j]) for each tap in
/// (p, r, c) order. Each step rounds once, so vector lanes and the scalar
/// body agree exactly.
inline void fma_taps(const double* w, const double* x, const TapGrid& grid, double init,
                     double* y, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 4) {
    std::size_t j = 0;
    for (; n - j > 16; j += 16) detail::fma_taps_block<4>(w, x, grid, init, y, j, n);
    switch ((n - j + 3) / 4) {
      case 4:
        detail::fma_taps_block<4>(w, x, grid, init, y, j, n);
        break;
      case 3:
        detail::fma_taps_block<3>(w, x, grid, init, y, j, n);
        break;
      case 2:
        detail::fma_taps_block<2>(w, x, grid, init, y, j, n);
        break;
      case 1:
        detail::fma_taps_block<1>(w, x, grid, init, y, j, n);
        break;
    }
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    double acc = init;
    for (std::size_t p = 0; p < grid.planes; ++p)
      for (std::size_t r = 0; r < grid.rows; ++r) {
        const double* wr = w + p * grid.w_plane + r * grid.w_row;
        const double* xr = x + p * grid.x_plane + r * grid.x_row + j;
        for (std::size_t c = 0; c < grid.cols; ++c) acc = std::fma(wr[c], xr[c], acc);
      }
    y[j] = acc;
  }
}

/// m fused multiply-add chains that read the same inputs through weights
/// w_step apart (one convolution column across output channels):
/// y[i * y_step] = init[i], then that output takes fma(w(p, r, c)[i *
/// w_step], x(p, r, c), ·) for each tap in (p, r, c) order. The AVX2 body
/// runs up to eight chains at once, four per vector.
inline void fma_taps_shared_input(const double* w, std::size_t w_step, const double* x,
                                  const TapGrid& grid, const double* init, double* y,
                                  std::size_t y_step, std::size_t m) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && m >= 4) {
    std::size_t i = 0;
    for (; m - i > 8; i += 8)
      detail::fma_taps_shared_block<2>(w, w_step, x, grid, init, y, y_step, i, m);
    if (m - i > 4)
      detail::fma_taps_shared_block<2>(w, w_step, x, grid, init, y, y_step, i, m);
    else
      detail::fma_taps_shared_block<1>(w, w_step, x, grid, init, y, y_step, i, m);
    return;
  }
#endif
  for (std::size_t i = 0; i < m; ++i) {
    double acc = init[i];
    for (std::size_t p = 0; p < grid.planes; ++p)
      for (std::size_t r = 0; r < grid.rows; ++r) {
        const double* wr = w + i * w_step + p * grid.w_plane + r * grid.w_row;
        const double* xr = x + p * grid.x_plane + r * grid.x_row;
        for (std::size_t c = 0; c < grid.cols; ++c) acc = std::fma(wr[c], xr[c], acc);
      }
    y[i * y_step] = acc;
  }
}

/// Maxima of n side-by-side window × window windows whose top-left cells
/// are x[j * window] (rows x_row apart): y[j] starts at -inf and takes
/// each cell v in row-major window order as `if (v > best) best = v`.
/// The AVX2 body (window 2) takes that step as _mm256_max_pd(v, best),
/// which is exactly it, NaN cells (never taken) and equal zeros of either
/// sign (the earlier one kept) included.
inline void window_max(const double* x, std::size_t window, std::size_t x_row, double* y,
                       std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && window == 2 && n >= 4) {
    // Unpacking the 8 cells of one window row for outputs j..j+3 splits
    // them into left and right cells, in lanes ordered j, j+2, j+1, j+3.
    for (std::size_t j0 = 0; j0 < n; j0 += 4) {
      const std::size_t j = std::min(j0, n - 4);
      __m256d best = _mm256_set1_pd(-std::numeric_limits<double>::infinity());
      for (std::size_t r = 0; r < 2; ++r) {
        const double* row = x + r * x_row + 2 * j;
        const __m256d a = _mm256_loadu_pd(row), b = _mm256_loadu_pd(row + 4);
        best = _mm256_max_pd(_mm256_unpacklo_pd(a, b), best);
        best = _mm256_max_pd(_mm256_unpackhi_pd(a, b), best);
      }
      _mm256_storeu_pd(y + j, _mm256_permute4x64_pd(best, 0xD8));
    }
    return;
  }
#endif
  for (std::size_t j = 0; j < n; ++j) {
    double best = -std::numeric_limits<double>::infinity();
    for (std::size_t r = 0; r < window; ++r) {
      const double* row = x + r * x_row + j * window;
      for (std::size_t c = 0; c < window; ++c)
        if (row[c] > best) best = row[c];
    }
    y[j] = best;
  }
}

// ---------------------------------------------------------------------------
// MT19937-64 and polar-method normals
//
// The standard fixes std::mt19937_64's stream; libstdc++ fixes how
// generate_canonical and normal_distribution turn it into doubles, and
// the library's Release build fused two of those steps. These kernels
// write that arithmetic out (std::fma where the fusions were), so the
// vector and scalar bodies return the same bits in every build. The one
// libm call, std::log, stays scalar in both: a vector log would round
// differently.
// ---------------------------------------------------------------------------

/// Words in an MT19937-64 state.
inline constexpr std::size_t kMt64Words = 312;

namespace detail {
inline constexpr std::size_t kMt64Shift = 156;                   // m
inline constexpr std::uint64_t kMt64Upper = 0xffffffff80000000ull;  // the top w - r bits
inline constexpr std::uint64_t kMt64Lower = 0x7fffffffull;
inline constexpr std::uint64_t kMt64Matrix = 0xb5026f5aa96619e9ull;  // a

/// The largest double below 1.
inline constexpr double kBelowOne = 0x1.fffffffffffffp-1;

#if defined(__AVX2__) && defined(__FMA__)
/// mt64_temper on four words.
inline __m256i mt64_temper4(__m256i z) {
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_srli_epi64(z, 29), _mm256_set1_epi64x(0x5555555555555555ll)));
  z = _mm256_xor_si256(
      z, _mm256_and_si256(_mm256_slli_epi64(z, 17), _mm256_set1_epi64x(0x71d67fffeda60000ll)));
  z = _mm256_xor_si256(z, _mm256_and_si256(_mm256_slli_epi64(z, 37),
                                           _mm256_set1_epi64x(static_cast<long long>(
                                               0xfff7eee000000000ull))));
  return _mm256_xor_si256(z, _mm256_srli_epi64(z, 43));
}

/// unit_interval on four outputs. AVX2 has no unsigned 64-bit conversion:
/// each half goes into the mantissa of a power of two (2^84 + hi 2^32 and
/// 2^52 + lo, both exact), an exact subtraction removes the two powers,
/// and the one add that joins the halves rounds x to nearest, as the
/// scalar conversion does.
inline __m256d unit_interval4(__m256i x) {
  const __m256i hi = _mm256_or_si256(_mm256_srli_epi64(x, 32),
                                     _mm256_castpd_si256(_mm256_set1_pd(0x1p84)));
  const __m256i lo = _mm256_blend_epi32(x, _mm256_castpd_si256(_mm256_set1_pd(0x1p52)), 0xaa);
  const __m256d joined =
      _mm256_add_pd(_mm256_sub_pd(_mm256_castsi256_pd(hi), _mm256_set1_pd(0x1p84 + 0x1p52)),
                    _mm256_castsi256_pd(lo));
  return _mm256_min_pd(_mm256_mul_pd(joined, _mm256_set1_pd(0x1p-64)),
                       _mm256_set1_pd(kBelowOne));
}

/// Eight-lane permutations (two 32-bit halves per double) that move the
/// lanes set in a 4-bit mask to the front, in lane order.
struct CompactTable {
  alignas(32) std::int32_t lanes[16][8];
};
constexpr CompactTable make_compact_table() {
  CompactTable t{};
  for (int mask = 0; mask < 16; ++mask)
    for (int lane = 0, out = 0; lane < 4; ++lane)
      if ((mask >> lane) & 1) {
        t.lanes[mask][2 * out] = 2 * lane;
        t.lanes[mask][2 * out + 1] = 2 * lane + 1;
        ++out;
      }
  return t;
}
inline constexpr CompactTable kCompactTable = make_compact_table();

inline __m256d compact(__m256d v, int mask) {
  const __m256i perm =
      _mm256_load_si256(reinterpret_cast<const __m256i*>(kCompactTable.lanes[mask]));
  return _mm256_castps_pd(_mm256_permutevar8x32_ps(_mm256_castpd_ps(v), perm));
}

/// polar_pair on the four pairs in words[0 .. 8): y and r2 in pair order,
/// and the mask of accepted pairs (bit l for pair l).
inline int polar_pairs4(const std::uint64_t* words, __m256d& y, __m256d& r2) {
  const __m256d a = unit_interval4(
      mt64_temper4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(words))));
  const __m256d b = unit_interval4(
      mt64_temper4(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + 4))));
  // Unpacking leaves the pairs in lane order 0, 2, 1, 3; the permute
  // restores stream order.
  const __m256d ux = _mm256_permute4x64_pd(_mm256_unpacklo_pd(a, b), 0xD8);
  const __m256d uy = _mm256_permute4x64_pd(_mm256_unpackhi_pd(a, b), 0xD8);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d x = _mm256_sub_pd(_mm256_add_pd(ux, ux), one);
  y = _mm256_sub_pd(_mm256_add_pd(uy, uy), one);
  r2 = _mm256_fmadd_pd(x, x, _mm256_mul_pd(y, y));
  const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(r2, one, _CMP_LE_OQ),
                                   _mm256_cmp_pd(r2, _mm256_setzero_pd(), _CMP_NEQ_OQ));
  return _mm256_movemask_pd(ok);
}

/// polar_value on four accepted pairs, given log(r2).
inline __m256d polar_values4(__m256d y, __m256d r2, __m256d log_r2, __m256d mean,
                             __m256d stddev) {
  const __m256d mult =
      _mm256_sqrt_pd(_mm256_div_pd(_mm256_mul_pd(_mm256_set1_pd(-2.0), log_r2), r2));
  return _mm256_fmadd_pd(_mm256_mul_pd(y, mult), stddev, mean);
}
#endif
}  // namespace detail

/// Regenerates an MT19937-64 state in place: word k becomes
/// mt[k + m] ^ (y >> 1) ^ (y odd ? a : 0), with y the top bit of mt[k] over
/// the low 63 of mt[k + 1], indices mod 312, each word taken as it stands
/// when word k is written (std::mt19937_64's regeneration step).
inline void mt64_twist(std::uint64_t* mt) {
  using namespace detail;
  const auto next = [](std::uint64_t cur, std::uint64_t succ, std::uint64_t far) {
    const std::uint64_t y = (cur & kMt64Upper) | (succ & kMt64Lower);
    return far ^ (y >> 1) ^ ((y & 1) ? kMt64Matrix : 0);
  };
  std::size_t k = 0;
#if defined(__AVX2__)
  if (!force_scalar()) {
    // Four words at a time: a block reads the old words after it and, in
    // the second half, the new words 156 before it, never its own lanes.
    const __m256i upper = _mm256_set1_epi64x(static_cast<long long>(kMt64Upper));
    const __m256i lower = _mm256_set1_epi64x(static_cast<long long>(kMt64Lower));
    const __m256i matrix = _mm256_set1_epi64x(static_cast<long long>(kMt64Matrix));
    const __m256i one = _mm256_set1_epi64x(1);
    const auto block = [&](std::size_t at, const std::uint64_t* far) {
      const auto load = [](const std::uint64_t* p) {
        return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
      };
      const __m256i y = _mm256_or_si256(_mm256_and_si256(load(mt + at), upper),
                                        _mm256_and_si256(load(mt + at + 1), lower));
      const __m256i odd = _mm256_sub_epi64(_mm256_setzero_si256(), _mm256_and_si256(y, one));
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(mt + at),
                          _mm256_xor_si256(_mm256_xor_si256(load(far), _mm256_srli_epi64(y, 1)),
                                           _mm256_and_si256(odd, matrix)));
    };
    for (; k < kMt64Words - kMt64Shift; k += 4) block(k, mt + k + kMt64Shift);
    for (; k + 4 < kMt64Words; k += 4) block(k, mt + k + kMt64Shift - kMt64Words);
  }
#endif
  for (; k < kMt64Words; ++k)
    mt[k] = next(mt[k], mt[(k + 1) % kMt64Words], mt[(k + kMt64Shift) % kMt64Words]);
}

/// MT19937-64 output tempering of one state word.
inline std::uint64_t mt64_temper(std::uint64_t z) {
  z ^= (z >> 29) & 0x5555555555555555ull;
  z ^= (z << 17) & 0x71d67fffeda60000ull;
  z ^= (z << 37) & 0xfff7eee000000000ull;
  return z ^ (z >> 43);
}

/// std::generate_canonical<double, 53> of one 64-bit output x: x rounded
/// to nearest and scaled by 2^-64, or the largest double below 1 when that
/// rounds up to 1.
inline double unit_interval(std::uint64_t x) {
  return std::min(static_cast<double>(x) * 0x1p-64, detail::kBelowOne);
}

/// One candidate pair of the polar method from two engine outputs:
/// x = 2 u(wx) - 1, y = 2 u(wy) - 1 (u + u is exact, so only the
/// subtraction rounds, fused or not) and r2 = fma(x, x, y y). Returns
/// whether the pair is accepted, i.e. r2 in (0, 1].
inline bool polar_pair(std::uint64_t wx, std::uint64_t wy, double& y, double& r2) {
  const double ux = unit_interval(wx), uy = unit_interval(wy);
  const double x = ux + ux - 1.0;
  y = uy + uy - 1.0;
  r2 = std::fma(x, x, y * y);
  return r2 <= 1.0 && r2 != 0.0;
}

/// The normal deviate of an accepted pair: fma(y sqrt(-2 log(r2) / r2),
/// stddev, mean). The x coordinate's deviate is discarded.
inline double polar_value(double y, double r2, double mean, double stddev) {
  return std::fma(y * std::sqrt(-2.0 * std::log(r2) / r2), stddev, mean);
}

/// Normal deviates from consecutive untempered MT19937-64 state words,
/// one per accepted polar_pair of (temper(words[2 i]),
/// temper(words[2 i + 1])) in stream order: what successive
/// std::normal_distribution draws from std::mt19937_64 return when each
/// uses a fresh distribution. Reads at most `pairs` pairs and stops after
/// the `want`-th accepted one; returns the number of values written to
/// `out` and sets `used` to the pairs read. The AVX2 body tests four pairs
/// at a time and compacts the accepted ones, then finishes them four at a
/// time around one scalar std::log each.
inline std::size_t polar_normals(const std::uint64_t* words, std::size_t pairs, double mean,
                                 double stddev, double* out, std::size_t want,
                                 std::size_t& used) {
  constexpr std::size_t kChunk = 64;
  alignas(32) double ys[kChunk + 4];
  alignas(32) double r2s[kChunk + 4];
  std::size_t made = 0;
  used = 0;
  while (made < want && used < pairs) {
    const std::size_t need = std::min(want - made, kChunk);
    std::size_t found = 0;
#if defined(__AVX2__) && defined(__FMA__)
    if (!force_scalar()) {
      for (; found < need && pairs - used >= 4;) {
        __m256d y, r2;
        int mask = detail::polar_pairs4(words + 2 * used, y, r2);
        std::size_t taken = static_cast<std::size_t>(__builtin_popcount(mask));
        std::size_t read = 4;
        if (found + taken >= need) {  // keep the accepted pairs up to the need-th
          for (; found + taken > need; --taken) mask &= ~(1 << (31 - __builtin_clz(mask)));
          read = static_cast<std::size_t>(32 - __builtin_clz(mask));
        }
        _mm256_storeu_pd(ys + found, detail::compact(y, mask));
        _mm256_storeu_pd(r2s + found, detail::compact(r2, mask));
        found += taken;
        used += read;
      }
    }
#endif
    for (; found < need && used < pairs; ++used)
      if (polar_pair(mt64_temper(words[2 * used]), mt64_temper(words[2 * used + 1]), ys[found],
                     r2s[found]))
        ++found;
    std::size_t k = 0;
#if defined(__AVX2__) && defined(__FMA__)
    if (!force_scalar() && found >= 4) {
      alignas(32) double logs[kChunk];
      for (; k < found; ++k) logs[k] = std::log(r2s[k]);
      const __m256d vmean = _mm256_set1_pd(mean), vstddev = _mm256_set1_pd(stddev);
      // A last vector shifted left to end at `found` recomputes a few
      // values of the one before it, bit for bit.
      for (std::size_t k0 = 0; k0 < found; k0 += 4) {
        const std::size_t at = std::min(k0, found - 4);
        _mm256_storeu_pd(out + made + at,
                         detail::polar_values4(_mm256_loadu_pd(ys + at), _mm256_loadu_pd(r2s + at),
                                               _mm256_loadu_pd(logs + at), vmean, vstddev));
      }
    }
#endif
    for (; k < found; ++k) out[made + k] = polar_value(ys[k], r2s[k], mean, stddev);
    made += found;
  }
  return made;
}

}  // namespace dpv::simd
