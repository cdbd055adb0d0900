#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dpv {

void matvec(const double* w, std::size_t rows, std::size_t cols, const double* x, double* y) {
  // One row at a time, in exactly this loop form: the compiler's
  // vectorization of the column sum decides which products it fuses into
  // the running sum, so interleaving rows (or calling simd::dot) would
  // change the rounding of some rows.
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    const double* row = w + r * cols;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * x[c];
    y[r] = acc;
  }
}

double max_abs_diff(const Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "max_abs_diff: shape mismatch");
  double worst = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) worst = std::max(worst, std::abs(a[i] - b[i]));
  return worst;
}

std::vector<double> adjacent_differences(const Tensor& t) {
  check(t.shape().rank() == 1, "adjacent_differences: rank-1 tensor required");
  std::vector<double> diffs;
  if (t.numel() < 2) return diffs;
  diffs.reserve(t.numel() - 1);
  for (std::size_t i = 0; i + 1 < t.numel(); ++i) diffs.push_back(t[i + 1] - t[i]);
  return diffs;
}

}  // namespace dpv
