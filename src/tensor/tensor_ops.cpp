#include "tensor/tensor_ops.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/check.hpp"

namespace dpv {

Tensor matvec(const Tensor& w, const Tensor& x) {
  check(w.shape().rank() == 2, "matvec: weight must be rank 2");
  check(x.shape().rank() == 1, "matvec: input must be rank 1");
  const std::size_t rows = w.shape().dim(0);
  const std::size_t cols = w.shape().dim(1);
  if (cols != x.numel())
    throw ContractViolation("matvec: weight cols " + std::to_string(cols) +
                            " != input length " + std::to_string(x.numel()));
  Tensor y(Shape{rows});
  matvec(w.data().data(), rows, cols, x.data().data(), y.data().data());
  return y;
}

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

Tensor add(const Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "add: shape mismatch");
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] += b[i];
  return out;
}

Tensor sub(const Tensor& a, const Tensor& b) {
  check(a.same_shape(b), "sub: shape mismatch");
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] -= b[i];
  return out;
}

Tensor scale(const Tensor& a, double factor) {
  Tensor out = a;
  for (std::size_t i = 0; i < out.numel(); ++i) out[i] *= factor;
  return out;
}

double dot(const Tensor& a, const Tensor& b) {
  check(a.shape().rank() == 1 && b.shape().rank() == 1, "dot: rank-1 tensors required");
  check(a.numel() == b.numel(), "dot: length mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) acc += a[i] * b[i];
  return acc;
}

std::size_t argmax(const Tensor& t) {
  check(t.numel() > 0, "argmax: empty tensor");
  return static_cast<std::size_t>(
      std::max_element(t.data().begin(), t.data().end()) - t.data().begin());
}

double min_value(const Tensor& t) {
  check(t.numel() > 0, "min_value: empty tensor");
  return *std::min_element(t.data().begin(), t.data().end());
}

double max_value(const Tensor& t) {
  check(t.numel() > 0, "max_value: empty tensor");
  return *std::max_element(t.data().begin(), t.data().end());
}

double mean_value(const Tensor& t) {
  check(t.numel() > 0, "mean_value: empty tensor");
  const double sum = std::accumulate(t.data().begin(), t.data().end(), 0.0);
  return sum / static_cast<double>(t.numel());
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
