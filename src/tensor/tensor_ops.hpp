// Free-function tensor operations.
//
// Only the handful of dense kernels the NN and verification layers need;
// kept as free functions so the Tensor class stays a plain container.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv {

/// y[r] = sum_c w[r * cols + c] * x[c] over row-major `w`, sizes checked
/// by the caller. Each row sums its columns left to right from 0.0.
void matvec(const double* w, std::size_t rows, std::size_t cols, const double* x, double* y);

/// Max-norm distance between two equal-shape tensors.
double max_abs_diff(const Tensor& a, const Tensor& b);

/// Adjacent differences t[i+1] - t[i] of a rank-1 tensor (length n-1).
///
/// This is the quantity the paper monitors in addition to per-neuron
/// ranges (Sec. V: "minimum and maximum difference between two adjacent
/// neurons in a layer").
std::vector<double> adjacent_differences(const Tensor& t);

}  // namespace dpv
