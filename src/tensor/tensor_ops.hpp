// Free-function tensor operations.
//
// Only the handful of dense kernels the NN and verification layers need;
// kept as free functions so the Tensor class stays a plain container.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv {

/// y = W x for a rank-2 weight `w` of shape [rows, cols] and rank-1 `x`.
Tensor matvec(const Tensor& w, const Tensor& x);

/// Unchecked kernel behind `matvec`: y[r] = sum_c w[r * cols + c] * x[c]
/// over row-major `w`. Each row sums its columns left to right from 0.0,
/// so callers that check sizes themselves get bit-identical results.
void matvec(const double* w, std::size_t rows, std::size_t cols, const double* x, double* y);

/// Elementwise a + b (shapes must match).
Tensor add(const Tensor& a, const Tensor& b);

/// Elementwise a - b (shapes must match).
Tensor sub(const Tensor& a, const Tensor& b);

/// Elementwise scale.
Tensor scale(const Tensor& a, double factor);

/// Dot product of two rank-1 tensors of equal length.
double dot(const Tensor& a, const Tensor& b);

/// Index of the largest element (first on ties); tensor must be non-empty.
std::size_t argmax(const Tensor& t);

/// Smallest element; tensor must be non-empty.
double min_value(const Tensor& t);

/// Largest element; tensor must be non-empty.
double max_value(const Tensor& t);

/// Arithmetic mean; tensor must be non-empty.
double mean_value(const Tensor& t);

/// Max-norm distance between two equal-shape tensors.
double max_abs_diff(const Tensor& a, const Tensor& b);

/// Adjacent differences t[i+1] - t[i] of a rank-1 tensor (length n-1).
///
/// This is the quantity the paper monitors in addition to per-neuron
/// ranges (Sec. V: "minimum and maximum difference between two adjacent
/// neurons in a layer").
std::vector<double> adjacent_differences(const Tensor& t);

}  // namespace dpv
