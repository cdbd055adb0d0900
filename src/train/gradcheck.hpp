// Numerical gradient verification.
//
// Central-difference checking of the analytic backward passes; the
// property-based layer tests sweep this across layer kinds and shapes.
#pragma once

#include "nn/network.hpp"
#include "train/loss.hpp"

namespace dpv::train {

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

/// Compares analytic parameter gradients of `net` against central
/// differences for one (input, target) pair under `loss`, both through
/// the training path (a batch of one, so BatchNorm on batch statistics).
///
/// `epsilon` is the finite-difference step. Every forward and probe runs
/// on a clone: `net` itself, BatchNorm running statistics included, is
/// left untouched.
GradCheckResult check_parameter_gradients(const nn::Network& net, const Tensor& input,
                                          const Tensor& target, const Loss& loss,
                                          double epsilon = 1e-6);

/// Compares the analytic input gradient against central differences, on
/// a clone as above.
GradCheckResult check_input_gradients(const nn::Network& net, const Tensor& input,
                                      const Tensor& target, const Loss& loss,
                                      double epsilon = 1e-6);

}  // namespace dpv::train
