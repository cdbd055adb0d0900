// Loss functions for the training substrate.
//
// The direct perception network is a regressor (MSE over waypoint and
// orientation); the input property characterizer is a binary classifier
// trained on logits (BCE-with-logits, so the characterizer network itself
// stays purely piecewise-linear for the MILP encoder).
#pragma once

#include <cstddef>

#include "tensor/tensor.hpp"

namespace dpv::train {

/// Loss over one (prediction, target) pair.
class Loss {
 public:
  virtual ~Loss() = default;

  /// dL/dpred, same shape as `pred`; `pred` and `target` must have the
  /// same shape.
  Tensor gradient(const Tensor& pred, const Tensor& target) const;

  /// The loss value and its gradient on one sample's `n` raw values,
  /// sizes checked by the caller: the training loop's allocation-free
  /// form over its batch rows. `row_gradient` writes dL/dpred into `grad`.
  virtual double row_value(const double* pred, const double* target, std::size_t n) const = 0;
  virtual void row_gradient(const double* pred, const double* target, std::size_t n,
                            double* grad) const = 0;
};

/// Mean squared error: mean_i (pred_i - target_i)^2.
class MseLoss : public Loss {
 public:
  double row_value(const double* pred, const double* target, std::size_t n) const override;
  void row_gradient(const double* pred, const double* target, std::size_t n,
                    double* grad) const override;
};

/// Binary cross entropy on a single logit; target is {0, 1}.
///
/// Numerically stable form: loss = max(z, 0) - z*t + log(1 + exp(-|z|)).
class BceWithLogitsLoss : public Loss {
 public:
  double row_value(const double* pred, const double* target, std::size_t n) const override;
  void row_gradient(const double* pred, const double* target, std::size_t n,
                    double* grad) const override;
};

}  // namespace dpv::train
