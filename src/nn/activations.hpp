// The elementwise activation layer: ReLU.
//
// ReLU is the activation the paper's verified sub-network uses (Sec. V:
// "close-to-output layers ... are either ReLU or Batch Normalization"),
// and the only one the networks here are built from.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dpv::nn {

/// max(x, 0), shape-preserving. Piecewise-linear, exactly encodable in
/// MILP.
class ReLU : public Layer {
 public:
  explicit ReLU(Shape shape)
      : Layer(shape.numel(), shape.numel()), shape_(std::move(shape)) {}

  LayerKind kind() const override { return LayerKind::kReLU; }
  Shape input_shape() const override { return shape_; }
  Shape output_shape() const override { return shape_; }
  std::unique_ptr<Layer> clone() const override;

 protected:
  /// y = x > 0 ? x : 0; gx = g * (x > 0 ? 1 : 0), so the gradient is 0 at
  /// the kink.
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;

 private:
  Shape shape_;
};

}  // namespace dpv::nn
