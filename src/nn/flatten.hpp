// Flatten: reshapes (C, H, W) feature maps to rank-1 vectors.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dpv::nn {

class Flatten : public Layer {
 public:
  explicit Flatten(Shape in_shape)
      : Layer(in_shape.numel(), in_shape.numel()), in_shape_(std::move(in_shape)) {}

  LayerKind kind() const override { return LayerKind::kFlatten; }
  Shape input_shape() const override { return in_shape_; }
  Shape output_shape() const override { return Shape{in_shape_.numel()}; }

  std::unique_ptr<Layer> clone() const override;

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;

 private:
  Shape in_shape_;
};

}  // namespace dpv::nn
