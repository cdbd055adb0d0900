// Max / average pooling over (channels, height, width) tensors.
//
// Non-overlapping windows (stride == window), the common down-sampling
// configuration of perception front-ends.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dpv::nn {

/// Shared plumbing for the two pooling flavours.
class Pool2D : public Layer {
 public:
  Pool2D(std::size_t channels, std::size_t in_height, std::size_t in_width, std::size_t window);

  Shape input_shape() const override { return Shape{channels_, in_height_, in_width_}; }
  Shape output_shape() const override { return Shape{channels_, out_height_, out_width_}; }

  std::size_t window() const { return window_; }

 protected:
  std::size_t channels_, in_height_, in_width_;
  std::size_t out_height_, out_width_;
  std::size_t window_;
};

/// Maximum over each window; backward routes gradient to the argmax cell.
class MaxPool2D : public Pool2D {
 public:
  using Pool2D::Pool2D;
  LayerKind kind() const override { return LayerKind::kMaxPool2D; }
  std::unique_ptr<Layer> clone() const override;

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;
};

/// Mean over each window; backward spreads gradient uniformly.
class AvgPool2D : public Pool2D {
 public:
  using Pool2D::Pool2D;
  LayerKind kind() const override { return LayerKind::kAvgPool2D; }
  std::unique_ptr<Layer> clone() const override;

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;
};

}  // namespace dpv::nn
