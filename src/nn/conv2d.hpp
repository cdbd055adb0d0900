// 2-D convolution over (channels, height, width) tensors.
//
// The convolutional front-end of the direct perception network. Never
// encoded into MILP: the paper's layer abstraction (Lemma 1) cuts the
// network after the convolutional stack, so Conv2D only needs forward,
// its vector-Jacobian product and training backward.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

class Conv2D : public Layer {
 public:
  /// Valid-region convolution with explicit zero padding and stride.
  Conv2D(std::size_t in_channels, std::size_t in_height, std::size_t in_width,
         std::size_t out_channels, std::size_t kernel, std::size_t stride = 1,
         std::size_t padding = 0);

  void init_he(Rng& rng);
  void set_parameters(Tensor weight, Tensor bias);

  LayerKind kind() const override { return LayerKind::kConv2D; }
  Shape input_shape() const override { return Shape{in_channels_, in_height_, in_width_}; }
  Shape output_shape() const override { return Shape{out_channels_, out_height_, out_width_}; }

  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;

  std::size_t kernel() const { return kernel_; }
  std::size_t stride() const { return stride_; }
  std::size_t padding() const { return padding_; }
  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;
  void accumulate_param_grads(const double* x, const double* g) override;

 private:
  /// A half-open index range [first, last).
  struct TapSpan {
    std::size_t first = 0;
    std::size_t last = 0;
  };

  /// Kernel offsets [first, last) at which a window starting at padded
  /// position `start` of an axis with `extent` real cells reads a real
  /// cell rather than padding (first == last when it reads none).
  TapSpan real_taps(std::size_t start, std::size_t extent) const;

  std::size_t in_channels_, in_height_, in_width_;
  std::size_t out_channels_, out_height_, out_width_;
  std::size_t kernel_, stride_, padding_;
  /// Per kernel column kc: the output columns o whose tap reads a real
  /// input column o * stride + kc - padding rather than padding.
  std::vector<TapSpan> col_spans_;
  Tensor weight_;  // flat [out_ch, in_ch, k, k]
  Tensor bias_;    // [out_ch]
  Tensor weight_grad_;
  Tensor bias_grad_;
};

}  // namespace dpv::nn
