// Fully-connected (affine) layer: y = W x + b.
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

/// Affine layer over rank-1 inputs. Weights are [out, in] row-major.
class Dense : public Layer {
 public:
  /// Zero-initialized layer (weights set later via init or deserialization).
  Dense(std::size_t in_features, std::size_t out_features);

  /// He-style initialization: stddev = sqrt(2 / in_features).
  void init_he(Rng& rng);

  /// Explicit parameter injection (used by tests and hand-built tails).
  void set_parameters(Tensor weight, Tensor bias);

  LayerKind kind() const override { return LayerKind::kDense; }
  Shape input_shape() const override { return Shape{in_features_}; }
  Shape output_shape() const override { return Shape{out_features_}; }

  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;

  const Tensor& weight() const { return weight_; }
  const Tensor& bias() const { return bias_; }

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;
  void accumulate_param_grads(const double* x, const double* g) override;

 private:
  std::size_t in_features_;
  std::size_t out_features_;
  Tensor weight_;       // [out, in]
  Tensor bias_;         // [out]
  Tensor weight_grad_;  // [out, in]
  Tensor bias_grad_;    // [out]
};

}  // namespace dpv::nn
