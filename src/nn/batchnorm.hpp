// Batch normalization over rank-1 feature vectors.
//
// Training mode normalizes with batch statistics and maintains running
// estimates; inference mode applies the frozen affine transform
//   y_i = scale_i * x_i + shift_i,
// with scale = gamma / sqrt(running_var + eps) and
// shift = beta - scale * running_mean. The frozen form is what the MILP
// encoder and abstract interpreter consume (the paper verifies networks
// whose close-to-output layers are "either ReLU or Batch Normalization").
#pragma once

#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

class BatchNorm : public Layer {
 public:
  explicit BatchNorm(std::size_t features, double eps = 1e-5, double momentum = 0.1);

  LayerKind kind() const override { return LayerKind::kBatchNorm; }
  Shape input_shape() const override { return Shape{features_}; }
  Shape output_shape() const override { return Shape{features_}; }

  std::vector<ParamRef> params() override;
  std::unique_ptr<Layer> clone() const override;

  /// Frozen per-feature multiplier gamma / sqrt(running_var + eps).
  double effective_scale(std::size_t feature) const;
  /// Frozen per-feature offset beta - effective_scale * running_mean.
  double effective_shift(std::size_t feature) const;

  /// Direct statistics injection (deserialization, hand-built tails).
  void set_statistics(Tensor running_mean, Tensor running_var);
  void set_affine(Tensor gamma, Tensor beta);

  const Tensor& gamma() const { return gamma_; }
  const Tensor& beta() const { return beta_; }
  const Tensor& running_mean() const { return running_mean_; }
  const Tensor& running_var() const { return running_var_; }
  double eps() const { return eps_; }
  double momentum() const { return momentum_; }

 protected:
  // Row kernels: the frozen inference form.
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;

  // Training normalizes with the batch statistics, which couple the
  // samples; the backward differentiates through them.
  void forward_rows(const Batch& x, Batch& y) override;
  void backward_rows(const Batch& x, const Batch& grad_out, Batch* grad_in) override;

 private:
  std::size_t features_;
  double eps_;
  double momentum_;
  Tensor gamma_;
  Tensor beta_;
  Tensor gamma_grad_;
  Tensor beta_grad_;
  Tensor running_mean_;
  Tensor running_var_;
  // Per feature: the last training batch's statistics (the backward
  // recomputes x_hat = (x - mean) * inv_std from them) and the backward's
  // sums over the batch.
  std::vector<double> batch_mean_;
  std::vector<double> batch_inv_std_;
  std::vector<double> sum_dy_;
  std::vector<double> sum_dy_xhat_;
};

}  // namespace dpv::nn
