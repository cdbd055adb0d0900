#include "nn/batchnorm.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dpv::nn {

BatchNorm::BatchNorm(std::size_t features, double eps, double momentum)
    : Layer(features, features),
      features_(features),
      eps_(eps),
      momentum_(momentum),
      gamma_(Shape{features}),
      beta_(Shape{features}),
      gamma_grad_(Shape{features}),
      beta_grad_(Shape{features}),
      running_mean_(Shape{features}),
      running_var_(Shape{features}),
      batch_mean_(features),
      batch_inv_std_(features),
      sum_dy_(features),
      sum_dy_xhat_(features) {
  check(features > 0, "BatchNorm: features must be positive");
  check(eps > 0.0, "BatchNorm: eps must be positive");
  gamma_.fill(1.0);
  running_var_.fill(1.0);
}

void BatchNorm::forward_row(const double* x, double* y) const {
  for (std::size_t i = 0; i < features_; ++i)
    y[i] = effective_scale(i) * x[i] + effective_shift(i);
}

void BatchNorm::input_grad_row(const double* /*x*/, const double* g, double* gx) const {
  // Frozen inference form y_i = scale_i * x_i + shift_i, so the VJP is a
  // per-feature rescale by the effective scale.
  for (std::size_t i = 0; i < features_; ++i) gx[i] = g[i] * effective_scale(i);
}

double BatchNorm::effective_scale(std::size_t feature) const {
  return gamma_[feature] / std::sqrt(running_var_[feature] + eps_);
}

double BatchNorm::effective_shift(std::size_t feature) const {
  return beta_[feature] - effective_scale(feature) * running_mean_[feature];
}

void BatchNorm::set_statistics(Tensor running_mean, Tensor running_var) {
  check(running_mean.numel() == features_ && running_var.numel() == features_,
        "BatchNorm::set_statistics: length mismatch");
  running_mean_ = std::move(running_mean);
  running_var_ = std::move(running_var);
}

void BatchNorm::set_affine(Tensor gamma, Tensor beta) {
  check(gamma.numel() == features_ && beta.numel() == features_,
        "BatchNorm::set_affine: length mismatch");
  gamma_ = std::move(gamma);
  beta_ = std::move(beta);
}

void BatchNorm::forward_rows(const Batch& x, Batch& y) {
  const std::size_t n = x.rows();
  std::vector<double>& mean = batch_mean_;
  std::vector<double>& var = batch_inv_std_;  // becomes inv_std below
  std::fill(mean.begin(), mean.end(), 0.0);
  std::fill(var.begin(), var.end(), 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x.row(s);
    for (std::size_t i = 0; i < features_; ++i) mean[i] += xs[i];
  }
  for (std::size_t i = 0; i < features_; ++i) mean[i] /= static_cast<double>(n);
  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x.row(s);
    for (std::size_t i = 0; i < features_; ++i) {
      const double d = xs[i] - mean[i];
      var[i] += d * d;
    }
  }
  for (std::size_t i = 0; i < features_; ++i) var[i] /= static_cast<double>(n);

  for (std::size_t i = 0; i < features_; ++i) {
    running_mean_[i] = (1.0 - momentum_) * running_mean_[i] + momentum_ * mean[i];
    running_var_[i] = (1.0 - momentum_) * running_var_[i] + momentum_ * var[i];
  }
  std::vector<double>& inv_std = batch_inv_std_;
  for (std::size_t i = 0; i < features_; ++i) inv_std[i] = 1.0 / std::sqrt(var[i] + eps_);

  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x.row(s);
    double* ys = y.row(s);
    for (std::size_t i = 0; i < features_; ++i) {
      const double x_hat = (xs[i] - mean[i]) * inv_std[i];
      ys[i] = gamma_[i] * x_hat + beta_[i];
    }
  }
}

void BatchNorm::backward_rows(const Batch& x, const Batch& grad_out, Batch* grad_in) {
  const std::size_t n = x.rows();
  const double inv_n = 1.0 / static_cast<double>(n);
  const std::vector<double>& mean = batch_mean_;
  const std::vector<double>& inv_std = batch_inv_std_;

  // Standard batch-norm backward over x_hat and inv_std:
  //   dx = (gamma * inv_std / n) * (n * dy - sum(dy) - x_hat * sum(dy * x_hat))
  std::fill(sum_dy_.begin(), sum_dy_.end(), 0.0);
  std::fill(sum_dy_xhat_.begin(), sum_dy_xhat_.end(), 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x.row(s);
    const double* g = grad_out.row(s);
    for (std::size_t i = 0; i < features_; ++i) {
      const double x_hat = (xs[i] - mean[i]) * inv_std[i];
      sum_dy_[i] += g[i];
      sum_dy_xhat_[i] += g[i] * x_hat;
    }
  }

  for (std::size_t i = 0; i < features_; ++i) {
    gamma_grad_[i] += sum_dy_xhat_[i];
    beta_grad_[i] += sum_dy_[i];
  }
  if (grad_in == nullptr) return;

  for (std::size_t s = 0; s < n; ++s) {
    const double* xs = x.row(s);
    const double* g = grad_out.row(s);
    double* gx = grad_in->row(s);
    for (std::size_t i = 0; i < features_; ++i) {
      const double x_hat = (xs[i] - mean[i]) * inv_std[i];
      const double term = static_cast<double>(n) * g[i] - sum_dy_[i] - x_hat * sum_dy_xhat_[i];
      gx[i] = gamma_[i] * inv_std[i] * inv_n * term;
    }
  }
}

std::vector<ParamRef> BatchNorm::params() {
  return {{"gamma", &gamma_, &gamma_grad_}, {"beta", &beta_, &beta_grad_}};
}

std::unique_ptr<Layer> BatchNorm::clone() const {
  auto copy = std::make_unique<BatchNorm>(features_, eps_, momentum_);
  copy->gamma_ = gamma_;
  copy->beta_ = beta_;
  copy->running_mean_ = running_mean_;
  copy->running_var_ = running_var_;
  return copy;
}

}  // namespace dpv::nn
