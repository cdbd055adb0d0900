#include "nn/dense.hpp"

#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      weight_grad_(Shape{out_features, in_features}),
      bias_grad_(Shape{out_features}) {
  check(in_features > 0 && out_features > 0, "Dense: feature counts must be positive");
}

void Dense::init_he(Rng& rng) {
  const double stddev = std::sqrt(2.0 / static_cast<double>(in_features_));
  weight_ = Tensor::randn(weight_.shape(), rng, stddev);
  bias_.fill(0.0);
}

void Dense::set_parameters(Tensor weight, Tensor bias) {
  check(weight.shape() == weight_.shape(),
        "Dense::set_parameters: weight shape " + weight.shape().to_string() + " expected " +
            weight_.shape().to_string());
  check(bias.shape() == bias_.shape(), "Dense::set_parameters: bias shape mismatch");
  weight_ = std::move(weight);
  bias_ = std::move(bias);
}

Tensor Dense::forward(const Tensor& x) const {
  check(x.numel() == in_features_, "Dense::forward: input length mismatch");
  Tensor y(Shape{out_features_});
  matvec(weight_.data().data(), out_features_, in_features_, x.data().data(), y.data().data());
  for (std::size_t i = 0; i < out_features_; ++i) y[i] += bias_[i];
  return y;
}

Tensor Dense::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  check(grad_out.numel() == out_features_, "Dense::backward_input: gradient length mismatch");
  Tensor gx(Shape{in_features_});
  const double* w = weight_.data().data();
  const double* g = grad_out.data().data();
  double* out = gx.data().data();
  // Row by row, so every gx[c] accumulates its rows in ascending order.
  for (std::size_t r = 0; r < out_features_; ++r) {
    const double gr = g[r];
    if (gr == 0.0) continue;
    const double* row = w + r * in_features_;
    for (std::size_t c = 0; c < in_features_; ++c) out[c] += row[c] * gr;
  }
  return gx;
}

std::vector<ParamRef> Dense::params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_features_, out_features_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

Tensor Dense::forward_train(const Tensor& x, std::size_t slot) {
  cached_inputs_[slot] = x.shape().rank() == 1 ? x : x.reshaped(Shape{in_features_});
  return forward(x);
}

Tensor Dense::backward_sample(const Tensor& grad_out, std::size_t slot) {
  const Tensor& x = cached_inputs_[slot];
  // dW[r][c] += gy[r] * x[c]; db[r] += gy[r]; gx[c] = sum_r W[r][c] * gy[r]
  Tensor gx(Shape{in_features_});
  for (std::size_t r = 0; r < out_features_; ++r) {
    const double g = grad_out[r];
    bias_grad_[r] += g;
    for (std::size_t c = 0; c < in_features_; ++c) {
      weight_grad_.at2(r, c) += g * x[c];
      gx[c] += weight_.at2(r, c) * g;
    }
  }
  return gx;
}

void Dense::prepare_cache(std::size_t batch_size) { cached_inputs_.resize(batch_size); }

}  // namespace dpv::nn
