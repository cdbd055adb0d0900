#include "nn/dense.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::nn {

Dense::Dense(std::size_t in_features, std::size_t out_features)
    : Layer(in_features, out_features),
      in_features_(in_features),
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

std::vector<ParamRef> Dense::params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

std::unique_ptr<Layer> Dense::clone() const {
  auto copy = std::make_unique<Dense>(in_features_, out_features_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

void Dense::forward_row(const double* x, double* y) const {
  matvec(weight_.data().data(), out_features_, in_features_, x, y);
  for (std::size_t i = 0; i < out_features_; ++i) y[i] += bias_[i];
}

void Dense::input_grad_row(const double* /*x*/, const double* g, double* gx) const {
  std::fill(gx, gx + in_features_, 0.0);
  const double* w = weight_.data().data();
  // Row by row, so every gx[c] accumulates its rows in ascending order,
  // each multiply-add fused where the compiler fuses `acc += w * g`.
  for (std::size_t r = 0; r < out_features_; ++r) {
    const double gr = g[r];
    if (gr == 0.0) continue;
    const double* row = w + r * in_features_;
    for (std::size_t c = 0; c < in_features_; ++c) gx[c] += row[c] * gr;
  }
}

void Dense::accumulate_param_grads(const double* x, const double* g) {
  // dW[r][c] += g[r] * x[c] with the product rounded before the add
  // (unfused); db[r] += g[r].
  double* wg = weight_grad_.data().data();
  for (std::size_t r = 0; r < out_features_; ++r) {
    const double gr = g[r];
    bias_grad_[r] += gr;
    double* wrow = wg + r * in_features_;
    for (std::size_t c = 0; c < in_features_; ++c) wrow[c] += simd::rounded(gr * x[c]);
  }
}

}  // namespace dpv::nn
