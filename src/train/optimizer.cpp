#include "train/optimizer.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dpv::train {

Adam::Adam(double learning_rate, double beta1, double beta2, double eps)
    : learning_rate_(learning_rate), beta1_(beta1), beta2_(beta2), eps_(eps) {
  check(learning_rate > 0.0, "Adam: learning rate must be positive");
  check(beta1 >= 0.0 && beta1 < 1.0 && beta2 >= 0.0 && beta2 < 1.0,
        "Adam: betas must be in [0, 1)");
}

void Adam::step(const std::vector<nn::ParamRef>& params) {
  if (first_moment_.empty()) {
    for (const auto& p : params) {
      first_moment_.emplace_back(p.value->numel(), 0.0);
      second_moment_.emplace_back(p.value->numel(), 0.0);
    }
  }
  internal_check(first_moment_.size() == params.size(),
                 "Adam: parameter set changed between steps");
  ++step_count_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  for (std::size_t k = 0; k < params.size(); ++k) {
    Tensor& value = *params[k].value;
    const Tensor& grad = *params[k].grad;
    auto& m = first_moment_[k];
    auto& v = second_moment_[k];
    for (std::size_t i = 0; i < value.numel(); ++i) {
      m[i] = beta1_ * m[i] + (1.0 - beta1_) * grad[i];
      v[i] = beta2_ * v[i] + (1.0 - beta2_) * grad[i] * grad[i];
      const double m_hat = m[i] / bc1;
      const double v_hat = v[i] / bc2;
      value[i] -= learning_rate_ * m_hat / (std::sqrt(v_hat) + eps_);
    }
  }
}

}  // namespace dpv::train
