#include "train/loss.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dpv::train {

Tensor Loss::gradient(const Tensor& pred, const Tensor& target) const {
  check(pred.same_shape(target), "Loss: prediction and target shapes differ");
  Tensor g(pred.shape());
  row_gradient(pred.data().data(), target.data().data(), pred.numel(), g.data().data());
  return g;
}

double MseLoss::row_value(const double* pred, const double* target, std::size_t n) const {
  double acc = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double d = pred[i] - target[i];
    acc += d * d;
  }
  return acc / static_cast<double>(n);
}

void MseLoss::row_gradient(const double* pred, const double* target, std::size_t n,
                           double* grad) const {
  const double scale = 2.0 / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) grad[i] = scale * (pred[i] - target[i]);
}

double BceWithLogitsLoss::row_value(const double* pred, const double* target,
                                    std::size_t n) const {
  check(n == 1, "BceWithLogitsLoss: scalar logit expected");
  const double z = pred[0];
  const double t = target[0];
  return std::max(z, 0.0) - z * t + std::log1p(std::exp(-std::abs(z)));
}

void BceWithLogitsLoss::row_gradient(const double* pred, const double* target, std::size_t n,
                                     double* grad) const {
  check(n == 1, "BceWithLogitsLoss: scalar logit expected");
  const double z = pred[0];
  const double t = target[0];
  const double sigma = 1.0 / (1.0 + std::exp(-z));
  grad[0] = sigma - t;
}

}  // namespace dpv::train
