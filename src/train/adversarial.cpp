#include "train/adversarial.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/loss.hpp"

namespace dpv::train {

ConcretizationResult concretize_activation(const nn::Network& net, std::size_t l,
                                           const Tensor& target_activation, const Tensor& seed,
                                           std::size_t max_iterations, double step_size,
                                           double clamp_lo, double clamp_hi) {
  check(l <= net.layer_count(), "concretize_activation: layer index out of range");
  check(l > 0, "concretize_activation: empty prefix");
  check(net.forward_prefix(seed, l).numel() == target_activation.numel(),
        "concretize_activation: target activation size mismatch");

  const MseLoss feature_loss;
  ConcretizationResult result;
  result.input = seed;
  Tensor x = seed;
  double best = max_abs_diff(net.forward_prefix(x, l), target_activation);
  result.distance = best;

  for (std::size_t it = 0; it < max_iterations; ++it) {
    const Tensor features = net.forward_prefix(x, l);
    const Tensor gx =
        net.input_gradient(x, feature_loss.gradient(features, target_activation), 0, l);
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = std::clamp(x[i] - step_size * gx[i], clamp_lo, clamp_hi);
    const double dist = max_abs_diff(net.forward_prefix(x, l), target_activation);
    result.iterations = it + 1;
    if (dist < best) {
      best = dist;
      result.input = x;
      result.distance = dist;
    }
  }
  return result;
}

}  // namespace dpv::train
