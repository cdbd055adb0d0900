// The first-order optimizer: Adam.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dpv::train {

/// Adam (Kingma & Ba) with bias correction. Applies accumulated gradients
/// to parameters and keeps its moment buffers keyed by parameter position,
/// so the same instance must be used with the same network throughout.
class Adam {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);

  /// One update step given the network's current parameter references.
  void step(const std::vector<nn::ParamRef>& params);

 private:
  double learning_rate_, beta1_, beta2_, eps_;
  long step_count_ = 0;
  std::vector<std::vector<double>> first_moment_;
  std::vector<std::vector<double>> second_moment_;
};

}  // namespace dpv::train
