// First-order optimizers.
#pragma once

#include <vector>

#include "nn/layer.hpp"

namespace dpv::train {

/// Applies accumulated gradients to parameters. Optimizers keep internal
/// state (momentum buffers) keyed by parameter position, so the same
/// optimizer instance must be used with the same network throughout.
class Optimizer {
 public:
  virtual ~Optimizer() = default;

  /// One update step given the network's current parameter references.
  virtual void step(const std::vector<nn::ParamRef>& params) = 0;
};

/// Stochastic gradient descent with optional classical momentum.
class Sgd : public Optimizer {
 public:
  explicit Sgd(double learning_rate, double momentum = 0.0);
  void step(const std::vector<nn::ParamRef>& params) override;

 private:
  double learning_rate_;
  double momentum_;
  std::vector<std::vector<double>> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam : public Optimizer {
 public:
  explicit Adam(double learning_rate, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void step(const std::vector<nn::ParamRef>& params) override;

 private:
  double learning_rate_, beta1_, beta2_, eps_;
  long step_count_ = 0;
  std::vector<std::vector<double>> first_moment_;
  std::vector<std::vector<double>> second_moment_;
};

}  // namespace dpv::train
