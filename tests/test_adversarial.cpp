// Counterexample concretization tests: searching the input space for an
// image whose layer-l features approach a MILP counterexample.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "tensor/tensor_ops.hpp"
#include "train/adversarial.hpp"

namespace dpv::train {
namespace {

nn::Network make_net(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(6, 8);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{8}));
  auto d2 = std::make_unique<nn::Dense>(8, 2);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

TEST(Adversarial, ConcretizationApproachesTargetFeatures) {
  Rng rng(4);
  nn::Network net = make_net(rng);
  // Target: the features of a known reachable input -> the search should
  // get close to zero distance.
  Tensor hidden_seed(Shape{6});
  for (std::size_t i = 0; i < 6; ++i) hidden_seed[i] = rng.uniform(0.1, 0.9);
  const Tensor target_features = net.forward_prefix(hidden_seed, 2);

  Tensor start(Shape{6});
  start.fill(0.5);
  const double initial = max_abs_diff(net.forward_prefix(start, 2), target_features);
  const ConcretizationResult result =
      concretize_activation(net, 2, target_features, start, 400, 0.05);
  EXPECT_LT(result.distance, initial);
  EXPECT_LE(result.distance, initial);  // best-so-far semantics
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_GE(result.input[i], 0.0);
    EXPECT_LE(result.input[i], 1.0);
  }
  EXPECT_GT(result.iterations, 0u);
}

TEST(Adversarial, ConcretizationValidatesLayerIndex) {
  Rng rng(5);
  nn::Network net = make_net(rng);
  const Tensor target = Tensor::randn(Shape{8}, rng, 1.0);
  const Tensor seed(Shape{6});
  EXPECT_THROW(concretize_activation(net, 9, target, seed), ContractViolation);
  // Layer 3 (full network) produces 2 features, not 8.
  EXPECT_THROW(concretize_activation(net, 3, target, seed), ContractViolation);
}

}  // namespace
}  // namespace dpv::train
