// Property-based gradient verification: analytic backward passes of every
// trainable layer arrangement are checked against central differences.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <memory>
#include <string>

#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "gradcheck.hpp"
#include "train/loss.hpp"

namespace dpv::train {
namespace {

using gradcheck::check_input_gradients;
using gradcheck::check_parameter_gradients;
using gradcheck::GradCheckResult;

constexpr double kRelTol = 2e-4;

struct GradCase {
  std::string name;
  // Builds the network under test; returns (net, input shape).
  nn::Network (*build)(Rng&);
  Shape input_shape;
};

nn::Network build_dense(Rng& rng) {
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(5, 3);
  d->init_he(rng);
  net.add(std::move(d));
  return net;
}

nn::Network build_dense_relu_dense(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(4, 6);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto d2 = std::make_unique<nn::Dense>(6, 2);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

/// He-initialized weights and random biases: with He's zero biases, a
/// layer whose inputs are all dead ReLUs would sit exactly on the next
/// ReLU's kink, where central differences see half a slope.
std::unique_ptr<nn::Dense> biased_dense(std::size_t in, std::size_t out, Rng& rng) {
  auto d = std::make_unique<nn::Dense>(in, out);
  d->init_he(rng);
  d->set_parameters(d->weight(), Tensor::randn(Shape{out}, rng, 0.5));
  return d;
}

nn::Network build_two_relu_layers(Rng& rng) {
  nn::Network net;
  net.add(biased_dense(3, 4, rng));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  net.add(biased_dense(4, 4, rng));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  net.add(biased_dense(4, 1, rng));
  return net;
}

nn::Network build_conv_pool(Rng& rng) {
  nn::Network net;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 4, 2, 3, 1, 1);
  conv->init_he(rng);
  net.add(std::move(conv));
  net.add(std::make_unique<nn::ReLU>(Shape{2, 4, 4}));
  net.add(std::make_unique<nn::MaxPool2D>(2, 4, 4, 2));
  net.add(std::make_unique<nn::Flatten>(Shape{2, 2, 2}));
  auto d = std::make_unique<nn::Dense>(8, 2);
  d->init_he(rng);
  net.add(std::move(d));
  return net;
}

nn::Network build_conv_stride(Rng& rng) {
  nn::Network net;
  auto conv = std::make_unique<nn::Conv2D>(2, 4, 6, 3, 2, 2, 0);
  conv->init_he(rng);
  net.add(std::move(conv));
  net.add(std::make_unique<nn::Flatten>(Shape{3, 2, 3}));
  auto d = std::make_unique<nn::Dense>(18, 2);
  d->init_he(rng);
  net.add(std::move(d));
  return net;
}

nn::Network build_avgpool(Rng& rng) {
  nn::Network net;
  net.add(std::make_unique<nn::AvgPool2D>(1, 4, 4, 2));
  net.add(std::make_unique<nn::Flatten>(Shape{1, 2, 2}));
  auto d = std::make_unique<nn::Dense>(4, 2);
  d->init_he(rng);
  net.add(std::move(d));
  return net;
}

const GradCase kCases[] = {
    {"dense", &build_dense, Shape{5}},
    {"dense_relu_dense", &build_dense_relu_dense, Shape{4}},
    {"two_relu_layers", &build_two_relu_layers, Shape{3}},
    {"conv_pool", &build_conv_pool, Shape{1, 4, 4}},
    {"conv_stride", &build_conv_stride, Shape{2, 4, 6}},
    {"avgpool", &build_avgpool, Shape{1, 4, 4}},
};

class GradCheckSweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(GradCheckSweep, ParameterGradientsMatchNumerical) {
  const auto [case_idx, seed] = GetParam();
  const GradCase& c = kCases[case_idx];
  Rng rng(static_cast<std::uint64_t>(seed) * 131 + 7);
  nn::Network net = c.build(rng);
  const Tensor input = Tensor::randn(c.input_shape, rng, 1.0);
  const Tensor target = Tensor::randn(net.output_shape(), rng, 1.0);
  const MseLoss loss;
  const GradCheckResult result = check_parameter_gradients(net, input, target, loss);
  EXPECT_LT(result.max_rel_error, kRelTol) << c.name << " seed " << seed;
}

TEST_P(GradCheckSweep, InputGradientsMatchNumerical) {
  const auto [case_idx, seed] = GetParam();
  const GradCase& c = kCases[case_idx];
  Rng rng(static_cast<std::uint64_t>(seed) * 977 + 3);
  nn::Network net = c.build(rng);
  const Tensor input = Tensor::randn(c.input_shape, rng, 1.0);
  const Tensor target = Tensor::randn(net.output_shape(), rng, 1.0);
  const MseLoss loss;
  const GradCheckResult result = check_input_gradients(net, input, target, loss);
  EXPECT_LT(result.max_rel_error, kRelTol) << c.name << " seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(AllLayerKinds, GradCheckSweep,
                         ::testing::Combine(::testing::Range(0, 6), ::testing::Range(0, 3)));

TEST(GradCheck, BatchNormGradientsThroughBatchStatistics) {
  // BatchNorm couples samples; check its analytic backward by perturbing
  // parameters with a fixed one-sample batch (batch stats degenerate but
  // well-defined with eps).
  Rng rng(17);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(3, 4);
  d->init_he(rng);
  net.add(std::move(d));
  net.add(std::make_unique<nn::BatchNorm>(4, /*eps=*/0.1));
  auto out = std::make_unique<nn::Dense>(4, 2);
  out->init_he(rng);
  net.add(std::move(out));

  const Tensor input = Tensor::randn(Shape{3}, rng, 1.0);
  const Tensor target = Tensor::randn(Shape{2}, rng, 1.0);
  const MseLoss loss;
  const GradCheckResult result = check_parameter_gradients(net, input, target, loss);
  EXPECT_LT(result.max_rel_error, 5e-4);
}

TEST(GradCheck, LeavesTheCheckedNetworkUntouched) {
  // Every probe is a training-mode forward, which moves BatchNorm running
  // statistics; the checks must run them on a copy.
  Rng rng(29);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::BatchNorm>(4));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  const Tensor input = Tensor::randn(Shape{3}, rng, 1.0);
  const Tensor target = Tensor::randn(Shape{1}, rng, 1.0);
  const Tensor before = net.forward(input);
  const MseLoss loss;
  (void)check_parameter_gradients(net, input, target, loss);
  (void)check_input_gradients(net, input, target, loss);
  const Tensor after = net.forward(input);
  ASSERT_EQ(after.numel(), before.numel());
  EXPECT_EQ(std::memcmp(after.data().data(), before.data().data(), sizeof(double)), 0)
      << before[0] << " became " << after[0];
}

TEST(GradCheck, BceWithLogitsGradient) {
  Rng rng(23);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(4, 1);
  d->init_he(rng);
  net.add(std::move(d));
  const Tensor input = Tensor::randn(Shape{4}, rng, 1.0);
  const BceWithLogitsLoss loss;
  for (const double label : {0.0, 1.0}) {
    const GradCheckResult result =
        check_parameter_gradients(net, input, Tensor::vector1d({label}), loss);
    EXPECT_LT(result.max_rel_error, kRelTol) << "label " << label;
  }
}

/// The loss of one scalar prediction.
double loss_value(const Loss& loss, double pred, double target) {
  return loss.row_value(&pred, &target, 1);
}

TEST(Loss, BceNumericallyStableAtExtremeLogits) {
  const BceWithLogitsLoss loss;
  EXPECT_NEAR(loss_value(loss, 500.0, 0.0), 500.0, 1e-9);
  EXPECT_NEAR(loss_value(loss, 500.0, 1.0), 0.0, 1e-9);
  EXPECT_TRUE(std::isfinite(loss_value(loss, -800.0, 1.0)));
}

TEST(Loss, MseMatchesHandComputation) {
  const MseLoss loss;
  const double pred[] = {1.0, 2.0};
  const double target[] = {0.0, 4.0};
  EXPECT_DOUBLE_EQ(loss.row_value(pred, target, 2), (1.0 + 4.0) / 2.0);
}

}  // namespace
}  // namespace dpv::train
