// Training-loop integration tests: optimizers drive small networks to
// known solutions (linear regression, XOR, batch-norm classification).
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "train/dataset.hpp"
#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::train {
namespace {

Dataset make_linear_dataset(Rng& rng, std::size_t count) {
  // y = 2*x0 - x1 + 0.5
  Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({2.0 * x0 - x1 + 0.5}));
  }
  return data;
}

TEST(Trainer, AdamFitsLinearRegression) {
  Rng rng(1);
  Dataset data = make_linear_dataset(rng, 100);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(2, 1);
  d->init_he(rng);
  net.add(std::move(d));

  MseLoss loss;
  Adam optimizer(0.1);
  Trainer trainer({.epochs = 60, .batch_size = 10, .shuffle_seed = 2});
  const LossHistory history = trainer.fit(net, data, loss, optimizer);
  EXPECT_LT(history.back(), 1e-4);
  EXPECT_LT(history.back(), history.front());

  const auto& dense = static_cast<const nn::Dense&>(net.layer(0));
  EXPECT_NEAR(dense.weight().at2(0, 0), 2.0, 0.05);
  EXPECT_NEAR(dense.weight().at2(0, 1), -1.0, 0.05);
  EXPECT_NEAR(dense.bias()[0], 0.5, 0.05);
}

TEST(Trainer, AdamSolvesXor) {
  Dataset data;
  data.add(Tensor::vector1d({0, 0}), Tensor::vector1d({0.0}));
  data.add(Tensor::vector1d({0, 1}), Tensor::vector1d({1.0}));
  data.add(Tensor::vector1d({1, 0}), Tensor::vector1d({1.0}));
  data.add(Tensor::vector1d({1, 1}), Tensor::vector1d({0.0}));

  Rng rng(3);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 8);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{8}));
  auto d2 = std::make_unique<nn::Dense>(8, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  BceWithLogitsLoss loss;
  Adam optimizer(0.05);
  Trainer trainer({.epochs = 300, .batch_size = 4, .shuffle_seed = 4});
  trainer.fit(net, data, loss, optimizer);

  const ConfusionCounts confusion = binary_confusion(net, data);
  EXPECT_EQ(confusion.accuracy(), 1.0);
}

TEST(Trainer, BatchNormNetworkTrainsAndFreezesForInference) {
  // Features with wildly different scales; BN should still converge and
  // the frozen inference path must agree with good training accuracy.
  Rng rng(7);
  Dataset data;
  for (int i = 0; i < 200; ++i) {
    const double a = rng.uniform(-100.0, 100.0);
    const double b = rng.uniform(-0.01, 0.01);
    const double label = (a / 100.0 + b * 100.0) > 0.0 ? 1.0 : 0.0;
    data.add(Tensor::vector1d({a, b}), Tensor::vector1d({label}));
  }
  nn::Network net;
  net.add(std::make_unique<nn::BatchNorm>(2));
  auto d1 = std::make_unique<nn::Dense>(2, 6);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto d2 = std::make_unique<nn::Dense>(6, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  BceWithLogitsLoss loss;
  Adam optimizer(0.02);
  Trainer trainer({.epochs = 60, .batch_size = 20, .shuffle_seed = 8});
  trainer.fit(net, data, loss, optimizer);
  EXPECT_GE(binary_confusion(net, data).accuracy(), 0.95);
}

TEST(Metrics, ConfusionCountsMapToTableOneCells) {
  ConfusionCounts c{.tp = 40, .fp = 5, .fn = 10, .tn = 45};
  EXPECT_DOUBLE_EQ(c.accuracy(), 0.85);
  EXPECT_DOUBLE_EQ(c.alpha(), 0.40);
  EXPECT_DOUBLE_EQ(c.beta(), 0.05);
  EXPECT_DOUBLE_EQ(c.gamma(), 0.10);
  EXPECT_DOUBLE_EQ(c.delta(), 0.45);
  EXPECT_DOUBLE_EQ(c.alpha() + c.beta() + c.gamma() + c.delta(), 1.0);
}

TEST(Optimizer, RejectsBadHyperparameters) {
  EXPECT_THROW(Adam(-0.1), ContractViolation);
  EXPECT_THROW(Adam(0.1, 1.0), ContractViolation);
}

}  // namespace
}  // namespace dpv::train
