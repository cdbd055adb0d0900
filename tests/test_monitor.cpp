// Runtime monitor tests: hull construction (Fig. 1 semantics), adjacent
// difference bounds (Sec. V), containment invariants and violation
// reports.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "monitor/activation_recorder.hpp"
#include "monitor/box_monitor.hpp"
#include "monitor/diff_monitor.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"

namespace dpv::monitor {
namespace {

TEST(BoxMonitor, ReproducesFigureOneExample) {
  // Fig. 1: visited values {0, 0.1, -0.1, ..., 0.6} -> abstraction
  // [-0.1, 0.6].
  const std::vector<Tensor> activations = {
      Tensor::vector1d({0.0}), Tensor::vector1d({0.1}), Tensor::vector1d({-0.1}),
      Tensor::vector1d({0.6})};
  const BoxMonitor mon = BoxMonitor::from_activations(activations);
  EXPECT_DOUBLE_EQ(mon.box()[0].lo, -0.1);
  EXPECT_DOUBLE_EQ(mon.box()[0].hi, 0.6);
  EXPECT_TRUE(mon.contains(Tensor::vector1d({0.3})));
  EXPECT_FALSE(mon.contains(Tensor::vector1d({0.7})));
}

TEST(BoxMonitor, EveryTrainingActivationIsContained) {
  Rng rng(3);
  std::vector<Tensor> activations;
  for (int i = 0; i < 100; ++i) activations.push_back(Tensor::randn(Shape{6}, rng, 2.0));
  const BoxMonitor mon = BoxMonitor::from_activations(activations);
  for (const Tensor& a : activations) EXPECT_TRUE(mon.contains(a));
}

TEST(BoxMonitor, MarginEnlargesHull) {
  const std::vector<Tensor> activations = {Tensor::vector1d({0.0, 1.0}),
                                           Tensor::vector1d({1.0, 3.0})};
  const BoxMonitor tight = BoxMonitor::from_activations(activations, 0.0);
  const BoxMonitor wide = BoxMonitor::from_activations(activations, 0.1);
  EXPECT_FALSE(tight.contains(Tensor::vector1d({1.05, 2.0})));
  EXPECT_TRUE(wide.contains(Tensor::vector1d({1.05, 2.0})));
  EXPECT_DOUBLE_EQ(wide.box()[1].hi, 3.2);
}

TEST(BoxMonitor, ViolationsPinpointNeurons) {
  const BoxMonitor mon(absint::Box{absint::Interval(0, 1), absint::Interval(0, 1),
                                   absint::Interval(-1, 0)});
  const auto violations = mon.violations(Tensor::vector1d({0.5, 2.0, -2.0}));
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0], 1u);
  EXPECT_EQ(violations[1], 2u);
}

TEST(BoxMonitor, RejectsEmptyInput) {
  EXPECT_THROW(BoxMonitor::from_activations({}), ContractViolation);
}

TEST(DiffMonitor, RecordsAdjacentDifferenceHull) {
  // Activations chosen so values alone admit a point the differences
  // exclude: both coordinates in [0,1], but diff always exactly +-1.
  const std::vector<Tensor> activations = {Tensor::vector1d({0.0, 1.0}),
                                           Tensor::vector1d({1.0, 0.0})};
  const DiffMonitor mon = DiffMonitor::from_activations(activations);
  ASSERT_EQ(mon.diff_bounds().size(), 1u);
  EXPECT_DOUBLE_EQ(mon.diff_bounds()[0].lo, -1.0);
  EXPECT_DOUBLE_EQ(mon.diff_bounds()[0].hi, 1.0);
  EXPECT_TRUE(mon.contains(Tensor::vector1d({0.5, 0.5})));
  // (0, 1) has diff +1 (allowed); (0.9, 0.1) diff -0.8 allowed; all box
  // points happen to be allowed here, so tighten the check with a third
  // monitor built from constant-diff data:
  const std::vector<Tensor> ramp = {Tensor::vector1d({0.0, 0.5}),
                                    Tensor::vector1d({0.5, 1.0})};
  const DiffMonitor ramp_mon = DiffMonitor::from_activations(ramp);
  EXPECT_DOUBLE_EQ(ramp_mon.diff_bounds()[0].lo, 0.5);
  // 0.75 - 0.25 is exactly 0.5 in binary floating point.
  EXPECT_TRUE(ramp_mon.contains(Tensor::vector1d({0.25, 0.75})));
  // In the box but violating the diff constraint:
  EXPECT_FALSE(ramp_mon.contains(Tensor::vector1d({0.5, 0.5})));
}

TEST(DiffMonitor, StrictlyStrongerThanBox) {
  Rng rng(7);
  std::vector<Tensor> activations;
  for (int i = 0; i < 50; ++i) {
    // Strongly correlated neighbours: n1 = n0 + ~0.5
    const double base = rng.uniform(-1.0, 1.0);
    activations.push_back(Tensor::vector1d({base, base + rng.uniform(0.45, 0.55)}));
  }
  const DiffMonitor mon = DiffMonitor::from_activations(activations);
  for (const Tensor& a : activations) EXPECT_TRUE(mon.contains(a));
  // Box corners that break the correlation must be rejected.
  const double lo0 = mon.box()[0].lo;
  const double hi1 = mon.box()[1].hi;
  EXPECT_TRUE(mon.box_monitor().contains(Tensor::vector1d({lo0, hi1})));
  EXPECT_FALSE(mon.contains(Tensor::vector1d({lo0, hi1})));
}

TEST(DiffMonitor, ViolationDescriptionsNameConstraints) {
  const std::vector<Tensor> ramp = {Tensor::vector1d({0.0, 0.5}),
                                    Tensor::vector1d({0.5, 1.0})};
  const DiffMonitor mon = DiffMonitor::from_activations(ramp);
  // (0.5, 0.4): n1 = 0.4 breaks its box AND the diff breaks its bound;
  // both constraint families must be named.
  const auto violations = mon.violations(Tensor::vector1d({0.5, 0.4}));
  ASSERT_EQ(violations.size(), 2u);
  bool saw_box = false, saw_diff = false;
  for (const std::string& v : violations) {
    if (v.find("n1 - n0") != std::string::npos) saw_diff = true;
    else if (v.find("n1") != std::string::npos) saw_box = true;
  }
  EXPECT_TRUE(saw_box);
  EXPECT_TRUE(saw_diff);
}

TEST(DiffMonitor, ScalarActivationsHaveNoDiffBounds) {
  const DiffMonitor mon = DiffMonitor::from_activations({Tensor::vector1d({1.0})});
  EXPECT_TRUE(mon.diff_bounds().empty());
  EXPECT_TRUE(mon.contains(Tensor::vector1d({1.0})));
}

TEST(ActivationRecorder, MatchesForwardPrefix) {
  Rng rng(13);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  std::vector<Tensor> inputs;
  for (int i = 0; i < 10; ++i) inputs.push_back(Tensor::randn(Shape{3}, rng, 1.0));
  const std::vector<Tensor> recorded = record_activations(net, 2, inputs);
  ASSERT_EQ(recorded.size(), inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    const Tensor expected = net.forward_prefix(inputs[i], 2);
    for (std::size_t j = 0; j < expected.numel(); ++j)
      EXPECT_DOUBLE_EQ(recorded[i][j], expected[j]);
  }
}

// Property sweep: monitors built from recorded activations always accept
// the data they were built from, for varying widths and margins.
class MonitorInvariantSweep : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(MonitorInvariantSweep, TrainingDataAlwaysAccepted) {
  const auto [seed, margin] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 31 + 1);
  const std::size_t width = static_cast<std::size_t>(rng.uniform_int(1, 12));
  std::vector<Tensor> activations;
  for (int i = 0; i < 40; ++i)
    activations.push_back(Tensor::randn(Shape{width}, rng, rng.uniform(0.1, 3.0)));
  const DiffMonitor mon = DiffMonitor::from_activations(activations, margin);
  for (const Tensor& a : activations) EXPECT_TRUE(mon.contains(a));
}

INSTANTIATE_TEST_SUITE_P(Margins, MonitorInvariantSweep,
                         ::testing::Combine(::testing::Range(0, 8),
                                            ::testing::Values(0.0, 0.05, 0.2)));

}  // namespace
}  // namespace dpv::monitor
