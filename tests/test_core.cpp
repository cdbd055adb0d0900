// Core workflow tests: characterizer training, Table I statistics,
// assume-guarantee verdict semantics (conditional vs unconditional), and
// the end-to-end SafetyWorkflow on a small trained perception model.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <utility>

#include "core/assume_guarantee.hpp"
#include "core/characterizer.hpp"
#include "core/statistical.hpp"
#include "core/workflow.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::core {
namespace {

/// Small perception-style network: dense(2->4) relu | dense(4->1).
/// Feature layer (attach = 2) is the relu output.
nn::Network make_toy_perception(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

/// Dataset where the label is a simple function of the input (x0 > 0):
/// linearly separable in input space, hence separable in feature space of
/// a random (injective enough) first layer.
train::Dataset make_separable_images(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

TEST(Characterizer, LearnsSeparableProperty) {
  Rng rng(3);
  const nn::Network perception = make_toy_perception(rng);
  const train::Dataset train_set = make_separable_images(rng, 300);
  const train::Dataset val_set = make_separable_images(rng, 100);

  CharacterizerConfig config;
  config.trainer.epochs = 120;
  const TrainedCharacterizer h =
      train_characterizer(perception, 2, train_set, val_set, config);
  EXPECT_GE(h.train_confusion.accuracy(), 0.97);
  EXPECT_GE(h.separability(), 0.9);
  EXPECT_EQ(h.network.input_shape().numel(), 4u);
  EXPECT_EQ(h.network.output_shape().numel(), 1u);
}

TEST(Characterizer, RandomLabelsAreNotSeparable) {
  // The information-bottleneck phenomenon in miniature: labels
  // independent of the input cannot be learned; accuracy hovers at the
  // base rate.
  Rng rng(5);
  const nn::Network perception = make_toy_perception(rng);
  train::Dataset train_set, val_set;
  Rng label_rng(6);
  for (int i = 0; i < 300; ++i) {
    const Tensor x = Tensor::randn(Shape{2}, rng, 1.0);
    const double label = label_rng.bernoulli(0.5) ? 1.0 : 0.0;
    (i < 200 ? train_set : val_set).add(x, Tensor::vector1d({label}));
  }
  CharacterizerConfig config;
  config.trainer.epochs = 60;
  const TrainedCharacterizer h =
      train_characterizer(perception, 2, train_set, val_set, config);
  EXPECT_LT(h.separability(), 0.75);
}

TEST(Characterizer, FeatureDatasetMatchesPrefix) {
  Rng rng(7);
  const nn::Network perception = make_toy_perception(rng);
  const train::Dataset images = make_separable_images(rng, 10);
  const train::Dataset features = to_feature_dataset(perception, 2, images);
  ASSERT_EQ(features.size(), images.size());
  for (std::size_t i = 0; i < images.size(); ++i) {
    const Tensor expected = perception.forward_prefix(images[i].input, 2);
    for (std::size_t j = 0; j < expected.numel(); ++j)
      EXPECT_DOUBLE_EQ(features[i].input[j], expected[j]);
    EXPECT_DOUBLE_EQ(features[i].target[0], images[i].target[0]);
  }
}

TEST(Statistical, TableOneCellsSumToOne) {
  Rng rng(9);
  const nn::Network perception = make_toy_perception(rng);
  const train::Dataset train_set = make_separable_images(rng, 200);
  const train::Dataset val_set = make_separable_images(rng, 150);
  CharacterizerConfig config;
  config.trainer.epochs = 60;
  const TrainedCharacterizer h =
      train_characterizer(perception, 2, train_set, val_set, config);
  const TableOneEstimate t = estimate_table_one(perception, 2, h.network, val_set);
  EXPECT_EQ(t.samples(), 150u);
  EXPECT_NEAR(t.alpha() + t.beta() + t.gamma() + t.delta(), 1.0, 1e-12);
  EXPECT_NEAR(t.guarantee(), 1.0 - t.gamma(), 1e-12);
}

TEST(Statistical, WilsonIntervalProperties) {
  TableOneEstimate t;
  t.counts = {.tp = 45, .fp = 5, .fn = 5, .tn = 45};  // gamma = 0.05
  const ProbabilityInterval ci = t.gamma_interval(1.96);
  EXPECT_LE(ci.lo, t.gamma());
  EXPECT_GE(ci.hi, t.gamma());
  EXPECT_GT(ci.lo, 0.0);
  EXPECT_LT(ci.hi, 0.2);
  EXPECT_LE(t.guarantee_lower_bound(), t.guarantee());
  // Wider at higher confidence.
  const ProbabilityInterval wide = t.gamma_interval(2.58);
  EXPECT_LE(wide.lo, ci.lo);
  EXPECT_GE(wide.hi, ci.hi);
}

TEST(Statistical, ZeroGammaStillConservative) {
  TableOneEstimate t;
  t.counts = {.tp = 50, .fp = 0, .fn = 0, .tn = 50};
  EXPECT_DOUBLE_EQ(t.guarantee(), 1.0);
  // Wilson upper bound stays below 1 but above 0: no false certainty.
  EXPECT_GT(t.gamma_interval().hi, 0.0);
  EXPECT_LT(t.guarantee_lower_bound(), 1.0);
  EXPECT_GT(t.guarantee_lower_bound(), 0.9);
}

TEST(Statistical, FormatMentionsGuarantee) {
  TableOneEstimate t;
  t.counts = {.tp = 40, .fp = 10, .fn = 2, .tn = 48};
  const std::string text = t.format();
  EXPECT_NE(text.find("1 - gamma"), std::string::npos);
  EXPECT_NE(text.find("In_phi"), std::string::npos);
}

TEST(AssumeGuarantee, ConditionalVsUnconditionalVerdicts) {
  Rng rng(11);
  const nn::Network perception = make_toy_perception(rng);
  // ODD inputs concentrated in a small region.
  std::vector<Tensor> odd_inputs;
  for (int i = 0; i < 100; ++i)
    odd_inputs.push_back(Tensor::vector1d({rng.uniform(0.1, 0.3), rng.uniform(-0.1, 0.1)}));

  // Find an unreachable output level from the monitored activations.
  double max_out = -1e100;
  for (const Tensor& x : odd_inputs) max_out = std::max(max_out, perception.forward(x)[0]);
  verify::RiskSpec risk("beyond-odd");
  risk.output_at_least(0, 1, max_out + 10.0);

  AssumeGuaranteeConfig monitor_cfg;
  monitor_cfg.bounds = BoundsSource::kMonitorBoxDiff;
  const SafetyCase via_monitor = AssumeGuaranteeVerifier(monitor_cfg)
                                     .verify(perception, 2, nullptr, risk, odd_inputs, {});
  EXPECT_EQ(via_monitor.verdict, SafetyVerdict::kSafeConditional);
  ASSERT_TRUE(via_monitor.deployed_monitor.has_value());
  // The monitor accepts the ODD data it was built from.
  for (const Tensor& x : odd_inputs)
    EXPECT_TRUE(via_monitor.deployed_monitor->contains(perception.forward_prefix(x, 2)));

  AssumeGuaranteeConfig static_cfg;
  static_cfg.bounds = BoundsSource::kStaticAnalysis;
  const SafetyCase via_static =
      AssumeGuaranteeVerifier(static_cfg)
          .verify(perception, 2, nullptr, risk, {},
                  absint::uniform_box(2, -1.0, 1.0));
  // Static analysis may or may not prove this (bounds are coarser), but a
  // SAFE answer must be the unconditional kind and UNSAFE must carry a
  // validated counterexample.
  if (via_static.verdict == SafetyVerdict::kSafeUnconditional) {
    EXPECT_FALSE(via_static.deployed_monitor.has_value());
  } else {
    EXPECT_EQ(via_static.verdict, SafetyVerdict::kUnsafe);
    EXPECT_TRUE(via_static.verification.counterexample_validated);
  }
}

TEST(AssumeGuarantee, UnsafeWhenRiskReachableInOdd) {
  Rng rng(13);
  const nn::Network perception = make_toy_perception(rng);
  std::vector<Tensor> odd_inputs;
  for (int i = 0; i < 50; ++i)
    odd_inputs.push_back(Tensor::randn(Shape{2}, rng, 1.0));
  double max_out = -1e100;
  for (const Tensor& x : odd_inputs) max_out = std::max(max_out, perception.forward(x)[0]);
  verify::RiskSpec risk("reachable");
  risk.output_at_least(0, 1, max_out - 0.1);  // achieved by the data itself
  const SafetyCase sc =
      AssumeGuaranteeVerifier().verify(perception, 2, nullptr, risk, odd_inputs, {});
  EXPECT_EQ(sc.verdict, SafetyVerdict::kUnsafe);
  EXPECT_TRUE(sc.verification.counterexample_validated);
}

TEST(AssumeGuarantee, MonitorRequiresOddInputs) {
  Rng rng(15);
  const nn::Network perception = make_toy_perception(rng);
  verify::RiskSpec risk;
  risk.output_at_least(0, 1, 0.0);
  EXPECT_THROW(AssumeGuaranteeVerifier().verify(perception, 2, nullptr, risk, {}, {}),
               ContractViolation);
}

/// Shuffles `data` with `rng` and splits off the first `fraction` of the
/// samples as the first element: the training and validation sets.
std::pair<train::Dataset, train::Dataset> split(const train::Dataset& data, double fraction,
                                                Rng& rng) {
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const auto cut = static_cast<std::size_t>(fraction * static_cast<double>(data.size()));
  train::Dataset first, second;
  for (std::size_t i = 0; i < order.size(); ++i) {
    const train::Sample& s = data[order[i]];
    (i < cut ? first : second).add(s.input, s.target);
  }
  return {std::move(first), std::move(second)};
}

TEST(Workflow, EndToEndOnTrainedRoadModel) {
  // Small but complete: train the perception CNN on synthetic road data,
  // then run the full workflow for the paper's running property/risk.
  Rng rng(17);
  data::PerceptionConfig pconfig;
  pconfig.render.width = 16;
  pconfig.render.height = 8;
  pconfig.conv1_channels = 2;
  pconfig.conv2_channels = 4;
  pconfig.embedding = 12;
  pconfig.features = 8;
  pconfig.tail_hidden = 8;
  data::PerceptionModel model = data::make_perception_network(pconfig, rng);

  data::RoadDatasetConfig dconfig;
  dconfig.count = 220;
  dconfig.seed = 5;
  dconfig.render = pconfig.render;
  const std::vector<data::RoadSample> samples = data::generate_road_samples(dconfig);
  const train::Dataset regression = data::to_regression_dataset(samples);

  train::MseLoss loss;
  train::Adam optimizer(0.01);
  train::Trainer trainer({.epochs = 6, .batch_size = 16, .shuffle_seed = 1});
  trainer.fit(model.network, regression, loss, optimizer);

  const train::Dataset property =
      data::to_property_dataset(samples, data::InputProperty::kBendRightStrong);
  Rng split_rng(2);
  const auto [prop_train, prop_val] = split(property, 0.7, split_rng);

  verify::RiskSpec risk("steer-far-left");
  risk.output_at_most(1, 2, -0.5);

  WorkflowConfig wconfig;
  wconfig.characterizer.trainer.epochs = 40;
  const SafetyWorkflow workflow(model.network, model.attach_layer);
  const WorkflowReport report =
      workflow.run("road-bends-right-strong", prop_train, prop_val, risk, wconfig);

  // Mechanics: all report fields populated and internally consistent.
  EXPECT_EQ(report.property_name, "road-bends-right-strong");
  EXPECT_EQ(report.risk_name, "steer-far-left");
  EXPECT_GT(report.characterizer.train_confusion.total(), 0u);
  EXPECT_NEAR(report.table_one.alpha() + report.table_one.beta() + report.table_one.gamma() +
                  report.table_one.delta(),
              1.0, 1e-12);
  EXPECT_NE(report.safety.verdict, SafetyVerdict::kUnknown);
  if (report.safety.verdict == SafetyVerdict::kUnsafe)
    EXPECT_TRUE(report.safety.verification.counterexample_validated);
  else
    EXPECT_TRUE(report.safety.deployed_monitor.has_value());
  const std::string text = report.to_string();
  EXPECT_NE(text.find("verdict"), std::string::npos);
  EXPECT_NE(text.find("Table I"), std::string::npos);
}

TEST(Workflow, RejectsBadAttachLayer) {
  Rng rng(19);
  const nn::Network perception = make_toy_perception(rng);
  EXPECT_THROW(SafetyWorkflow(perception, 99), ContractViolation);
}

}  // namespace
}  // namespace dpv::core
