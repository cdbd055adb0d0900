// Tests for the output-range analysis API, the characterizer threshold
// chooser, and LeakyReLU support across the stack (forward, gradients via
// the shared sweep elsewhere, serialization, box/symbolic domains, MILP
// encoding).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "absint/box_domain.hpp"
#include "absint/linear_bounds.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/threshold.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/serialize.hpp"
#include "verify/range_analysis.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

using absint::Interval;

nn::Network make_sum_net() {
  // out = n0 + n1
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(2, 1);
  d->set_parameters(Tensor(Shape{1, 2}, {1.0, 1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(d));
  return net;
}

TEST(RangeAnalysis, ExactRangeOfAffineTail) {
  const nn::Network net = make_sum_net();
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, -1.0, 2.0);
  const verify::RangeResult r = verify::output_range(q, 0);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.range.lo, -2.0, 1e-6);
  EXPECT_NEAR(r.range.hi, 4.0, 1e-6);
}

TEST(RangeAnalysis, PairConstraintsShrinkRange) {
  const nn::Network net = make_sum_net();
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, -1.0, 1.0);
  q.pair_bounds.push_back({0, 1, Interval(0.0, 0.0)});  // n1 == n0
  const verify::RangeResult r = verify::output_range(q, 0);
  EXPECT_TRUE(r.exact);
  EXPECT_NEAR(r.range.lo, -2.0, 1e-6);
  EXPECT_NEAR(r.range.hi, 2.0, 1e-6);
  // And a functional: n0 - n1 == 0 exactly under the constraint.
  const verify::RangeResult f = verify::output_functional_range(q, {1.0});
  EXPECT_NEAR(f.range.lo, -2.0, 1e-6);
}

TEST(RangeAnalysis, ReluTailMatchesSampling) {
  Rng rng(5);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{5}));
  auto d2 = std::make_unique<nn::Dense>(5, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(3, -1.0, 1.0);
  const verify::RangeResult r = verify::output_range(q, 1);
  ASSERT_TRUE(r.exact);
  // The threaded search proves the same optima.
  verify::RangeAnalysisOptions threaded;
  threaded.milp.threads = 4;
  const verify::RangeResult t = verify::output_range(q, 1, threaded);
  ASSERT_TRUE(t.exact);
  EXPECT_NEAR(t.range.lo, r.range.lo, 1e-6);
  EXPECT_NEAR(t.range.hi, r.range.hi, 1e-6);
  // Sampling stays inside and approaches the exact range.
  double lo = 1e100, hi = -1e100;
  for (int i = 0; i < 5000; ++i) {
    Tensor x(Shape{3});
    for (std::size_t j = 0; j < 3; ++j) x[j] = rng.uniform(-1.0, 1.0);
    const double v = net.forward(x)[1];
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_GE(lo, r.range.lo - 1e-6);
  EXPECT_LE(hi, r.range.hi + 1e-6);
  EXPECT_LE(r.range.width(), (hi - lo) * 1.8 + 1e-6);  // exactness, not blowup
}

TEST(RangeAnalysis, RejectsBadArguments) {
  const nn::Network net = make_sum_net();
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(2, 0.0, 1.0);
  EXPECT_THROW(verify::output_range(q, 5), ContractViolation);
  EXPECT_THROW(verify::output_functional_range(q, {0.0}), ContractViolation);
}

/// Identity "perception": features are the inputs themselves.
nn::Network make_identity_net() {
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(1, 1);
  d->set_parameters(Tensor(Shape{1, 1}, {1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(d));
  return net;
}

TEST(ThresholdChoice, RespectsGammaBudget) {
  // Characterizer logit = x; positives at x = 0.1..1.0, negatives below.
  const nn::Network perception = make_identity_net();
  const nn::Network charac = make_identity_net();
  train::Dataset data;
  for (int i = 1; i <= 10; ++i)
    data.add(Tensor::vector1d({0.1 * i}), Tensor::vector1d({1.0}));
  for (int i = 1; i <= 10; ++i)
    data.add(Tensor::vector1d({-0.1 * i}), Tensor::vector1d({0.0}));

  // Budget 0: threshold must keep every positive (smallest positive logit).
  const core::ThresholdChoice strict =
      core::choose_characterizer_threshold(perception, 1, charac, data, 0.0);
  EXPECT_NEAR(strict.threshold, 0.1, 1e-9);
  EXPECT_DOUBLE_EQ(strict.gamma, 0.0);
  EXPECT_DOUBLE_EQ(strict.beta, 0.0);

  // Budget 0.1 (= 2 of 20 samples): may sacrifice the two lowest
  // positives, raising the threshold to the third.
  const core::ThresholdChoice relaxed =
      core::choose_characterizer_threshold(perception, 1, charac, data, 0.1);
  EXPECT_NEAR(relaxed.threshold, 0.3, 1e-9);
  EXPECT_NEAR(relaxed.gamma, 0.1, 1e-9);
  EXPECT_GE(relaxed.threshold, strict.threshold);
}

TEST(ThresholdChoice, OverlappingClassesTradeGammaForBeta) {
  const nn::Network perception = make_identity_net();
  const nn::Network charac = make_identity_net();
  train::Dataset data;
  // Positives at {0.2, 0.4, 0.6}, negatives at {0.3, 0.5}: overlap.
  for (const double v : {0.2, 0.4, 0.6}) data.add(Tensor::vector1d({v}), Tensor::vector1d({1.0}));
  for (const double v : {0.3, 0.5}) data.add(Tensor::vector1d({v}), Tensor::vector1d({0.0}));
  const core::ThresholdChoice zero =
      core::choose_characterizer_threshold(perception, 1, charac, data, 0.0);
  EXPECT_NEAR(zero.threshold, 0.2, 1e-9);
  EXPECT_DOUBLE_EQ(zero.beta, 0.4);  // both negatives admitted
  const core::ThresholdChoice one_miss =
      core::choose_characterizer_threshold(perception, 1, charac, data, 0.2);
  EXPECT_NEAR(one_miss.threshold, 0.4, 1e-9);
  EXPECT_DOUBLE_EQ(one_miss.beta, 0.2);  // only the 0.5 negative remains
}

TEST(ThresholdChoice, ValidatesArguments) {
  const nn::Network perception = make_identity_net();
  const nn::Network charac = make_identity_net();
  train::Dataset empty;
  EXPECT_THROW(core::choose_characterizer_threshold(perception, 1, charac, empty, 0.1),
               ContractViolation);
  train::Dataset negatives_only;
  negatives_only.add(Tensor::vector1d({0.0}), Tensor::vector1d({0.0}));
  EXPECT_THROW(
      core::choose_characterizer_threshold(perception, 1, charac, negatives_only, 0.1),
      ContractViolation);
}

TEST(LeakyReLU, ForwardAndClone) {
  nn::LeakyReLU layer(Shape{3}, 0.1);
  const Tensor y = layer.forward(Tensor::vector1d({-2.0, 0.0, 3.0}));
  EXPECT_DOUBLE_EQ(y[0], -0.2);
  EXPECT_DOUBLE_EQ(y[1], 0.0);
  EXPECT_DOUBLE_EQ(y[2], 3.0);
  auto copy = layer.clone();
  EXPECT_EQ(copy->kind(), nn::LayerKind::kLeakyReLU);
  EXPECT_THROW(nn::LeakyReLU(Shape{1}, 1.5), ContractViolation);
}

TEST(LeakyReLU, SerializationRoundTrip) {
  Rng rng(7);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(3, 3);
  d->init_he(rng);
  net.add(std::move(d));
  net.add(std::make_unique<nn::LeakyReLU>(Shape{3}, 0.05));
  std::stringstream buffer;
  nn::save(net, buffer);
  nn::Network restored = nn::load(buffer);
  const Tensor x = Tensor::vector1d({-1.0, 0.5, 2.0});
  for (std::size_t i = 0; i < 3; ++i)
    EXPECT_DOUBLE_EQ(net.forward(x)[i], restored.forward(x)[i]);
}

TEST(LeakyReLU, BoxAndSymbolicSoundness) {
  Rng rng(9);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::LeakyReLU>(Shape{5}, 0.1));
  auto d2 = std::make_unique<nn::Dense>(5, 2);
  d2->init_he(rng);
  net.add(std::move(d2));

  const absint::Box input_box = absint::uniform_box(3, -1.0, 1.0);
  const absint::Box via_box =
      absint::propagate_box_range(net, input_box, 0, net.layer_count());
  const std::vector<absint::Box> symbolic =
      absint::symbolic_bounds_trace(net, input_box, 0, net.layer_count());
  for (int sample = 0; sample < 200; ++sample) {
    Tensor x(Shape{3});
    for (std::size_t j = 0; j < 3; ++j) x[j] = rng.uniform(-1.0, 1.0);
    const Tensor out = net.forward(x);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_GE(out[i], via_box[i].lo - 1e-9);
      EXPECT_LE(out[i], via_box[i].hi + 1e-9);
      EXPECT_GE(out[i], symbolic.back()[i].lo - 1e-9);
      EXPECT_LE(out[i], symbolic.back()[i].hi + 1e-9);
    }
  }
  // Symbolic never looser than the box.
  EXPECT_LE(absint::box_total_width(symbolic.back()),
            absint::box_total_width(via_box) + 1e-9);
}

class LeakyVerifierSweep : public ::testing::TestWithParam<int> {};

TEST_P(LeakyVerifierSweep, VerdictAgreesWithSampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 449 + 13);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::LeakyReLU>(Shape{5}, 0.1));
  auto d2 = std::make_unique<nn::Dense>(5, 1);
  d2->init_he(rng);
  net.add(std::move(d2));

  const absint::Box box = absint::uniform_box(3, -1.0, 1.0);
  double max_seen = -1e100;
  for (int i = 0; i < 300; ++i) {
    Tensor x(Shape{3});
    for (std::size_t j = 0; j < 3; ++j) x[j] = rng.uniform(-1.0, 1.0);
    max_seen = std::max(max_seen, net.forward(x)[0]);
  }
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = box;
  q.risk.output_at_least(0, 1, max_seen + rng.uniform(-0.2, 0.4));

  const verify::VerificationResult r = verify::TailVerifier().verify(q);
  ASSERT_NE(r.verdict, verify::Verdict::kUnknown);
  if (r.verdict == verify::Verdict::kSafe) {
    for (int i = 0; i < 1500; ++i) {
      Tensor x(Shape{3});
      for (std::size_t j = 0; j < 3; ++j) x[j] = rng.uniform(-1.0, 1.0);
      ASSERT_LT(net.forward(x)[0], q.risk.inequalities()[0].rhs + 1e-7)
          << "seed " << GetParam();
    }
  } else {
    EXPECT_TRUE(r.counterexample_validated) << "seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(RandomLeakyTails, LeakyVerifierSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace dpv
