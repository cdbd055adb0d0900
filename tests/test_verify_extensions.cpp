// Tests for the output-range analysis API, and for random ReLU tails
// through the box and symbolic domains and the MILP verifier.
#include <gtest/gtest.h>

#include <memory>

#include "absint/box_domain.hpp"
#include "absint/linear_bounds.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
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

TEST(ReluTail, BoxAndSymbolicSoundness) {
  Rng rng(9);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{5}));
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

class ReluTailVerifierSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReluTailVerifierSweep, VerdictAgreesWithSampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 449 + 13);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(3, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{5}));
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

INSTANTIATE_TEST_SUITE_P(RandomReluTails, ReluTailVerifierSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace dpv
