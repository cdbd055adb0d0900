// Tests for the DeepPoly-style symbolic linear-bounds domain: form
// evaluation, soundness against sampled executions, guaranteed dominance
// over interval propagation, and encoder integration (kSymbolic).
#include <gtest/gtest.h>

#include <memory>

#include "absint/box_domain.hpp"
#include "absint/linear_bounds.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "layer_trace.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/pool2d.hpp"
#include "verify/verifier.hpp"

namespace dpv::absint {
namespace {

TEST(LinearForm, MinMaxOverBox) {
  const LinearForm form{{2.0, -1.0}, 0.5};
  const Box box{Interval(0.0, 1.0), Interval(-1.0, 2.0)};
  // min: 2*0 - 1*2 + 0.5 = -1.5; max: 2*1 - 1*(-1) + 0.5 = 3.5
  EXPECT_DOUBLE_EQ(form.min_over(box), -1.5);
  EXPECT_DOUBLE_EQ(form.max_over(box), 3.5);
}

TEST(LinearBounds, IdentityFromBox) {
  const Box box{Interval(-1.0, 2.0), Interval(0.5, 1.0)};
  const LinearBounds state = LinearBounds::from_box(box);
  EXPECT_EQ(state.dimensions(), 2u);
  EXPECT_DOUBLE_EQ(state.concrete()[0].lo, -1.0);
  EXPECT_DOUBLE_EQ(state.concrete()[1].hi, 1.0);
}

TEST(LinearBounds, AffineKeepsCorrelation) {
  // y = x - x must concretize to exactly 0 (boxes would give [-2, 2]).
  const Box box{Interval(-1.0, 1.0)};
  const LinearBounds state = LinearBounds::from_box(box);
  const LinearBounds mid = state.affine({{1.0}, {1.0}}, {0.0, 0.0});
  const LinearBounds out = mid.affine({{1.0, -1.0}}, {0.0});
  EXPECT_NEAR(out.concrete()[0].lo, 0.0, 1e-12);
  EXPECT_NEAR(out.concrete()[0].hi, 0.0, 1e-12);
}

TEST(LinearBounds, ReluStableCases) {
  const Box box{Interval(0.5, 2.0), Interval(-3.0, -1.0)};
  const LinearBounds out = LinearBounds::from_box(box).relu();
  EXPECT_DOUBLE_EQ(out.concrete()[0].lo, 0.5);
  EXPECT_DOUBLE_EQ(out.concrete()[0].hi, 2.0);
  EXPECT_DOUBLE_EQ(out.concrete()[1].lo, 0.0);
  EXPECT_DOUBLE_EQ(out.concrete()[1].hi, 0.0);
}

nn::Network make_random_tail(Rng& rng, std::size_t in_n, std::size_t hidden,
                             std::size_t out_n, bool with_bn) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  if (with_bn) {
    auto bn = std::make_unique<nn::BatchNorm>(hidden);
    bn->set_statistics(Tensor::randn(Shape{hidden}, rng, 0.3),
                       Tensor(Shape{hidden}, std::vector<double>(hidden, 1.5)));
    bn->set_affine(Tensor::randn(Shape{hidden}, rng, 0.4),
                   Tensor::randn(Shape{hidden}, rng, 0.2));
    net.add(std::move(bn));
  }
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, out_n);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

class SymbolicSoundnessSweep : public ::testing::TestWithParam<std::tuple<int, bool>> {};

TEST_P(SymbolicSoundnessSweep, SampledExecutionsInsideTrace) {
  const auto [seed, with_bn] = GetParam();
  Rng rng(static_cast<std::uint64_t>(seed) * 409 + 3);
  nn::Network net = make_random_tail(rng, 4, 7, 3, with_bn);
  const Box input_box = uniform_box(4, -1.0, 1.0);
  const std::vector<Box> trace =
      symbolic_bounds_trace(net, input_box, 0, net.layer_count());
  ASSERT_EQ(trace.size(), net.layer_count());

  for (int sample = 0; sample < 60; ++sample) {
    Tensor x(Shape{4});
    for (std::size_t i = 0; i < 4; ++i) x[i] = rng.uniform(-1.0, 1.0);
    const std::vector<Tensor> outs = reference::layer_outputs(net, x);
    for (std::size_t layer = 0; layer < outs.size(); ++layer) {
      for (std::size_t i = 0; i < trace[layer].size(); ++i) {
        EXPECT_GE(outs[layer][i], trace[layer][i].lo - 1e-9)
            << "seed " << seed << " layer " << layer;
        EXPECT_LE(outs[layer][i], trace[layer][i].hi + 1e-9)
            << "seed " << seed << " layer " << layer;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTails, SymbolicSoundnessSweep,
                         ::testing::Combine(::testing::Range(0, 8), ::testing::Bool()));

class SymbolicDominanceSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicDominanceSweep, NeverLooserThanIntervals) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 613 + 7);
  nn::Network net = make_random_tail(rng, 5, 8, 2, GetParam() % 2 == 0);
  const Box input_box = uniform_box(5, -1.0, 1.0);
  const std::vector<Box> symbolic =
      symbolic_bounds_trace(net, input_box, 0, net.layer_count());
  const std::vector<Box> interval =
      reference::box_trace(net, input_box, 0, net.layer_count());
  ASSERT_EQ(symbolic.size(), interval.size());
  for (std::size_t layer = 0; layer < symbolic.size(); ++layer)
    EXPECT_LE(box_total_width(symbolic[layer]), box_total_width(interval[layer]) + 1e-9)
        << "layer " << layer;
}

INSTANTIATE_TEST_SUITE_P(RandomTails, SymbolicDominanceSweep, ::testing::Range(0, 10));

TEST(SymbolicBounds, StrictlyTighterOnCorrelatedChain) {
  // f(x) = relu(x) - relu(x): interval forgets the shared input, symbolic
  // bounds keep it and prove the output is exactly 0.
  nn::Network net;
  auto split = std::make_unique<nn::Dense>(1, 2);
  split->set_parameters(Tensor(Shape{2, 1}, {1.0, 1.0}), Tensor::vector1d({0.0, 0.0}));
  net.add(std::move(split));
  net.add(std::make_unique<nn::ReLU>(Shape{2}));
  auto merge = std::make_unique<nn::Dense>(2, 1);
  merge->set_parameters(Tensor(Shape{1, 2}, {1.0, -1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(merge));

  const Box input_box = uniform_box(1, 0.25, 1.0);  // ReLU stable-active
  const Box symbolic =
      symbolic_bounds_trace(net, input_box, 0, net.layer_count()).back();
  const Box interval = propagate_box_range(net, input_box, 0, net.layer_count());
  EXPECT_NEAR(symbolic[0].lo, 0.0, 1e-12);
  EXPECT_NEAR(symbolic[0].hi, 0.0, 1e-12);
  EXPECT_NEAR(interval[0].width(), 1.5, 1e-12);
}

TEST(SymbolicBounds, UnsupportedLayerThrows) {
  nn::Network net;
  net.add(std::make_unique<nn::MaxPool2D>(1, 2, 2, 2));
  EXPECT_THROW(symbolic_bounds_trace(net, uniform_box(4, 0.0, 1.0), 0, 1),
               ContractViolation);
}

class SymbolicEncoderSweep : public ::testing::TestWithParam<int> {};

TEST_P(SymbolicEncoderSweep, KSymbolicNeverChangesVerdictNorAddsBinaries) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 89 + 17);
  nn::Network net = make_random_tail(rng, 4, 6, 1, false);

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = uniform_box(4, -1.0, 1.0);
  q.risk.output_at_least(0, 1, rng.uniform(-0.5, 2.0));

  verify::TailVerifierOptions interval_opts;
  verify::TailVerifierOptions symbolic_opts;
  symbolic_opts.encode.bounds = verify::BoundMethod::kSymbolic;
  const verify::VerificationResult a = verify::TailVerifier(interval_opts).verify(q);
  const verify::VerificationResult b = verify::TailVerifier(symbolic_opts).verify(q);
  EXPECT_EQ(a.verdict, b.verdict) << "seed " << GetParam();
  EXPECT_LE(b.encoding.binaries, a.encoding.binaries) << "seed " << GetParam();
  if (b.verdict == verify::Verdict::kUnsafe) {
    EXPECT_TRUE(b.counterexample_validated);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTails, SymbolicEncoderSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace dpv::absint
