// Abstract interpretation tests: interval arithmetic identities, box
// propagation soundness (random networks, sampled inputs must stay inside
// propagated bounds), zonotope soundness and its tightness advantage over
// boxes on correlated affine chains.
#include <gtest/gtest.h>

#include <memory>

#include "absint/box_domain.hpp"
#include "absint/perturbation.hpp"
#include "absint/zonotope.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "layer_trace.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"

namespace dpv::absint {
namespace {

TEST(Interval, ArithmeticIdentities) {
  const Interval a(-1.0, 2.0);
  const Interval b(0.5, 1.5);
  EXPECT_DOUBLE_EQ((a + b).lo, -0.5);
  EXPECT_DOUBLE_EQ((a + b).hi, 3.5);
  EXPECT_DOUBLE_EQ(scale(a, -2.0).lo, -4.0);
  EXPECT_DOUBLE_EQ(scale(a, -2.0).hi, 2.0);
  EXPECT_DOUBLE_EQ(relu(a).lo, 0.0);
  EXPECT_DOUBLE_EQ(relu(a).hi, 2.0);
  EXPECT_DOUBLE_EQ(relu(Interval(-3.0, -1.0)).hi, 0.0);
  EXPECT_DOUBLE_EQ(shift(a, 1.0).lo, 0.0);
}

TEST(Interval, HullAndContainment) {
  const Interval a(0.0, 1.0);
  const Interval b(2.0, 3.0);
  const Interval h = a.hull(b);
  EXPECT_DOUBLE_EQ(h.lo, 0.0);
  EXPECT_DOUBLE_EQ(h.hi, 3.0);
  EXPECT_TRUE(h.contains(1.5));
  EXPECT_FALSE(a.intersects(b));
  EXPECT_TRUE(a.intersects(Interval(0.5, 2.0)));
}

TEST(Interval, InvalidBoundsThrow) {
  EXPECT_THROW(Interval(1.0, 0.0), ContractViolation);
}

nn::Network make_random_mixed_net(Rng& rng) {
  nn::Network net;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 4, 2, 3, 1, 1);
  conv->init_he(rng);
  net.add(std::move(conv));
  net.add(std::make_unique<nn::ReLU>(Shape{2, 4, 4}));
  net.add(std::make_unique<nn::MaxPool2D>(2, 4, 4, 2));
  net.add(std::make_unique<nn::AvgPool2D>(2, 2, 2, 2));
  net.add(std::make_unique<nn::Flatten>(Shape{2, 1, 1}));
  auto d1 = std::make_unique<nn::Dense>(2, 5);
  d1->init_he(rng);
  net.add(std::move(d1));
  auto bn = std::make_unique<nn::BatchNorm>(5);
  bn->set_statistics(Tensor::randn(Shape{5}, rng, 0.3),
                     Tensor::vector1d({1.0, 0.5, 2.0, 1.5, 0.8}));
  bn->set_affine(Tensor::randn(Shape{5}, rng, 0.5), Tensor::randn(Shape{5}, rng, 0.5));
  net.add(std::move(bn));
  net.add(std::make_unique<nn::ReLU>(Shape{5}));
  auto d2 = std::make_unique<nn::Dense>(5, 3);
  d2->init_he(rng);
  net.add(std::move(d2));
  net.add(std::make_unique<nn::ReLU>(Shape{3}));
  return net;
}

class BoxSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(BoxSoundnessSweep, SampledExecutionsStayInsidePropagatedBoxes) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 271 + 13);
  nn::Network net = make_random_mixed_net(rng);
  const Box input_box = uniform_box(16, 0.0, 1.0);
  const std::vector<Box> trace =
      reference::box_trace(net, input_box, 0, net.layer_count());

  for (int sample = 0; sample < 30; ++sample) {
    Tensor x(Shape{1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i) x[i] = rng.uniform(0.0, 1.0);
    const std::vector<Tensor> outs = reference::layer_outputs(net, x);
    ASSERT_EQ(outs.size(), trace.size());
    for (std::size_t layer = 0; layer < outs.size(); ++layer) {
      const Box& box = trace[layer];
      ASSERT_EQ(box.size(), outs[layer].numel());
      for (std::size_t i = 0; i < box.size(); ++i) {
        EXPECT_GE(outs[layer][i], box[i].lo - 1e-9)
            << "seed " << GetParam() << " layer " << layer << " neuron " << i;
        EXPECT_LE(outs[layer][i], box[i].hi + 1e-9)
            << "seed " << GetParam() << " layer " << layer << " neuron " << i;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomNets, BoxSoundnessSweep, ::testing::Range(0, 10));

TEST(BoxDomain, DegenerateBoxPropagatesExactlyThroughAffine) {
  Rng rng(3);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(3, 2);
  d->init_he(rng);
  net.add(std::move(d));
  const Tensor x = Tensor::vector1d({0.3, -0.4, 0.9});
  Box point_box;
  for (std::size_t i = 0; i < 3; ++i) point_box.emplace_back(x[i], x[i]);
  const Box out = propagate_box_range(net, point_box, 0, 1);
  const Tensor y = net.forward(x);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_NEAR(out[i].lo, y[i], 1e-12);
    EXPECT_NEAR(out[i].hi, y[i], 1e-12);
  }
}

TEST(BoxDomain, DimensionMismatchThrows) {
  Rng rng(1);
  nn::Network net;
  auto d = std::make_unique<nn::Dense>(3, 2);
  d->init_he(rng);
  net.add(std::move(d));
  EXPECT_THROW(propagate_box_range(net, uniform_box(4, 0, 1), 0, 1), ContractViolation);
}

nn::Network make_random_tail(Rng& rng, std::size_t in_n, std::size_t hidden,
                             std::size_t out_n) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, out_n);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

class ZonotopeSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ZonotopeSoundnessSweep, SampledOutputsInsideConcretization) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 83 + 2);
  nn::Network net = make_random_tail(rng, 4, 6, 3);
  const Box input_box = uniform_box(4, -0.5, 1.5);
  const Zonotope z = propagate_zonotope_range(net, Zonotope::from_box(input_box), 0,
                                              net.layer_count());
  const Box out_box = z.to_box();
  for (int sample = 0; sample < 50; ++sample) {
    Tensor x(Shape{4});
    for (std::size_t i = 0; i < 4; ++i) x[i] = rng.uniform(-0.5, 1.5);
    const Tensor y = net.forward(x);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(y[i], out_box[i].lo - 1e-9) << "seed " << GetParam();
      EXPECT_LE(y[i], out_box[i].hi + 1e-9) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTails, ZonotopeSoundnessSweep, ::testing::Range(0, 10));

TEST(Zonotope, ExactThroughAffineChains) {
  // Boxes lose the correlation y = x - x = 0; zonotopes keep it.
  Rng rng(5);
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(1, 2);
  d1->set_parameters(Tensor(Shape{2, 1}, {1.0, 1.0}), Tensor::vector1d({0.0, 0.0}));
  net.add(std::move(d1));
  auto d2 = std::make_unique<nn::Dense>(2, 1);
  d2->set_parameters(Tensor(Shape{1, 2}, {1.0, -1.0}), Tensor::vector1d({0.0}));
  net.add(std::move(d2));

  const Box input_box = uniform_box(1, -1.0, 1.0);
  const Box via_box = propagate_box_range(net, input_box, 0, net.layer_count());
  const Zonotope via_zono = propagate_zonotope_range(net, Zonotope::from_box(input_box), 0,
                                                     net.layer_count());
  EXPECT_NEAR(via_zono.to_box()[0].width(), 0.0, 1e-12);
  EXPECT_NEAR(via_box[0].width(), 4.0, 1e-12);  // box forgets x-x = 0
}

TEST(Zonotope, NeverLooserThanBoxOnAffineChains) {
  // Through affine layers zonotopes are exact, so they can only be
  // tighter than boxes (which forget inter-neuron correlation). Note the
  // guarantee does NOT extend to unstable ReLUs: the DeepZ transformer
  // trades per-dimension tightness for retained correlation.
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    nn::Network net;
    auto d1 = std::make_unique<nn::Dense>(5, 8);
    d1->init_he(rng);
    net.add(std::move(d1));
    auto d2 = std::make_unique<nn::Dense>(8, 3);
    d2->init_he(rng);
    net.add(std::move(d2));
    const Box input_box = uniform_box(5, -1.0, 1.0);
    const Box via_box = propagate_box_range(net, input_box, 0, net.layer_count());
    const Zonotope z = propagate_zonotope_range(net, Zonotope::from_box(input_box), 0,
                                                net.layer_count());
    EXPECT_LE(box_total_width(z.to_box()), box_total_width(via_box) + 1e-9)
        << "trial " << trial;
  }
}

TEST(Zonotope, StableReluNetworksStayTighterThanBox) {
  // Positive-biased tails keep every ReLU provably active, so the
  // zonotope remains exact end to end while the box accumulates slack.
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    nn::Network net;
    auto d1 = std::make_unique<nn::Dense>(4, 6);
    d1->init_he(rng);
    // Shift biases so pre-activations stay positive on the input box.
    {
      Tensor w = d1->weight();
      Tensor b = d1->bias();
      for (std::size_t i = 0; i < b.numel(); ++i) b[i] = 5.0;
      d1->set_parameters(std::move(w), std::move(b));
    }
    net.add(std::move(d1));
    net.add(std::make_unique<nn::ReLU>(Shape{6}));
    auto d2 = std::make_unique<nn::Dense>(6, 2);
    d2->init_he(rng);
    net.add(std::move(d2));
    const Box input_box = uniform_box(4, -0.5, 0.5);
    const Box via_box = propagate_box_range(net, input_box, 0, net.layer_count());
    const Zonotope z = propagate_zonotope_range(net, Zonotope::from_box(input_box), 0,
                                                net.layer_count());
    EXPECT_LE(box_total_width(z.to_box()), box_total_width(via_box) + 1e-9)
        << "trial " << trial;
  }
}

TEST(Zonotope, StableReluDimensionsAreExact) {
  const Box box{Interval(1.0, 2.0), Interval(-3.0, -1.0)};
  const Zonotope z = Zonotope::from_box(box).relu();
  const Box out = z.to_box();
  EXPECT_NEAR(out[0].lo, 1.0, 1e-12);
  EXPECT_NEAR(out[0].hi, 2.0, 1e-12);
  EXPECT_NEAR(out[1].lo, 0.0, 1e-12);
  EXPECT_NEAR(out[1].hi, 0.0, 1e-12);
}

TEST(Zonotope, UnsupportedLayerKindThrows) {
  nn::Network net;
  net.add(std::make_unique<nn::MaxPool2D>(1, 2, 2, 2));
  EXPECT_FALSE(zonotope_supported(net, 0, 1));
  EXPECT_THROW(
      propagate_zonotope_range(net, Zonotope::from_box(uniform_box(4, 0, 1)), 0, 1),
      ContractViolation);
}

nn::Network make_relu_tail(Rng& rng, std::size_t in_n, std::size_t hidden,
                           std::size_t out_n) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, hidden);
  d2->init_he(rng);
  net.add(std::move(d2));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d3 = std::make_unique<nn::Dense>(hidden, out_n);
  d3->init_he(rng);
  net.add(std::move(d3));
  return net;
}

class ReluZonotopeSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(ReluZonotopeSoundnessSweep, SampledOutputsInsideConcretization) {
  // Random ReLU tails: sampled concrete outputs must stay inside both the
  // range concretization and every trace entry's box.
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131 + 7);
  nn::Network net = make_relu_tail(rng, 4, 6, 3);
  ASSERT_TRUE(zonotope_supported(net, 0, net.layer_count()));
  const Box input_box = uniform_box(4, -0.8, 1.2);
  const Zonotope z = propagate_zonotope_range(net, Zonotope::from_box(input_box), 0,
                                              net.layer_count());
  const Box out_box = z.to_box();
  const std::vector<Box> trace =
      propagate_zonotope_trace(net, input_box, 0, net.layer_count());
  const Box& trace_out = trace.back();
  for (int sample = 0; sample < 50; ++sample) {
    Tensor x(Shape{4});
    for (std::size_t i = 0; i < 4; ++i) x[i] = rng.uniform(-0.8, 1.2);
    const Tensor y = net.forward(x);
    for (std::size_t i = 0; i < 3; ++i) {
      EXPECT_GE(y[i], out_box[i].lo - 1e-9) << "seed " << GetParam();
      EXPECT_LE(y[i], out_box[i].hi + 1e-9) << "seed " << GetParam();
      EXPECT_GE(y[i], trace_out[i].lo - 1e-9) << "seed " << GetParam();
      EXPECT_LE(y[i], trace_out[i].hi + 1e-9) << "seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomReluTails, ReluZonotopeSoundnessSweep,
                         ::testing::Range(0, 10));

TEST(Zonotope, TraceClampFeedbackNeverLoosensBounds) {
  // The trace feeds its interval-intersected boxes back into the chord
  // choice: every entry must be at least as tight as plain interval
  // propagation and than the unclamped zonotope concretization.
  Rng rng(29);
  for (int trial = 0; trial < 5; ++trial) {
    nn::Network net = make_relu_tail(rng, 4, 6, 2);
    const Box input_box = uniform_box(4, -1.0, 1.0);
    const std::vector<Box> trace =
        propagate_zonotope_trace(net, input_box, 0, net.layer_count());
    Box interval_box = input_box;
    for (std::size_t i = 0; i < net.layer_count(); ++i) {
      interval_box = propagate_box(net.layer(i), interval_box);
      EXPECT_LE(box_total_width(trace[i]), box_total_width(interval_box) + 1e-9)
          << "trial " << trial << " layer " << i;
    }
    const Zonotope plain = propagate_zonotope_range(
        net, Zonotope::from_box(input_box), 0, net.layer_count());
    EXPECT_LE(box_total_width(trace.back()), box_total_width(plain.to_box()) + 1e-9)
        << "trial " << trial;
  }
}

// Delta planning widens only verified tails, and the encoder rejects
// Conv2D and pooling layers there (Lemma 1), so the radii cover neither.
TEST(Perturbation, ConvAndPoolLayersGetNoRadii) {
  Rng rng(5);
  nn::Network net;
  auto conv = std::make_unique<nn::Conv2D>(1, 4, 4, 2, 3, 1, 1);
  conv->init_he(rng);
  net.add(std::move(conv));
  net.add(std::make_unique<nn::MaxPool2D>(2, 4, 4, 2));
  net.add(std::make_unique<nn::Flatten>(Shape{2, 2, 2}));
  auto dense = std::make_unique<nn::Dense>(8, 2);
  dense->init_he(rng);
  net.add(std::move(dense));
  const nn::Network updated = net.clone();

  std::vector<Box> trace;
  Box box = uniform_box(16, -1.0, 1.0);
  for (std::size_t l = 0; l < net.layer_count(); ++l) {
    box = propagate_box(net.layer(l), box);
    trace.push_back(box);
  }
  const Box input = uniform_box(16, -1.0, 1.0);
  EXPECT_FALSE(perturbation_radii(net, updated, trace, input, input, 0).supported);

  // The Flatten -> Dense part alone gets radii (zero: nothing changed).
  const std::vector<Box> tail(trace.begin() + 2, trace.end());
  const PerturbationTrace radii = perturbation_radii(net, updated, tail, trace[1], trace[1], 2);
  ASSERT_TRUE(radii.supported);
  EXPECT_EQ(radii.radii.size(), 2u);
  EXPECT_EQ(radii.max_radius, 0.0);
}

TEST(BoxHelpers, TotalWidth) {
  const Box box{Interval(0.0, 1.0), Interval(-1.0, 1.0)};
  EXPECT_DOUBLE_EQ(box_total_width(box), 3.0);
}

}  // namespace
}  // namespace dpv::absint
