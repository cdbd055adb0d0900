// Forward-pass unit tests for every layer kind, against hand-computed
// values, plus network composition (prefix / suffix) semantics.
#include <gtest/gtest.h>

#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::nn {
namespace {

TEST(Dense, ForwardMatchesHandComputation) {
  Dense layer(3, 2);
  layer.set_parameters(Tensor(Shape{2, 3}, {1, 0, -1, 2, 1, 0}),
                       Tensor::vector1d({0.5, -0.5}));
  const Tensor y = layer.forward(Tensor::vector1d({1, 2, 3}));
  EXPECT_DOUBLE_EQ(y[0], 1 - 3 + 0.5);
  EXPECT_DOUBLE_EQ(y[1], 2 + 2 - 0.5);
}

TEST(Dense, RejectsBadParameterShapes) {
  Dense layer(3, 2);
  EXPECT_THROW(layer.set_parameters(Tensor(Shape{3, 2}), Tensor(Shape{2})),
               ContractViolation);
  EXPECT_THROW(layer.set_parameters(Tensor(Shape{2, 3}), Tensor(Shape{3})),
               ContractViolation);
}

TEST(Activations, Relu) {
  const Tensor x = Tensor::vector1d({-2.0, 0.0, 3.0});
  const ReLU relu(Shape{3});
  const Tensor yr = relu.forward(x);
  EXPECT_DOUBLE_EQ(yr[0], 0.0);
  EXPECT_DOUBLE_EQ(yr[1], 0.0);
  EXPECT_DOUBLE_EQ(yr[2], 3.0);
}

TEST(BatchNorm, InferenceIsFrozenAffine) {
  BatchNorm bn(2);
  bn.set_affine(Tensor::vector1d({2.0, 1.0}), Tensor::vector1d({1.0, -1.0}));
  bn.set_statistics(Tensor::vector1d({0.5, -0.5}), Tensor::vector1d({4.0, 1.0}));
  const Tensor y = bn.forward(Tensor::vector1d({2.5, 0.5}));
  // y0 = 2*(2.5-0.5)/sqrt(4+eps) + 1 ~= 3; y1 = (0.5+0.5)/sqrt(1+eps) - 1 ~= 0.
  EXPECT_NEAR(y[0], 3.0, 1e-4);
  EXPECT_NEAR(y[1], 0.0, 1e-4);
  EXPECT_NEAR(bn.effective_scale(0) * 2.5 + bn.effective_shift(0), y[0], 1e-12);
}

TEST(BatchNorm, TrainingNormalizesBatch) {
  BatchNorm bn(1, 1e-8);
  Batch batch(2, 1);
  batch.row(0)[0] = 1.0;
  batch.row(1)[0] = 3.0;
  Batch out;
  bn.forward_batch(batch, out);
  // mean 2, var 1 -> normalized to -1 and +1 (gamma=1, beta=0).
  EXPECT_NEAR(out.row(0)[0], -1.0, 1e-3);
  EXPECT_NEAR(out.row(1)[0], 1.0, 1e-3);
}

TEST(Conv2D, IdentityKernelPreservesInterior) {
  Conv2D conv(1, 3, 3, 1, 3, 1, 1);
  Tensor w(Shape{9});
  w[4] = 1.0;  // center tap
  conv.set_parameters(w, Tensor::vector1d({0.0}));
  Tensor x(Shape{1, 3, 3});
  for (std::size_t i = 0; i < 9; ++i) x[i] = static_cast<double>(i);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 3, 3}));
  for (std::size_t i = 0; i < 9; ++i) EXPECT_DOUBLE_EQ(y[i], x[i]);
}

TEST(Conv2D, SumKernelWithPaddingHandlesBorders) {
  Conv2D conv(1, 2, 2, 1, 3, 1, 1);
  Tensor w(Shape{9});
  w.fill(1.0);
  conv.set_parameters(w, Tensor::vector1d({0.0}));
  const Tensor x(Shape{1, 2, 2}, {1, 2, 3, 4});
  const Tensor y = conv.forward(x);
  // Every 3x3 window over the padded 2x2 image sums all four values.
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], 10.0);
}

TEST(Conv2D, StrideReducesResolution) {
  Conv2D conv(1, 4, 4, 1, 2, 2, 0);
  Tensor w(Shape{4});
  w.fill(0.25);  // 2x2 mean
  conv.set_parameters(w, Tensor::vector1d({0.0}));
  Tensor x(Shape{1, 4, 4});
  x.fill(2.0);
  const Tensor y = conv.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 2}));
  for (std::size_t i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(y[i], 2.0);
}

TEST(MaxPool2D, SelectsWindowMaxima) {
  MaxPool2D pool(1, 2, 4, 2);
  const Tensor x(Shape{1, 2, 4}, {1, 5, 2, 0, 3, -1, 7, 2});
  const Tensor y = pool.forward(x);
  EXPECT_EQ(y.shape(), (Shape{1, 1, 2}));
  EXPECT_DOUBLE_EQ(y[0], 5.0);
  EXPECT_DOUBLE_EQ(y[1], 7.0);
}

TEST(AvgPool2D, AveragesWindows) {
  AvgPool2D pool(1, 2, 2, 2);
  const Tensor x(Shape{1, 2, 2}, {1, 2, 3, 6});
  const Tensor y = pool.forward(x);
  EXPECT_DOUBLE_EQ(y[0], 3.0);
}

TEST(Pool2D, RejectsIndivisibleExtents) {
  EXPECT_THROW(MaxPool2D(1, 3, 4, 2), ContractViolation);
}

TEST(Flatten, ReshapesOnly) {
  const Flatten flat(Shape{2, 2, 2});
  Tensor x(Shape{2, 2, 2});
  x.at3(1, 1, 1) = 9.0;
  const Tensor y = flat.forward(x);
  EXPECT_EQ(y.shape(), (Shape{8}));
  EXPECT_DOUBLE_EQ(y[7], 9.0);
}

Network make_two_layer_net() {
  Network net;
  auto d1 = std::make_unique<Dense>(2, 2);
  d1->set_parameters(Tensor(Shape{2, 2}, {1, -1, 2, 0}), Tensor::vector1d({0, 1}));
  net.add(std::move(d1));
  net.add(std::make_unique<ReLU>(Shape{2}));
  auto d2 = std::make_unique<Dense>(2, 1);
  d2->set_parameters(Tensor(Shape{1, 2}, {1, 1}), Tensor::vector1d({-0.5}));
  net.add(std::move(d2));
  return net;
}

TEST(Network, PrefixSuffixComposition) {
  const Network net = make_two_layer_net();
  const Tensor x = Tensor::vector1d({1.0, 2.0});
  const Tensor full = net.forward(x);
  for (std::size_t l = 0; l <= net.layer_count(); ++l) {
    const Tensor mid = net.forward_prefix(x, l);
    const Tensor recomposed = net.forward_suffix(mid, l);
    EXPECT_NEAR(recomposed[0], full[0], 1e-12) << "cut at layer " << l;
  }
}

TEST(Network, AddRejectsIncompatibleLayer) {
  Network net;
  net.add(std::make_unique<Dense>(2, 3));
  EXPECT_THROW(net.add(std::make_unique<Dense>(4, 1)), ContractViolation);
}

TEST(Network, CloneIsDeepAndEquivalent) {
  Network net = make_two_layer_net();
  Network copy = net.clone();
  const Tensor x = Tensor::vector1d({0.3, -0.7});
  EXPECT_EQ(max_abs_diff(net.forward(x), copy.forward(x)), 0.0);
  // Mutating the copy must not affect the original.
  static_cast<Dense&>(copy.layer(0)).set_parameters(Tensor(Shape{2, 2}), Tensor(Shape{2}));
  EXPECT_GT(max_abs_diff(net.forward(x), copy.forward(x)), 0.0);
}

TEST(Network, EmptyNetworkShapeQueriesThrow) {
  const Network net;
  EXPECT_THROW(net.input_shape(), ContractViolation);
  EXPECT_THROW(net.output_shape(), ContractViolation);
}

}  // namespace
}  // namespace dpv::nn
