// Tensor / shape / ops unit tests.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv {
namespace {

TEST(Shape, BasicProperties) {
  const Shape s{3, 4, 5};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s.dim(0), 3u);
  EXPECT_EQ(s.dim(2), 5u);
  EXPECT_EQ(s.numel(), 60u);
  EXPECT_EQ(s.to_string(), "[3, 4, 5]");
}

TEST(Shape, EmptyShapeHasOneElement) {
  const Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
}

TEST(Shape, DimOutOfRangeThrows) {
  const Shape s{2, 2};
  EXPECT_THROW(s.dim(2), ContractViolation);
}

TEST(Tensor, ZeroInitialized) {
  const Tensor t(Shape{4});
  for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(t[i], 0.0);
}

TEST(Tensor, ShapeValueMismatchThrows) {
  EXPECT_THROW(Tensor(Shape{3}, {1.0, 2.0}), ContractViolation);
}

TEST(Tensor, Rank2Access) {
  Tensor t(Shape{2, 3});
  t.at2(1, 2) = 7.5;
  EXPECT_EQ(t[5], 7.5);
  EXPECT_THROW(t.at2(2, 0), ContractViolation);
  EXPECT_THROW(t.at2(0, 3), ContractViolation);
}

TEST(Tensor, Rank3Access) {
  Tensor t(Shape{2, 2, 2});
  t.at3(1, 0, 1) = -3.0;
  EXPECT_EQ(t[5], -3.0);
  EXPECT_THROW(t.at3(0, 2, 0), ContractViolation);
}

TEST(Tensor, ReshapePreservesData) {
  const Tensor t(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor r = t.reshaped(Shape{3, 2});
  EXPECT_EQ(r.at2(2, 1), 6.0);
  EXPECT_THROW(t.reshaped(Shape{4}), ContractViolation);
}

TEST(Tensor, RandnIsDeterministicPerSeed) {
  Rng a(5), b(5), c(6);
  const Tensor ta = Tensor::randn(Shape{8}, a, 1.0);
  const Tensor tb = Tensor::randn(Shape{8}, b, 1.0);
  const Tensor tc = Tensor::randn(Shape{8}, c, 1.0);
  EXPECT_EQ(max_abs_diff(ta, tb), 0.0);
  EXPECT_GT(max_abs_diff(ta, tc), 0.0);
}

TEST(TensorOps, MatvecMatchesHandComputation) {
  const Tensor w(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor x = Tensor::vector1d({1, 0, -1});
  double y[2];
  matvec(w.data().data(), 2, 3, x.data().data(), y);
  EXPECT_DOUBLE_EQ(y[0], -2.0);
  EXPECT_DOUBLE_EQ(y[1], -2.0);
}

TEST(TensorOps, AdjacentDifferencesMatchPaperExample) {
  // Fig. 1's monitored quantity n_{i+1} - n_i.
  const Tensor t = Tensor::vector1d({0.0, 0.1, -0.1, 0.6});
  const std::vector<double> d = adjacent_differences(t);
  ASSERT_EQ(d.size(), 3u);
  EXPECT_NEAR(d[0], 0.1, 1e-12);
  EXPECT_NEAR(d[1], -0.2, 1e-12);
  EXPECT_NEAR(d[2], 0.7, 1e-12);
}

TEST(TensorOps, AdjacentDifferencesOfScalarIsEmpty) {
  EXPECT_TRUE(adjacent_differences(Tensor::vector1d({1.0})).empty());
}

}  // namespace
}  // namespace dpv
