// Tests for the generalized RelationMonitor and for how the monitor margin
// moves the warning rate.
#include <gtest/gtest.h>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "monitor/diff_monitor.hpp"
#include "monitor/relation_monitor.hpp"

namespace dpv::monitor {
namespace {

TEST(RelationMonitor, PairFactories) {
  EXPECT_EQ(RelationMonitor::adjacent_pairs(5).size(), 4u);
  EXPECT_EQ(RelationMonitor::stride_pairs(5, 2).size(), 3u);
  EXPECT_EQ(RelationMonitor::stride_pairs(5, 4).size(), 1u);
  EXPECT_TRUE(RelationMonitor::stride_pairs(5, 5).empty());
  EXPECT_EQ(RelationMonitor::all_pairs(5).size(), 10u);
  EXPECT_THROW(RelationMonitor::stride_pairs(5, 0), ContractViolation);
}

TEST(RelationMonitor, AdjacentPairsMatchDiffMonitor) {
  Rng rng(3);
  std::vector<Tensor> acts;
  for (int i = 0; i < 50; ++i) acts.push_back(Tensor::randn(Shape{6}, rng, 1.5));
  const DiffMonitor diff = DiffMonitor::from_activations(acts);
  const RelationMonitor rel =
      RelationMonitor::from_activations(acts, RelationMonitor::adjacent_pairs(6));
  ASSERT_EQ(rel.pair_bounds().size(), diff.diff_bounds().size());
  for (std::size_t i = 0; i < rel.pair_bounds().size(); ++i) {
    EXPECT_DOUBLE_EQ(rel.pair_bounds()[i].lo, diff.diff_bounds()[i].lo);
    EXPECT_DOUBLE_EQ(rel.pair_bounds()[i].hi, diff.diff_bounds()[i].hi);
  }
  // Containment decisions coincide as well.
  for (int i = 0; i < 50; ++i) {
    const Tensor probe = Tensor::randn(Shape{6}, rng, 2.0);
    EXPECT_EQ(rel.contains(probe), diff.contains(probe));
  }
}

TEST(RelationMonitor, AllPairsIsStrictlyStronger) {
  // Data where n2 - n0 is tightly coupled but adjacent diffs are loose:
  // n1 jumps around freely.
  Rng rng(5);
  std::vector<Tensor> acts;
  for (int i = 0; i < 80; ++i) {
    const double base = rng.uniform(-1.0, 1.0);
    acts.push_back(Tensor::vector1d({base, rng.uniform(-2.0, 2.0), base + 0.3}));
  }
  const RelationMonitor adjacent =
      RelationMonitor::from_activations(acts, RelationMonitor::adjacent_pairs(3));
  const RelationMonitor all =
      RelationMonitor::from_activations(acts, RelationMonitor::all_pairs(3));
  // A point keeping adjacent differences plausible but breaking the
  // (0, 2) coupling: n2 - n0 = 1.0 while the data only ever shows +0.3.
  // (n2 = 1.0 stays inside the recorded box since base ranges to ~1.)
  const Tensor probe = Tensor::vector1d({0.0, 0.6, 1.0});
  EXPECT_TRUE(adjacent.box_monitor().contains(probe));
  if (adjacent.contains(probe)) {
    EXPECT_FALSE(all.contains(probe));
  } else {
    // Even if the adjacent monitor happens to reject it, the all-pairs
    // monitor must reject too (monotone strengthening).
    EXPECT_FALSE(all.contains(probe));
  }
  // Every training point passes both.
  for (const Tensor& a : acts) {
    EXPECT_TRUE(adjacent.contains(a));
    EXPECT_TRUE(all.contains(a));
  }
}

TEST(RelationMonitor, ViolationsNamePairs) {
  std::vector<Tensor> acts = {Tensor::vector1d({0.0, 5.0, 0.25}),
                              Tensor::vector1d({0.25, 5.5, 0.5})};
  const RelationMonitor mon =
      RelationMonitor::from_activations(acts, {{0, 2}});
  const auto violations = mon.violations(Tensor::vector1d({0.25, 5.25, 0.25}));
  // n2 - n0 = 0.0, recorded range [0.25, 0.25] -> violation mentioning
  // the (0, 2) pair.
  bool found = false;
  for (const std::string& v : violations)
    if (v.find("n2 - n0") != std::string::npos) found = true;
  EXPECT_TRUE(found);
}

TEST(RelationMonitor, RejectsInvalidPairs) {
  std::vector<Tensor> acts = {Tensor::vector1d({1.0, 2.0})};
  EXPECT_THROW(RelationMonitor::from_activations(acts, {{0, 5}}), ContractViolation);
  EXPECT_THROW(RelationMonitor::from_activations(acts, {{1, 1}}), ContractViolation);
}

std::vector<Tensor> gaussian_cloud(Rng& rng, std::size_t count, double stddev) {
  std::vector<Tensor> acts;
  for (std::size_t i = 0; i < count; ++i)
    acts.push_back(Tensor::randn(Shape{5}, rng, stddev));
  return acts;
}

/// Fraction of `activations` that `monitor` rejects.
double warning_rate(const DiffMonitor& monitor, const std::vector<Tensor>& activations) {
  std::size_t warnings = 0;
  for (const Tensor& a : activations)
    if (!monitor.contains(a)) ++warnings;
  return static_cast<double>(warnings) / static_cast<double>(activations.size());
}

// Property sweep: the warning rate is monotonically non-increasing in the
// margin.
class CalibrationMonotonicity : public ::testing::TestWithParam<int> {};

TEST_P(CalibrationMonotonicity, RateDecreasesWithMargin) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 7 + 1);
  const std::vector<Tensor> train = gaussian_cloud(rng, 50, 1.0);
  const std::vector<Tensor> holdout = gaussian_cloud(rng, 200, 1.2);
  double previous = 1.1;
  for (const double margin : {0.0, 0.05, 0.2, 0.5}) {
    const DiffMonitor mon = DiffMonitor::from_activations(train, margin);
    const double rate = warning_rate(mon, holdout);
    EXPECT_LE(rate, previous + 1e-12) << "margin " << margin;
    previous = rate;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalibrationMonotonicity, ::testing::Range(0, 6));

}  // namespace
}  // namespace dpv::monitor
