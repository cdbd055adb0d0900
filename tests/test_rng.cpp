// Rng stream parity: the explicit MT19937-64 engine against
// std::mt19937_64, the bulk normal kernel against successive scalar
// normal() calls (dispatch on and forced scalar, from even and odd
// engine offsets), and every distribution's stream against hashes taken
// from the std-distribution Rng this engine replaced (its Release build,
// whose fusions uniform() and normal() now write out).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <random>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"

namespace dpv {
namespace {

/// 64-bit FNV-1a, eight little-endian bytes per value.
class Fnv1a {
 public:
  void add(std::uint64_t bits) {
    for (int byte = 0; byte < 8; ++byte) {
      hash_ ^= (bits >> (8 * byte)) & 0xffu;
      hash_ *= 1099511628211ull;
    }
  }
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add(bits);
  }
  std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 14695981039346656037ull;
};

/// Runs `body` once with the dispatch on and once forced scalar.
template <typename Body>
void for_each_dispatch(Body body) {
  for (const bool scalar : {false, true}) {
    simd::set_force_scalar(scalar);
    body(scalar ? "forced scalar" : simd::backend_name());
  }
  simd::set_force_scalar(false);
}

TEST(Rng, StreamEqualsStdMt19937_64) {
  std::vector<std::uint64_t> seeds{0, 1, 2, 42, 5489, 1ull << 63, ~0ull};
  std::mt19937_64 seeder(7);
  for (int i = 0; i < 40; ++i) seeds.push_back(seeder());
  for_each_dispatch([&](const char* dispatch) {
    for (const std::uint64_t seed : seeds) {
      Rng rng(seed);
      std::mt19937_64 reference(seed);
      for (int i = 0; i < 2000; ++i)  // six twists
        ASSERT_EQ(rng(), reference()) << dispatch << ", seed " << seed << ", output " << i;
    }
  });
}

TEST(Rng, TenThousandthOutputOfDefaultSeedIsTheStandardsValue) {
  Rng rng(std::mt19937_64::default_seed);
  std::uint64_t out = 0;
  for (int i = 0; i < 10000; ++i) out = rng();
  EXPECT_EQ(out, 9981545732273789042ull);
}

TEST(Rng, BulkNormalsEqualSuccessiveScalarCalls) {
  // Counts around one state's 312 words, from engine offsets of either
  // parity, including the pair that straddles a twist (offset 311).
  for_each_dispatch([](const char* dispatch) {
    for (const std::size_t n : {0, 1, 2, 311, 312, 313, 1000})
      for (const std::size_t offset : {0, 1, 2, 7, 310, 311, 312, 313}) {
        Rng bulk(9000 + n);
        for (std::size_t i = 0; i < offset; ++i) bulk();
        Rng scalar = bulk;
        const double mean = n % 2 ? 0.25 : 0.0, stddev = offset % 2 ? 0.03 : 1.7;
        std::vector<double> values(n);
        bulk.normals(mean, stddev, values.data(), n);
        for (std::size_t i = 0; i < n; ++i) {
          const double expected = scalar.normal(mean, stddev);
          ASSERT_EQ(std::memcmp(&values[i], &expected, sizeof expected), 0)
              << dispatch << ", n " << n << ", offset " << offset << ", value " << i << ": "
              << values[i] << " vs " << expected;
        }
        EXPECT_EQ(bulk(), scalar()) << dispatch << ", n " << n << ", offset " << offset;
      }
  });
}

TEST(Rng, NormalsWithZeroStddevReturnTheMean) {
  Rng rng(5);
  std::vector<double> values(700);
  rng.normals(0.45, 0.0, values.data(), values.size());
  for (const double v : values) EXPECT_EQ(v, 0.45);
  rng.normals(0.0, 0.0, values.data(), values.size());
  for (const double v : values) EXPECT_FALSE(std::signbit(v) || v != 0.0);
}

TEST(Rng, DistributionStreamsMatchPinnedHashes) {
  // Hashes of the std-distribution Rng's Release build. uniform() and
  // normal() differed in unoptimized builds then; uniform_int,
  // bernoulli and shuffle run the std distributions on this engine.
  for_each_dispatch([](const char* dispatch) {
    Rng rng(2024);
    Fnv1a uniform, uniform_int, bernoulli, shuffle, normal;
    for (int i = 0; i < 10000; ++i) uniform.add(rng.uniform(-2.5 - i % 7, 3.0 + i % 5));
    for (int i = 0; i < 10000; ++i)
      uniform_int.add(static_cast<std::uint64_t>(
          static_cast<std::int64_t>(rng.uniform_int(-(i % 13), 1 << (i % 31)))));
    for (int i = 0; i < 10000; ++i) bernoulli.add(std::uint64_t{rng.bernoulli(0.001 * (i % 1000))});
    for (std::size_t n = 1; n < 200; ++n) {
      std::vector<std::size_t> indices(n);
      for (std::size_t k = 0; k < n; ++k) indices[k] = k;
      rng.shuffle(indices);
      for (const std::size_t k : indices) shuffle.add(std::uint64_t{k});
    }
    for (int i = 0; i < 10000; ++i) normal.add(rng.normal(0.1 * (i % 3), 0.5 + i % 4));
    EXPECT_EQ(uniform.value(), 0x4fcf7b0f188f61d6ull) << dispatch;
    EXPECT_EQ(uniform_int.value(), 0xcce06941ec10d21cull) << dispatch;
    EXPECT_EQ(bernoulli.value(), 0x6beb7d51fad2f084ull) << dispatch;
    EXPECT_EQ(shuffle.value(), 0x35586017681e4c05ull) << dispatch;
    EXPECT_EQ(normal.value(), 0xe9a2fae26c1f578bull) << dispatch;
  });
}

}  // namespace
}  // namespace dpv
