// Deterministic random number generation.
//
// All stochastic components of the library (weight initialization, data
// generation, render noise, training shuffles) draw from an explicitly
// seeded Rng so that experiments and tests are bit-reproducible across
// runs and across builds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace dpv {

/// Seeded MT19937-64 with its own state: the stream of std::mt19937_64,
/// which the standard fixes, so it is a UniformRandomBitGenerator the std
/// distributions draw from as they would from std::mt19937_64. `uniform`
/// and `normal` write their distributions' arithmetic out, so they return
/// the same bits in every build (see docs/ARCHITECTURE.md).
///
/// A value type: copying an Rng forks the stream (both copies continue
/// from the same state), which tests use to replay a sequence.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next 64-bit output.
  result_type operator()();

  /// Uniform double in [lo, hi): fma(u, hi - lo, lo) for u the next
  /// std::generate_canonical<double, 53>.
  double uniform(double lo, double hi);

  /// Normal draw scaled to `stddev` around `mean`: one value of a fresh
  /// std::normal_distribution (the polar method; see simd::polar_value).
  double normal(double mean, double stddev);

  /// Writes what n successive normal(mean, stddev) calls return, bit for
  /// bit, and leaves the engine where those calls would.
  void normals(double mean, double stddev, double* out, std::size_t n);

  /// Uniform integer in [lo, hi] inclusive.
  int uniform_int(int lo, int hi);

  /// Bernoulli draw with success probability `p`.
  bool bernoulli(double p);

  /// Fisher-Yates shuffle of `indices`.
  void shuffle(std::vector<std::size_t>& indices);

 private:
  static constexpr std::size_t kStateWords = 312;

  std::uint64_t state_[kStateWords];
  std::size_t next_ = kStateWords;  // state word the next output tempers
};

}  // namespace dpv
