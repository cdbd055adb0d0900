#include "common/rng.hpp"

#include <algorithm>
#include <cmath>
#include <random>

#include "common/simd.hpp"

namespace dpv {

Rng::Rng(std::uint64_t seed) {
  static_assert(kStateWords == simd::kMt64Words);
  // std::mt19937_64's seeding, with the standard's multiplier f.
  state_[0] = seed;
  for (std::size_t i = 1; i < kStateWords; ++i)
    state_[i] = 6364136223846793005ull * (state_[i - 1] ^ (state_[i - 1] >> 62)) + i;
}

Rng::result_type Rng::operator()() {
  if (next_ == kStateWords) {
    simd::mt64_twist(state_);
    next_ = 0;
  }
  return simd::mt64_temper(state_[next_++]);
}

double Rng::uniform(double lo, double hi) {
  return std::fma(simd::unit_interval((*this)()), hi - lo, lo);
}

double Rng::normal(double mean, double stddev) {
  double y, r2;
  for (;;) {
    const result_type wx = (*this)();
    if (simd::polar_pair(wx, (*this)(), y, r2)) return simd::polar_value(y, r2, mean, stddev);
  }
}

void Rng::normals(double mean, double stddev, double* out, std::size_t n) {
  std::size_t made = 0;
  while (made < n) {
    if (next_ == kStateWords) {
      simd::mt64_twist(state_);
      next_ = 0;
    }
    if (next_ == kStateWords - 1) {  // this pair's second word comes after a twist
      out[made++] = normal(mean, stddev);
      continue;
    }
    std::size_t used = 0;
    made += simd::polar_normals(state_ + next_, (kStateWords - next_) / 2, mean, stddev,
                                out + made, n - made, used);
    next_ += 2 * used;
  }
}

int Rng::uniform_int(int lo, int hi) {
  std::uniform_int_distribution<int> dist(lo, hi);
  return dist(*this);
}

bool Rng::bernoulli(double p) {
  std::bernoulli_distribution dist(p);
  return dist(*this);
}

void Rng::shuffle(std::vector<std::size_t>& indices) {
  std::shuffle(indices.begin(), indices.end(), *this);
}

}  // namespace dpv
