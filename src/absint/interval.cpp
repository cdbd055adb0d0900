#include "absint/interval.hpp"

#include <algorithm>
#include <sstream>

#include "common/check.hpp"

namespace dpv::absint {

Interval::Interval(double lo_in, double hi_in) : lo(lo_in), hi(hi_in) {
  // Hot path (interval propagation): diagnostic built only on failure.
  if (lo > hi)
    throw ContractViolation("Interval: lo " + std::to_string(lo) + " > hi " +
                            std::to_string(hi));
}

Interval Interval::hull(const Interval& other) const {
  return Interval(std::min(lo, other.lo), std::max(hi, other.hi));
}

std::string Interval::to_string() const {
  std::ostringstream out;
  out << "[" << lo << ", " << hi << "]";
  return out.str();
}

Interval operator+(const Interval& a, const Interval& b) {
  return Interval(a.lo + b.lo, a.hi + b.hi);
}

Interval scale(const Interval& a, double factor) {
  if (factor >= 0.0) return Interval(a.lo * factor, a.hi * factor);
  return Interval(a.hi * factor, a.lo * factor);
}

Interval shift(const Interval& a, double offset) {
  return Interval(a.lo + offset, a.hi + offset);
}

Interval relu(const Interval& a) {
  return Interval(std::max(a.lo, 0.0), std::max(a.hi, 0.0));
}

double box_total_width(const Box& box) {
  double total = 0.0;
  for (const Interval& iv : box) total += iv.width();
  return total;
}

}  // namespace dpv::absint
