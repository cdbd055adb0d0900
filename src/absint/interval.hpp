// Interval arithmetic.
//
// The box abstract domain of Lemma 2: a sound but possibly coarse
// over-approximation S of the reachable neuron values, computed
// layer-wise. The paper contrasts this static S against the
// data-derived S̃ of the assume-guarantee approach.
#pragma once

#include <string>
#include <vector>

namespace dpv::absint {

/// Closed interval [lo, hi].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;

  Interval() = default;
  Interval(double lo_in, double hi_in);

  double width() const { return hi - lo; }
  double midpoint() const { return 0.5 * (lo + hi); }
  bool contains(double v) const { return lo <= v && v <= hi; }
  bool intersects(const Interval& other) const { return lo <= other.hi && other.lo <= hi; }

  /// Smallest interval containing both.
  Interval hull(const Interval& other) const;

  std::string to_string() const;
};

Interval operator+(const Interval& a, const Interval& b);

/// Scale by a scalar (handles negative factors).
Interval scale(const Interval& a, double factor);

/// Shift by a scalar.
Interval shift(const Interval& a, double offset);

/// relu([lo, hi]) = [max(lo,0), max(hi,0)].
Interval relu(const Interval& a);

/// A box: one interval per dimension.
using Box = std::vector<Interval>;

/// Sum of interval widths — the tightness measure used by the
/// abstraction-comparison experiment (E4).
double box_total_width(const Box& box);

}  // namespace dpv::absint
