// Box + adjacent-difference runtime monitor.
//
// Section V of the paper reports that per-neuron min/max alone "can lead
// to huge over-approximation" and additionally records the minimum and
// maximum *difference between two adjacent neurons* (n_{i+1} - n_i).
// DiffMonitor implements exactly that polyhedral strengthening: the
// monitored set is
//   { v : lo_i <= v_i <= hi_i  and  dlo_i <= v_{i+1} - v_i <= dhi_i }.
// The verifier imports both families of constraints as the S̃ polyhedron.
#pragma once

#include <vector>

#include "absint/interval.hpp"
#include "monitor/box_monitor.hpp"
#include "tensor/tensor.hpp"

namespace dpv::monitor {

class DiffMonitor {
 public:
  /// Records per-neuron and adjacent-difference hulls over `activations`,
  /// each enlarged by `margin_fraction` of its width.
  static DiffMonitor from_activations(const std::vector<Tensor>& activations,
                                      double margin_fraction = 0.0);

  DiffMonitor(BoxMonitor box, std::vector<absint::Interval> diff_bounds);

  std::size_t dimensions() const { return box_.dimensions(); }
  const BoxMonitor& box_monitor() const { return box_; }
  const absint::Box& box() const { return box_.box(); }

  /// Bounds on v[i+1] - v[i]; size dimensions() - 1.
  const std::vector<absint::Interval>& diff_bounds() const { return diff_bounds_; }

  bool contains(const Tensor& activation) const;

  /// Descriptions of violated constraints ("n3 out of range",
  /// "n5 - n4 out of range"), empty when contained.
  std::vector<std::string> violations(const Tensor& activation) const;

 private:
  BoxMonitor box_;
  std::vector<absint::Interval> diff_bounds_;
};

}  // namespace dpv::monitor
