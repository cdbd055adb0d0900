// Generalized pairwise-difference runtime monitor.
//
// The paper records min/max of *adjacent* neuron differences (Sec. V).
// RelationMonitor generalizes the idea to an arbitrary set of neuron
// pairs: bounds on v[second] - v[first] for each tracked pair. Adjacent
// pairs recover the paper's monitor exactly; stride-k or all-pairs
// tracking buys a tighter S̃ polyhedron at linearly growing monitoring
// cost — the trade-off the E4 bench quantifies.
#pragma once

#include <cstddef>
#include <vector>

#include "absint/interval.hpp"
#include "monitor/box_monitor.hpp"
#include "tensor/tensor.hpp"

namespace dpv::monitor {

/// One tracked relation: bounds on activation[second] - activation[first].
struct NeuronPair {
  std::size_t first = 0;
  std::size_t second = 0;
};

class RelationMonitor {
 public:
  /// Pairs (i, i+1) — the paper's adjacent differences.
  static std::vector<NeuronPair> adjacent_pairs(std::size_t width);

  /// Pairs (i, i+stride) for every valid i.
  static std::vector<NeuronPair> stride_pairs(std::size_t width, std::size_t stride);

  /// Every ordered pair i < j (octagon-like; quadratic count).
  static std::vector<NeuronPair> all_pairs(std::size_t width);

  /// Records per-neuron and per-pair hulls over the activations, each
  /// enlarged by `margin_fraction` of its width.
  static RelationMonitor from_activations(const std::vector<Tensor>& activations,
                                          std::vector<NeuronPair> pairs,
                                          double margin_fraction = 0.0);

  RelationMonitor(BoxMonitor box, std::vector<NeuronPair> pairs,
                  std::vector<absint::Interval> pair_bounds);

  std::size_t dimensions() const { return box_.dimensions(); }
  const BoxMonitor& box_monitor() const { return box_; }
  const absint::Box& box() const { return box_.box(); }
  const std::vector<NeuronPair>& pairs() const { return pairs_; }
  const std::vector<absint::Interval>& pair_bounds() const { return pair_bounds_; }

  bool contains(const Tensor& activation) const;
  std::vector<std::string> violations(const Tensor& activation) const;

 private:
  BoxMonitor box_;
  std::vector<NeuronPair> pairs_;
  std::vector<absint::Interval> pair_bounds_;
};

}  // namespace dpv::monitor
