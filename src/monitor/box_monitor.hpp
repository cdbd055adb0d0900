// Per-neuron min/max runtime monitor.
//
// Implements the paper's basic S̃: the interval hull of all layer-l
// activations seen in the training data (Fig. 1). At runtime,
// `contains` discharges the assume-guarantee assumption f^(l)(in) ∈ S̃;
// a violation means the system may have left the ODD and the conditional
// safety proof does not apply to the current frame.
#pragma once

#include <vector>

#include "absint/interval.hpp"
#include "tensor/tensor.hpp"

namespace dpv::monitor {

class BoxMonitor {
 public:
  /// Builds the interval hull of `activations` and symmetrically enlarges
  /// every interval by `margin_fraction` of its width (a small margin
  /// absorbs benign numeric drift between recording and deployment).
  static BoxMonitor from_activations(const std::vector<Tensor>& activations,
                                     double margin_fraction = 0.0);

  /// Monitor over an explicit box.
  explicit BoxMonitor(absint::Box box);

  std::size_t dimensions() const { return box_.size(); }
  const absint::Box& box() const { return box_; }

  /// True when the activation satisfies every recorded bound.
  bool contains(const Tensor& activation) const;

  /// Indices of neurons whose value falls outside the recorded interval.
  std::vector<std::size_t> violations(const Tensor& activation) const;

 private:
  absint::Box box_;
};

}  // namespace dpv::monitor
