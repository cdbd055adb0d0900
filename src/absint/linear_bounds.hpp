// Symbolic linear-bounds domain (DeepPoly-style).
//
// Every neuron of the current layer carries a pair of linear forms in the
// *layer-l input variables* x:
//     lower_i(x) <= n_i <= upper_i(x)      for all x in the input box,
// composed through affine layers exactly and through unstable ReLUs with
// the standard triangle bounds (upper: the convex envelope chord; lower:
// the 0/identity choice with the smaller area). Concretization evaluates
// each form over the box and intersects with plain interval propagation,
// so the resulting bounds are never looser than the box domain — they
// retain the inter-neuron correlations boxes throw away.
//
// This is the reproduction's stand-in for the symbolic-propagation
// analyzers the paper cites ([19], [21]) and serves as the strongest
// bound pre-pass of the MILP encoder (verify::BoundMethod::kSymbolic).
#pragma once

#include <cstddef>
#include <vector>

#include "absint/interval.hpp"
#include "nn/network.hpp"

namespace dpv::absint {

/// One linear form coeffs·x + constant over the layer-l inputs.
struct LinearForm {
  std::vector<double> coeffs;
  double constant = 0.0;

  /// Minimum of the form over the box.
  double min_over(const Box& box) const;
  /// Maximum of the form over the box.
  double max_over(const Box& box) const;
};

/// Symbolic state: per-neuron lower/upper forms plus concrete bounds.
class LinearBounds {
 public:
  /// Identity forms over the input box (n_i = x_i).
  static LinearBounds from_box(const Box& box);

  std::size_t dimensions() const { return lower_.size(); }
  const Box& concrete() const { return concrete_; }
  const LinearForm& lower_form(std::size_t i) const { return lower_[i]; }
  const LinearForm& upper_form(std::size_t i) const { return upper_[i]; }

  /// y = W x + b (exact composition of forms).
  LinearBounds affine(const std::vector<std::vector<double>>& weight,
                      const std::vector<double>& bias) const;

  /// Per-dimension scale + shift (BatchNorm inference form).
  LinearBounds scale_shift(const std::vector<double>& scale,
                           const std::vector<double>& shift) const;

  /// ReLU transformer (DeepPoly triangle bounds).
  LinearBounds relu() const;

  /// Intersects the concrete bounds with an externally-known sound box
  /// (e.g. interval propagation); sharpens later ReLU phase decisions.
  void clamp_concrete(const Box& box);

 private:
  LinearBounds() = default;
  void refresh_concrete();

  Box input_box_;
  std::vector<LinearForm> lower_;
  std::vector<LinearForm> upper_;
  Box concrete_;
};

/// Concrete per-layer bounds for layers [from_layer, to_layer) of `net`
/// starting from `input_box` at layer from_layer. result[k] is the box
/// after layer from_layer + k, guaranteed at least as tight as interval
/// propagation. Supports dense / relu / batchnorm / flatten tails.
std::vector<Box> symbolic_bounds_trace(const nn::Network& net, const Box& input_box,
                                       std::size_t from_layer, std::size_t to_layer);

}  // namespace dpv::absint
