// Zonotope abstract domain.
//
// Affine forms c + sum_k g_k * e_k with noise symbols e_k in [-1, 1].
// Exact through affine layers (Dense, BatchNorm) — this is what makes the
// domain tighter than boxes, which lose all correlation between neurons —
// and over-approximated through ReLU with the standard single-neuron
// chord relaxation (one fresh noise symbol per unstable activation, as in
// DeepZ / AI2's zonotope transformer).
//
// Supported layer kinds are the ones occurring in verified tails (Dense,
// ReLU, BatchNorm, Flatten); convolutional front-ends are cut
// away by the paper's Lemma 1 before the domain is applied.
#pragma once

#include <cstddef>
#include <vector>

#include "absint/interval.hpp"
#include "nn/network.hpp"

namespace dpv::absint {

class Zonotope {
 public:
  /// Zonotope enclosing a box: one generator per non-degenerate dimension.
  static Zonotope from_box(const Box& box);

  std::size_t dimensions() const { return center_.size(); }
  std::size_t generator_count() const { return generators_.size(); }

  /// Interval concretization per dimension: c_i ± sum_k |g_k[i]|.
  Box to_box() const;

  const std::vector<double>& center() const { return center_; }
  const std::vector<std::vector<double>>& generators() const { return generators_; }

  /// y = W x + b (exact).
  Zonotope affine(const std::vector<std::vector<double>>& weight,
                  const std::vector<double>& bias) const;

  /// Per-dimension scale + shift (exact; BatchNorm inference form).
  Zonotope scale_shift(const std::vector<double>& scale, const std::vector<double>& shift) const;

  /// ReLU transformer (sound over-approximation; may add generators).
  ///
  /// `clamp`, when non-null, supplies externally proven pre-activation
  /// bounds (e.g. interval propagation run alongside): the transformer
  /// intersects them with its own concretization before choosing the
  /// chord slope, so tighter outside knowledge tightens lambda and the
  /// fresh-noise radius. Soundness requirement: `clamp` must enclose
  /// every *true* pre-activation value of the concrete executions
  /// being abstracted (it may well be tighter than the zonotope's own
  /// concretization — that is the point); the abstract result then
  /// still covers all concrete outputs, which is the invariant
  /// propagate_zonotope_trace maintains for its trace boxes.
  Zonotope relu(const Box* clamp = nullptr) const;

  /// Order reduction (Girard's method): when the zonotope carries more
  /// than `max_generators` noise symbols, the smallest ones (by L1 mass,
  /// ties broken by index for determinism) are collapsed into at most one
  /// axis-aligned generator per dimension. Sound over-approximation; the
  /// per-dimension concretization radius is preserved exactly — only
  /// cross-dimension correlation is lost. Budgets below `dimensions()`
  /// degrade gracefully toward a pure box. `max_generators == 0` means
  /// unlimited (returns *this unchanged).
  Zonotope reduce(std::size_t max_generators) const;

 private:
  Zonotope() = default;

  std::vector<double> center_;
  // generators_[k][i]: coefficient of noise symbol k in dimension i.
  std::vector<std::vector<double>> generators_;
};

/// Propagates a zonotope through layers [from_layer, to_layer) of `net`.
/// Throws ContractViolation for unsupported layer kinds. A nonzero
/// `max_generators` applies `Zonotope::reduce` after every layer so wide
/// tails cannot blow up quadratically in noise symbols (every unstable
/// ReLU adds one).
Zonotope propagate_zonotope_range(const nn::Network& net, Zonotope z, std::size_t from_layer,
                                  std::size_t to_layer, std::size_t max_generators = 0);

/// True when every layer in [from_layer, to_layer) is covered by the
/// zonotope transformers (dense / relu / batchnorm / flatten). Callers
/// use this to fall back to interval bounds where the domain does not
/// apply (e.g. pooling layers).
bool zonotope_supported(const nn::Network& net, std::size_t from_layer, std::size_t to_layer);

/// Concrete per-layer boxes for layers [from_layer, to_layer) starting
/// from `input_box`: result[k] is the concretization after layer
/// from_layer + k. The zonotope analogue of `symbolic_bounds_trace`,
/// used by the MILP encoder's kZonotope bound pre-pass.
std::vector<Box> propagate_zonotope_trace(const nn::Network& net, const Box& input_box,
                                          std::size_t from_layer, std::size_t to_layer,
                                          std::size_t max_generators = 0);

}  // namespace dpv::absint
