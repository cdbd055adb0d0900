// Counterexample concretization.
//
// Section V of the paper suggests that when a property cannot be proven,
// "it should be possible to construct a counter example either by
// capturing more data or by using adversarial perturbation techniques".
// `concretize_activation` does the latter: it searches the *input* space
// for an image whose layer-l features approach a counterexample
// activation n̂_l reported by the MILP verifier.
//
// The search is const on the network: gradients flow through the
// stateless `Network::input_gradient` VJP path, never the training
// caches, so campaign workers can search one shared network from many
// threads without cloning it.
#pragma once

#include <cstddef>

#include "nn/network.hpp"

namespace dpv::train {

struct ConcretizationResult {
  Tensor input;            ///< best input found
  double distance = 0.0;   ///< final ||f^(l)(input) - target_activation||_inf
  std::size_t iterations = 0;
};

/// Searches for an input whose layer-`l` activation approaches
/// `target_activation`, starting from `seed` (projected gradient descent
/// on the squared feature distance, pixels clamped to [lo, hi]).
ConcretizationResult concretize_activation(const nn::Network& net, std::size_t l,
                                           const Tensor& target_activation, const Tensor& seed,
                                           std::size_t max_iterations = 200,
                                           double step_size = 0.05, double clamp_lo = 0.0,
                                           double clamp_hi = 1.0);

}  // namespace dpv::train
