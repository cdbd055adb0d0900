// Per-layer references for the soundness tests: the concrete activation
// after every layer of a network, and the interval box after every layer.
// Sampled executions must stay inside the boxes that any of the abstract
// domains produce, layer by layer.
#pragma once

#include <cstddef>
#include <vector>

#include "absint/box_domain.hpp"
#include "nn/network.hpp"

namespace dpv::reference {

/// Activations after every layer: result[k] = f^(k+1)(x), size L.
inline std::vector<Tensor> layer_outputs(const nn::Network& net, const Tensor& x) {
  std::vector<Tensor> outs;
  outs.reserve(net.layer_count());
  Tensor v = x;
  for (std::size_t i = 0; i < net.layer_count(); ++i) {
    v = net.layer(i).forward(v);
    outs.push_back(v);
  }
  return outs;
}

/// Boxes after every layer in [from_layer, to_layer): result[k] is the
/// interval propagation of `box` through layer from_layer + k.
inline std::vector<absint::Box> box_trace(const nn::Network& net, const absint::Box& box,
                                          std::size_t from_layer, std::size_t to_layer) {
  std::vector<absint::Box> trace;
  absint::Box current = box;
  for (std::size_t i = from_layer; i < to_layer; ++i) {
    current = absint::propagate_box(net.layer(i), current);
    trace.push_back(current);
  }
  return trace;
}

}  // namespace dpv::reference
