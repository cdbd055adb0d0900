// Box (interval) propagation through network layers.
//
// Sound over-approximation: for any input x with x_i in in_box[i], every
// intermediate activation lies in the propagated box. Supports every
// layer kind in the library, so the same engine serves both the
// "verify from the raw input box" baseline (which the paper's footnote 1
// dismisses as hopeless) and the big-M bound pre-pass over the verified
// tail.
#pragma once

#include "absint/interval.hpp"
#include "nn/network.hpp"

namespace dpv::absint {

/// Propagates a box through one layer.
Box propagate_box(const nn::Layer& layer, const Box& in);

/// Propagates through layers [from_layer, to_layer) of `net`.
Box propagate_box_range(const nn::Network& net, Box box, std::size_t from_layer,
                        std::size_t to_layer);

/// Uniform box [lo, hi]^n.
Box uniform_box(std::size_t dimensions, double lo, double hi);

}  // namespace dpv::absint
