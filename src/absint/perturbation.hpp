// Lipschitz-style perturbation widening for delta re-certification.
//
// Setting: a base network f was certified with per-layer boxes B_k
// (sound for f over an input box X), and a retrained variant f' with
// the same architecture must be re-certified over an input box X'.
// Instead of re-propagating bounds from scratch, this module computes
// per-neuron radii r_k such that the widened boxes B_k ⊕ [-r_k, +r_k]
// are sound for f' over X'.
//
// Soundness argument (the "widened bounds" reuse class): couple every
// x' ∈ X' with x = clamp(x', X) ∈ X, so |x - x'| ≤ e_0 componentwise,
// where e_0[j] = max(0, X'.hi_j - X.hi_j, X.lo_j - X'.lo_j) is the
// excess of the new input box over the old. Then maintain, layer by
// layer, r_k[i] ≥ |f'_k(x')_i - f_k(x)_i| via interval triangle
// inequalities:
//   Dense:      r_k[i] = Σ_j |W'_ij| r_{k-1}[j]
//                      + Σ_j |ΔW_ij| b̄_{k-1}[j] + |Δb_i|
//   BatchNorm:  r_k[i] = |s'_i| r_{k-1}[i] + |Δs_i| b̄_{k-1}[i] + |Δh_i|
//   ReLU:       1-Lipschitz, r_k = r_{k-1}
//   Flatten:    identity
// where b̄_{k-1}[j] = max(|lo|, |hi|) over the *base* box of the layer
// input (f_k(x) stays inside the base trace — x ∈ X by construction),
// W'/s' are the *updated* weights and Δ the elementwise deltas. Since
// f_k(x) ∈ B_k, f'_k(x')_i ∈ B_k[i] ⊕ [-r_k[i], +r_k[i]].
//
// Conv2D and pooling layers get no radii (`supported` is false): the
// encoder rejects them in a verified tail (Lemma 1), so delta planning,
// which widens only verified tails, never needs them.
//
// The widened boxes feed the MILP encoder's bound-trace override;
// big-M encodings stay *exact* under any valid (possibly loose)
// bounds, so verdicts are preserved, only node counts may move.
#pragma once

#include <cstddef>
#include <vector>

#include "absint/interval.hpp"
#include "nn/network.hpp"

namespace dpv::absint {

/// Per-layer perturbation radii over layers [from_layer, L).
struct PerturbationTrace {
  /// False when the architectures differ or a layer in range is a
  /// Conv2D or pooling layer (no radii computed).
  bool supported = false;
  /// radii[k][i] bounds |f'(x')_i - f(x)_i| after layer from_layer + k.
  std::vector<std::vector<double>> radii;
  /// Largest radius anywhere — the "how stale are these bounds" gauge
  /// delta planning compares against its widening budget.
  double max_radius = 0.0;
};

/// Computes widening radii for `updated` against `base` over layers
/// [from_layer, L). `base_trace[k]` must be a sound box for the base
/// network after layer from_layer + k over `base_input` (the realized
/// boxes exported by the encoder qualify). `new_input` is the input box
/// the updated network will be verified over.
PerturbationTrace perturbation_radii(const nn::Network& base, const nn::Network& updated,
                                     const std::vector<Box>& base_trace,
                                     const Box& base_input, const Box& new_input,
                                     std::size_t from_layer);

/// box ⊕ [-radii, +radii], componentwise.
Box widen_box(const Box& box, const std::vector<double>& radii);

}  // namespace dpv::absint
