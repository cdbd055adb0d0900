// Sequential feed-forward network.
//
// Mirrors the paper's notation: the network is a composition of layer
// functions g^(1)..g^(L), and f^(l) denotes the composition of the first
// l layers. `forward_prefix(x, l)` computes f^(l)(x) and
// `forward_suffix(v, l)` computes g^(L)(...g^(l+1)(v)), i.e. the "tail"
// the safety verifier analyzes after cutting at layer l (Lemma 1).
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "nn/layer.hpp"

namespace dpv::nn {

class Network {
 public:
  Network() = default;

  // Move-only: layers own training state that must not be shared.
  Network(Network&&) = default;
  Network& operator=(Network&&) = default;
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Appends a layer; its input size must match the current output size.
  void add(std::unique_ptr<Layer> layer);

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i);
  const Layer& layer(std::size_t i) const;

  Shape input_shape() const;
  Shape output_shape() const;

  /// Inference through all L layers: f^(L)(x).
  Tensor forward(const Tensor& x) const;

  /// f^(l)(x): output after the first `l` layers (l = 0 returns x).
  Tensor forward_prefix(const Tensor& x, std::size_t l) const;

  /// g^(L)(...g^(l+1)(v)): runs layers l..L-1 on a layer-l activation.
  Tensor forward_suffix(const Tensor& v, std::size_t l) const;

  /// Activations after every layer: result[k] = f^(k+1)(x), size L.
  std::vector<Tensor> all_layer_outputs(const Tensor& x) const;

  /// Gradient of grad_out · f_[from,to)(x) with respect to `x`, where
  /// f_[from,to) runs layers from..to-1 on a layer-`from` activation.
  /// Stateless (forward + backward_input chain), so it is safe to call
  /// concurrently on a shared const network — the property the staged
  /// falsifier relies on to attack in parallel without cloning.
  Tensor input_gradient(const Tensor& x, const Tensor& grad_out, std::size_t from_layer,
                        std::size_t to_layer) const;

  /// Whole-network convenience overload: d(grad_out · f(x)) / dx.
  Tensor input_gradient(const Tensor& x, const Tensor& grad_out) const;

  /// Training-mode forward through all layers; caches for backward.
  std::vector<Tensor> forward_batch(const std::vector<Tensor>& xs, bool training);

  /// Backward from per-sample output gradients; accumulates parameter
  /// gradients and returns gradients w.r.t. the network inputs (used by
  /// the adversarial-example search).
  std::vector<Tensor> backward_batch(const std::vector<Tensor>& grad_out);

  /// All learnable parameters across layers.
  std::vector<ParamRef> params();

  void zero_grad();

  /// Deep copy of structure and weights (training caches are not copied).
  Network clone() const;

  /// Deep copy of the first `l` layers (the f^(l) feature extractor).
  Network clone_prefix(std::size_t l) const;

  /// Deep copy of layers l..L-1 (the verified tail of Lemma 1).
  Network clone_suffix(std::size_t l) const;

 private:
  /// Runs layers from..to-1 on `v` (returns `v` when the range is empty).
  Tensor forward_range(const Tensor& v, std::size_t from, std::size_t to) const;

  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace dpv::nn
