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

  // Move-only: layers and buffers hold training state that must not be shared.
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

  /// Gradient of grad_out · f_[from,to)(x) with respect to `x`, where
  /// f_[from,to) runs layers from..to-1 on a layer-`from` activation.
  /// Stateless (forward + backward_input chain), so it is safe to call
  /// concurrently on a shared const network — the property the staged
  /// falsifier relies on to attack in parallel without cloning.
  Tensor input_gradient(const Tensor& x, const Tensor& grad_out, std::size_t from_layer,
                        std::size_t to_layer) const;

  /// Whole-network convenience overload: d(grad_out · f(x)) / dx.
  Tensor input_gradient(const Tensor& x, const Tensor& grad_out) const;

  /// Training. The network owns one contiguous [batch × width] buffer per
  /// layer boundary and two gradient buffers; they grow to the largest
  /// batch seen and are reused after that, so steady-state training
  /// allocates nothing.
  ///
  /// Input rows for a training batch of `rows` samples: the caller writes
  /// sample s into row s, then calls `forward_batch`.
  Batch& batch_input(std::size_t rows);

  /// Training-mode forward of the `batch_input` rows through every layer
  /// (BatchNorm on batch statistics). Returns the output rows, valid until
  /// the next training call.
  const Batch& forward_batch();

  /// Backward through the last `forward_batch` from dL/dy rows: every layer
  /// accumulates its parameter gradients (callers zero them per step).
  /// Writes dL/dx into `grad_in` when given; without it the first layer
  /// skips its input gradient.
  void backward_batch(const Batch& grad_out, Batch* grad_in = nullptr);

  /// All learnable parameters across layers.
  std::vector<ParamRef> params();

  /// Deep copy of structure and weights, with zeroed gradients (training
  /// buffers are not copied).
  Network clone() const;

 private:
  /// Runs layers from..to-1 on `v` (returns `v` when the range is empty).
  Tensor forward_range(const Tensor& v, std::size_t from, std::size_t to) const;

  std::vector<std::unique_ptr<Layer>> layers_;
  // Training buffers: activations_[i] is layer i's input, activations_[L]
  // the output; grads_ alternate between layers on the way back.
  std::vector<Batch> activations_;
  Batch grads_[2];
};

}  // namespace dpv::nn
