#include "nn/network.hpp"

#include "common/check.hpp"

namespace dpv::nn {

void Network::add(std::unique_ptr<Layer> layer) {
  check(layer != nullptr, "Network::add: null layer");
  if (!layers_.empty()) {
    const std::size_t produced = layers_.back()->output_size();
    const std::size_t consumed = layer->input_size();
    check(produced == consumed,
          "Network::add: layer expects " + std::to_string(consumed) + " values but previous " +
              "layer produces " + std::to_string(produced));
  }
  layers_.push_back(std::move(layer));
}

Layer& Network::layer(std::size_t i) {
  check(i < layers_.size(), "Network::layer: index out of range");
  return *layers_[i];
}

const Layer& Network::layer(std::size_t i) const {
  check(i < layers_.size(), "Network::layer: index out of range");
  return *layers_[i];
}

Shape Network::input_shape() const {
  check(!layers_.empty(), "Network::input_shape: empty network");
  return layers_.front()->input_shape();
}

Shape Network::output_shape() const {
  check(!layers_.empty(), "Network::output_shape: empty network");
  return layers_.back()->output_shape();
}

Tensor Network::forward(const Tensor& x) const { return forward_prefix(x, layers_.size()); }

Tensor Network::forward_prefix(const Tensor& x, std::size_t l) const {
  check(l <= layers_.size(), "Network::forward_prefix: layer index out of range");
  return forward_range(x, 0, l);
}

Tensor Network::forward_suffix(const Tensor& v, std::size_t l) const {
  check(l <= layers_.size(), "Network::forward_suffix: layer index out of range");
  return forward_range(v, l, layers_.size());
}

Tensor Network::forward_range(const Tensor& x, std::size_t from, std::size_t to) const {
  if (from == to) return x;
  Tensor v = layers_[from]->forward(x);
  for (std::size_t i = from + 1; i < to; ++i) v = layers_[i]->forward(v);
  return v;
}

Tensor Network::input_gradient(const Tensor& x, const Tensor& grad_out, std::size_t from_layer,
                               std::size_t to_layer) const {
  check(from_layer <= to_layer && to_layer <= layers_.size(),
        "Network::input_gradient: layer range out of bounds");
  // outputs[k] is layer (from_layer + k)'s output, so layer i reads x or
  // outputs[i - from_layer - 1]; no input is copied.
  std::vector<Tensor> outputs;
  outputs.reserve(to_layer - from_layer);
  for (std::size_t i = from_layer; i < to_layer; ++i)
    outputs.push_back(layers_[i]->forward(outputs.empty() ? x : outputs.back()));
  Tensor g = grad_out;
  for (std::size_t i = to_layer; i-- > from_layer;)
    g = layers_[i]->backward_input(i == from_layer ? x : outputs[i - from_layer - 1], g);
  return g;
}

Tensor Network::input_gradient(const Tensor& x, const Tensor& grad_out) const {
  return input_gradient(x, grad_out, 0, layers_.size());
}

Batch& Network::batch_input(std::size_t rows) {
  check(!layers_.empty(), "Network::batch_input: empty network");
  activations_.resize(layers_.size() + 1);
  activations_[0].resize(rows, layers_.front()->input_size());
  return activations_[0];
}

const Batch& Network::forward_batch() {
  check(activations_.size() == layers_.size() + 1, "Network::forward_batch: no batch input");
  for (std::size_t i = 0; i < layers_.size(); ++i)
    layers_[i]->forward_batch(activations_[i], activations_[i + 1]);
  return activations_.back();
}

void Network::backward_batch(const Batch& grad_out, Batch* grad_in) {
  check(activations_.size() == layers_.size() + 1, "Network::backward_batch: no training forward");
  const Batch* g = &grad_out;
  for (std::size_t i = layers_.size(); i-- > 0;) {
    Batch* gx = i > 0 ? &grads_[i % 2] : grad_in;
    layers_[i]->backward_batch(activations_[i], *g, gx);
    g = gx;
  }
}

std::vector<ParamRef> Network::params() {
  std::vector<ParamRef> all;
  for (auto& layer : layers_)
    for (ParamRef& p : layer->params()) all.push_back(p);
  return all;
}

Network Network::clone() const {
  Network copy;
  for (const auto& layer : layers_) copy.add(layer->clone());
  return copy;
}

}  // namespace dpv::nn
