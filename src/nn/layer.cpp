#include "nn/layer.hpp"

#include "common/check.hpp"

namespace dpv::nn {

std::string layer_kind_name(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return "dense";
    case LayerKind::kReLU:
      return "relu";
    case LayerKind::kBatchNorm:
      return "batchnorm";
    case LayerKind::kConv2D:
      return "conv2d";
    case LayerKind::kMaxPool2D:
      return "maxpool2d";
    case LayerKind::kAvgPool2D:
      return "avgpool2d";
    case LayerKind::kFlatten:
      return "flatten";
  }
  throw InternalError("layer_kind_name: unknown kind");
}

Tensor Layer::forward(const Tensor& x) const {
  if (x.numel() != input_size_)
    throw ContractViolation(layer_kind_name(kind()) + "::forward: input size mismatch");
  Tensor y(output_shape());
  forward_row(x.data().data(), y.data().data());
  return y;
}

Tensor Layer::backward_input(const Tensor& x, const Tensor& grad_out) const {
  if (x.numel() != input_size_ || grad_out.numel() != output_size_)
    throw ContractViolation(layer_kind_name(kind()) + "::backward_input: size mismatch");
  Tensor gx(input_shape());
  input_grad_row(x.data().data(), grad_out.data().data(), gx.data().data());
  return gx;
}

void Layer::forward_batch(const Batch& x, Batch& y) {
  check(x.width() == input_size_, "Layer::forward_batch: input width mismatch");
  check(x.rows() > 0, "Layer::forward_batch: empty batch");
  check(&x != &y, "Layer::forward_batch: input and output alias");
  batch_rows_ = 0;
  y.resize(x.rows(), output_size_);
  forward_rows(x, y);
  batch_rows_ = x.rows();
}

void Layer::backward_batch(const Batch& x, const Batch& grad_out, Batch* grad_in) {
  check(batch_rows_ > 0, "Layer::backward_batch: no training forward to differentiate");
  check(x.width() == input_size_, "Layer::backward_batch: input width mismatch");
  check(grad_out.width() == output_size_, "Layer::backward_batch: gradient width mismatch");
  check(x.rows() == batch_rows_ && grad_out.rows() == batch_rows_,
        "Layer::backward_batch: batch count differs from the training forward");
  check(grad_in != &x && grad_in != &grad_out, "Layer::backward_batch: gradient buffers alias");
  if (grad_in != nullptr) grad_in->resize(batch_rows_, input_size_);
  backward_rows(x, grad_out, grad_in);
}

void Layer::forward_rows(const Batch& x, Batch& y) {
  for (std::size_t s = 0; s < x.rows(); ++s) forward_row(x.row(s), y.row(s));
}

void Layer::backward_rows(const Batch& x, const Batch& grad_out, Batch* grad_in) {
  for (std::size_t s = 0; s < x.rows(); ++s) {
    accumulate_param_grads(x.row(s), grad_out.row(s));
    if (grad_in != nullptr) input_grad_row(x.row(s), grad_out.row(s), grad_in->row(s));
  }
}

}  // namespace dpv::nn
