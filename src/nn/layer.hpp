// Layer interface for the feed-forward network substrate.
//
// Layers support three usage modes:
//   * inference      — `forward` and `backward_input` (const, no state),
//   * training       — `forward_batch` / `backward_batch` over contiguous
//                      [batch × width] rows (`Batch`) that the network owns
//                      and reuses; the backward accumulates parameter
//                      gradients and keeps no per-sample state of its own,
//   * verification   — `kind()` plus layer-specific accessors let the
//                      MILP encoder and abstract interpreter walk the
//                      network structurally (Dense / ReLU / BatchNorm are
//                      the close-to-output kinds the paper verifies).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv::nn {

/// Structural discriminator used by the verifier and serializer. The
/// values are hashed into `verify::tail_fingerprint`, which delta bundles
/// and checkpoints persist, so they never change; 2, 3 and 4 belonged to
/// removed kinds and stay unused.
enum class LayerKind {
  kDense = 0,
  kReLU = 1,
  kBatchNorm = 5,
  kConv2D = 6,
  kMaxPool2D = 7,
  kAvgPool2D = 8,
  kFlatten = 9,
};

/// Name used in the serialization format and error messages.
std::string layer_kind_name(LayerKind kind);

/// Mutable view of one learnable parameter tensor and its gradient.
struct ParamRef {
  std::string name;
  Tensor* value = nullptr;
  Tensor* grad = nullptr;
};

/// Contiguous row-major [rows × width] block: row s holds sample s. The
/// training path passes activations and gradients between layers in
/// these. `resize` keeps the storage, so a buffer that once held the
/// largest batch never allocates again (the short tail batch included).
class Batch {
 public:
  Batch() = default;
  Batch(std::size_t rows, std::size_t width) { resize(rows, width); }

  void resize(std::size_t rows, std::size_t width) {
    rows_ = rows;
    width_ = width;
    values_.resize(rows * width);
  }

  std::size_t rows() const { return rows_; }
  std::size_t width() const { return width_; }

  double* row(std::size_t s) { return values_.data() + s * width_; }
  const double* row(std::size_t s) const { return values_.data() + s * width_; }

 private:
  std::vector<double> values_;
  std::size_t rows_ = 0;
  std::size_t width_ = 0;
};

/// Abstract feed-forward layer.
class Layer {
 public:
  virtual ~Layer() = default;

  virtual LayerKind kind() const = 0;
  virtual Shape input_shape() const = 0;
  virtual Shape output_shape() const = 0;

  /// Values per sample in and out: input_shape().numel(), output_shape().numel().
  std::size_t input_size() const { return input_size_; }
  std::size_t output_size() const { return output_size_; }

  /// Pure inference on one sample; never touches training state. Returns
  /// a tensor of output_shape().
  Tensor forward(const Tensor& x) const;

  /// Stateless vector-Jacobian product: gradient of a scalar objective
  /// w.r.t. the layer input, given the input `x` and the objective's
  /// gradient w.r.t. the layer output at `x`, as a tensor of
  /// input_shape(). Never touches training state and never accumulates
  /// parameter gradients, so concurrent attack workers can share one
  /// const network.
  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const;

  /// Training forward: row s of `y` (resized to x's rows) receives the
  /// output for row s of `x`. BatchNorm normalizes with the batch
  /// statistics and updates its running estimates; every other layer
  /// computes exactly `forward`. Checks the width once, before any read.
  void forward_batch(const Batch& x, Batch& y);

  /// Training backward for the last `forward_batch`: `x` is that call's
  /// input and `grad_out` holds dL/dy per row. Accumulates parameter
  /// gradients (callers zero them per step) and, when `grad_in` is not
  /// null, writes dL/dx into it. Throws ContractViolation before any read
  /// when a width or the batch count differs from that forward, or when
  /// there was none.
  void backward_batch(const Batch& x, const Batch& grad_out, Batch* grad_in);

  /// Learnable parameters (empty for stateless layers).
  virtual std::vector<ParamRef> params() { return {}; }

  /// Deep copy of structure and parameters, with zeroed gradients (used
  /// when attaching characterizers to a trained network).
  virtual std::unique_ptr<Layer> clone() const = 0;

 protected:
  Layer(std::size_t input_size, std::size_t output_size)
      : input_size_(input_size), output_size_(output_size) {}

  /// Row kernels behind every entry point above: one sample's output, and
  /// its input gradient from the input and dL/dy (`gx` written in full).
  /// Sizes are checked by the callers.
  virtual void forward_row(const double* x, double* y) const = 0;
  virtual void input_grad_row(const double* x, const double* g, double* gx) const = 0;

  /// Adds one sample's parameter gradients; parametric layers override.
  virtual void accumulate_param_grads(const double* /*x*/, const double* /*g*/) {}

  /// Batch kernels behind `forward_batch` / `backward_batch`, with widths
  /// and row counts checked and `y` / `grad_in` sized. The defaults walk
  /// the rows in sample order through the row kernels; BatchNorm, whose
  /// training couples the samples, overrides both.
  virtual void forward_rows(const Batch& x, Batch& y);
  virtual void backward_rows(const Batch& x, const Batch& grad_out, Batch* grad_in);

 private:
  std::size_t input_size_;
  std::size_t output_size_;
  std::size_t batch_rows_ = 0;  // rows of the last forward_batch; 0 = none
};

}  // namespace dpv::nn
