// Elementwise activation layers: ReLU, Sigmoid, Tanh.
//
// ReLU is the activation the paper's verified sub-network uses (Sec. V:
// "close-to-output layers ... are either ReLU or Batch Normalization");
// Sigmoid/Tanh round out the training substrate.
#pragma once

#include <memory>

#include "nn/layer.hpp"

namespace dpv::nn {

/// Shared machinery for shape-preserving elementwise activations. `F` is
/// the concrete activation; its non-virtual `apply(x)` and
/// `derivative(x, y)` (pre-activation `x`, activation `y`) are inlined into
/// the tensor loops, so a pass makes no virtual call per element.
template <class F>
class ElementwiseActivation : public Layer {
 public:
  explicit ElementwiseActivation(Shape shape)
      : Layer(shape.numel(), shape.numel()), shape_(std::move(shape)) {}

  Shape input_shape() const override { return shape_; }
  Shape output_shape() const override { return shape_; }

 protected:
  void forward_row(const double* x, double* y) const final;
  void input_grad_row(const double* x, const double* g, double* gx) const final;

 private:
  const F& self() const { return static_cast<const F&>(*this); }

  Shape shape_;
};

/// max(x, 0). Piecewise-linear, exactly encodable in MILP.
class ReLU : public ElementwiseActivation<ReLU> {
 public:
  explicit ReLU(Shape shape) : ElementwiseActivation(std::move(shape)) {}
  LayerKind kind() const override { return LayerKind::kReLU; }
  std::unique_ptr<Layer> clone() const override;

  double apply(double x) const;
  double derivative(double x, double y) const;
};

/// max(x, alpha*x) with 0 < alpha < 1. Piecewise-linear and convex, so it
/// remains exactly MILP-encodable and admits tight symbolic bounds.
class LeakyReLU : public ElementwiseActivation<LeakyReLU> {
 public:
  LeakyReLU(Shape shape, double alpha = 0.01);
  LayerKind kind() const override { return LayerKind::kLeakyReLU; }
  std::unique_ptr<Layer> clone() const override;

  double alpha() const { return alpha_; }

  double apply(double x) const;
  double derivative(double x, double y) const;

 private:
  double alpha_;
};

/// 1 / (1 + exp(-x)).
class Sigmoid : public ElementwiseActivation<Sigmoid> {
 public:
  explicit Sigmoid(Shape shape) : ElementwiseActivation(std::move(shape)) {}
  LayerKind kind() const override { return LayerKind::kSigmoid; }
  std::unique_ptr<Layer> clone() const override;

  double apply(double x) const;
  double derivative(double x, double y) const;
};

/// Hyperbolic tangent.
class Tanh : public ElementwiseActivation<Tanh> {
 public:
  explicit Tanh(Shape shape) : ElementwiseActivation(std::move(shape)) {}
  LayerKind kind() const override { return LayerKind::kTanh; }
  std::unique_ptr<Layer> clone() const override;

  double apply(double x) const;
  double derivative(double x, double y) const;
};

// Instantiated once, in activations.cpp.
extern template class ElementwiseActivation<ReLU>;
extern template class ElementwiseActivation<LeakyReLU>;
extern template class ElementwiseActivation<Sigmoid>;
extern template class ElementwiseActivation<Tanh>;

}  // namespace dpv::nn
