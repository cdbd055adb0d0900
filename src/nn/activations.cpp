#include "nn/activations.hpp"

#include <cmath>

#include "common/check.hpp"

namespace dpv::nn {

double ReLU::apply(double x) const { return x > 0.0 ? x : 0.0; }
double ReLU::derivative(double x, double /*y*/) const { return x > 0.0 ? 1.0 : 0.0; }
std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(input_shape()); }

LeakyReLU::LeakyReLU(Shape shape, double alpha)
    : ElementwiseActivation(std::move(shape)), alpha_(alpha) {
  check(alpha > 0.0 && alpha < 1.0, "LeakyReLU: alpha must be in (0, 1)");
}
double LeakyReLU::apply(double x) const { return x > 0.0 ? x : alpha_ * x; }
double LeakyReLU::derivative(double x, double /*y*/) const { return x > 0.0 ? 1.0 : alpha_; }
std::unique_ptr<Layer> LeakyReLU::clone() const {
  return std::make_unique<LeakyReLU>(input_shape(), alpha_);
}

double Sigmoid::apply(double x) const { return 1.0 / (1.0 + std::exp(-x)); }
double Sigmoid::derivative(double /*x*/, double y) const { return y * (1.0 - y); }
std::unique_ptr<Layer> Sigmoid::clone() const { return std::make_unique<Sigmoid>(input_shape()); }

double Tanh::apply(double x) const { return std::tanh(x); }
double Tanh::derivative(double /*x*/, double y) const { return 1.0 - y * y; }
std::unique_ptr<Layer> Tanh::clone() const { return std::make_unique<Tanh>(input_shape()); }

template <class F>
Tensor ElementwiseActivation<F>::forward(const Tensor& x) const {
  check(x.numel() == shape_.numel(), "activation: input size mismatch");
  Tensor y(x.shape());
  const double* in = x.data().data();
  double* out = y.data().data();
  for (std::size_t i = 0; i < y.numel(); ++i) out[i] = self().apply(in[i]);
  return y;
}

template <class F>
Tensor ElementwiseActivation<F>::backward_input(const Tensor& x, const Tensor& grad_out) const {
  check(x.numel() == shape_.numel(), "activation: input size mismatch");
  check(grad_out.numel() == x.numel(), "activation: gradient size mismatch");
  Tensor gx = grad_out;
  const double* in = x.data().data();
  double* g = gx.data().data();
  for (std::size_t i = 0; i < gx.numel(); ++i)
    g[i] *= self().derivative(in[i], self().apply(in[i]));
  return gx;
}

template <class F>
Tensor ElementwiseActivation<F>::forward_train(const Tensor& x, std::size_t slot) {
  Tensor y = forward(x);
  cached_inputs_[slot] = x;
  cached_outputs_[slot] = y;
  return y;
}

template <class F>
Tensor ElementwiseActivation<F>::backward_sample(const Tensor& grad_out, std::size_t slot) {
  const Tensor& x = cached_inputs_[slot];
  const Tensor& y = cached_outputs_[slot];
  Tensor gx = grad_out;
  for (std::size_t i = 0; i < gx.numel(); ++i) gx[i] *= self().derivative(x[i], y[i]);
  return gx;
}

template <class F>
void ElementwiseActivation<F>::prepare_cache(std::size_t batch_size) {
  cached_inputs_.resize(batch_size);
  cached_outputs_.resize(batch_size);
}

template class ElementwiseActivation<ReLU>;
template class ElementwiseActivation<LeakyReLU>;
template class ElementwiseActivation<Sigmoid>;
template class ElementwiseActivation<Tanh>;

}  // namespace dpv::nn
