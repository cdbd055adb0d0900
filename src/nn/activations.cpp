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
void ElementwiseActivation<F>::forward_row(const double* x, double* y) const {
  for (std::size_t i = 0; i < input_size(); ++i) y[i] = self().apply(x[i]);
}

template <class F>
void ElementwiseActivation<F>::input_grad_row(const double* x, const double* g,
                                              double* gx) const {
  for (std::size_t i = 0; i < input_size(); ++i)
    gx[i] = g[i] * self().derivative(x[i], self().apply(x[i]));
}

template class ElementwiseActivation<ReLU>;
template class ElementwiseActivation<LeakyReLU>;
template class ElementwiseActivation<Sigmoid>;
template class ElementwiseActivation<Tanh>;

}  // namespace dpv::nn
