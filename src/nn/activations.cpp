#include "nn/activations.hpp"

namespace dpv::nn {

std::unique_ptr<Layer> ReLU::clone() const { return std::make_unique<ReLU>(input_shape()); }

void ReLU::forward_row(const double* x, double* y) const {
  for (std::size_t i = 0; i < input_size(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
}

void ReLU::input_grad_row(const double* x, const double* g, double* gx) const {
  for (std::size_t i = 0; i < input_size(); ++i) gx[i] = g[i] * (x[i] > 0.0 ? 1.0 : 0.0);
}

}  // namespace dpv::nn
