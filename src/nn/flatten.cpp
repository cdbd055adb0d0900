#include "nn/flatten.hpp"

#include <algorithm>

namespace dpv::nn {

std::unique_ptr<Layer> Flatten::clone() const { return std::make_unique<Flatten>(in_shape_); }

void Flatten::forward_row(const double* x, double* y) const {
  std::copy(x, x + input_size(), y);
}

void Flatten::input_grad_row(const double* /*x*/, const double* g, double* gx) const {
  std::copy(g, g + input_size(), gx);
}

}  // namespace dpv::nn
