#include "tensor/tensor.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dpv {

Tensor::Tensor(Shape shape) : shape_(std::move(shape)), values_(shape_.numel(), 0.0) {}

Tensor::Tensor(Shape shape, std::vector<double> values)
    : shape_(std::move(shape)), values_(std::move(values)) {
  if (values_.size() != shape_.numel())
    throw ContractViolation("Tensor: value count " + std::to_string(values_.size()) +
                            " does not match shape " + shape_.to_string());
}

Tensor Tensor::vector1d(std::vector<double> values) {
  Shape shape{values.size()};
  return Tensor(shape, std::move(values));
}

Tensor Tensor::randn(const Shape& shape, Rng& rng, double stddev) {
  Tensor t(shape);
  for (double& v : t.values_) v = rng.normal(0.0, stddev);
  return t;
}

std::size_t Tensor::index2(std::size_t r, std::size_t c) const {
  // Hot path (dense backward): diagnostics are built only on failure.
  const auto& dims = shape_.dims();
  if (dims.size() != 2 || r >= dims[0] || c >= dims[1])
    throw ContractViolation("Tensor::at2: index (" + std::to_string(r) + ", " +
                            std::to_string(c) + ") invalid for shape " + shape_.to_string());
  return r * dims[1] + c;
}

std::size_t Tensor::index3(std::size_t ch, std::size_t r, std::size_t c) const {
  // Hot path (conv inner loops): diagnostics are built only on failure.
  const auto& dims = shape_.dims();
  if (dims.size() != 3 || ch >= dims[0] || r >= dims[1] || c >= dims[2])
    throw ContractViolation("Tensor::at3: index (" + std::to_string(ch) + ", " +
                            std::to_string(r) + ", " + std::to_string(c) +
                            ") invalid for shape " + shape_.to_string());
  return (ch * dims[1] + r) * dims[2] + c;
}

double& Tensor::at2(std::size_t r, std::size_t c) { return values_[index2(r, c)]; }
double Tensor::at2(std::size_t r, std::size_t c) const { return values_[index2(r, c)]; }

double& Tensor::at3(std::size_t ch, std::size_t r, std::size_t c) {
  return values_[index3(ch, r, c)];
}
double Tensor::at3(std::size_t ch, std::size_t r, std::size_t c) const {
  return values_[index3(ch, r, c)];
}

Tensor Tensor::reshaped(const Shape& new_shape) const {
  if (new_shape.numel() != values_.size())
    throw ContractViolation("Tensor::reshaped: numel mismatch between " + shape_.to_string() +
                            " and " + new_shape.to_string());
  return Tensor(new_shape, values_);
}

void Tensor::fill(double value) { std::fill(values_.begin(), values_.end(), value); }

}  // namespace dpv
