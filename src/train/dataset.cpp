#include "train/dataset.hpp"

#include "common/check.hpp"

namespace dpv::train {

void Dataset::add(Tensor input, Tensor target) {
  samples_.push_back(Sample{std::move(input), std::move(target)});
}

const Sample& Dataset::operator[](std::size_t i) const {
  check(i < samples_.size(), "Dataset: index out of range");
  return samples_[i];
}

std::vector<Tensor> Dataset::inputs() const {
  std::vector<Tensor> xs;
  xs.reserve(samples_.size());
  for (const Sample& s : samples_) xs.push_back(s.input);
  return xs;
}

}  // namespace dpv::train
