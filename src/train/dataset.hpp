// Labelled datasets.
#pragma once

#include <cstddef>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv::train {

/// One labelled example.
struct Sample {
  Tensor input;
  Tensor target;
};

/// In-memory dataset of labelled examples.
class Dataset {
 public:
  Dataset() = default;

  void add(Tensor input, Tensor target);

  std::size_t size() const { return samples_.size(); }
  bool empty() const { return samples_.empty(); }

  const Sample& operator[](std::size_t i) const;

  const std::vector<Sample>& samples() const { return samples_; }

  /// All inputs (used for activation recording / monitor construction).
  std::vector<Tensor> inputs() const;

 private:
  std::vector<Sample> samples_;
};

}  // namespace dpv::train
