// Mini-batch training loop.
#pragma once

#include <cstdint>
#include <vector>

#include "nn/network.hpp"
#include "train/dataset.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"

namespace dpv::train {

struct TrainerConfig {
  std::size_t epochs = 20;
  std::size_t batch_size = 32;
  std::uint64_t shuffle_seed = 7;
  bool verbose = false;
};

/// Per-epoch mean training loss, returned by Trainer::fit.
using LossHistory = std::vector<double>;

/// Drives forward/backward/step over shuffled mini-batches.
class Trainer {
 public:
  explicit Trainer(TrainerConfig config) : config_(config) {}

  /// Trains `net` in place; returns mean loss per epoch.
  LossHistory fit(nn::Network& net, const Dataset& data, const Loss& loss, Adam& optimizer);

 private:
  TrainerConfig config_;
};

}  // namespace dpv::train
