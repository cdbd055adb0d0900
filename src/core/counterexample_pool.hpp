// Cross-query start-point recycling for the staged falsify pipeline.
//
// MILP counterexamples and branch & bound frontier near-misses are
// expensive discoveries: a layer-l activation that (almost) drives the
// tail into the risk region. The pool keeps them, keyed by risk name, so
// the next related query's stage-0 attack can start from a near-witness
// instead of a random box point. `run_campaign` contributes every
// entry's discoveries after each pass and seeds later passes (and later
// campaigns, when the caller shares one pool across batteries) from the
// snapshot.
//
// Determinism contract: contributions carry an `order` (the entry index)
// and snapshots return points sorted by (order, contribution sequence
// within that order). run_campaign only contributes between passes —
// never from inside a worker — so every job of a pass snapshots the same
// pool state regardless of thread count.
#pragma once

#include <cstddef>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "tensor/tensor.hpp"

namespace dpv::core {

class CounterexamplePool {
 public:
  /// One stored point with its full placement, for checkpointing.
  struct Entry {
    std::string key;
    std::size_t order = 0;
    Tensor point;
  };

  /// Adds a layer-l activation-space start point under `key`. `order`
  /// fixes the point's position in snapshots (lower = tried earlier);
  /// points sharing an order keep their contribution sequence.
  void contribute(const std::string& key, std::size_t order, Tensor point);

  /// All points under `key`, ordered by (order, contribution sequence).
  std::vector<Tensor> snapshot(const std::string& key) const;

  /// Every stored point in deterministic (key, order, contribution
  /// sequence) order — replaying these through contribute() on a fresh
  /// pool reproduces identical snapshots. The checkpoint writer's view.
  std::vector<Entry> export_entries() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::map<std::size_t, std::vector<Tensor>>> points_;
};

}  // namespace dpv::core
