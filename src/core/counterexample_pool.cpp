#include "core/counterexample_pool.hpp"

namespace dpv::core {

void CounterexamplePool::contribute(const std::string& key, std::size_t order, Tensor point) {
  std::lock_guard<std::mutex> lock(mutex_);
  points_[key][order].push_back(std::move(point));
}

std::vector<Tensor> CounterexamplePool::snapshot(const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Tensor> out;
  const auto it = points_.find(key);
  if (it == points_.end()) return out;
  for (const auto& [order, pts] : it->second) {
    (void)order;
    out.insert(out.end(), pts.begin(), pts.end());
  }
  return out;
}

std::vector<CounterexamplePool::Entry> CounterexamplePool::export_entries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<Entry> out;
  for (const auto& [key, by_order] : points_)
    for (const auto& [order, pts] : by_order)
      for (const Tensor& p : pts) out.push_back({key, order, p});
  return out;
}

}  // namespace dpv::core
