#include "milp/search/frontier.hpp"

#include "common/check.hpp"

namespace dpv::milp::search {

ParallelFrontier::ParallelFrontier(std::size_t workers, bool minimize)
    : minimize_(minimize) {
  check(workers > 0, "ParallelFrontier: need at least one worker");
  deques_.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w)
    deques_.push_back(std::make_unique<Deque>(minimize));
}

void ParallelFrontier::push(std::size_t worker, SearchNode node) {
  internal_check(worker < deques_.size(), "ParallelFrontier::push: bad worker");
  // Count BEFORE the node becomes stealable: otherwise a thief could
  // acquire and complete() it inside the window, transiently driving
  // open_ to zero and making idle workers conclude kDone mid-search.
  const std::size_t open = open_.fetch_add(1) + 1;
  std::size_t peak = peak_open_.load(std::memory_order_relaxed);
  while (open > peak &&
         !peak_open_.compare_exchange_weak(peak, open, std::memory_order_relaxed)) {
  }
  {
    std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
    deques_[worker]->store.push(std::move(node));
  }
  work_epoch_.fetch_add(1);
  wake_sleepers();
}

/// Wakes blocked workers. Taking sleep_mutex_ before notifying closes
/// the classic lost-wakeup window (a state change landing between a
/// sleeper's predicate check and its block); the sleepers_ fast path
/// keeps the hot push route lock-free when nobody is asleep.
void ParallelFrontier::wake_sleepers() {
  if (sleepers_.load() == 0) return;
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_all();
}

bool ParallelFrontier::try_pop_own(std::size_t worker, SearchNode& out) {
  std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
  return deques_[worker]->store.pop(out);
}

bool ParallelFrontier::try_steal(std::size_t worker, SearchNode& out) {
  const std::size_t n = deques_.size();
  for (std::size_t offset = 1; offset < n; ++offset) {
    const std::size_t victim = (worker + offset) % n;
    steal_attempts_.fetch_add(1, std::memory_order_relaxed);
    std::vector<SearchNode> loot;
    {
      std::lock_guard<std::mutex> lock(deques_[victim]->mutex);
      deques_[victim]->store.steal_half(loot);
    }
    if (loot.empty()) continue;
    stolen_.fetch_add(loot.size(), std::memory_order_relaxed);
    {
      // Reverse push so the most promising loot (loot[0]: the best
      // heap bound, or the oldest dive entry) lands on top of the
      // thief's dive stack and pops first.
      std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
      for (auto it = loot.rbegin(); it != loot.rend(); ++it)
        deques_[worker]->store.push(std::move(*it));
    }
    // The loot was invisible while in flight: workers that swept during
    // that window may have gone to sleep over it, so announce it like a
    // push would.
    work_epoch_.fetch_add(1);
    wake_sleepers();
    if (try_pop_own(worker, out)) return true;
    // Another thief emptied us again between the locks; keep sweeping.
  }
  return false;
}

ParallelFrontier::Acquire ParallelFrontier::acquire(std::size_t worker, SearchNode& out) {
  internal_check(worker < deques_.size(), "ParallelFrontier::acquire: bad worker");
  while (true) {
    if (stop_.load()) return Acquire::kStopped;
    // The epoch is sampled *before* the pop/steal sweep: a push whose
    // insert the sweep missed must have bumped the epoch afterwards,
    // so the wait predicate fires instead of sleeping over live work.
    const std::uint64_t seen = work_epoch_.load();
    if (try_pop_own(worker, out)) return Acquire::kGot;
    if (deques_.size() > 1 && try_steal(worker, out)) return Acquire::kGot;
    if (open_.load() == 0) {
      wake_sleepers();
      return Acquire::kDone;
    }
    // Open nodes exist but every visible deque is empty: other workers
    // are expanding them. Sleep until a push (epoch bump), a stop, or
    // exhaustion.
    sleepers_.fetch_add(1);
    {
      std::unique_lock<std::mutex> lock(sleep_mutex_);
      sleep_cv_.wait(lock, [&] {
        return stop_.load() || open_.load() == 0 || work_epoch_.load() != seen;
      });
    }
    sleepers_.fetch_sub(1);
  }
}

void ParallelFrontier::complete() {
  if (open_.fetch_sub(1) == 1) {
    std::lock_guard<std::mutex> lock(sleep_mutex_);
    sleep_cv_.notify_all();
  }
}

void ParallelFrontier::abandon(std::size_t worker, SearchNode node) {
  internal_check(worker < deques_.size(), "ParallelFrontier::abandon: bad worker");
  std::lock_guard<std::mutex> lock(deques_[worker]->mutex);
  deques_[worker]->store.push(std::move(node));
}

void ParallelFrontier::request_stop() {
  stop_.store(true);
  std::lock_guard<std::mutex> lock(sleep_mutex_);
  sleep_cv_.notify_all();
}

bool ParallelFrontier::best_open_bound(double& out) const {
  bool found = false;
  for (const std::unique_ptr<Deque>& deque : deques_) {
    std::lock_guard<std::mutex> lock(deque->mutex);
    double bound = 0.0;
    if (!deque->store.best_bound(bound)) continue;
    if (!found || (minimize_ ? bound < out : bound > out)) out = bound;
    found = true;
  }
  return found;
}

}  // namespace dpv::milp::search
