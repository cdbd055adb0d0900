// Work-stealing parallel frontier for branch & bound.
//
// One NodeStore per worker behind a per-deque mutex, in the
// owner/thief discipline of Chase–Lev deques: the owner pushes and
// pops its own deque (uncontended in the common case), and an idle
// worker sweeps the other deques in a fixed order, stealing half of the
// victim's far end in one lock acquisition — the best-bound half of its
// heap (spreading the most promising frontier across workers), or the
// oldest half of its dive stack (the widest subtrees) when its heap is
// empty. Unlike textbook Chase–Lev the per-deque lock is a mutex rather
// than a CAS loop: steals move half the deque at once and are rare by
// design, so the lock is cold; what matters for contention is that
// owners never touch a shared structure on the hot push/pop path.
//
// Termination detection: `open_count` tracks nodes pushed but not yet
// completed. A worker that finds every deque empty sleeps on the
// frontier's condition variable and wakes on any push; when the count
// reaches zero the tree is exhausted and every sleeper is released
// with kDone. Budget/feasible/error aborts go through `request_stop`,
// and a worker holding an unexpanded node returns it with `abandon` so
// the post-mortem `best_open_bound` scan (the reported optimality gap
// on node-limit UNKNOWNs) sees the whole surviving frontier.
//
// Steal order and victim order are deterministic (fixed sweep from the
// thief's own index; in-store order by stable node id); the *timing*
// of steals is not, so node counts and steal counts may vary across
// runs. Verdicts of searches that run to completion (exhaustive proofs,
// first-feasible finds) do not — but under a *binding node budget* with
// threads > 1, steal timing decides which subtrees fit inside the
// budget, so a run may stop at kNodeLimit where another finished.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <memory>
#include <mutex>
#include <vector>

#include "milp/search/node_store.hpp"

namespace dpv::milp::search {

class ParallelFrontier {
 public:
  /// One store per worker. `minimize` orients bound order.
  ParallelFrontier(std::size_t workers, bool minimize);

  /// Pushes onto `worker`'s own deque and wakes one sleeper.
  void push(std::size_t worker, SearchNode node);

  enum class Acquire {
    kGot,      ///< `out` holds a node to expand
    kDone,     ///< tree exhausted: every pushed node was completed
    kStopped,  ///< request_stop() was called
  };

  /// Pops from the worker's own deque, steals when it is empty, or
  /// sleeps until work appears / the search ends.
  Acquire acquire(std::size_t worker, SearchNode& out);

  /// Marks one previously acquired node fully processed (its children,
  /// if any, must be pushed first).
  void complete();

  /// Returns an acquired-but-unexpanded node to the worker's deque
  /// without touching the open count — the stop path, keeping the node
  /// visible to the post-mortem bound scan.
  void abandon(std::size_t worker, SearchNode node);

  void request_stop();
  bool stopped() const { return stop_.load(std::memory_order_acquire); }
  /// The raw stop flag, for cooperative cancellation inside long
  /// node-level work (the reliability-probe loop polls it between LP
  /// re-solves via BranchContext::stop).
  const std::atomic<bool>& stop_flag() const { return stop_; }

  /// Nodes pushed and not yet completed.
  std::size_t open_count() const { return open_.load(std::memory_order_acquire); }

  /// Most optimistic bound over every deque's surviving nodes; false
  /// when none carries a bound. Only meaningful once workers are
  /// quiescent (after join / inside a test's single thread).
  bool best_open_bound(double& out) const;

  std::size_t nodes_stolen() const { return stolen_.load(std::memory_order_relaxed); }
  std::size_t steal_attempts() const {
    return steal_attempts_.load(std::memory_order_relaxed);
  }
  /// High-water mark of open_count() — the frontier's peak width.
  std::size_t peak_open() const { return peak_open_.load(std::memory_order_relaxed); }

 private:
  struct Deque {
    explicit Deque(bool minimize) : store(minimize) {}
    std::mutex mutex;
    NodeStore store;
  };

  bool try_pop_own(std::size_t worker, SearchNode& out);
  bool try_steal(std::size_t worker, SearchNode& out);
  void wake_sleepers();

  bool minimize_;
  std::vector<std::unique_ptr<Deque>> deques_;

  std::atomic<std::size_t> open_{0};
  std::atomic<std::size_t> peak_open_{0};
  std::atomic<bool> stop_{false};
  std::atomic<std::size_t> stolen_{0};
  std::atomic<std::size_t> steal_attempts_{0};

  /// Sleep/wake plumbing: `work_epoch_` bumps on every push so a
  /// sleeper can tell "new work arrived since I last looked", and
  /// `sleepers_` lets pushes skip the wake lock when nobody sleeps.
  std::mutex sleep_mutex_;
  std::condition_variable sleep_cv_;
  std::atomic<std::uint64_t> work_epoch_{0};
  std::atomic<std::size_t> sleepers_{0};
};

}  // namespace dpv::milp::search
