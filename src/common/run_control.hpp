// Cooperative run control: deadlines and cancellation for long searches.
//
// A RunControl is a shared token threaded (as a raw const pointer) through
// every long-running loop in the stack — simplex pivots, B&B node pops,
// root cut rounds, PGD restarts, parallel-pass job claiming. Loops poll
// expired() at safe points; when it reports true they stop gracefully and
// hand back whatever partial result the layer's existing budget machinery
// already knows how to explain (best-bound gaps, frontier points, UNKNOWN
// verdicts with a note). Expiry never invents a verdict and never crashes:
// decided SAFE/UNSAFE answers are only ever produced by completed work, so
// an expired run degrades to an explained UNKNOWN, exactly like a node or
// iteration budget running out.
//
// Three expiry sources, checked in order of cheapness:
//   * an external cancel() flag (one atomic load),
//   * a poll budget (testing hook: "expire after N polls", deterministic
//     at any thread count, used by the deadline-honesty tests and the
//     bench's interrupt axis),
//   * a wall-clock deadline (steady_clock, set_deadline_after()).
// A RunControl may chain to a parent: expired() is own-OR-parent, which is
// how per-entry / per-cell time budgets nest under a campaign-wide
// deadline (TailVerifierOptions::time_budget_seconds builds a stack-local
// child per query).
//
// Thread safety: all mutators and expired() are safe to call concurrently;
// polling is wait-free (relaxed atomics — expiry is a latched one-way
// transition, so racy reads only delay the stop by one poll).
#pragma once

#include <atomic>
#include <cstdint>

namespace dpv {

class RunControl {
 public:
  RunControl() = default;
  /// Child token: expired() also reports true whenever `parent` is
  /// expired. `parent` must outlive this token (stack-local children
  /// chaining to a longer-lived campaign token — the intended pattern).
  explicit RunControl(const RunControl* parent) : parent_(parent) {}

  RunControl(const RunControl&) = delete;
  RunControl& operator=(const RunControl&) = delete;

  /// External cancellation: latches expiry immediately.
  void cancel() { cancelled_.store(true, std::memory_order_relaxed); }

  /// Arms the wall-clock deadline `seconds` from now (steady clock).
  /// Non-positive values expire immediately.
  void set_deadline_after(double seconds);

  /// Testing/bench hook: expired() latches true once it has been polled
  /// more than `polls` times. Deterministic at any thread count when the
  /// polling sites are deterministic (serial passes), and an upper bound
  /// on work either way. Replaces — not combines with — a prior budget.
  void set_poll_budget(std::uint64_t polls) {
    poll_budget_.store(static_cast<std::int64_t>(polls),
                       std::memory_order_relaxed);
    has_poll_budget_.store(true, std::memory_order_relaxed);
  }

  /// True once any expiry source (own or parent's) has fired. Latched:
  /// never reverts to false.
  bool expired() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (has_poll_budget_.load(std::memory_order_relaxed) &&
        poll_budget_.fetch_sub(1, std::memory_order_relaxed) <= 0) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    if (has_deadline_.load(std::memory_order_relaxed) &&
        now_ns() >= deadline_ns_.load(std::memory_order_relaxed)) {
      cancelled_.store(true, std::memory_order_relaxed);
      return true;
    }
    return parent_ != nullptr && parent_->expired();
  }

 private:
  static std::int64_t now_ns();

  const RunControl* parent_ = nullptr;
  mutable std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::atomic<std::int64_t> deadline_ns_{0};
  std::atomic<bool> has_poll_budget_{false};
  mutable std::atomic<std::int64_t> poll_budget_{0};
};

/// Null-safe polling helper for the raw-pointer plumbing: layers store
/// `const RunControl*` (nullptr = run to completion) and call this.
inline bool run_expired(const RunControl* control) {
  return control != nullptr && control->expired();
}

}  // namespace dpv
