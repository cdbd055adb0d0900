#include "common/run_control.hpp"

#include <chrono>

namespace dpv {

std::int64_t RunControl::now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void RunControl::set_deadline_after(double seconds) {
  deadline_ns_.store(now_ns() + static_cast<std::int64_t>(seconds * 1e9),
                     std::memory_order_relaxed);
  has_deadline_.store(true, std::memory_order_relaxed);
}

}  // namespace dpv
