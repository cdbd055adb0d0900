#include "core/parallel_pass.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/fault_inject.hpp"

namespace dpv::core {

namespace {

/// Builds the ParallelPassError for the recorded first failure,
/// nesting the original exception (std::throw_with_nested needs a
/// throw-site, hence the rethrow dance).
[[noreturn]] void rethrow_wrapped(std::size_t job_index, const ParallelPassOptions& options,
                                  const std::exception_ptr& error) {
  std::string label = options.job_label ? options.job_label(job_index)
                                        : "job " + std::to_string(job_index);
  std::string what = "unknown exception";
  try {
    std::rethrow_exception(error);
  } catch (const std::exception& e) {
    what = e.what();
  } catch (...) {
  }
  try {
    std::rethrow_exception(error);
  } catch (...) {
    std::throw_with_nested(ParallelPassError(job_index, std::move(label), what));
  }
}

}  // namespace

void run_parallel_pass(std::size_t count, std::size_t threads,
                       const std::function<void(std::size_t)>& job,
                       const ParallelPassOptions& options) {
  if (count == 0) return;
  std::atomic<std::size_t> next_job{0};
  // One-way stop latch: set on the first failure so *every* worker —
  // not just the throwing one — stops claiming new jobs and the pool
  // drains promptly. Completed slots stay valid either way.
  std::atomic<bool> stop{false};
  std::mutex error_mutex;
  std::exception_ptr error;
  std::size_t error_job = 0;
  const auto worker = [&] {
    while (true) {
      if (stop.load(std::memory_order_relaxed)) return;
      if (run_expired(options.run_control)) return;
      const std::size_t j = next_job.fetch_add(1);
      if (j >= count) return;
      try {
        if (fault::should_fire("core.worker_throw"))
          throw std::runtime_error("fault injection: core.worker_throw");
        job(j);
      } catch (...) {
        std::lock_guard<std::mutex> lock(error_mutex);
        if (!error) {
          error = std::current_exception();
          error_job = j;
        }
        stop.store(true, std::memory_order_relaxed);
        return;
      }
    }
  };
  const std::size_t thread_count = std::min(std::max<std::size_t>(threads, 1), count);
  if (thread_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(thread_count);
    for (std::size_t t = 0; t < thread_count; ++t) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();
  }
  if (error) rethrow_wrapped(error_job, options, error);
}

}  // namespace dpv::core
