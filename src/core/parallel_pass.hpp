// Deterministic fan-out of independent jobs over a worker pool.
//
// The campaign runner and the scenario-coverage engine share one
// parallelism pattern: a fixed job list, each job writing only to its
// own result slot, claimed off an atomic counter by `threads` workers.
// Nothing a job computes may depend on claim order, so results are
// bit-identical across thread counts — the property every determinism
// test in this repo leans on. This header is that pattern, once.
//
// Fault and deadline behavior: once any job throws, every worker stops
// claiming new jobs (already-running jobs finish), the pool drains, and
// the first-recorded exception is rethrown — wrapped in
// ParallelPassError so the caller learns *which* job failed, not just
// that one did. Results of jobs that completed before the stop are
// intact in their slots; callers that need to salvage them (checkpoint
// writers) track completion per slot and catch ParallelPassError. A
// `run_control` expiry stops claiming the same way but throws nothing:
// the pass returns normally with a subset of slots filled, and the
// caller's completion tracking tells it which.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>

#include "common/run_control.hpp"

namespace dpv::core {

/// First job failure of a parallel pass, with the job's identity. The
/// message is "<label>: <original what()>"; the original exception is
/// available through std::rethrow_if_nested for callers that dispatch
/// on its type.
class ParallelPassError : public std::runtime_error {
 public:
  ParallelPassError(std::size_t job_index, std::string label, const std::string& what_arg)
      : std::runtime_error(label + ": " + what_arg),
        job_index_(job_index),
        label_(std::move(label)) {}

  /// Index of the job (in [0, count)) whose exception was recorded first.
  std::size_t job_index() const { return job_index_; }
  /// Caller-supplied identity of that job (entry index, cell path-hash).
  const std::string& job_label() const { return label_; }

 private:
  std::size_t job_index_;
  std::string label_;
};

struct ParallelPassOptions {
  /// Cooperative cancellation: polled before every claim. Expired =>
  /// workers stop claiming and the pass returns normally with whatever
  /// subset of jobs completed. Not owned.
  const RunControl* run_control = nullptr;
  /// Human-readable identity for job i, used in ParallelPassError
  /// messages ("entry 12", "cell 0x0dd0c0e5"). Null: "job <i>".
  std::function<std::string(std::size_t)> job_label;
};

/// Runs `job(i)` for every i in [0, count) on up to `threads` workers
/// (<= 1: inline on the calling thread). Blocks until the pool drains.
/// If any job throws, all workers stop claiming and the first exception
/// (by record order) is rethrown as ParallelPassError with the failing
/// job's identity and the original exception nested. Jobs must be
/// independent: they may not observe each other's effects or any
/// schedule state.
void run_parallel_pass(std::size_t count, std::size_t threads,
                       const std::function<void(std::size_t)>& job,
                       const ParallelPassOptions& options);

}  // namespace dpv::core
