// The benchmark's workloads: one closed-loop client issuing one op at a
// time against the library's public entry points.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "solver/lp_backend.hpp"
#include "trace.hpp"
#include "verify/verifier.hpp"

namespace perfbench {

struct OpOutcome {
  /// Wall seconds of the op proper: the library calls, without the
  /// output checks or the traced run's replay.
  double seconds = 0.0;
  /// Empty when every output check passed; else the first failure.
  std::string failure;
  double certified_fraction = 0.0;
  /// Traced ops of a replayed workload: the replay's CPU time (plus the
  /// stage times it took from the op's report) over the op's, minus 1.
  std::optional<double> replay_mismatch;
};

/// A traced run fails when the median replay mismatch of its ops is
/// larger than this. The replay makes its own fixed sequence of library
/// calls; once the engine calls differently (caches, skips or batches
/// work), the replay's layer figures describe another op, and only this
/// guard shows it. It is held to the median over the run because one
/// op's mismatch moves with the machine (-0.24 to +0.38 on coverage ops
/// of unchanged code on a contended VM, median +0.05).
inline constexpr double kReplayTolerance = 0.25;

class Workload {
 public:
  virtual ~Workload() = default;

  /// Prepares the op's inputs from the seed; every call redoes the whole
  /// set-up. Throws when a set-up check fails.
  virtual void setup(std::uint64_t seed, const std::string& work_dir, Tracer& tracer) = 0;
  /// Worker threads the op runs on.
  virtual std::size_t threads() const { return 1; }
  /// Runs one op and checks its outputs. With tracing on, also records
  /// the op's per-layer spans.
  virtual OpOutcome run_op(Tracer& tracer) = 0;
};

std::unique_ptr<Workload> make_coverage_workload();
std::unique_ptr<Workload> make_campaign_workload();
std::unique_ptr<Workload> make_recertify_workload();

/// Verifier stage times and solver counters summed over results; they
/// become reported spans (the library timed them) and op counters.
struct StageTotals {
  double attack_seconds = 0.0;
  double zonotope_seconds = 0.0;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  dpv::solver::SolverStats solver;
  std::size_t milp_nodes = 0;
  std::size_t cuts_recycled = 0;
  std::size_t cache_hits = 0;    ///< encodings stamped from a frozen tail
  std::size_t cache_misses = 0;  ///< fresh tail encodings

  void add(const dpv::verify::VerificationResult& result);
  /// Sum of the four stage times.
  double seconds() const {
    return attack_seconds + zonotope_seconds + encode_seconds + solve_seconds;
  }
  /// Reports the stage times as children of the innermost open span
  /// (the solver's factor/pivot seconds nested in the B&B solve) and
  /// adds the counters.
  void report(Tracer& tracer) const;
};

}  // namespace perfbench
