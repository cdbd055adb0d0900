// Outside-in span recorder for the benchmark's traced run.
//
// Spans sit in the benchmark's own code, around calls into the library's
// public functions; a span is named "<module>.<step>" after the src/
// module whose function it wraps ("nn.forward", "data.render"). Names
// starting with "bench." group spans (an op, a replayed cell) and belong
// to no layer. Stage times the library already measures and returns
// (VerificationResult stage seconds, solver::SolverStats factor/pivot
// seconds) enter as reported spans: children of a measured span, lasting
// what the library reported.
//
// A layer's self time is its span's duration minus the durations of its
// direct children. Spans stay in memory and are written once, as a
// Chrome trace-event file, when the run ends.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);
/// CPU seconds used so far by every thread of this process.
double process_cpu_seconds();

class Tracer {
 public:
  /// Parent value meaning "the innermost open span".
  static constexpr int kOpenSpan = -2;

  /// A disabled tracer (the untraced run) ignores every call.
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }
  /// Op index stamped on spans and counts from now on; -1 is set-up.
  void set_op(long op) { op_ = op; }

  int open(const char* name);
  void close(int id);
  /// Records a span the library timed itself, as a child of `parent`
  /// (a span id, or kOpenSpan). Returns its id, to nest further reports.
  int report(const char* name, double seconds, int parent = kOpenSpan);
  /// Adds `amount` to the named counter of the current phase.
  void count(const std::string& name, double amount);

  /// Self seconds per span name, summed over the spans of set-up
  /// (`setup` true) or of ops.
  std::map<std::string, double> self_seconds(bool setup) const;
  /// Sum of the self seconds of every layer span of the phase.
  double layer_seconds(bool setup) const;
  const std::map<std::string, double>& counters(bool setup) const {
    return setup ? setup_counters_ : op_counters_;
  }

  /// Writes every span as a Chrome trace-event JSON file (open it in
  /// Perfetto or chrome://tracing). Measured spans are thread 1,
  /// reported spans thread 2. Returns false when the file cannot be
  /// written.
  bool write_chrome_trace(const std::string& path) const;

 private:
  struct Record {
    const char* name;
    double start;
    double end;
    int parent;
    long op;
    bool reported;
    double reported_children = 0.0;  ///< next free offset for reported children
  };

  bool enabled_;
  long op_ = -1;
  Clock::time_point origin_;
  std::vector<Record> spans_;
  std::vector<int> open_;
  std::map<std::string, double> setup_counters_;
  std::map<std::string, double> op_counters_;
};

/// RAII span around one call; free when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, const char* name) : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
