// Benchmark program: runs one workload as a closed loop (one client, one
// op at a time) and prints its metrics.
//
//   dpv_perfbench --workload <coverage-serial|campaign-parallel|recertify>
//                 --seed <n> --seconds <s> --trace <0|1>
//
// Run it from the repository root (perfbench/run.py builds and does so).
// Untraced (--trace 0): sets up 3 times (setup_s is the median), then
// runs ops until --seconds have passed (at least one op), checking each
// op's outputs; reports the end-to-end metrics.
// Traced (--trace 1): one traced set-up, then ops each followed by the
// replay that attributes it to layers; reports the per-layer metrics and
// writes the spans to .bench_build/perfbench/work/trace-<workload>.json.
//
// The last line of stdout is one JSON object with the keys correct,
// attempted, failed and metrics (name -> {value, unit}).
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "trace.hpp"
#include "workload.hpp"

namespace {

using namespace perfbench;

struct Metric {
  std::string name;
  const char* unit;
  double value;
};

/// Per-layer metrics of an op: self seconds of the named span, or the
/// op counter of the metric's own name when `span` is null. Per-op means.
struct LayerMetric {
  const char* name;
  const char* unit;
  const char* span;
};

const LayerMetric kLayerMetrics[] = {
    {"nn.forward_s", "s", "nn.forward"},
    {"nn.forwards", "count", nullptr},
    {"nn.prefix_s", "s", "nn.prefix"},
    {"nn.prefix_images", "count", nullptr},
    {"data.render_s", "s", "data.render"},
    {"data.renders", "count", nullptr},
    {"data.render_bounds_s", "s", "data.render_bounds"},
    {"absint.static_s", "s", "absint.static"},
    {"absint.static_cells", "count", nullptr},
    {"absint.static_proved", "count", nullptr},
    {"monitor.build_s", "s", "monitor.build"},
    {"train.fit_s", "s", "train.fit"},
    {"train.sample_steps", "count", nullptr},
    {"core.table_one_s", "s", "core.table_one"},
    {"verify.attack_s", "s", "verify.attack"},
    {"verify.attack_falsified", "count", nullptr},
    {"verify.zonotope_s", "s", "verify.zonotope"},
    {"verify.zonotope_proved", "count", nullptr},
    {"verify.encode_s", "s", "verify.encode"},
    {"verify.cache_hits", "count", nullptr},
    {"verify.cache_misses", "count", nullptr},
    {"verify.delta_plan_s", "s", "verify.delta_plan"},
    {"verify.reuse_exact", "count", nullptr},
    {"verify.reuse_widened", "count", nullptr},
    {"verify.reuse_cold", "count", nullptr},
    {"common.bundle_io_s", "s", "common.bundle_io"},
    {"milp.solve_s", "s", "milp.solve"},
    {"milp.nodes", "count", nullptr},
    {"milp.cuts_added", "count", nullptr},
    {"milp.cuts_recycled", "count", nullptr},
    {"lp.factor_s", "s", "lp.factor"},
    {"lp.pivot_s", "s", "lp.pivot"},
    {"lp.iterations", "count", nullptr},
    {"lp.factorizations", "count", nullptr},
    {"lp.recoveries", "count", nullptr},
    {"core.busy_s", "s", nullptr},
    {"core.idle_fraction", "fraction", nullptr},
    {"core.retried", "count", nullptr},
};

/// Layer spans of set-up, reported as "setup.<span>_s" per set-up.
const char* const kSetupSpans[] = {"nn.load",    "data.render", "nn.forward", "verify.encode",
                                   "milp.solve", "lp.factor",   "lp.pivot",   "common.bundle_io"};

/// Files a run writes, relative to the checkout root (the program's cwd).
constexpr const char* kWorkDir = ".bench_build/perfbench/work";

/// Set-ups of an untraced run; setup_s is their median. A traced run
/// sets up once.
constexpr std::size_t kUntracedSetups = 3;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

bool parse_options(int argc, char** argv, Options& opt) {
  bool seen_workload = false, seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      opt.workload = value;
      seen_workload = true;
      continue;
    }
    if (key == "--seed") {
      opt.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0' || value[0] == '-') return false;
      seen_seed = true;
      continue;
    }
    const double number = std::strtod(value, &end);
    if (end == value || *end != '\0' || number < 0) return false;
    if (key == "--seconds") {
      opt.seconds = number;
      seen_seconds = true;
    } else if (key == "--trace") {
      if (number != 0 && number != 1) return false;
      opt.trace = number == 1;
      seen_trace = true;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && seen_workload && seen_seed && seen_seconds && seen_trace;
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "coverage-serial") return make_coverage_workload();
  if (name == "campaign-parallel") return make_campaign_workload();
  if (name == "recertify") return make_recertify_workload();
  return nullptr;
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Times a fixed compute kernel that shares no code with the library
/// (double-precision matrix products): the median of 5 repetitions. A
/// diagnostic of how fast this machine is running right now.
double machine_probe() {
  constexpr std::size_t n = 160;
  std::vector<double> a(n * n), b(n * n), c(n * n, 0.0);
  for (std::size_t i = 0; i < n * n; ++i) {
    a[i] = static_cast<double>(i % 7) * 0.25;
    b[i] = static_cast<double>(i % 5) * 0.5;
  }
  std::vector<double> times;
  for (int rep = 0; rep < 5; ++rep) {
    const Clock::time_point start = Clock::now();
    for (int product = 0; product < 4; ++product)
      for (std::size_t i = 0; i < n; ++i)
        for (std::size_t k = 0; k < n; ++k) {
          const double aik = a[i * n + k];
          for (std::size_t j = 0; j < n; ++j) c[i * n + j] += aik * b[k * n + j];
        }
    times.push_back(seconds_since(start));
    a[static_cast<std::size_t>(rep)] = c[static_cast<std::size_t>(rep) * n];  // keep c live
  }
  return median(times);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::vector<Metric> layer_metrics(const Tracer& tracer, std::size_t threads,
                                  const std::vector<double>& op_seconds,
                                  const std::vector<double>& setup_seconds,
                                  double replay_mismatch) {
  const double ops = static_cast<double>(std::max<std::size_t>(op_seconds.size(), 1));
  const std::map<std::string, double> self = tracer.self_seconds(false);
  const std::map<std::string, double>& counters = tracer.counters(false);
  const auto lookup = [](const auto& map, const std::string& key) {
    const auto it = map.find(key);
    return it == map.end() ? 0.0 : it->second;
  };
  std::vector<Metric> metrics;
  for (const LayerMetric& m : kLayerMetrics)
    metrics.push_back(
        {m.name, m.unit, (m.span ? lookup(self, m.span) : lookup(counters, m.name)) / ops});
  double op_thread_seconds = 0.0;
  for (const double s : op_seconds) op_thread_seconds += static_cast<double>(threads) * s;
  metrics.push_back(
      {"trace.unattributed_fraction", "fraction",
       op_thread_seconds > 0.0 ? 1.0 - tracer.layer_seconds(false) / op_thread_seconds : 0.0});
  metrics.push_back({"trace.replay_mismatch", "fraction", std::abs(replay_mismatch)});

  const std::map<std::string, double> setup_self = tracer.self_seconds(true);
  const double setups = static_cast<double>(setup_seconds.size());
  for (const char* span : kSetupSpans)
    metrics.push_back({std::string("setup.") + span + "_s", "s", lookup(setup_self, span) / setups});
  metrics.push_back(
      {"setup.data.renders", "count", lookup(tracer.counters(true), "data.renders") / setups});
  double setup_total = 0.0;
  for (const double s : setup_seconds) setup_total += s;
  metrics.push_back({"setup.trace.unattributed_fraction", "fraction",
                     1.0 - tracer.layer_seconds(true) / setup_total});
  return metrics;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse_options(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: dpv_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  std::unique_ptr<Workload> workload = make_workload(opt.workload);
  if (workload == nullptr) {
    std::fprintf(stderr, "dpv_perfbench: unknown workload '%s'\n", opt.workload.c_str());
    return 2;
  }
  std::error_code ec;
  std::filesystem::create_directories(kWorkDir, ec);
  if (ec) {
    std::fprintf(stderr, "dpv_perfbench: cannot create %s\n", kWorkDir);
    return 1;
  }

  const double probe_before = machine_probe();
  Tracer tracer(opt.trace);
  std::vector<double> setup_seconds;
  try {
    for (std::size_t k = 0; k < (opt.trace ? 1 : kUntracedSetups); ++k) {
      const Clock::time_point start = Clock::now();
      workload->setup(opt.seed, kWorkDir, tracer);
      setup_seconds.push_back(seconds_since(start));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpv_perfbench: set-up failed: %s\n", e.what());
    return 1;
  }

  std::vector<double> op_seconds, certified, replay_mismatches;
  std::size_t attempted = 0, failed = 0;
  const Clock::time_point loop_start = Clock::now();
  while (attempted == 0 || seconds_since(loop_start) < opt.seconds) {
    tracer.set_op(static_cast<long>(attempted));
    ++attempted;
    try {
      const OpOutcome outcome = workload->run_op(tracer);
      op_seconds.push_back(outcome.seconds);
      certified.push_back(outcome.certified_fraction);
      if (outcome.replay_mismatch) replay_mismatches.push_back(*outcome.replay_mismatch);
      if (!outcome.failure.empty()) {
        ++failed;
        std::fprintf(stderr, "op %zu failed: %s\n", attempted - 1, outcome.failure.c_str());
      }
    } catch (const std::exception& e) {
      ++failed;
      std::fprintf(stderr, "op %zu threw: %s\n", attempted - 1, e.what());
    }
  }
  const double loop_seconds = seconds_since(loop_start);
  const double probe_after = machine_probe();

  std::vector<Metric> metrics;
  bool correct = failed == 0;
  if (opt.trace) {
    const double mismatch = median(replay_mismatches);
    metrics = layer_metrics(tracer, workload->threads(), op_seconds, setup_seconds, mismatch);
    if (std::abs(mismatch) > kReplayTolerance) {
      correct = false;
      std::fprintf(stderr,
                   "dpv_perfbench: the replay's CPU time differs from the op's by %+.1f%% "
                   "(median of %zu ops), more than %.0f%%: the engine no longer makes the "
                   "calls the replay makes, so the layer figures describe another op\n",
                   100.0 * mismatch, replay_mismatches.size(), 100.0 * kReplayTolerance);
    }
    const std::string path = std::string(kWorkDir) + "/trace-" + opt.workload + ".json";
    if (!tracer.write_chrome_trace(path))
      std::fprintf(stderr, "dpv_perfbench: cannot write %s\n", path.c_str());
  } else {
    metrics = {
        {"setup_s", "s", median(setup_seconds)},
        {"op_p50_s", "s", median(op_seconds)},
        {"ops_per_s", "1/s", static_cast<double>(op_seconds.size()) / loop_seconds},
        {"peak_rss_mb", "MiB", peak_rss_mib()},
        {"certified_fraction", "fraction", median(certified)},
    };
  }

  std::printf("%s seed %llu%s: set-up %.4f s (median of %zu), %zu ops in %.2f s "
              "(op p50 %.4f s), %zu failed; machine probe %.2f ms before, %.2f ms after\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.trace ? " traced" : "", median(setup_seconds), setup_seconds.size(), attempted,
              loop_seconds, median(op_seconds), failed, probe_before * 1e3, probe_after * 1e3);
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  std::printf("}}\n");
  return 0;
}
