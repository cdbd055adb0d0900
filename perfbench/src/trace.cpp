#include "trace.hpp"

#include <time.h>

#include <cstdio>
#include <cstring>

namespace perfbench {

namespace {

bool is_layer(const char* name) { return std::strncmp(name, "bench.", 6) != 0; }

}  // namespace

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

Tracer::Tracer(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, seconds_since(origin_), 0.0, open_.empty() ? -1 : open_.back(), op_,
                    false});
  open_.push_back(id);
  return id;
}

void Tracer::close(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = seconds_since(origin_);
  open_.pop_back();
}

int Tracer::report(const char* name, double seconds, int parent) {
  if (!enabled_) return -1;
  if (parent == kOpenSpan) parent = open_.empty() ? -1 : open_.back();
  double start = seconds_since(origin_);
  if (parent >= 0) {
    Record& p = spans_[static_cast<std::size_t>(parent)];
    start = p.start + p.reported_children;
    p.reported_children += seconds;
  }
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({name, start, start + seconds, parent, op_, true});
  return id;
}

void Tracer::count(const std::string& name, double amount) {
  if (!enabled_) return;
  (op_ < 0 ? setup_counters_ : op_counters_)[name] += amount;
}

std::map<std::string, double> Tracer::self_seconds(bool setup) const {
  std::map<std::string, double> self;
  for (const Record& s : spans_) {
    if ((s.op < 0) != setup) continue;
    self[s.name] += s.end - s.start;
    if (s.parent >= 0) {
      const Record& p = spans_[static_cast<std::size_t>(s.parent)];
      self[p.name] -= s.end - s.start;
    }
  }
  return self;
}

double Tracer::layer_seconds(bool setup) const {
  double total = 0.0;
  for (const auto& [name, seconds] : self_seconds(setup))
    if (is_layer(name.c_str())) total += seconds;
  return total;
}

bool Tracer::write_chrome_trace(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Record& s = spans_[i];
    std::fprintf(f,
                 "{\"name\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, "
                 "\"tid\": %d, \"args\": {\"op\": %ld, \"parent\": %d}}%s\n",
                 s.name, s.start * 1e6, (s.end - s.start) * 1e6, s.reported ? 2 : 1, s.op,
                 s.parent, i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
