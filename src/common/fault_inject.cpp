#include "common/fault_inject.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <mutex>
#include <vector>

namespace dpv::fault {

namespace {

struct Probe {
  std::size_t fire_at = 0;  ///< 1-based hit index of the first firing
  std::size_t count = 0;    ///< consecutive firings from fire_at
  std::size_t hits = 0;
  std::size_t fires = 0;
};

struct Registry {
  std::mutex mutex;
  std::map<std::string, Probe> probes;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Armed-probe count; zero keeps should_fire() on the one-load fast path.
std::atomic<std::size_t> armed_count{0};

/// One-shot environment arming: the first should_fire() anywhere reads
/// DPV_FAULT so a stock binary can run the chaos suite.
std::once_flag env_once;

void arm_locked(Registry& r, const std::string& name, std::size_t fire_at,
                std::size_t count) {
  Probe& p = r.probes[name];
  const bool was_armed = p.count > 0;
  p = Probe{fire_at, count, 0, 0};
  if (!was_armed) armed_count.fetch_add(1, std::memory_order_relaxed);
}

void env_arm() {
  const char* spec = std::getenv("DPV_FAULT");
  if (spec != nullptr && *spec != '\0') arm_from_spec(spec);
}

}  // namespace

bool should_fire(const char* name) {
  std::call_once(env_once, env_arm);
  if (armed_count.load(std::memory_order_relaxed) == 0) return false;
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.probes.find(name);
  if (it == r.probes.end() || it->second.count == 0) return false;
  Probe& p = it->second;
  ++p.hits;
  const bool fire = p.hits >= p.fire_at && p.hits < p.fire_at + p.count;
  if (fire) {
    ++p.fires;
    // One line per fire, so a chaos run shows which probes it exercised
    // (tools/run_chaos.sh fails a spec whose probe never fired).
    std::fprintf(stderr, "fault: %s fired (hit %zu)\n", name, p.hits);
  }
  return fire;
}

void arm(const std::string& name, std::size_t fire_at, std::size_t count) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  arm_locked(r, name, fire_at == 0 ? 1 : fire_at, count);
}

void disarm_all() {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  r.probes.clear();
  armed_count.store(0, std::memory_order_relaxed);
}

std::size_t hits(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.probes.find(name);
  return it == r.probes.end() ? 0 : it->second.hits;
}

std::size_t fires(const std::string& name) {
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  auto it = r.probes.find(name);
  return it == r.probes.end() ? 0 : it->second.fires;
}

bool arm_from_spec(const std::string& spec) {
  // "probe:fire_at[:count]" entries separated by commas; whitespace-free.
  struct Entry {
    std::string name;
    std::size_t fire_at = 0;
    std::size_t count = 1;
  };
  std::vector<Entry> parsed;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    if (item.empty()) continue;
    const std::size_t c1 = item.find(':');
    if (c1 == std::string::npos || c1 == 0) return false;
    Entry entry;
    entry.name = item.substr(0, c1);
    const std::size_t c2 = item.find(':', c1 + 1);
    const std::string fire_str =
        item.substr(c1 + 1, (c2 == std::string::npos ? item.size() : c2) - c1 - 1);
    try {
      entry.fire_at = static_cast<std::size_t>(std::stoull(fire_str));
      if (c2 != std::string::npos)
        entry.count = static_cast<std::size_t>(std::stoull(item.substr(c2 + 1)));
    } catch (const std::exception&) {
      return false;
    }
    if (entry.fire_at == 0 || entry.count == 0) return false;
    parsed.push_back(std::move(entry));
  }
  Registry& r = registry();
  std::lock_guard<std::mutex> lock(r.mutex);
  for (const Entry& entry : parsed)
    arm_locked(r, entry.name, entry.fire_at, entry.count);
  return true;
}

}  // namespace dpv::fault
