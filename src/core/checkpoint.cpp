#include "core/checkpoint.hpp"

#include <cstring>
#include <utility>

#include "common/check.hpp"
#include "common/record_io.hpp"

namespace dpv::core {

void ConfigHasher::add_bytes(const void* data, std::size_t size) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    state_ ^= p[i];
    state_ *= 0x100000001b3ULL;
  }
}

void ConfigHasher::add(const std::string& s) {
  add(static_cast<std::uint64_t>(s.size()));
  add_bytes(s.data(), s.size());
}

void ConfigHasher::add(std::uint64_t v) { add_bytes(&v, sizeof(v)); }

void ConfigHasher::add(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  add(bits);
}

namespace {

constexpr const char* kMagic = "dpv-checkpoint";
constexpr std::size_t kVersion = 1;

// The token-stream classes live in common/record_io (shared with the
// verify delta-artifact store); checkpoint keeps only its own record
// shapes on top of them.
using Writer = common::RecordWriter;
using Reader = common::RecordReader;

Reader make_reader(std::string text, const std::string& path) {
  return Reader(std::move(text), "checkpoint " + path);
}

void write_tensor(Writer& w, const Tensor& t) {
  // Element count leads and zero short-circuits: a default-constructed
  // "none" tensor has numel 0 under a rank-0 shape, whose empty dim
  // product would otherwise read back as one element.
  w.size_value(t.numel());
  if (t.numel() == 0) return;
  w.size_value(t.shape().rank());
  for (std::size_t d = 0; d < t.shape().rank(); ++d) w.size_value(t.shape().dim(d));
  for (std::size_t i = 0; i < t.numel(); ++i) w.dbl(t[i]);
}

Tensor read_tensor(Reader& r) {
  const std::size_t numel = r.count();
  if (numel == 0) return Tensor();
  const std::size_t rank = r.size_value();
  if (rank > 8) r.fail("implausible tensor rank");
  std::vector<std::size_t> dims(rank);
  for (std::size_t d = 0; d < rank; ++d) dims[d] = r.size_value();
  const Shape shape{std::vector<std::size_t>(dims)};
  if (shape.numel() != numel) r.fail("tensor element count mismatch");
  std::vector<double> values(numel);
  for (double& v : values) v = r.dbl();
  return Tensor(shape, std::move(values));
}

void write_confusion(Writer& w, const train::ConfusionCounts& c) {
  w.size_value(c.tp);
  w.size_value(c.fp);
  w.size_value(c.fn);
  w.size_value(c.tn);
}

train::ConfusionCounts read_confusion(Reader& r) {
  train::ConfusionCounts c;
  c.tp = r.size_value();
  c.fp = r.size_value();
  c.fn = r.size_value();
  c.tn = r.size_value();
  return c;
}

void write_scenario(Writer& w, const data::RoadScenario& s) {
  w.dbl(s.curvature);
  w.dbl(s.lane_offset);
  w.dbl(s.brightness);
  w.boolean(s.traffic_adjacent);
  w.dbl(s.traffic_distance);
  w.u64(s.noise_seed);
}

data::RoadScenario read_scenario(Reader& r) {
  data::RoadScenario s;
  s.curvature = r.dbl();
  s.lane_offset = r.dbl();
  s.brightness = r.dbl();
  s.traffic_adjacent = r.boolean();
  s.traffic_distance = r.dbl();
  s.noise_seed = r.u64();
  return s;
}

void write_box(Writer& w, const data::ScenarioBox& b) {
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    w.dbl(b.dim(d).lo);
    w.dbl(b.dim(d).hi);
  }
  w.boolean(b.traffic_adjacent);
}

data::ScenarioBox read_box(Reader& r) {
  data::ScenarioBox b;
  for (std::size_t d = 0; d < data::ScenarioBox::kDimensions; ++d) {
    const double lo = r.dbl();
    const double hi = r.dbl();
    b.dim(d) = absint::Interval(lo, hi);
  }
  b.traffic_adjacent = r.boolean();
  return b;
}

std::size_t read_enum(Reader& r, std::size_t max_value, const char* what) {
  const std::size_t v = r.size_value();
  if (v > max_value) r.fail(std::string("out-of-range ") + what);
  return v;
}

void write_header(Writer& w, const char* kind, std::size_t fingerprint,
                  std::size_t config_hash) {
  w.tag(kMagic);
  w.size_value(kVersion);
  w.tag(kind);
  w.newline();
  w.tag("fingerprint");
  w.size_value(fingerprint);
  w.tag("config");
  w.size_value(config_hash);
  w.newline();
}

void read_header(Reader& r, const char* kind, std::size_t& fingerprint,
                 std::size_t& config_hash) {
  r.expect_tag(kMagic);
  const std::size_t version = r.size_value();
  if (version != kVersion) r.fail("unsupported version " + std::to_string(version));
  r.expect_tag(kind);
  r.expect_tag("fingerprint");
  fingerprint = r.size_value();
  r.expect_tag("config");
  config_hash = r.size_value();
}

void write_file_atomic(const std::string& path, const std::string& contents) {
  common::write_file_atomic(path, contents, "checkpoint");
}

void write_round(Writer& w, const CoverageRound& s) {
  w.tag("round");
  w.size_value(s.round);
  w.size_value(s.cells_processed);
  w.size_value(s.cells_certified);
  w.size_value(s.cells_unsafe);
  w.size_value(s.cells_unknown);
  w.size_value(s.cells_split);
  w.size_value(s.max_depth);
  w.dbl(s.certified_volume_fraction);
  w.size_value(s.milp_nodes);
  w.size_value(s.budget_nodes_returned);
  w.size_value(s.budget_nodes_granted);
  w.size_value(s.budget_cells_retried);
  w.size_value(s.budget_cells_rescued);
  w.dbl(s.wall_seconds);
  w.newline();
}

CoverageRound read_round(Reader& r) {
  r.expect_tag("round");
  CoverageRound s;
  s.round = r.size_value();
  s.cells_processed = r.size_value();
  s.cells_certified = r.size_value();
  s.cells_unsafe = r.size_value();
  s.cells_unknown = r.size_value();
  s.cells_split = r.size_value();
  s.max_depth = r.size_value();
  s.certified_volume_fraction = r.dbl();
  s.milp_nodes = r.size_value();
  s.budget_nodes_returned = r.size_value();
  s.budget_nodes_granted = r.size_value();
  s.budget_cells_retried = r.size_value();
  s.budget_cells_rescued = r.size_value();
  s.wall_seconds = r.dbl();
  return s;
}

}  // namespace

void save_campaign_checkpoint(const std::string& path, const CampaignCheckpoint& ckpt) {
  Writer w;
  write_header(w, "campaign", ckpt.fingerprint, ckpt.config_hash);
  w.tag("entries");
  w.size_value(ckpt.entry_count);
  w.tag("records");
  w.size_value(ckpt.records.size());
  w.newline();
  for (const CampaignEntryRecord& rec : ckpt.records) {
    w.tag("rec");
    w.size_value(rec.index);
    w.str(rec.property_name);
    w.str(rec.risk_name);
    write_confusion(w, rec.train_confusion);
    write_confusion(w, rec.validation_confusion);
    w.boolean(rec.characterizer_usable);
    w.size_value(static_cast<std::size_t>(rec.safety_verdict));
    w.size_value(static_cast<std::size_t>(rec.bounds_source));
    w.boolean(rec.pipeline_ran);
    write_confusion(w, rec.table_one);
    w.size_value(static_cast<std::size_t>(rec.verdict));
    w.size_value(static_cast<std::size_t>(rec.decided_by));
    w.size_value(rec.milp_nodes);
    w.boolean(rec.hit_node_limit);
    w.boolean(rec.counterexample_validated);
    write_tensor(w, rec.counterexample_activation);
    w.boolean(rec.have_frontier_activation);
    write_tensor(w, rec.frontier_activation);
    w.newline();
  }
  w.tag("end");
  w.newline();
  write_file_atomic(path, w.take());
}

bool load_campaign_checkpoint(const std::string& path, CampaignCheckpoint& out) {
  std::string text;
  if (!common::read_file(path, text)) return false;
  Reader r = make_reader(std::move(text), path);
  out = CampaignCheckpoint{};
  read_header(r, "campaign", out.fingerprint, out.config_hash);
  r.expect_tag("entries");
  out.entry_count = r.size_value();
  r.expect_tag("records");
  const std::size_t count = r.count();
  if (count > out.entry_count) r.fail("more records than entries");
  out.records.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    r.expect_tag("rec");
    CampaignEntryRecord rec;
    rec.index = r.size_value();
    if (rec.index >= out.entry_count) r.fail("record index out of range");
    rec.property_name = r.str();
    rec.risk_name = r.str();
    rec.train_confusion = read_confusion(r);
    rec.validation_confusion = read_confusion(r);
    rec.characterizer_usable = r.boolean();
    rec.safety_verdict = static_cast<SafetyVerdict>(read_enum(r, 3, "safety verdict"));
    rec.bounds_source = static_cast<BoundsSource>(read_enum(r, 2, "bounds source"));
    rec.pipeline_ran = r.boolean();
    rec.table_one = read_confusion(r);
    rec.verdict = static_cast<verify::Verdict>(read_enum(r, 2, "verdict"));
    rec.decided_by =
        static_cast<verify::DecisionStage>(read_enum(r, 2, "decision stage"));
    rec.milp_nodes = r.size_value();
    rec.hit_node_limit = r.boolean();
    rec.counterexample_validated = r.boolean();
    rec.counterexample_activation = read_tensor(r);
    rec.have_frontier_activation = r.boolean();
    rec.frontier_activation = read_tensor(r);
    out.records.push_back(std::move(rec));
  }
  r.expect_tag("end");
  return true;
}

void save_coverage_checkpoint(const std::string& path, const CoverageCheckpoint& ckpt) {
  Writer w;
  write_header(w, "coverage", ckpt.fingerprint, ckpt.config_hash);
  w.tag("rounds");
  w.size_value(ckpt.rounds.size());
  w.newline();
  for (const CoverageRound& s : ckpt.rounds) write_round(w, s);
  w.tag("cells");
  w.size_value(ckpt.cells.size());
  w.newline();
  for (const CoverageCellRecord& c : ckpt.cells) {
    w.tag("cell");
    w.size_value(c.id);
    w.size_value(c.parent);
    w.size_value(c.depth);
    w.u64(c.path_hash);
    write_box(w, c.box);
    w.dbl(c.volume_fraction);
    w.size_value(static_cast<std::size_t>(c.status));
    w.size_value(static_cast<std::size_t>(c.verdict));
    w.str(c.decided_by);
    w.size_value(c.decided_round);
    w.boolean(c.has_counterexample_scenario);
    write_scenario(w, c.counterexample_scenario);
    w.boolean(c.has_seed_scenario);
    write_scenario(w, c.seed_scenario);
    w.size_value(c.split_dim);
    w.size_value(c.children[0]);
    w.size_value(c.children[1]);
    w.newline();
  }
  w.tag("pool");
  w.size_value(ckpt.pool.size());
  w.newline();
  for (const PoolPointRecord& p : ckpt.pool) {
    w.tag("pt");
    w.str(p.key);
    w.size_value(p.order);
    write_tensor(w, p.point);
    w.newline();
  }
  w.tag("contributed");
  w.size_value(ckpt.pool_points_contributed);
  w.newline();
  w.tag("end");
  w.newline();
  write_file_atomic(path, w.take());
}

bool load_coverage_checkpoint(const std::string& path, CoverageCheckpoint& out) {
  std::string text;
  if (!common::read_file(path, text)) return false;
  Reader r = make_reader(std::move(text), path);
  out = CoverageCheckpoint{};
  read_header(r, "coverage", out.fingerprint, out.config_hash);
  r.expect_tag("rounds");
  const std::size_t round_count = r.count();
  out.rounds.reserve(round_count);
  for (std::size_t i = 0; i < round_count; ++i) out.rounds.push_back(read_round(r));
  r.expect_tag("cells");
  const std::size_t cell_count = r.count();
  out.cells.reserve(cell_count);
  for (std::size_t i = 0; i < cell_count; ++i) {
    r.expect_tag("cell");
    CoverageCellRecord c;
    c.id = r.size_value();
    if (c.id != i) r.fail("cells out of id order");
    c.parent = r.size_value();
    c.depth = r.size_value();
    c.path_hash = r.u64();
    c.box = read_box(r);
    c.volume_fraction = r.dbl();
    c.status = static_cast<CellStatus>(read_enum(r, 3, "cell status"));
    c.verdict = static_cast<SafetyVerdict>(read_enum(r, 3, "safety verdict"));
    c.decided_by = r.str();
    c.decided_round = r.size_value();
    c.has_counterexample_scenario = r.boolean();
    c.counterexample_scenario = read_scenario(r);
    c.has_seed_scenario = r.boolean();
    c.seed_scenario = read_scenario(r);
    c.split_dim = r.size_value();
    c.children[0] = r.size_value();
    c.children[1] = r.size_value();
    out.cells.push_back(std::move(c));
  }
  r.expect_tag("pool");
  const std::size_t pool_count = r.count();
  out.pool.reserve(pool_count);
  for (std::size_t i = 0; i < pool_count; ++i) {
    r.expect_tag("pt");
    PoolPointRecord p;
    p.key = r.str();
    p.order = r.size_value();
    p.point = read_tensor(r);
    out.pool.push_back(std::move(p));
  }
  r.expect_tag("contributed");
  out.pool_points_contributed = r.size_value();
  r.expect_tag("end");
  return true;
}

}  // namespace dpv::core
