#include "verify/delta.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <utility>

#include "absint/perturbation.hpp"
#include "common/check.hpp"
#include "common/record_io.hpp"
#include "verify/encoding_cache.hpp"

namespace dpv::verify {

namespace {

using common::RecordReader;
using common::RecordWriter;

constexpr const char* kMagic = "dpv-delta-artifacts";
/// Version 3 dropped the root-cut pools and what only they needed (the
/// query fingerprint and the tail variable map). Older bundles are
/// rejected (load_delta_artifacts throws), so re-harvest them.
constexpr std::size_t kVersion = 3;

/// Bitwise double equality: the reuse contracts promise *bit-identical*
/// reproduction, and operator== would call -0.0 == +0.0 equal even
/// though encodings built from them can differ in sign-sensitive spots.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof(double)) == 0; }

bool same_box_bits(const absint::Box& a, const absint::Box& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (!same_bits(a[i].lo, b[i].lo) || !same_bits(a[i].hi, b[i].hi)) return false;
  return true;
}

void write_box(RecordWriter& writer, const absint::Box& box) {
  writer.size_value(box.size());
  for (const absint::Interval& iv : box) {
    writer.dbl(iv.lo);
    writer.dbl(iv.hi);
  }
}

absint::Box read_box(RecordReader& reader) {
  absint::Box box(reader.count());
  for (absint::Interval& iv : box) {
    iv.lo = reader.dbl();
    iv.hi = reader.dbl();
  }
  return box;
}

/// `<columns> <rows> <basic column per row> s<columns> <at-upper flag
/// per column, as 0 or 1>`.
void write_basis(RecordWriter& writer, const lp::SimplexBasis& basis) {
  writer.size_value(basis.at_upper.size());
  writer.size_value(basis.basic.size());
  for (const std::int32_t b : basis.basic) writer.size_value(static_cast<std::size_t>(b));
  std::string flags(basis.at_upper.size(), '0');
  for (std::size_t j = 0; j < flags.size(); ++j)
    if (basis.at_upper[j]) flags[j] = '1';
  writer.str(flags);
}

/// Rejects what no basis can be: more rows than columns, a basic column
/// out of range or listed twice, a flag string of the wrong length or
/// with another character than 0 and 1.
lp::SimplexBasis read_basis(RecordReader& reader) {
  const std::size_t columns = reader.size_value();
  if (columns > static_cast<std::size_t>(std::numeric_limits<std::int32_t>::max()))
    reader.fail("root basis has too many columns");
  lp::SimplexBasis basis;
  basis.basic.resize(reader.count());
  if (basis.basic.size() > columns) reader.fail("root basis has more rows than columns");
  for (std::int32_t& b : basis.basic) {
    const std::size_t column = reader.size_value();
    if (column >= columns)
      reader.fail("root basis column " + std::to_string(column) + " out of range");
    b = static_cast<std::int32_t>(column);
  }
  std::vector<std::int32_t> sorted = basis.basic;
  std::sort(sorted.begin(), sorted.end());
  const auto twice = std::adjacent_find(sorted.begin(), sorted.end());
  if (twice != sorted.end())
    reader.fail("root basis lists column " + std::to_string(*twice) + " twice");
  const std::string flags = reader.str();
  if (flags.size() != columns) reader.fail("root basis flags length " + std::to_string(flags.size()));
  basis.at_upper.resize(columns);
  for (std::size_t j = 0; j < columns; ++j) {
    if (flags[j] != '0' && flags[j] != '1') reader.fail("bad root basis flag");
    basis.at_upper[j] = flags[j] == '1' ? 1 : 0;
  }
  return basis;
}

void write_stats(RecordWriter& writer,
                 const milp::search::PseudocostTable::DirectionStats& stats) {
  writer.dbl(stats.gain_sum);
  writer.size_value(stats.solved);
  writer.size_value(stats.infeasible);
}

milp::search::PseudocostTable::DirectionStats read_stats(RecordReader& reader) {
  milp::search::PseudocostTable::DirectionStats stats;
  stats.gain_sum = reader.dbl();
  stats.solved = reader.size_value();
  stats.infeasible = reader.size_value();
  return stats;
}

Verdict verdict_from_index(std::size_t index, RecordReader& reader) {
  switch (index) {
    case 0:
      return Verdict::kSafe;
    case 1:
      return Verdict::kUnsafe;
    case 2:
      return Verdict::kUnknown;
    default:
      reader.fail("unknown verdict index " + std::to_string(index));
  }
}

std::size_t verdict_index(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe:
      return 0;
    case Verdict::kUnsafe:
      return 1;
    case Verdict::kUnknown:
      return 2;
  }
  return 2;
}

}  // namespace

const QueryArtifacts* DeltaArtifacts::find(std::size_t query_key) const {
  for (const QueryArtifacts& entry : queries)
    if (entry.query_key == query_key) return &entry;
  return nullptr;
}

void DeltaArtifacts::upsert(QueryArtifacts artifacts) {
  for (QueryArtifacts& entry : queries) {
    if (entry.query_key == artifacts.query_key) {
      entry = std::move(artifacts);
      return;
    }
  }
  queries.push_back(std::move(artifacts));
}

DeltaArtifacts make_base_artifacts(const nn::Network& network, std::size_t attach_layer) {
  DeltaArtifacts artifacts;
  artifacts.base_fingerprint = tail_fingerprint(network, 0);
  artifacts.attach_layer = attach_layer;
  return artifacts;
}

DeltaArtifacts advance_artifacts(const DeltaArtifacts& previous, const nn::Network& updated) {
  DeltaArtifacts next;
  next.base_fingerprint = previous.base_fingerprint;
  next.delta_chain = previous.delta_chain;
  next.delta_chain.push_back(tail_fingerprint(updated, 0));
  next.attach_layer = previous.attach_layer;
  return next;
}

QueryArtifacts harvest_to_artifacts(std::size_t query_key, const VerificationQuery& query,
                                    const VerificationResult& result, DeltaHarvest harvest) {
  QueryArtifacts artifacts;
  artifacts.query_key = query_key;
  artifacts.verdict = result.verdict;
  artifacts.input_box = query.input_box;
  artifacts.tail_boxes = std::move(harvest.tail_boxes);
  artifacts.root_basis = std::move(harvest.root_basis);
  artifacts.pseudocosts = std::move(harvest.pseudocosts);
  return artifacts;
}

void save_delta_artifacts(const std::string& path, const DeltaArtifacts& artifacts) {
  RecordWriter writer;
  writer.tag(kMagic);
  writer.size_value(kVersion);
  writer.newline();
  writer.tag("base");
  writer.size_value(artifacts.base_fingerprint);
  writer.tag("attach");
  writer.size_value(artifacts.attach_layer);
  writer.tag("chain");
  writer.size_value(artifacts.delta_chain.size());
  for (const std::size_t link : artifacts.delta_chain) writer.size_value(link);
  writer.tag("queries");
  writer.size_value(artifacts.queries.size());
  writer.newline();
  for (const QueryArtifacts& entry : artifacts.queries) {
    writer.tag("query");
    writer.size_value(entry.query_key);
    writer.tag("verdict");
    writer.size_value(verdict_index(entry.verdict));
    writer.newline();
    writer.tag("box");
    write_box(writer, entry.input_box);
    writer.newline();
    writer.tag("boxes");
    writer.size_value(entry.tail_boxes.size());
    for (const absint::Box& box : entry.tail_boxes) write_box(writer, box);
    writer.newline();
    writer.tag("basis");
    write_basis(writer, entry.root_basis);
    writer.newline();
    writer.tag("pcs");
    writer.size_value(entry.pseudocosts.size());
    writer.newline();
    for (const NamedPseudocost& prior : entry.pseudocosts) {
      writer.str(prior.var);
      write_stats(writer, prior.down);
      write_stats(writer, prior.up);
      writer.newline();
    }
  }
  common::write_file_atomic(path, writer.take(), "delta-artifact");
}

bool load_delta_artifacts(const std::string& path, DeltaArtifacts& out) {
  std::string text;
  if (!common::read_file(path, text)) return false;
  RecordReader reader(std::move(text), "delta-artifact " + path);
  reader.expect_tag(kMagic);
  const std::size_t version = reader.size_value();
  if (version != kVersion)
    reader.fail("unsupported version " + std::to_string(version));
  DeltaArtifacts artifacts;
  reader.expect_tag("base");
  artifacts.base_fingerprint = reader.size_value();
  reader.expect_tag("attach");
  artifacts.attach_layer = reader.size_value();
  reader.expect_tag("chain");
  artifacts.delta_chain.resize(reader.count());
  for (std::size_t& link : artifacts.delta_chain) link = reader.size_value();
  reader.expect_tag("queries");
  artifacts.queries.resize(reader.count());
  for (QueryArtifacts& entry : artifacts.queries) {
    reader.expect_tag("query");
    entry.query_key = reader.size_value();
    reader.expect_tag("verdict");
    entry.verdict = verdict_from_index(reader.size_value(), reader);
    reader.expect_tag("box");
    entry.input_box = read_box(reader);
    reader.expect_tag("boxes");
    entry.tail_boxes.resize(reader.count());
    for (absint::Box& box : entry.tail_boxes) box = read_box(reader);
    reader.expect_tag("basis");
    entry.root_basis = read_basis(reader);
    reader.expect_tag("pcs");
    entry.pseudocosts.resize(reader.count());
    for (NamedPseudocost& prior : entry.pseudocosts) {
      prior.var = reader.str();
      prior.down = read_stats(reader);
      prior.up = read_stats(reader);
    }
  }
  out = std::move(artifacts);
  return true;
}

const char* trace_reuse_name(TraceReuse reuse) {
  switch (reuse) {
    case TraceReuse::kNone:
      return "none";
    case TraceReuse::kExact:
      return "exact";
    case TraceReuse::kWidened:
      return "widened";
  }
  return "?";
}

void DeltaPlan::apply(TailVerifierOptions& options) const {
  if (trace != TraceReuse::kNone) {
    options.encode.tail_bound_trace = &bound_trace;
    options.encode.tail_bound_trace_key = trace_key;
  }
  if (!root_basis.empty()) options.milp.cuts.root_basis = &root_basis;
  if (!pseudocosts.empty()) options.pseudocost_priors = &pseudocosts;
}

DeltaPlan plan_delta_reuse(const DeltaArtifacts& artifacts, const QueryArtifacts& entry,
                           const nn::Network& base, const nn::Network& updated,
                           const VerificationQuery& query, const DeltaPlanOptions& options) {
  DeltaPlan plan;
  const nn::NetworkDiff diff = nn::diff_networks(base, updated);
  if (!diff.structurally_identical) return plan;
  if (artifacts.attach_layer != query.attach_layer) return plan;
  plan.usable = true;

  const std::size_t layer_count = updated.layer_count();
  const std::size_t attach = query.attach_layer;
  const std::size_t tail_length = layer_count - attach;

  // First changed layer *within the verified tail*: head-only retrains
  // (feature extractor fine-tuned below the cut, tail frozen) leave the
  // tail function identical even though the networks differ.
  std::size_t tail_first_changed = layer_count;
  for (const nn::LayerDelta& layer : diff.layers) {
    if (layer.changed && layer.layer >= attach) {
      tail_first_changed = layer.layer;
      break;
    }
  }
  plan.tail_identical = tail_first_changed == layer_count;
  const bool same_box = same_box_bits(entry.input_box, query.input_box);
  plan.abstraction_changed = !same_box;

  // The new certification's versioned identity: previous chain extended
  // by the updated model. Doubles as the encoder's trace key, so cache
  // bases built from different chains never alias.
  std::vector<std::size_t> chain = artifacts.delta_chain;
  chain.push_back(tail_fingerprint(updated, 0));
  plan.trace_key = versioned_cache_key(artifacts.base_fingerprint, chain);

  // ---- Bound trace -----------------------------------------------------
  // Only a trace with one box of the layer's width per tail layer can
  // bound this tail. A bundle may hold any other (a malformed file, or
  // one harvested from another network); that plans no reuse.
  bool trace_fits = entry.tail_boxes.size() == tail_length;
  for (std::size_t k = 0; trace_fits && k < tail_length; ++k)
    trace_fits = entry.tail_boxes[k].size() == updated.layer(attach + k).output_shape().numel();
  if (trace_fits) {
    if (plan.tail_identical && same_box) {
      // Bit-identical tail + abstraction: the realized boxes ARE the
      // bounds a fresh encode would compute; injecting them reproduces
      // the encoding bit-identically (trace-override parity).
      plan.trace = TraceReuse::kExact;
      plan.bound_trace = entry.tail_boxes;
    } else {
      const absint::PerturbationTrace radii = absint::perturbation_radii(
          base, updated, entry.tail_boxes, entry.input_box, query.input_box, attach);
      if (radii.supported && radii.max_radius <= options.max_widening) {
        plan.trace = TraceReuse::kWidened;
        plan.widening = radii.max_radius;
        plan.bound_trace.reserve(tail_length);
        for (std::size_t k = 0; k < tail_length; ++k)
          plan.bound_trace.push_back(absint::widen_box(entry.tail_boxes[k], radii.radii[k]));
      }
    }
  }

  // ---- Root basis -----------------------------------------------------
  // A warm start of round 0's LP only; branch and bound solves cold when
  // it does not fit the new problem's shape.
  plan.root_basis = entry.root_basis;

  // ---- Pseudocost priors ----------------------------------------------
  // Name-keyed, demoted at seed time, order-only: safe whenever the
  // architecture matches.
  plan.pseudocosts = entry.pseudocosts;

  return plan;
}

}  // namespace dpv::verify
