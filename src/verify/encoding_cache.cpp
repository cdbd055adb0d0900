#include "verify/encoding_cache.hpp"

#include <chrono>
#include <cstdint>
#include <cstring>

#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"

namespace dpv::verify {

namespace {

void hash_bytes(std::size_t& h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 1099511628211ull;  // FNV-1a 64-bit prime
  }
}

void hash_double(std::size_t& h, double d) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  hash_bytes(h, bits);
}

}  // namespace

std::size_t tail_fingerprint(const nn::Network& net, std::size_t from_layer) {
  std::size_t h = 14695981039346656037ull;  // FNV offset basis
  for (std::size_t i = from_layer; i < net.layer_count(); ++i) {
    const nn::Layer& layer = net.layer(i);
    hash_bytes(h, static_cast<std::uint64_t>(layer.kind()));
    hash_bytes(h, layer.input_shape().numel());
    hash_bytes(h, layer.output_shape().numel());
    switch (layer.kind()) {
      case nn::LayerKind::kDense: {
        const auto& d = static_cast<const nn::Dense&>(layer);
        for (std::size_t k = 0; k < d.weight().numel(); ++k) hash_double(h, d.weight()[k]);
        for (std::size_t k = 0; k < d.bias().numel(); ++k) hash_double(h, d.bias()[k]);
        break;
      }
      case nn::LayerKind::kBatchNorm: {
        const auto& bn = static_cast<const nn::BatchNorm&>(layer);
        for (std::size_t f = 0; f < bn.input_shape().numel(); ++f) {
          hash_double(h, bn.effective_scale(f));
          hash_double(h, bn.effective_shift(f));
        }
        break;
      }
      default:
        break;  // parameterless layers: kind + shapes suffice
    }
  }
  return h;
}

std::size_t versioned_cache_key(std::size_t base_fingerprint,
                                const std::vector<std::size_t>& delta_chain) {
  std::size_t h = 14695981039346656037ull;
  hash_bytes(h, static_cast<std::uint64_t>(base_fingerprint));
  hash_bytes(h, static_cast<std::uint64_t>(delta_chain.size()));
  for (std::size_t link : delta_chain) hash_bytes(h, static_cast<std::uint64_t>(link));
  if (h == 0) h = 14695981039346656037ull;  // reserve 0 for "no trace key"
  return h;
}

namespace {

bool same_options(const EncodeOptions& a, const EncodeOptions& b) {
  // Injected bound traces are compared by content key, not pointer: two
  // traces with the same key are the same artifact (the delta layer
  // derives the key from the versioned cache identity), while a base
  // built from version A's trace must never serve version B's queries.
  return a.bounds == b.bounds && a.eliminate_stable_relus == b.eliminate_stable_relus &&
         a.triangle_relaxation == b.triangle_relaxation &&
         a.zonotope_generator_budget == b.zonotope_generator_budget &&
         (a.tail_bound_trace == nullptr) == (b.tail_bound_trace == nullptr) &&
         a.tail_bound_trace_key == b.tail_bound_trace_key &&
         a.lp_options.max_iterations == b.lp_options.max_iterations &&
         a.lp_options.bland_after == b.lp_options.bland_after &&
         a.lp_options.tolerance == b.lp_options.tolerance;
}

bool same_box(const absint::Box& a, const absint::Box& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].lo != b[i].lo || a[i].hi != b[i].hi) return false;
  return true;
}

bool same_intervals(const std::vector<absint::Interval>& a,
                    const std::vector<absint::Interval>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].lo != b[i].lo || a[i].hi != b[i].hi) return false;
  return true;
}

bool same_pairs(const std::vector<PairConstraint>& a, const std::vector<PairConstraint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i)
    if (a[i].first != b[i].first || a[i].second != b[i].second ||
        a[i].bounds.lo != b[i].bounds.lo || a[i].bounds.hi != b[i].bounds.hi)
      return false;
  return true;
}

}  // namespace

SharedTailEncoding::SharedTailEncoding(const VerificationQuery& query,
                                       const EncodeOptions& options, std::size_t fingerprint)
    : options_(options),
      network_(query.network),
      attach_layer_(query.attach_layer),
      tail_fingerprint_(fingerprint),
      input_box_(query.input_box),
      diff_bounds_(query.diff_bounds),
      pair_bounds_(query.pair_bounds),
      base_(encode_tail_base(query, options)) {}

bool SharedTailEncoding::matches(const VerificationQuery& query, const EncodeOptions& options,
                                 std::size_t fingerprint) const {
  return query.network == network_ && fingerprint == tail_fingerprint_ &&
         query.attach_layer == attach_layer_ && same_options(options, options_) &&
         same_box(query.input_box, input_box_) &&
         same_intervals(query.diff_bounds, diff_bounds_) &&
         same_pairs(query.pair_bounds, pair_bounds_);
}

TailEncoding SharedTailEncoding::instantiate(const VerificationQuery& query) const {
  const auto start = std::chrono::steady_clock::now();
  TailEncoding enc;
  enc.problem = base_.problem;  // copy of the frozen base
  enc.input_vars = base_.input_vars;
  enc.output_vars = base_.output_vars;
  enc.realized_tail_boxes = base_.realized_tail_boxes;
  enc.stats = base_.stats;
  enc.stats.from_cache = true;
  enc.stats.reused_variables = base_.stats.variables;
  enc.stats.reused_rows = base_.stats.rows;
  append_query_rows(enc, query, options_);
  enc.stats.encode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return enc;
}

std::shared_ptr<const SharedTailEncoding> EncodingCache::get_or_build(
    const VerificationQuery& query, const EncodeOptions& options) {
  check(query.network != nullptr, "EncodingCache::get_or_build: null network");
  const std::size_t fingerprint = tail_fingerprint(*query.network, query.attach_layer);
  for (std::shared_ptr<const Node> node = std::atomic_load(&head_); node != nullptr;
       node = node->next) {
    if (node->encoding->matches(query, options, fingerprint)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      reused_rows_.fetch_add(node->encoding->base_rows(), std::memory_order_relaxed);
      reused_variables_.fetch_add(node->encoding->base_variables(),
                                  std::memory_order_relaxed);
      return node->encoding;
    }
  }

  // Miss: build outside any lock (deterministic — a racing duplicate is
  // bit-identical) and publish with a head compare-exchange.
  auto built = std::make_shared<const SharedTailEncoding>(query, options, fingerprint);
  misses_.fetch_add(1, std::memory_order_relaxed);
  double expected = base_encode_seconds_.load(std::memory_order_relaxed);
  while (!base_encode_seconds_.compare_exchange_weak(
      expected, expected + built->base_encode_seconds(), std::memory_order_relaxed)) {
  }
  auto node = std::make_shared<Node>();
  node->encoding = built;
  std::shared_ptr<const Node> old_head = std::atomic_load(&head_);
  std::shared_ptr<const Node> new_head = node;
  do {
    node->next = old_head;
  } while (!std::atomic_compare_exchange_weak(&head_, &old_head, new_head));
  return built;
}

EncodingCache::Stats EncodingCache::stats() const {
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.reused_rows = reused_rows_.load(std::memory_order_relaxed);
  s.reused_variables = reused_variables_.load(std::memory_order_relaxed);
  s.base_encode_seconds = base_encode_seconds_.load(std::memory_order_relaxed);
  return s;
}

}  // namespace dpv::verify
