// Incremental shared tail encoding across queries and campaign entries.
//
// Profiling the campaign path shows that after PR 1 made MILP queries
// cheap to *solve*, the remaining cost is *building* them: bounds are
// re-propagated layer by layer and the identical tail re-encoded for
// every (property, risk) pair even though only the characterizer and
// risk rows differ. A SharedTailEncoding freezes the query-independent
// part — layer-l variables, abstraction rows, tail affine/ReLU rows and
// the bound set — once per (network, attach_layer, abstraction,
// bound-method) key; per-query problems are then stamped out by copying
// the frozen base and appending only the characterizer and risk rows.
// Stamped problems are bit-identical to fresh encodes (same row and
// variable order), so verdicts, counterexamples and node counts are
// unchanged — only encode time drops.
//
// Concurrency: copy-on-freeze, no mutex. A SharedTailEncoding is
// immutable after construction; the cache stores them behind
// shared_ptr<const ...> in a lock-free persistent list updated with
// atomic compare-exchange. Concurrent misses on the same key may build
// the base twice — both builds are deterministic and identical, one
// wins the publish race, and correctness is unaffected.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>

#include "verify/encoder.hpp"

namespace dpv::verify {

/// A frozen base encoding (tail + abstraction, no risk/characterizer
/// rows) plus the key that identifies which queries it can serve.
class SharedTailEncoding {
 public:
  /// Builds and freezes the base for `query`'s shared part. The risk
  /// spec and characterizer of `query` are ignored — they are appended
  /// per instantiation. `fingerprint` must equal
  /// tail_fingerprint(*query.network, query.attach_layer); the cache's
  /// miss path has it already.
  SharedTailEncoding(const VerificationQuery& query, const EncodeOptions& options,
                     std::size_t fingerprint);

  /// True when the frozen base can serve `query`: same network (pointer
  /// AND weight fingerprint, so a destroyed-and-reallocated or mutated
  /// network at the same address is detected instead of silently served
  /// a stale base) and attach layer, same abstraction (box / diff /
  /// pair bounds, compared exactly) and same bound-method options. Any
  /// mismatch simply means a different cache entry — there is no
  /// in-place invalidation; a changed abstraction produces a new key.
  /// `tail_fingerprint` is the query's, computed once per cache walk.
  bool matches(const VerificationQuery& query, const EncodeOptions& options,
               std::size_t tail_fingerprint) const;

  /// Stamps out a full per-query problem: copies the frozen base and
  /// appends the risk rows and (when present) the characterizer.
  /// Bit-identical to encode_tail_query(query, options) on the same key.
  TailEncoding instantiate(const VerificationQuery& query) const;

  const EncodingStats& base_stats() const { return base_.stats; }
  std::size_t base_variables() const { return base_.stats.variables; }
  std::size_t base_rows() const { return base_.stats.rows; }
  /// Wall seconds the one-time base encode took (amortized over hits).
  double base_encode_seconds() const { return base_.stats.encode_seconds; }

 private:
  EncodeOptions options_;
  const nn::Network* network_ = nullptr;
  std::size_t attach_layer_ = 0;
  std::size_t tail_fingerprint_ = 0;  ///< content hash of layers [attach, L)
  absint::Box input_box_;
  std::vector<absint::Interval> diff_bounds_;
  std::vector<PairConstraint> pair_bounds_;
  TailEncoding base_;  ///< immutable after the constructor returns
};

/// FNV-1a hash over the layer kinds, shapes and parameters of layers
/// [from_layer, layer_count): the content part of the cache key. O(#
/// parameters) — trivial next to an encode, and it turns the "network
/// freed and another allocated at the same address" hazard from a wrong
/// verdict into a cache miss.
std::size_t tail_fingerprint(const nn::Network& net, std::size_t from_layer);

/// Versioned cache identity for delta re-certification: the base
/// model's tail fingerprint folded with the tail fingerprint of every
/// retrained version since (the "delta chain", oldest first). Chain
/// order matters — certifying v2-from-v1-from-v0 and v2-from-v0
/// produce different keys, because the reused artifacts (widened
/// traces, root bases, priors) differ even when the final weights agree.
/// The result is never zero, so it can serve directly as
/// EncodeOptions::tail_bound_trace_key and as the identity stamped
/// into persisted delta artifacts (verify::DeltaArtifacts).
std::size_t versioned_cache_key(std::size_t base_fingerprint,
                                const std::vector<std::size_t>& delta_chain);

/// Lock-free cache of SharedTailEncodings, shared across a campaign's
/// worker pool. Lookup walks an immutable persistent list; insertion is
/// a compare-exchange on the head pointer.
class EncodingCache {
 public:
  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;  ///< base encodes performed (>= distinct keys under races)
    std::size_t reused_rows = 0;       ///< base rows inherited across all hits
    std::size_t reused_variables = 0;  ///< base variables inherited across all hits
    double base_encode_seconds = 0.0;  ///< total one-time base encode cost
  };

  /// Returns a frozen base serving `query`, building (and publishing)
  /// one on a miss. The returned pointer stays valid for the caller's
  /// lifetime regardless of later insertions.
  std::shared_ptr<const SharedTailEncoding> get_or_build(const VerificationQuery& query,
                                                         const EncodeOptions& options);

  Stats stats() const;

 private:
  struct Node {
    std::shared_ptr<const SharedTailEncoding> encoding;
    std::shared_ptr<const Node> next;
  };

  std::shared_ptr<const Node> head_;
  std::atomic<std::size_t> hits_{0};
  std::atomic<std::size_t> misses_{0};
  std::atomic<std::size_t> reused_rows_{0};
  std::atomic<std::size_t> reused_variables_{0};
  std::atomic<double> base_encode_seconds_{0.0};
};

}  // namespace dpv::verify
