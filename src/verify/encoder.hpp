// MILP encoding of verified sub-networks.
//
// Encodes the tail g^(L) ∘ ... ∘ g^(l+1) (and, sharing the same layer-l
// variables, the input property characterizer h_l^phi) into a
// MilpProblem:
//   * layer-l neurons become box-bounded continuous variables, optionally
//     constrained by the monitor's adjacent-difference bounds (the S̃
//     polyhedron of the assume-guarantee approach),
//   * Dense / BatchNorm layers become linear equality rows,
//   * ReLU neurons become the standard big-M construction with one binary
//     phase variable — unless their pre-activation bounds prove them
//     stable, in which case they are eliminated (encoded linearly),
//   * bounds come from interval propagation or, optionally, from
//     per-neuron LP tightening on the partial relaxation (the
//     abstraction-refinement knob of experiment E7).
#pragma once

#include <cstddef>
#include <vector>

#include "absint/box_domain.hpp"
#include "milp/branch_and_bound.hpp"
#include "milp/milp_problem.hpp"
#include "nn/network.hpp"
#include "verify/risk_spec.hpp"

namespace dpv::verify {

/// How pre-activation bounds for big-M are obtained.
/// Cost and tightness both grow down the list:
///   interval ⊆ zonotope ⊆ symbolic ⊆ LP-tightening
/// (every method's boxes are intersected with plain interval propagation,
/// so none is ever looser than kInterval).
enum class BoundMethod {
  kInterval,      ///< interval arithmetic layer by layer
  kZonotope,      ///< affine-form pre-pass (absint::propagate_zonotope_trace)
  kSymbolic,      ///< DeepPoly-style linear bounds (absint::symbolic_bounds_trace)
  kLpTightening,  ///< per-neuron min/max LPs on the partial relaxation
};

const char* bound_method_name(BoundMethod method);

struct EncodeOptions {
  BoundMethod bounds = BoundMethod::kInterval;
  /// Encode provably-active/inactive ReLUs linearly (no binary).
  bool eliminate_stable_relus = true;
  /// Add the Planet-style convex upper envelope
  /// y <= hi * (x - lo) / (hi - lo) for every unstable ReLU. Sound for
  /// the exact MILP (implied by the big-M rows + integrality) but
  /// strengthens the LP relaxation, pruning branch & bound nodes.
  bool triangle_relaxation = true;
  /// Generator budget for the kZonotope pre-pass: every unstable ReLU
  /// adds a noise symbol, so wide tails grow quadratically without order
  /// reduction. 0 = unlimited. Reduction preserves per-neuron radii, so
  /// bounds stay sound (and never looser than interval) at any budget.
  std::size_t zonotope_generator_budget = 256;
  /// Externally supplied sound per-layer boxes for the verified tail
  /// (delta-reuse injection): element k bounds the activations after
  /// layer attach_layer + k. When set, the encoder skips its own
  /// zonotope/symbolic pre-pass and per-neuron LP tightening over the
  /// tail and intersects these boxes instead (plain interval
  /// propagation still runs, so a loose trace can never make bounds
  /// unsound — only wide). Injecting the realized_tail_boxes exported
  /// by a previous encode of the same tail reproduces that encoding
  /// bit-identically. Characterizer encodes are unaffected. The caller
  /// owns the trace; it must outlive every encoding built from it.
  const std::vector<absint::Box>* tail_bound_trace = nullptr;
  /// Content identity of the injected trace. Part of the encoding-cache
  /// key (see SharedTailEncoding::matches), so bases built from
  /// different traces — e.g. different base-model versions — never
  /// alias. Must be nonzero whenever tail_bound_trace is set.
  std::size_t tail_bound_trace_key = 0;
  lp::SimplexOptions lp_options = {};
};

struct EncodingStats {
  std::size_t relu_neurons = 0;
  std::size_t stable_relus = 0;
  std::size_t binaries = 0;
  std::size_t variables = 0;
  std::size_t rows = 0;
  std::size_t tightening_lps = 0;
  /// Wall seconds spent building this problem: a full fresh encode, or —
  /// when `from_cache` — just the stamp-out (base copy + per-query rows).
  double encode_seconds = 0.0;
  /// True when the tail came from a SharedTailEncoding instead of being
  /// re-encoded; `reused_*` then count the inherited base problem.
  bool from_cache = false;
  std::size_t reused_variables = 0;
  std::size_t reused_rows = 0;
};

/// The encoded problem plus the variable bookkeeping needed to extract
/// counterexamples.
struct TailEncoding {
  milp::MilpProblem problem;
  std::vector<std::size_t> input_vars;   ///< layer-l neuron variables
  std::vector<std::size_t> output_vars;  ///< network output variables
  /// Logit variable of the characterizer (only when one was encoded).
  std::size_t characterizer_logit_var = static_cast<std::size_t>(-1);
  /// Realized per-layer boxes of the verified tail: element k is the
  /// *final* bound box after layer attach_layer + k, post pre-pass
  /// intersection and LP tightening — exactly the bounds the big-M
  /// rows were built from. Re-injecting them through
  /// EncodeOptions::tail_bound_trace reproduces this encoding
  /// bit-identically; widening them (absint/perturbation) yields sound
  /// bounds for a small-delta retrained tail.
  std::vector<absint::Box> realized_tail_boxes;
  EncodingStats stats;
};

/// Linear relation constraint at layer l:
/// lo <= n[second] - n[first] <= hi (imported from a RelationMonitor).
struct PairConstraint {
  std::size_t first = 0;
  std::size_t second = 0;
  absint::Interval bounds;
};

/// Everything that defines one safety query (Definition 1 + Lemma 2).
struct VerificationQuery {
  const nn::Network* network = nullptr;
  /// Cut depth l: layers [attach_layer, L) form the verified tail.
  std::size_t attach_layer = 0;
  /// Optional characterizer h_l^phi reading the layer-l features;
  /// nullptr verifies over the whole box (no property constraint).
  const nn::Network* characterizer = nullptr;
  /// Decision threshold: h = 1 iff logit >= this value.
  double characterizer_threshold = 0.0;
  /// The abstraction S (static) or S̃ (from the monitor) at layer l.
  absint::Box input_box;
  /// Optional adjacent-difference bounds (S̃ strengthening; empty = none).
  std::vector<absint::Interval> diff_bounds;
  /// Optional generalized pairwise bounds (RelationMonitor import).
  std::vector<PairConstraint> pair_bounds;
  /// The risk condition psi over the network outputs.
  RiskSpec risk;
};

/// Builds the MILP whose feasibility is equivalent (over S̃) to the
/// existence of a counterexample. Throws ContractViolation when the tail
/// contains layer kinds outside {dense, relu, batchnorm, flatten}.
///
/// Equivalent to encode_tail_base followed by append_query_rows; kept as
/// the one-shot entry point for callers without a SharedTailEncoding.
TailEncoding encode_tail_query(const VerificationQuery& query, const EncodeOptions& options);

/// The query-independent part of the encoding: layer-l variables, the
/// abstraction rows (box / diff / pair bounds) and the verified tail.
/// The risk condition and characterizer of `query` are ignored (the risk
/// spec may be empty here). This is what a SharedTailEncoding freezes
/// and re-stamps across queries.
TailEncoding encode_tail_base(const VerificationQuery& query, const EncodeOptions& options);

/// Appends the per-query rows — the risk condition over the output
/// variables and, when present, the characterizer network constrained to
/// h = 1 — to a base built by encode_tail_base for the same query key.
/// Row/variable order matches encode_tail_query exactly, so stamped-out
/// problems are bit-identical to fresh encodes (same branch & bound
/// trajectory, same counterexample).
void append_query_rows(TailEncoding& encoding, const VerificationQuery& query,
                       const EncodeOptions& options);

}  // namespace dpv::verify
