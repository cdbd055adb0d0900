#include "verify/encoder.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>
#include <string>

#include "absint/linear_bounds.hpp"
#include "absint/zonotope.hpp"
#include "common/check.hpp"
#include "lp/simplex.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"

namespace dpv::verify {

const char* bound_method_name(BoundMethod method) {
  switch (method) {
    case BoundMethod::kInterval:
      return "interval";
    case BoundMethod::kZonotope:
      return "zonotope";
    case BoundMethod::kSymbolic:
      return "symbolic";
    case BoundMethod::kLpTightening:
      return "lp-tightening";
  }
  return "?";
}

namespace {

/// Walks a layer range, adding variables and rows to the shared problem.
class NetworkEncoder {
 public:
  /// Affine expansion of a freshly-added variable over the previous
  /// layer's variables (x = terms . v + bias) — the metadata the cut
  /// engine needs to split an unstable ReLU's big-M block
  /// (milp::ReluSplitInfo). Tracked only across the single affine layer
  /// feeding a ReLU; anything nonlinear clears it.
  struct AffineExpr {
    std::vector<lp::LinearTerm> terms;
    double bias = 0.0;
  };

  NetworkEncoder(milp::MilpProblem& problem, const EncodeOptions& options, EncodingStats& stats)
      : problem_(problem), options_(options), stats_(stats) {}

  /// Current variables (one per neuron of the current layer).
  const std::vector<std::size_t>& vars() const { return vars_; }
  const absint::Box& bounds() const { return bounds_; }

  void start(std::vector<std::size_t> input_vars, absint::Box input_box) {
    vars_ = std::move(input_vars);
    bounds_ = std::move(input_box);
    affine_.assign(vars_.size(), std::nullopt);
  }

  /// Replaces the bound pre-pass (and disables LP tightening) with an
  /// externally supplied sound per-layer trace; element k must cover
  /// the layer from_layer + k of the next encode_range call.
  void set_external_trace(const std::vector<absint::Box>* trace) {
    external_trace_ = trace;
  }

  /// Captures the realized (post-intersection, post-tightening) box and
  /// variable list after every layer of the next encode_range call.
  void set_capture(std::vector<absint::Box>* boxes,
                   std::vector<std::vector<std::size_t>>* vars) {
    capture_boxes_ = boxes;
    capture_vars_ = vars;
  }

  void encode_range(const nn::Network& net, std::size_t from_layer, std::size_t to_layer,
                    const std::string& prefix) {
    // The symbolic / zonotope pre-passes compute per-layer bounds over
    // the whole range up front; the walk below intersects them in after
    // each layer, so neither can ever be looser than plain intervals.
    // Zonotopes fall back to intervals where the domain does not apply
    // (pooling layers; dense/relu/batchnorm tails are covered).
    // An injected external trace replaces the pre-pass entirely — the
    // delta-reuse path pays interval propagation only.
    std::vector<absint::Box> trace;
    const std::vector<absint::Box>* trace_ptr = external_trace_;
    if (trace_ptr != nullptr) {
      internal_check(trace_ptr->size() == to_layer - from_layer,
                     "encoder: external trace length mismatch");
    } else if (options_.bounds == BoundMethod::kSymbolic) {
      trace = absint::symbolic_bounds_trace(net, bounds_, from_layer, to_layer);
      trace_ptr = &trace;
    } else if (options_.bounds == BoundMethod::kZonotope &&
               absint::zonotope_supported(net, from_layer, to_layer)) {
      trace = absint::propagate_zonotope_trace(net, bounds_, from_layer, to_layer,
                                               options_.zonotope_generator_budget);
      trace_ptr = &trace;
    }

    for (std::size_t i = from_layer; i < to_layer; ++i) {
      const nn::Layer& layer = net.layer(i);
      const std::string tag = prefix + "_l" + std::to_string(i);
      switch (layer.kind()) {
        case nn::LayerKind::kDense:
          encode_dense(static_cast<const nn::Dense&>(layer), tag);
          break;
        case nn::LayerKind::kBatchNorm:
          encode_batchnorm(static_cast<const nn::BatchNorm&>(layer), tag);
          break;
        case nn::LayerKind::kReLU:
          encode_relu(tag);
          break;
        case nn::LayerKind::kFlatten:
          break;  // reshape only: variables and bounds unchanged
        default:
          throw ContractViolation(
              "encode_tail_query: unsupported layer kind '" +
              nn::layer_kind_name(layer.kind()) +
              "' in verified tail; cut the network after the convolutional stack (Lemma 1)");
      }
      if (trace_ptr != nullptr && !trace_ptr->empty())
        apply_external_bounds((*trace_ptr)[i - from_layer]);
      if (capture_boxes_ != nullptr) capture_boxes_->push_back(bounds_);
      if (capture_vars_ != nullptr) capture_vars_->push_back(vars_);
    }
  }

 private:
  /// Intersects the tracked bounds (and the LP variable boxes) with an
  /// externally computed sound box for the current layer.
  void apply_external_bounds(const absint::Box& external) {
    internal_check(external.size() == bounds_.size(),
                   "encoder: external bounds arity mismatch");
    for (std::size_t i = 0; i < bounds_.size(); ++i) {
      const double lo = std::max(bounds_[i].lo, external[i].lo);
      const double hi = std::min(bounds_[i].hi, external[i].hi);
      const absint::Interval merged(std::min(lo, hi), std::max(lo, hi));
      if (merged.lo <= bounds_[i].lo && merged.hi >= bounds_[i].hi) continue;
      bounds_[i] = merged;
      lp::LpProblem& relaxation = problem_.relaxation();
      const std::size_t var = vars_[i];
      double nl = std::max(relaxation.lower_bound(var), merged.lo);
      double nu = std::min(relaxation.upper_bound(var), merged.hi);
      if (nl > nu) nl = nu;  // numerical guard
      relaxation.set_bounds(var, nl, nu);
    }
  }

  /// Interval bounds for an affine row over the current bounds.
  absint::Interval affine_interval(const std::vector<double>& weights, double bias) const {
    absint::Interval acc(bias, bias);
    for (std::size_t c = 0; c < weights.size(); ++c)
      acc = acc + absint::scale(bounds_[c], weights[c]);
    return acc;
  }

  /// Optionally tightens [lo, hi] of `var` by solving its min and max
  /// LPs (one solve_range) on the partial relaxation built so far.
  absint::Interval tighten(std::size_t var, absint::Interval bounds) {
    if (options_.bounds != BoundMethod::kLpTightening) return bounds;
    // An injected trace already carries the realized (tightened) boxes;
    // skipping the per-neuron LPs is the whole speedup of trace reuse.
    if (external_trace_ != nullptr) return bounds;
    lp::LpProblem& relaxation = problem_.relaxation();
    const lp::LpRange range = lp::SimplexSolver(options_.lp_options).solve_range(relaxation, var);
    stats_.tightening_lps += 2;
    double lo = bounds.lo, hi = bounds.hi;
    if (range.min.status == lp::SolveStatus::kOptimal) lo = std::max(lo, range.min.objective - 1e-9);
    if (range.max.status == lp::SolveStatus::kOptimal) hi = std::min(hi, range.max.objective + 1e-9);
    if (lo > hi) lo = hi;  // numerical guard; keeps the box non-empty
    relaxation.set_bounds(var, lo, hi);
    return absint::Interval(lo, hi);
  }

  void encode_dense(const nn::Dense& layer, const std::string& tag) {
    const std::size_t out_n = layer.output_shape().numel();
    const std::size_t in_n = layer.input_shape().numel();
    internal_check(vars_.size() == in_n, "encoder: dense input arity mismatch");
    std::vector<std::size_t> out_vars(out_n);
    absint::Box out_bounds(out_n);
    std::vector<std::optional<AffineExpr>> out_affine(out_n);
    for (std::size_t r = 0; r < out_n; ++r) {
      std::vector<double> weights(in_n);
      for (std::size_t c = 0; c < in_n; ++c) weights[c] = layer.weight().at2(r, c);
      absint::Interval iv = affine_interval(weights, layer.bias()[r]);
      const std::size_t y =
          problem_.add_variable(milp::VarType::kContinuous, iv.lo, iv.hi,
                                tag + "_n" + std::to_string(r));
      // y - sum w x = b
      std::vector<lp::LinearTerm> terms{{y, 1.0}};
      AffineExpr expr{{}, layer.bias()[r]};
      for (std::size_t c = 0; c < in_n; ++c) {
        if (weights[c] == 0.0) continue;
        terms.push_back({vars_[c], -weights[c]});
        expr.terms.push_back({vars_[c], weights[c]});
      }
      problem_.add_row(std::move(terms), lp::RowSense::kEqual, layer.bias()[r]);
      iv = tighten(y, iv);
      out_vars[r] = y;
      out_bounds[r] = iv;
      out_affine[r] = std::move(expr);
    }
    vars_ = std::move(out_vars);
    bounds_ = std::move(out_bounds);
    affine_ = std::move(out_affine);
  }

  void encode_batchnorm(const nn::BatchNorm& layer, const std::string& tag) {
    const std::size_t n = layer.input_shape().numel();
    internal_check(vars_.size() == n, "encoder: batchnorm input arity mismatch");
    std::vector<std::size_t> out_vars(n);
    absint::Box out_bounds(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double a = layer.effective_scale(i);
      const double b = layer.effective_shift(i);
      absint::Interval iv = absint::shift(absint::scale(bounds_[i], a), b);
      const std::size_t y = problem_.add_variable(milp::VarType::kContinuous, iv.lo, iv.hi,
                                                  tag + "_n" + std::to_string(i));
      problem_.add_row({{y, 1.0}, {vars_[i], -a}}, lp::RowSense::kEqual, b);
      iv = tighten(y, iv);
      out_vars[i] = y;
      out_bounds[i] = iv;
    }
    vars_ = std::move(out_vars);
    bounds_ = std::move(out_bounds);
    // Single-variable expansions cannot be split (the triangle row is
    // already the convex hull of one input); drop the tracking.
    affine_.assign(vars_.size(), std::nullopt);
  }

  void encode_relu(const std::string& tag) {
    const std::size_t n = vars_.size();
    std::vector<std::size_t> out_vars(n);
    absint::Box out_bounds(n);
    for (std::size_t i = 0; i < n; ++i) {
      ++stats_.relu_neurons;
      const double lo = bounds_[i].lo;
      const double hi = bounds_[i].hi;
      if (options_.eliminate_stable_relus && lo >= 0.0) {
        // Provably active: identity (reuse the pre-activation variable).
        ++stats_.stable_relus;
        out_vars[i] = vars_[i];
        out_bounds[i] = bounds_[i];
        continue;
      }
      if (options_.eliminate_stable_relus && hi <= 0.0) {
        // Provably inactive: constant zero.
        ++stats_.stable_relus;
        out_vars[i] = problem_.add_variable(milp::VarType::kContinuous, 0.0, 0.0,
                                            tag + "_y" + std::to_string(i));
        out_bounds[i] = absint::Interval(0.0, 0.0);
        continue;
      }
      // Unstable (or elimination disabled): big-M with binary phase z.
      const double lo_neg = std::min(lo, 0.0);
      const double hi_pos = std::max(hi, 0.0);
      const std::size_t y = problem_.add_variable(milp::VarType::kContinuous, 0.0, hi_pos,
                                                  tag + "_y" + std::to_string(i));
      const std::size_t z = problem_.add_variable(milp::VarType::kBinary, 0.0, 1.0,
                                                  tag + "_z" + std::to_string(i));
      ++stats_.binaries;
      const std::size_t x = vars_[i];
      // y >= x
      problem_.add_row({{y, 1.0}, {x, -1.0}}, lp::RowSense::kGreaterEqual, 0.0);
      // y <= hi * z
      problem_.add_row({{y, 1.0}, {z, -hi_pos}}, lp::RowSense::kLessEqual, 0.0);
      // y <= x - lo * (1 - z)   <=>   y - x - lo*z <= -lo
      problem_.add_row({{y, 1.0}, {x, -1.0}, {z, -lo_neg}}, lp::RowSense::kLessEqual, -lo_neg);
      // Register the block for the cut engine when the pre-activation's
      // affine expansion over the previous layer is known and wide
      // enough for subset splits to add anything beyond the rows above.
      if (i < affine_.size() && affine_[i].has_value() && affine_[i]->terms.size() >= 2)
        problem_.add_relu_split({affine_[i]->terms, affine_[i]->bias, y, z});
      if (options_.triangle_relaxation && lo < 0.0 && hi > 0.0) {
        // Convex upper envelope (the "triangle" of Planet / Ehlers'17):
        //   y <= hi * (x - lo) / (hi - lo)
        // Redundant for integral z but cuts fractional LP solutions.
        const double slope = hi / (hi - lo);
        problem_.add_row({{y, 1.0}, {x, -slope}}, lp::RowSense::kLessEqual, -slope * lo);
      }
      out_vars[i] = y;
      out_bounds[i] = absint::relu(bounds_[i]);
    }
    vars_ = std::move(out_vars);
    bounds_ = std::move(out_bounds);
    affine_.assign(vars_.size(), std::nullopt);  // outputs are nonlinear
  }

  milp::MilpProblem& problem_;
  const EncodeOptions& options_;
  EncodingStats& stats_;
  const std::vector<absint::Box>* external_trace_ = nullptr;
  std::vector<absint::Box>* capture_boxes_ = nullptr;
  std::vector<std::vector<std::size_t>>* capture_vars_ = nullptr;
  std::vector<std::size_t> vars_;
  absint::Box bounds_;
  /// Per current variable: affine expansion over the previous layer
  /// (set by encode_dense, consumed by encode_relu, cleared by anything
  /// nonlinear).
  std::vector<std::optional<AffineExpr>> affine_;
};

}  // namespace

TailEncoding encode_tail_base(const VerificationQuery& query, const EncodeOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  check(query.network != nullptr, "encode_tail_query: null network");
  const nn::Network& net = *query.network;
  check(query.attach_layer < net.layer_count(), "encode_tail_query: attach layer out of range");
  const std::size_t feature_n = net.layer(query.attach_layer).input_shape().numel();
  check(query.input_box.size() == feature_n,
        "encode_tail_query: input box size " + std::to_string(query.input_box.size()) +
            " does not match layer-l width " + std::to_string(feature_n));
  check(query.diff_bounds.empty() || query.diff_bounds.size() + 1 == feature_n,
        "encode_tail_query: diff bound count must be layer width - 1");

  TailEncoding enc;

  // Layer-l feature variables bounded by the abstraction box.
  enc.input_vars.reserve(feature_n);
  for (std::size_t i = 0; i < feature_n; ++i)
    enc.input_vars.push_back(enc.problem.add_variable(milp::VarType::kContinuous,
                                                      query.input_box[i].lo,
                                                      query.input_box[i].hi,
                                                      "feat_n" + std::to_string(i)));

  // Adjacent-difference strengthening of S̃ (Sec. V of the paper).
  for (std::size_t i = 0; i < query.diff_bounds.size(); ++i) {
    const absint::Interval& d = query.diff_bounds[i];
    enc.problem.add_row({{enc.input_vars[i + 1], 1.0}, {enc.input_vars[i], -1.0}},
                        lp::RowSense::kGreaterEqual, d.lo);
    enc.problem.add_row({{enc.input_vars[i + 1], 1.0}, {enc.input_vars[i], -1.0}},
                        lp::RowSense::kLessEqual, d.hi);
  }

  // Generalized pairwise relations (RelationMonitor import).
  for (const PairConstraint& pc : query.pair_bounds) {
    check(pc.first < feature_n && pc.second < feature_n && pc.first != pc.second,
          "encode_tail_query: pair constraint indices out of range");
    enc.problem.add_row({{enc.input_vars[pc.second], 1.0}, {enc.input_vars[pc.first], -1.0}},
                        lp::RowSense::kGreaterEqual, pc.bounds.lo);
    enc.problem.add_row({{enc.input_vars[pc.second], 1.0}, {enc.input_vars[pc.first], -1.0}},
                        lp::RowSense::kLessEqual, pc.bounds.hi);
  }

  // Verified tail of the perception network.
  NetworkEncoder tail(enc.problem, options, enc.stats);
  tail.start(enc.input_vars, query.input_box);
  if (options.tail_bound_trace != nullptr) {
    check(options.tail_bound_trace_key != 0,
          "encode_tail_base: tail_bound_trace requires a nonzero trace key");
    tail.set_external_trace(options.tail_bound_trace);
  }
  tail.set_capture(&enc.realized_tail_boxes, &enc.realized_tail_vars);
  tail.encode_range(net, query.attach_layer, net.layer_count(), "tail");
  enc.output_vars = tail.vars();

  enc.stats.variables = enc.problem.variable_count();
  enc.stats.rows = enc.problem.relaxation().row_count();
  enc.stats.encode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return enc;
}

void append_query_rows(TailEncoding& enc, const VerificationQuery& query,
                       const EncodeOptions& options) {
  check(!query.risk.empty(), "encode_tail_query: empty risk condition");

  // Risk condition psi over the outputs, appended as one batch.
  const std::size_t out_n = enc.output_vars.size();
  std::vector<lp::Row> risk_rows;
  risk_rows.reserve(query.risk.inequalities().size());
  for (const OutputInequality& ineq : query.risk.inequalities()) {
    check(ineq.coeffs.size() == out_n,
          "encode_tail_query: risk inequality dimension mismatch");
    std::vector<lp::LinearTerm> terms;
    for (std::size_t i = 0; i < out_n; ++i)
      if (ineq.coeffs[i] != 0.0) terms.push_back({enc.output_vars[i], ineq.coeffs[i]});
    check(!terms.empty(), "encode_tail_query: risk inequality with all-zero coefficients");
    risk_rows.push_back({std::move(terms), ineq.sense, ineq.rhs});
  }
  enc.problem.add_rows(std::move(risk_rows));

  // Characterizer sharing the layer-l variables, constrained to h = 1.
  if (query.characterizer != nullptr) {
    const std::size_t feature_n = enc.input_vars.size();
    check(query.characterizer->input_shape().numel() == feature_n,
          "encode_tail_query: characterizer input width mismatch");
    check(query.characterizer->output_shape().numel() == 1,
          "encode_tail_query: characterizer must produce a single logit");
    NetworkEncoder charac(enc.problem, options, enc.stats);
    charac.start(enc.input_vars, query.input_box);
    charac.encode_range(*query.characterizer, 0, query.characterizer->layer_count(), "charac");
    enc.characterizer_logit_var = charac.vars().front();
    enc.problem.add_row({{enc.characterizer_logit_var, 1.0}}, lp::RowSense::kGreaterEqual,
                        query.characterizer_threshold);
  }

  enc.stats.variables = enc.problem.variable_count();
  enc.stats.rows = enc.problem.relaxation().row_count();
}

TailEncoding encode_tail_query(const VerificationQuery& query, const EncodeOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  check(!query.risk.empty(), "encode_tail_query: empty risk condition");
  TailEncoding enc = encode_tail_base(query, options);
  append_query_rows(enc, query, options);
  enc.stats.encode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return enc;
}

}  // namespace dpv::verify
