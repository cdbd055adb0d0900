// Delta re-certification suite (src/verify/delta.hpp): one dedicated
// soundness/parity test per reuse class, plus the artifact bundle's
// persistence and identity contracts.
//   * Bound traces — exact reuse reproduces the encoding bit-identically
//     (rows AND column bounds); widened reuse always contains the
//     updated model's freshly realized boxes, and verdicts match a cold
//     run either way.
//   * Root-cut pools — recycled pools preserve verdicts; the partial
//     path keeps only prefix-local ReLU-split cuts, and the
//     full-identity path is additionally gated on the query fingerprint
//     so Gomory cuts never cross a query change.
//   * Root bases — a warm start only: a stored basis that no longer fits
//     solves cold, and verdicts agree with and without it on the delta
//     battery.
//   * Pseudocost priors — order-only: verdicts match with priors seeded.
//   * Per-query bound refresh — column-bound tightening preserves
//     verdicts and counterexamples.
//   * Bundle save/load round-trips bit-exactly (hexfloat stream);
//     versioned keys are nonzero and chain-order sensitive.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/diff.hpp"
#include "verify/delta.hpp"
#include "verify/encoding_cache.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Copies the file at `source` to temp file `name` with the first
/// occurrence of `from` replaced by `to`; returns the copy's path.
std::string corrupted_copy(const std::string& source, const std::string& name,
                           const std::string& from, const std::string& to) {
  std::ifstream in(source, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "'" << from << "' not in " << source;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  const std::string path = temp_path(name);
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

nn::Network make_relu_tail(std::size_t width, std::size_t depth, Rng& rng) {
  nn::Network net;
  std::size_t in_n = width;
  for (std::size_t d = 0; d < depth; ++d) {
    auto dense = std::make_unique<nn::Dense>(in_n, width);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{width}));
    in_n = width;
  }
  auto out = std::make_unique<nn::Dense>(in_n, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

nn::Network make_characterizer(std::size_t width, Rng& rng) {
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(width, 1);
  dense->init_he(rng);
  net.add(std::move(dense));
  return net;
}

verify::VerificationQuery make_query(const nn::Network& net, std::size_t width,
                                     double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(width, -1.0, 1.0);
  q.risk.output_at_least(0, 2, threshold);
  return q;
}

/// The "retrain": nudge one Dense layer's weights by +-eps.
nn::Network perturb_dense(const nn::Network& net, std::size_t layer_index, double eps) {
  nn::Network copy = net.clone();
  auto& dense = dynamic_cast<nn::Dense&>(copy.layer(layer_index));
  Tensor w = dense.weight();
  Tensor b = dense.bias();
  for (std::size_t i = 0; i < w.numel(); ++i)
    w[i] += eps * (static_cast<double>(i % 3) - 1.0);
  dense.set_parameters(std::move(w), std::move(b));
  return copy;
}

/// Harvests one cold certification into a (bundle, entry) pair.
struct HarvestedBase {
  verify::DeltaArtifacts bundle;
  verify::VerificationResult result;
};

HarvestedBase certify_base(const nn::Network& net, const verify::VerificationQuery& q,
                           verify::TailVerifierOptions options, std::size_t query_key) {
  HarvestedBase base;
  verify::DeltaHarvest harvest;
  options.harvest = &harvest;
  base.result = verify::TailVerifier(options).verify(q);
  EXPECT_TRUE(harvest.captured);
  base.bundle = verify::make_base_artifacts(net, q.attach_layer);
  base.bundle.upsert(
      verify::harvest_to_artifacts(query_key, q, base.result, std::move(harvest)));
  return base;
}

void expect_same_verdict(const verify::VerificationResult& cold,
                         const verify::VerificationResult& delta, const char* label) {
  ASSERT_EQ(cold.verdict, delta.verdict) << label;
  if (cold.verdict == verify::Verdict::kUnsafe) {
    EXPECT_TRUE(delta.counterexample_validated) << label;
  }
}

// ---------------------------------------------------- versioned identity

/// The versioned cache key of a bundle: its base fingerprint and chain.
std::size_t versioned_key(const verify::DeltaArtifacts& bundle) {
  return verify::versioned_cache_key(bundle.base_fingerprint, bundle.delta_chain);
}

TEST(DeltaIdentity, VersionedKeysAreNonzeroAndChainOrderSensitive) {
  Rng rng(3);
  const nn::Network net = make_relu_tail(4, 1, rng);
  verify::DeltaArtifacts base = verify::make_base_artifacts(net, 0);
  EXPECT_NE(versioned_key(base), 0u);

  verify::DeltaArtifacts ab = base;
  ab.delta_chain = {11u, 22u};
  verify::DeltaArtifacts ba = base;
  ba.delta_chain = {22u, 11u};
  EXPECT_NE(versioned_key(ab), versioned_key(ba));
  EXPECT_NE(versioned_key(ab), versioned_key(base));

  // advance_artifacts keeps the original base and extends the chain.
  const nn::Network updated = perturb_dense(net, 0, 1e-3);
  const verify::DeltaArtifacts next = verify::advance_artifacts(base, updated);
  EXPECT_EQ(next.base_fingerprint, base.base_fingerprint);
  ASSERT_EQ(next.delta_chain.size(), 1u);
  EXPECT_EQ(next.delta_chain[0], verify::tail_fingerprint(updated, 0));
  EXPECT_NE(versioned_key(next), versioned_key(base));
}

TEST(DeltaIdentity, QueryFingerprintTracksQueryContent) {
  Rng rng(5);
  const nn::Network net = make_relu_tail(4, 1, rng);
  const nn::Network charac = make_characterizer(4, rng);
  verify::VerificationQuery q = make_query(net, 4, 0.3);
  q.characterizer = &charac;
  q.characterizer_threshold = 0.1;
  const std::size_t fp = verify::delta_query_fingerprint(q);
  EXPECT_NE(fp, 0u);
  EXPECT_EQ(fp, verify::delta_query_fingerprint(q));  // deterministic

  verify::VerificationQuery threshold = q;
  threshold.characterizer_threshold = 0.2;
  EXPECT_NE(verify::delta_query_fingerprint(threshold), fp);

  verify::VerificationQuery risk = q;
  risk.risk = verify::RiskSpec("other");
  risk.risk.output_at_least(0, 2, 0.7);
  EXPECT_NE(verify::delta_query_fingerprint(risk), fp);

  verify::VerificationQuery diff = q;
  diff.diff_bounds.push_back(absint::Interval(-1.0, 1.0));
  EXPECT_NE(verify::delta_query_fingerprint(diff), fp);
}

// ------------------------------------------------------ bundle round trip

TEST(DeltaArtifactsFile, RoundTripsBitExactly) {
  verify::DeltaArtifacts bundle;
  bundle.base_fingerprint = 0xdeadbeefcafef00dULL;
  bundle.delta_chain = {7u, 0xffffffffffffffffULL};
  bundle.attach_layer = 3;

  verify::QueryArtifacts entry;
  entry.query_key = 42;
  entry.verdict = verify::Verdict::kUnsafe;
  entry.query_fingerprint = 0xabad1deaULL;
  // Doubles chosen to break decimal round-trips.
  entry.input_box = {absint::Interval(5e-324, 1.0 / 3.0), absint::Interval(-0.0, 1e308)};
  entry.tail_boxes = {{absint::Interval(-1e-200, 0.1)}};
  entry.tail_vars = {{3, 1, 4}};
  milp::cuts::Cut cut;
  cut.row.terms = {{0, 1.0 / 7.0}, {5, -2.2250738585072014e-308}};
  cut.row.sense = lp::RowSense::kGreaterEqual;
  cut.row.rhs = -0.0;
  cut.source = "relu-split";
  entry.root_cuts.push_back(cut);
  cut.source = "gomory-mi";
  cut.row.sense = lp::RowSense::kLessEqual;
  entry.root_cuts.push_back(cut);
  verify::NamedPseudocost prior;
  prior.var = "y a3 n7";  // spaces must survive the token stream
  prior.down.gain_sum = 0.1;
  prior.down.solved = 4;
  prior.up.infeasible = 2;
  entry.pseudocosts.push_back(prior);
  entry.root_basis.basic = {5, 0, 7};
  entry.root_basis.at_upper = {0, 1, 0, 0, 1, 0, 0, 0, 1};
  bundle.queries.push_back(entry);
  verify::QueryArtifacts no_basis;
  no_basis.query_key = 43;
  bundle.queries.push_back(no_basis);

  const std::string path = temp_path("delta_roundtrip");
  verify::save_delta_artifacts(path, bundle);
  verify::DeltaArtifacts loaded;
  ASSERT_TRUE(verify::load_delta_artifacts(path, loaded));
  EXPECT_EQ(loaded.base_fingerprint, bundle.base_fingerprint);
  EXPECT_EQ(loaded.delta_chain, bundle.delta_chain);
  EXPECT_EQ(loaded.attach_layer, 3u);
  ASSERT_EQ(loaded.queries.size(), 2u);
  const verify::QueryArtifacts& e = loaded.queries[0];
  EXPECT_EQ(e.query_key, 42u);
  EXPECT_EQ(e.verdict, verify::Verdict::kUnsafe);
  EXPECT_EQ(e.query_fingerprint, entry.query_fingerprint);
  ASSERT_EQ(e.input_box.size(), 2u);
  EXPECT_TRUE(bits_equal(e.input_box[0].lo, 5e-324));
  EXPECT_TRUE(bits_equal(e.input_box[0].hi, 1.0 / 3.0));
  EXPECT_TRUE(bits_equal(e.input_box[1].lo, -0.0));  // signed zero survives
  ASSERT_EQ(e.tail_boxes.size(), 1u);
  EXPECT_TRUE(bits_equal(e.tail_boxes[0][0].lo, -1e-200));
  EXPECT_EQ(e.tail_vars, entry.tail_vars);
  ASSERT_EQ(e.root_cuts.size(), 2u);
  EXPECT_STREQ(e.root_cuts[0].source, "relu-split");
  EXPECT_STREQ(e.root_cuts[1].source, "gomory-mi");
  EXPECT_EQ(e.root_cuts[0].row.sense, lp::RowSense::kGreaterEqual);
  ASSERT_EQ(e.root_cuts[0].row.terms.size(), 2u);
  EXPECT_EQ(e.root_cuts[0].row.terms[1].var, 5u);
  EXPECT_TRUE(bits_equal(e.root_cuts[0].row.terms[0].coeff, 1.0 / 7.0));
  EXPECT_TRUE(bits_equal(e.root_cuts[0].row.rhs, -0.0));
  ASSERT_EQ(e.pseudocosts.size(), 1u);
  EXPECT_EQ(e.pseudocosts[0].var, "y a3 n7");
  EXPECT_TRUE(bits_equal(e.pseudocosts[0].down.gain_sum, 0.1));
  EXPECT_EQ(e.pseudocosts[0].down.solved, 4u);
  EXPECT_EQ(e.pseudocosts[0].up.infeasible, 2u);
  EXPECT_EQ(e.root_basis.basic, entry.root_basis.basic);
  EXPECT_EQ(e.root_basis.at_upper, entry.root_basis.at_upper);
  EXPECT_TRUE(loaded.queries[1].root_basis.empty());
  EXPECT_TRUE(loaded.queries[1].root_basis.at_upper.empty());

  EXPECT_FALSE(verify::load_delta_artifacts(temp_path("delta_missing"), loaded));
}

TEST(DeltaArtifactsFile, MalformedNumbersAndCountsThrowContractViolation) {
  verify::DeltaArtifacts bundle;
  bundle.base_fingerprint = 5;
  bundle.delta_chain = {7u};
  bundle.attach_layer = 3;
  verify::QueryArtifacts entry;
  entry.input_box = {absint::Interval(0.0, 1.0)};
  entry.tail_boxes = {{absint::Interval(-1.0, 1.0)}};
  milp::cuts::Cut cut;
  cut.row.terms = {{0, 1.0}};
  cut.row.sense = lp::RowSense::kLessEqual;
  cut.source = "relu-split";
  entry.root_cuts.push_back(cut);
  entry.root_basis.basic = {2, 0};
  entry.root_basis.at_upper = {0, 1, 0};
  bundle.queries.push_back(entry);
  const std::string path = temp_path("delta_malformed_base");
  verify::save_delta_artifacts(path, bundle);
  verify::DeltaArtifacts loaded;
  ASSERT_TRUE(verify::load_delta_artifacts(path, loaded));

  const std::pair<const char*, const char*> cases[] = {
      // Counts the rest of the file cannot hold fail before the
      // container is sized from them.
      {"chain 1 ", "chain 99999999999999 "},
      {"chain 1 ", "chain -1 "},
      {"boxes 1 ", "boxes 18446744073709551615 "},
      // Integers are digits only.
      {"base 5 ", "base -5 "},
      {"attach 3 ", "attach 3abc "},
      // A string length that would overflow the bounds check is
      // truncation, not a rewind into earlier text.
      {"s10 relu-split ", "s18446744073709551615 "},
      // Root bases: at-upper flags of the wrong length, a basic column
      // out of range, a column basic in two rows.
      {"s3 010 ", "s2 01 "},
      {"basis 3 2 2 0 ", "basis 3 2 3 0 "},
      {"basis 3 2 2 0 ", "basis 3 2 2 2 "},
  };
  for (const auto& [from, to] : cases)
    EXPECT_THROW(verify::load_delta_artifacts(
                     corrupted_copy(path, "delta_malformed", from, to), loaded),
                 ContractViolation)
        << to;
}

// ------------------------------------- reuse class 1: bound trace parity

TEST(DeltaTraceReuse, ExactReuseReproducesEncodingBitIdentically) {
  Rng rng(7);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network charac = make_characterizer(6, rng);
  verify::VerificationQuery q = make_query(net, 6, 0.2);
  q.characterizer = &charac;
  q.characterizer_threshold = 0.1;

  const verify::TailEncoding fresh = verify::encode_tail_query(q, {});
  verify::EncodeOptions reuse;
  reuse.tail_bound_trace = &fresh.realized_tail_boxes;
  reuse.tail_bound_trace_key = 99;
  const verify::TailEncoding replay = verify::encode_tail_query(q, reuse);

  ASSERT_EQ(fresh.problem.variable_count(), replay.problem.variable_count());
  EXPECT_EQ(fresh.stats.binaries, replay.stats.binaries);
  EXPECT_EQ(fresh.stats.stable_relus, replay.stats.stable_relus);
  for (std::size_t v = 0; v < fresh.problem.variable_count(); ++v) {
    EXPECT_TRUE(bits_equal(fresh.problem.relaxation().lower_bound(v),
                           replay.problem.relaxation().lower_bound(v)))
        << "var " << v;
    EXPECT_TRUE(bits_equal(fresh.problem.relaxation().upper_bound(v),
                           replay.problem.relaxation().upper_bound(v)))
        << "var " << v;
  }
  const auto& fr = fresh.problem.relaxation().rows();
  const auto& rr = replay.problem.relaxation().rows();
  ASSERT_EQ(fr.size(), rr.size());
  for (std::size_t r = 0; r < fr.size(); ++r) {
    ASSERT_EQ(fr[r].terms.size(), rr[r].terms.size()) << "row " << r;
    EXPECT_TRUE(bits_equal(fr[r].rhs, rr[r].rhs)) << "row " << r;
    for (std::size_t t = 0; t < fr[r].terms.size(); ++t) {
      EXPECT_EQ(fr[r].terms[t].var, rr[r].terms[t].var);
      EXPECT_TRUE(bits_equal(fr[r].terms[t].coeff, rr[r].terms[t].coeff));
    }
  }
}

/// Fires so far over the fault-probe catalog (src/common/fault_inject.hpp);
/// stays 0 unless a probe is armed.
std::size_t probe_fires() {
  std::size_t total = 0;
  for (const char* probe : {"lp.refactor_singular", "lp.ftran_nonfinite", "lp.btran_nonfinite",
                            "verify.encode_alloc", "core.worker_throw"})
    total += fault::fires(probe);
  return total;
}

TEST(DeltaTraceReuse, IdenticalModelPlansExactReuseAndPreservesVerdicts) {
  Rng rng(11);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network same = net.clone();

  for (const double threshold : {-0.5, 0.3, 5.0}) {
    const std::size_t fires_before = probe_fires();
    const verify::VerificationQuery q = make_query(net, 6, threshold);
    const HarvestedBase base = certify_base(net, q, {}, 1);
    const verify::QueryArtifacts* entry = base.bundle.find(1);
    ASSERT_NE(entry, nullptr);

    const verify::DeltaPlan plan =
        verify::plan_delta_reuse(base.bundle, *entry, net, same, q, {});
    ASSERT_TRUE(plan.usable);
    EXPECT_TRUE(plan.tail_identical);
    EXPECT_EQ(plan.trace, verify::TraceReuse::kExact);
    EXPECT_EQ(plan.widening, 0.0);
    EXPECT_EQ(plan.trace_key,
              versioned_key(verify::advance_artifacts(base.bundle, same)));

    verify::TailVerifierOptions delta_options;
    plan.apply(delta_options);
    verify::VerificationQuery dq = make_query(same, 6, threshold);
    const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(dq);
    expect_same_verdict(base.result, delta, "exact trace reuse");

    // With the order-biasing priors disabled, an exact-reuse search
    // reproduces the base run's tree node for node — the strongest
    // observable form of "the problem is bit-identical". A fault probe
    // armed through DPV_FAULT (the chaos runs) that fires in only one of
    // the two runs changes its tree, so the node check holds only when
    // none fired; the verdict checks hold either way.
    verify::DeltaPlanOptions no_priors;
    no_priors.reuse_pseudocosts = false;
    const verify::DeltaPlan bare =
        verify::plan_delta_reuse(base.bundle, *entry, net, same, q, no_priors);
    ASSERT_EQ(bare.trace, verify::TraceReuse::kExact);
    verify::TailVerifierOptions bare_options;
    bare.apply(bare_options);
    const verify::VerificationResult replay = verify::TailVerifier(bare_options).verify(dq);
    expect_same_verdict(base.result, replay, "exact trace reuse, no priors");
    if (probe_fires() == fires_before) {
      EXPECT_EQ(base.result.milp_nodes, replay.milp_nodes) << "threshold " << threshold;
    }
  }
}

TEST(DeltaTraceReuse, WidenedBoxesContainFreshBoundsAndPreserveVerdicts) {
  Rng rng(13);
  const nn::Network net = make_relu_tail(6, 2, rng);
  // Retrain touches the LAST layer: the widening radii are zero on the
  // prefix and positive only from the changed layer on.
  const nn::Network updated = perturb_dense(net, net.layer_count() - 1, 5e-3);

  for (const double threshold : {-0.5, 0.3, 5.0}) {
    const verify::VerificationQuery q = make_query(net, 6, threshold);
    const HarvestedBase base = certify_base(net, q, {}, 1);
    const verify::QueryArtifacts* entry = base.bundle.find(1);
    ASSERT_NE(entry, nullptr);

    verify::VerificationQuery uq = make_query(updated, 6, threshold);
    const verify::DeltaPlan plan =
        verify::plan_delta_reuse(base.bundle, *entry, net, updated, uq, {});
    ASSERT_TRUE(plan.usable);
    EXPECT_FALSE(plan.tail_identical);
    ASSERT_EQ(plan.trace, verify::TraceReuse::kWidened) << "threshold " << threshold;
    EXPECT_GT(plan.widening, 0.0);

    // Soundness: the widened trace must contain the updated model's
    // freshly realized boxes neuron for neuron — the encoder intersects
    // its own interval pass with the injected trace, so containment is
    // exactly "the injected bounds never cut off reachable values".
    const verify::TailEncoding fresh = verify::encode_tail_query(uq, {});
    ASSERT_EQ(plan.bound_trace.size(), fresh.realized_tail_boxes.size());
    for (std::size_t k = 0; k < plan.bound_trace.size(); ++k) {
      ASSERT_EQ(plan.bound_trace[k].size(), fresh.realized_tail_boxes[k].size());
      for (std::size_t i = 0; i < plan.bound_trace[k].size(); ++i) {
        EXPECT_LE(plan.bound_trace[k][i].lo, fresh.realized_tail_boxes[k][i].lo)
            << "layer " << k << " neuron " << i;
        EXPECT_GE(plan.bound_trace[k][i].hi, fresh.realized_tail_boxes[k][i].hi)
            << "layer " << k << " neuron " << i;
      }
    }

    // Verdict parity against a cold run of the updated model.
    const verify::VerificationResult cold = verify::TailVerifier(verify::TailVerifierOptions{}).verify(uq);
    verify::TailVerifierOptions delta_options;
    plan.apply(delta_options);
    const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(uq);
    expect_same_verdict(cold, delta, "widened trace reuse");
  }
}

TEST(DeltaTraceReuse, WideningBudgetDegradesToColdNotUnsound) {
  Rng rng(17);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network updated = perturb_dense(net, 0, 0.5);  // a big retrain

  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, {}, 1);
  const verify::VerificationQuery uq = make_query(updated, 6, 0.3);
  verify::DeltaPlanOptions tight;
  tight.max_widening = 1e-12;
  const verify::DeltaPlan plan =
      verify::plan_delta_reuse(base.bundle, *base.bundle.find(1), net, updated, uq, tight);
  ASSERT_TRUE(plan.usable);
  EXPECT_EQ(plan.trace, verify::TraceReuse::kNone);  // over budget: run cold
  // With no trace, cut recycling must have been declined too (its
  // soundness argument rests on the trace reproducing the prefix).
  EXPECT_TRUE(plan.cuts.empty());
}

// --------------------------------------- reuse class 2: root-cut pools

verify::TailVerifierOptions cut_options() {
  verify::TailVerifierOptions options;
  options.milp.cuts.root_rounds = 2;
  options.milp.cuts.root_age_limit = 0;  // keep every cut for the harvest
  return options;
}

TEST(DeltaCutRecycling, FullPoolRecyclesOnIdenticalModelAndQuery) {
  Rng rng(19);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network same = net.clone();
  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, cut_options(), 1);
  const verify::QueryArtifacts* entry = base.bundle.find(1);
  ASSERT_NE(entry, nullptr);

  const verify::DeltaPlan plan =
      verify::plan_delta_reuse(base.bundle, *entry, net, same, q, {});
  ASSERT_TRUE(plan.usable);
  // Identical tail + box + query fingerprint: the whole pool carries
  // over, Gomory cuts included.
  EXPECT_EQ(plan.cuts.size(), entry->root_cuts.size());
  EXPECT_EQ(plan.cuts_dropped, 0u);

  verify::TailVerifierOptions delta_options = cut_options();
  plan.apply(delta_options);
  const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(q);
  expect_same_verdict(base.result, delta, "full cut recycling");
  EXPECT_EQ(delta.cuts_recycled, plan.cuts.size());
}

TEST(DeltaCutRecycling, QueryChangeDropsGomoryButKeepsReluSplit) {
  Rng rng(23);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network same = net.clone();
  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, cut_options(), 1);
  const verify::QueryArtifacts* entry = base.bundle.find(1);
  ASSERT_NE(entry, nullptr);

  // Same model, same box, different risk threshold: the query
  // fingerprint gate must refuse the full-identity path. ReLU-split
  // cuts constrain only the big-M blocks (valid for any risk rows);
  // Gomory cuts bake per-query rows into the tableau and must go.
  verify::VerificationQuery other = make_query(same, 6, 0.9);
  const verify::DeltaPlan plan =
      verify::plan_delta_reuse(base.bundle, *entry, net, same, other, {});
  ASSERT_TRUE(plan.usable);
  EXPECT_TRUE(plan.tail_identical);
  EXPECT_EQ(plan.cuts.size() + plan.cuts_dropped, entry->root_cuts.size());
  for (const milp::cuts::Cut& cut : plan.cuts)
    EXPECT_STREQ(cut.source, "relu-split");

  // Soundness: the recycled cuts must not change the other query's
  // verdict relative to its own cold run.
  const verify::VerificationResult cold = verify::TailVerifier(cut_options()).verify(other);
  verify::TailVerifierOptions delta_options = cut_options();
  plan.apply(delta_options);
  const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(other);
  expect_same_verdict(cold, delta, "cut recycling across query change");
}

TEST(DeltaCutRecycling, WeightChangeKeepsOnlyPrefixLocalReluSplitCuts) {
  Rng rng(29);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network updated = perturb_dense(net, net.layer_count() - 1, 1e-3);
  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, cut_options(), 1);
  const verify::QueryArtifacts* entry = base.bundle.find(1);
  ASSERT_NE(entry, nullptr);

  verify::VerificationQuery uq = make_query(updated, 6, 0.3);
  const verify::DeltaPlan plan =
      verify::plan_delta_reuse(base.bundle, *entry, net, updated, uq, {});
  ASSERT_TRUE(plan.usable);
  ASSERT_FALSE(plan.tail_identical);
  EXPECT_EQ(plan.cuts.size() + plan.cuts_dropped, entry->root_cuts.size());

  // Every surviving cut is a ReLU-split cut over variables created
  // before the changed layer's first variable.
  const std::size_t changed_index = (net.layer_count() - 1) - q.attach_layer;
  ASSERT_LT(changed_index, entry->tail_vars.size());
  std::size_t var_limit = static_cast<std::size_t>(-1);
  for (const std::size_t var : entry->tail_vars[changed_index])
    var_limit = std::min(var_limit, var);
  for (const milp::cuts::Cut& cut : plan.cuts) {
    EXPECT_STREQ(cut.source, "relu-split");
    for (const lp::LinearTerm& term : cut.row.terms) EXPECT_LT(term.var, var_limit);
  }

  const verify::VerificationResult cold = verify::TailVerifier(cut_options()).verify(uq);
  verify::TailVerifierOptions delta_options = cut_options();
  plan.apply(delta_options);
  const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(uq);
  expect_same_verdict(cold, delta, "prefix-local cut recycling");
}

TEST(DeltaCutRecycling, RecycledCutsKeepProvenanceAcrossChains) {
  // A cut recycled into a run and harvested again must keep its ORIGINAL
  // generator source — the partial-path filter of the NEXT delta depends
  // on it ("relu-split" stays recyclable, "gomory-mi" stays droppable).
  Rng rng(31);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network same = net.clone();
  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, cut_options(), 1);
  const verify::QueryArtifacts* entry = base.bundle.find(1);
  ASSERT_NE(entry, nullptr);
  if (entry->root_cuts.empty()) GTEST_SKIP() << "no cuts separated on this instance";

  const verify::DeltaPlan plan =
      verify::plan_delta_reuse(base.bundle, *entry, net, same, q, {});
  verify::TailVerifierOptions delta_options = cut_options();
  delta_options.milp.cuts.root_rounds = 0;  // inject only, no fresh separation
  plan.apply(delta_options);
  verify::DeltaHarvest second;
  delta_options.harvest = &second;
  const verify::VerificationResult rerun = verify::TailVerifier(delta_options).verify(q);
  ASSERT_TRUE(second.captured);
  EXPECT_EQ(rerun.cuts_recycled, plan.cuts.size());
  ASSERT_EQ(second.root_cuts.size(), plan.cuts.size());
  for (std::size_t k = 0; k < second.root_cuts.size(); ++k)
    EXPECT_STREQ(second.root_cuts[k].source, plan.cuts[k].source) << "cut " << k;
}

// ----------------------------------------------------- root bases

TEST(DeltaRootBasis, StoredBasisThatNoLongerFitsSolvesColdWithTheSameVerdict) {
  Rng rng(19);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const verify::VerificationQuery q = make_query(net, 6, 0.3);
  const HarvestedBase base = certify_base(net, q, cut_options(), 1);
  const verify::QueryArtifacts* entry = base.bundle.find(1);
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->root_basis.empty());
  // The stored basis covers the structural columns and the per-query
  // rows, never the cut rows harvested beside it.
  ASSERT_EQ(entry->root_basis.at_upper.size() - entry->root_basis.basic.size(),
            base.result.encoding.variables);
  EXPECT_EQ(entry->root_basis.basic.size(), base.result.encoding.rows);

  const verify::DeltaPlan plan = verify::plan_delta_reuse(base.bundle, *entry, net, net, q, {});
  ASSERT_EQ(plan.root_basis.basic, entry->root_basis.basic);
  verify::TailVerifierOptions fit_options = cut_options();
  plan.apply(fit_options);
  const verify::VerificationResult fit = verify::TailVerifier(fit_options).verify(q);
  expect_same_verdict(base.result, fit, "stored root basis");

  // One row more than the problem has: round 0 must solve cold, so only
  // the search's root can start warm.
  verify::DeltaPlan stale = plan;
  stale.root_basis.basic.push_back(
      static_cast<std::int32_t>(stale.root_basis.at_upper.size()));
  stale.root_basis.at_upper.push_back(0);
  verify::TailVerifierOptions stale_options = cut_options();
  stale.apply(stale_options);
  const verify::VerificationResult cold = verify::TailVerifier(stale_options).verify(q);
  expect_same_verdict(base.result, cold, "stale root basis");
  EXPECT_LE(cold.solver_stats.root_warm_starts, 1u);
  EXPECT_LT(cold.solver_stats.root_warm_starts, fit.solver_stats.root_warm_starts);
}

/// bench/bench_delta.cpp's battery: a 16x3 ReLU tail, six thresholds,
/// LP tightening and one root cut round, re-certified for the identical
/// model and two retrains of the last hidden Dense layer.
TEST(DeltaRootBasis, BatteryVerdictsAgreeWithAndWithoutTheStoredBasis) {
  Rng rng(2020);
  const nn::Network net = make_relu_tail(16, 3, rng);
  verify::TailVerifierOptions options;
  options.encode.bounds = verify::BoundMethod::kLpTightening;
  options.milp.cuts.root_rounds = 1;
  const double thresholds[] = {10.0, 11.0, 12.0, 13.0, 14.0, 16.0};

  verify::DeltaArtifacts bundle = verify::make_base_artifacts(net, 0);
  std::vector<verify::Verdict> base_verdicts;
  for (std::size_t k = 0; k < std::size(thresholds); ++k) {
    const verify::VerificationQuery q = make_query(net, 16, thresholds[k]);
    verify::TailVerifierOptions harvest_options = options;
    verify::DeltaHarvest harvest;
    harvest_options.harvest = &harvest;
    const verify::VerificationResult r = verify::TailVerifier(harvest_options).verify(q);
    base_verdicts.push_back(r.verdict);
    ASSERT_TRUE(harvest.captured) << "threshold " << thresholds[k];
    bundle.upsert(verify::harvest_to_artifacts(k + 1, q, r, std::move(harvest)));
  }

  std::size_t warm_with = 0, warm_without = 0;
  for (const double eps : {0.0, 1e-4, 1e-3}) {
    const nn::Network updated = eps == 0.0 ? net.clone() : perturb_dense(net, 4, eps);
    for (std::size_t k = 0; k < std::size(thresholds); ++k) {
      const verify::VerificationQuery q = make_query(updated, 16, thresholds[k]);
      const verify::QueryArtifacts* entry = bundle.find(k + 1);
      ASSERT_NE(entry, nullptr);
      const verify::DeltaPlan plan = verify::plan_delta_reuse(bundle, *entry, net, updated, q, {});
      ASSERT_TRUE(plan.usable);
      verify::TailVerifierOptions with_basis = options;
      plan.apply(with_basis);
      verify::DeltaPlan bare = plan;
      bare.root_basis = {};
      verify::TailVerifierOptions without_basis = options;
      bare.apply(without_basis);
      const verify::VerificationResult a = verify::TailVerifier(with_basis).verify(q);
      const verify::VerificationResult b = verify::TailVerifier(without_basis).verify(q);
      const std::string label = "eps " + std::to_string(eps) + " threshold " +
                                std::to_string(thresholds[k]);
      expect_same_verdict(b, a, label.c_str());
      if (eps == 0.0) {
        EXPECT_EQ(a.verdict, base_verdicts[k]) << label;
      }
      warm_with += a.solver_stats.root_warm_starts;
      warm_without += b.solver_stats.root_warm_starts;
    }
  }
  // The stored bases were used: round 0 started warm on top of the
  // search roots that start from the cut loop's basis either way.
  EXPECT_GT(warm_with, warm_without);
}

// ----------------------------------- reuse class 3: pseudocost priors

TEST(DeltaPseudocosts, PriorsBiasOrderNotVerdicts) {
  Rng rng(37);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network updated = perturb_dense(net, net.layer_count() - 1, 1e-3);

  for (const double threshold : {-0.5, 0.3, 5.0}) {
    const verify::VerificationQuery q = make_query(net, 6, threshold);
    const HarvestedBase base = certify_base(net, q, {}, 1);
    const verify::QueryArtifacts* entry = base.bundle.find(1);
    ASSERT_NE(entry, nullptr);

    verify::VerificationQuery uq = make_query(updated, 6, threshold);
    verify::DeltaPlanOptions priors_only;
    priors_only.reuse_bound_trace = false;
    priors_only.recycle_cuts = false;
    const verify::DeltaPlan plan =
        verify::plan_delta_reuse(base.bundle, *entry, net, updated, uq, priors_only);
    ASSERT_TRUE(plan.usable);
    EXPECT_EQ(plan.trace, verify::TraceReuse::kNone);
    EXPECT_TRUE(plan.cuts.empty());

    const verify::VerificationResult cold = verify::TailVerifier(verify::TailVerifierOptions{}).verify(uq);
    verify::TailVerifierOptions delta_options;
    plan.apply(delta_options);
    const verify::VerificationResult delta = verify::TailVerifier(delta_options).verify(uq);
    expect_same_verdict(cold, delta, "pseudocost priors");
  }
}

// ------------------------------------------ per-query bound refresh

TEST(DeltaRefresh, QueryBoundRefreshPreservesVerdicts) {
  Rng rng(41);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network charac = make_characterizer(6, rng);

  for (const double threshold : {-0.5, 0.3, 5.0}) {
    verify::VerificationQuery q = make_query(net, 6, threshold);
    q.characterizer = &charac;
    q.characterizer_threshold = 0.1;

    const verify::VerificationResult cold = verify::TailVerifier(verify::TailVerifierOptions{}).verify(q);
    verify::TailVerifierOptions refresh;
    refresh.refresh_query_bounds = true;
    const verify::VerificationResult refreshed = verify::TailVerifier(refresh).verify(q);
    expect_same_verdict(cold, refreshed, "bound refresh");
    EXPECT_LE(refreshed.refreshed_bounds, 6u);
    if (refreshed.encoding.binaries > 0) {
      EXPECT_GE(refreshed.refresh_seconds, 0.0);
    }
  }
}

// ------------------------------------------------- campaign end to end

train::Dataset labelled_cloud(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

nn::Network make_campaign_net(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

TEST(DeltaCampaign, RecertificationMatchesColdRunAndSavesNextBundle) {
  Rng rng(53);
  const nn::Network net = make_campaign_net(rng);
  // Retrain the tail layer only: the prefix (and thus the monitor's
  // layer-l box) is unchanged, so the bound trace reuses widened.
  const nn::Network updated = perturb_dense(net, 2, 1e-3);

  std::vector<core::CampaignEntry> entries;
  verify::RiskSpec far("far-out");
  far.output_at_least(0, 1, 1e6);
  verify::RiskSpec near("reachable");
  near.output_at_most(0, 1, 1e6);
  entries.push_back({"x0-positive", labelled_cloud(rng, 200), labelled_cloud(rng, 100), far});
  entries.push_back({"x0-positive", labelled_cloud(rng, 200), labelled_cloud(rng, 100), near});

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 60;
  config.falsify_first = false;  // every usable entry reaches the MILP
  const std::string bundle_v1 = temp_path("delta_campaign_v1");
  const std::string bundle_v2 = temp_path("delta_campaign_v2");

  // v1: cold certification of the base model, harvesting artifacts.
  core::WorkflowConfig v1 = config;
  v1.delta_artifacts_out_path = bundle_v1;
  const core::CampaignReport base_report = core::run_campaign(net, 2, entries, v1);
  ASSERT_TRUE(base_report.delta_artifacts_saved);
  verify::DeltaArtifacts saved;
  ASSERT_TRUE(verify::load_delta_artifacts(bundle_v1, saved));
  EXPECT_TRUE(saved.delta_chain.empty());
  EXPECT_EQ(saved.attach_layer, 2u);
  EXPECT_FALSE(saved.queries.empty());

  // Reference: cold certification of the updated model.
  const core::CampaignReport cold_report = core::run_campaign(updated, 2, entries, config);

  // v2: delta re-certification against the v1 bundle.
  core::WorkflowConfig v2 = config;
  v2.delta_base = &net;
  v2.delta_artifacts_path = bundle_v1;
  v2.delta_artifacts_out_path = bundle_v2;
  const core::CampaignReport delta_report = core::run_campaign(updated, 2, entries, v2);

  // Verdict compatibility: the delta run's table is bit-identical to
  // the cold run's.
  EXPECT_EQ(cold_report.format_table(), delta_report.format_table());
  EXPECT_EQ(delta_report.delta_entries_exact + delta_report.delta_entries_widened +
                delta_report.delta_entries_cold,
            entries.size());
  EXPECT_GT(delta_report.delta_entries_widened, 0u);

  // The next-generation bundle extends the chain by the updated model.
  ASSERT_TRUE(delta_report.delta_artifacts_saved);
  verify::DeltaArtifacts next;
  ASSERT_TRUE(verify::load_delta_artifacts(bundle_v2, next));
  EXPECT_EQ(next.base_fingerprint, saved.base_fingerprint);
  ASSERT_EQ(next.delta_chain.size(), 1u);
  EXPECT_EQ(next.delta_chain[0], verify::tail_fingerprint(updated, 0));
}

}  // namespace
}  // namespace dpv
