// Parity and soundness suite for the shared tail encoding cache and the
// zonotope-seeded bound tightening:
//   * stamped-out problems are bit-identical to fresh encodes — same
//     verdicts, counterexamples and report tables, across campaign
//     thread counts and caching modes,
//   * zonotope-seeded boxes always contain concrete forward samples and
//     are never looser than interval propagation (so kZonotope can only
//     reduce the binary count),
//   * order reduction stays sound at any generator budget,
//   * range analysis reuses one encoding for both directions.
#include <gtest/gtest.h>

#include <memory>
#include <regex>
#include <string>
#include <vector>

#include "absint/box_domain.hpp"
#include "absint/zonotope.hpp"
#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "layer_trace.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/encoding_cache.hpp"
#include "verify/range_analysis.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

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

// ------------------------------------------------- stamp-out bit parity

TEST(SharedTailEncoding, StampedProblemMatchesFreshEncode) {
  Rng rng(7);
  const nn::Network net = make_relu_tail(6, 2, rng);
  const nn::Network charac = make_characterizer(6, rng);
  verify::VerificationQuery q = make_query(net, 6, 0.2);
  q.characterizer = &charac;
  q.characterizer_threshold = 0.1;
  for (std::size_t i = 0; i + 1 < 6; ++i)
    q.diff_bounds.push_back(absint::Interval(-1.5, 1.5));

  const verify::EncodeOptions options;
  const verify::TailEncoding fresh = verify::encode_tail_query(q, options);
  const verify::SharedTailEncoding shared(q, options,
                                         verify::tail_fingerprint(net, q.attach_layer));
  const verify::TailEncoding stamped = shared.instantiate(q);

  EXPECT_EQ(fresh.problem.variable_count(), stamped.problem.variable_count());
  EXPECT_EQ(fresh.problem.relaxation().row_count(), stamped.problem.relaxation().row_count());
  EXPECT_EQ(fresh.input_vars, stamped.input_vars);
  EXPECT_EQ(fresh.output_vars, stamped.output_vars);
  EXPECT_EQ(fresh.characterizer_logit_var, stamped.characterizer_logit_var);
  EXPECT_EQ(fresh.stats.binaries, stamped.stats.binaries);
  EXPECT_EQ(fresh.stats.stable_relus, stamped.stats.stable_relus);
  // Row-for-row identity of the stamped relaxation.
  const auto& fr = fresh.problem.relaxation().rows();
  const auto& sr = stamped.problem.relaxation().rows();
  ASSERT_EQ(fr.size(), sr.size());
  for (std::size_t r = 0; r < fr.size(); ++r) {
    ASSERT_EQ(fr[r].terms.size(), sr[r].terms.size()) << "row " << r;
    EXPECT_EQ(fr[r].rhs, sr[r].rhs) << "row " << r;
    for (std::size_t t = 0; t < fr[r].terms.size(); ++t) {
      EXPECT_EQ(fr[r].terms[t].var, sr[r].terms[t].var);
      EXPECT_EQ(fr[r].terms[t].coeff, sr[r].terms[t].coeff);
    }
  }
  EXPECT_TRUE(stamped.stats.from_cache);
  EXPECT_EQ(stamped.stats.reused_variables, shared.base_variables());
  EXPECT_EQ(stamped.stats.reused_rows, shared.base_rows());
  EXPECT_FALSE(fresh.stats.from_cache);
}

TEST(SharedTailEncoding, CachedVerifierReproducesVerdictAndCounterexample) {
  Rng rng(11);
  const nn::Network net = make_relu_tail(8, 2, rng);
  auto cache = std::make_shared<verify::EncodingCache>();

  verify::TailVerifierOptions fresh_options;
  verify::TailVerifierOptions cached_options;
  cached_options.encoding_cache = cache;

  // A sweep of risk thresholds over one tail: the campaign shape.
  for (const double threshold : {-2.0, -0.5, 0.0, 0.5, 5.0, 50.0}) {
    const verify::VerificationQuery q = make_query(net, 8, threshold);
    const verify::VerificationResult fresh = verify::TailVerifier(fresh_options).verify(q);
    const verify::VerificationResult cached = verify::TailVerifier(cached_options).verify(q);
    ASSERT_EQ(fresh.verdict, cached.verdict) << "threshold " << threshold;
    if (fresh.verdict == verify::Verdict::kUnsafe) {
      ASSERT_EQ(fresh.counterexample_activation.numel(),
                cached.counterexample_activation.numel());
      for (std::size_t i = 0; i < fresh.counterexample_activation.numel(); ++i)
        EXPECT_EQ(fresh.counterexample_activation[i], cached.counterexample_activation[i]);
      EXPECT_TRUE(cached.counterexample_validated);
    }
    EXPECT_EQ(fresh.milp_nodes, cached.milp_nodes) << "threshold " << threshold;
  }
  const verify::EncodingCache::Stats stats = cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_GT(stats.reused_rows, 0u);
  EXPECT_GT(stats.reused_variables, 0u);
}

TEST(EncodingCache, DistinctAbstractionsGetDistinctBases) {
  Rng rng(13);
  const nn::Network net = make_relu_tail(4, 1, rng);
  verify::EncodingCache cache;
  const verify::EncodeOptions options;

  const verify::VerificationQuery a = make_query(net, 4, 0.0);
  verify::VerificationQuery b = make_query(net, 4, 0.0);
  b.input_box = absint::uniform_box(4, -0.5, 0.5);

  cache.get_or_build(a, options);
  cache.get_or_build(b, options);  // different box: new key
  cache.get_or_build(a, options);  // back to the first: hit
  verify::EncodeOptions zono = options;
  zono.bounds = verify::BoundMethod::kZonotope;
  cache.get_or_build(a, zono);  // different bound method: new key

  const verify::EncodingCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 1u);
}

TEST(EncodingCache, MutatedNetworkAtSameAddressIsAMissNotAStaleHit) {
  // The key carries a weight fingerprint alongside the network pointer:
  // changing the weights in place (or reallocating another network at
  // the same address) must rebuild the base, never serve the stale one.
  Rng rng(17);
  nn::Network net = make_relu_tail(4, 1, rng);
  verify::EncodingCache cache;
  const verify::EncodeOptions options;
  const verify::VerificationQuery q = make_query(net, 4, 0.0);

  cache.get_or_build(q, options);
  auto& dense = static_cast<nn::Dense&>(net.layer(0));
  Tensor weight = dense.weight();
  weight[0] += 1.0;
  dense.set_parameters(weight, dense.bias());
  cache.get_or_build(q, options);

  const verify::EncodingCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.hits, 0u);
}

// ------------------------------------------------------ campaign parity

train::Dataset labelled_cloud(Rng& rng, std::size_t count) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}), Tensor::vector1d({x0 > 0.0 ? 1.0 : 0.0}));
  }
  return data;
}

nn::Network make_small_net(Rng& rng) {
  nn::Network net;
  auto dense = std::make_unique<nn::Dense>(2, 4);
  dense->init_he(rng);
  net.add(std::move(dense));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto readout = std::make_unique<nn::Dense>(4, 2);
  readout->init_he(rng);
  net.add(std::move(readout));
  return net;
}

std::string strip_timings(std::string text) {
  const std::regex timing("(encode=|solve=|, )[0-9.e+-]+s");
  return std::regex_replace(text, timing, "$1<t>s");
}

TEST(EncodingCacheCampaign, FreshAndCachedPathsAreBitIdenticalAcrossThreads) {
  Rng rng(101);
  const nn::Network net = make_small_net(rng);

  // Entries sharing one training set (same ODD images, different risk
  // conditions): the same abstraction, so the tail encoding is shared.
  const train::Dataset train_set = labelled_cloud(rng, 60);
  const train::Dataset val_set = labelled_cloud(rng, 30);
  std::vector<core::CampaignEntry> entries;
  verify::RiskSpec unreachable("far-out");
  unreachable.output_at_least(0, 2, 1e6);
  verify::RiskSpec reachable("reachable");
  reachable.output_at_most(0, 2, 1e6);
  for (int i = 0; i < 3; ++i)
    entries.push_back({"x0-positive-" + std::to_string(i), train_set, val_set,
                       i % 2 == 0 ? unreachable : reachable});

  core::WorkflowConfig config;
  config.characterizer.trainer.epochs = 20;
  // The cache-accounting assertions need every entry to reach the
  // encoder; the staged pipeline would settle these easy queries first.
  config.falsify_first = false;

  std::vector<std::string> tables;
  std::vector<core::CampaignReport> kept;
  for (const bool cached : {false, true}) {
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      config.share_tail_encodings = cached;
      config.campaign_threads = threads;
      core::CampaignReport report = core::run_campaign(net, 2, entries, config);
      tables.push_back(report.format_table());
      kept.push_back(std::move(report));
    }
  }
  // Verdict tables must be bit-identical across caching modes and
  // thread counts (no timing fields live in format_table).
  for (std::size_t i = 1; i < tables.size(); ++i) EXPECT_EQ(tables[0], tables[i]) << i;

  // Per-entry full reports (including counterexamples) match too, up to
  // wall-clock fields.
  for (std::size_t run = 1; run < kept.size(); ++run) {
    ASSERT_EQ(kept[0].reports.size(), kept[run].reports.size());
    for (std::size_t e = 0; e < kept[0].reports.size(); ++e) {
      EXPECT_EQ(strip_timings(kept[0].reports[e].to_string()),
                strip_timings(kept[run].reports[e].to_string()))
          << "run " << run << " entry " << e;
      const auto& fresh_v = kept[0].reports[e].safety.verification;
      const auto& other_v = kept[run].reports[e].safety.verification;
      ASSERT_EQ(fresh_v.counterexample_activation.numel(),
                other_v.counterexample_activation.numel());
      for (std::size_t i = 0; i < fresh_v.counterexample_activation.numel(); ++i)
        EXPECT_EQ(fresh_v.counterexample_activation[i], other_v.counterexample_activation[i]);
    }
  }

  // Fresh runs never touch a cache; cached runs account one base per
  // touched key and the rest as hits.
  EXPECT_EQ(kept[0].encoding_cache_hits + kept[0].encoding_cache_misses, 0u);
  EXPECT_EQ(kept[2].encoding_cache_hits + kept[2].encoding_cache_misses, entries.size());
  EXPECT_EQ(kept[2].encoding_cache_misses, 1u);  // serial: one frozen base
  EXPECT_EQ(kept[2].encoding_cache_hits, entries.size() - 1);
  EXPECT_GT(kept[2].encoding_reused_rows, 0u);
  EXPECT_NE(kept[2].format_encoding_summary().find("cache 2 hits"), std::string::npos)
      << kept[2].format_encoding_summary();
  EXPECT_EQ(kept[3].encoding_cache_hits + kept[3].encoding_cache_misses, entries.size());
}

// --------------------------------------- zonotope soundness + tightness

TEST(ZonotopeBounds, TraceContainsConcreteSamplesAndRefinesIntervals) {
  for (const unsigned seed : {3u, 17u, 29u}) {
    Rng rng(seed);
    const std::size_t width = 6;
    const nn::Network net = make_relu_tail(width, 2, rng);
    const absint::Box input_box = absint::uniform_box(width, -1.0, 1.0);

    const std::vector<absint::Box> zono_trace =
        absint::propagate_zonotope_trace(net, input_box, 0, net.layer_count());
    const std::vector<absint::Box> interval_trace =
        reference::box_trace(net, input_box, 0, net.layer_count());
    ASSERT_EQ(zono_trace.size(), net.layer_count());
    ASSERT_EQ(interval_trace.size(), net.layer_count());

    // Zonotope boxes are never looser than interval boxes.
    for (std::size_t l = 0; l < zono_trace.size(); ++l) {
      ASSERT_EQ(zono_trace[l].size(), interval_trace[l].size());
      for (std::size_t i = 0; i < zono_trace[l].size(); ++i) {
        EXPECT_GE(zono_trace[l][i].lo, interval_trace[l][i].lo - 1e-9)
            << "layer " << l << " neuron " << i;
        EXPECT_LE(zono_trace[l][i].hi, interval_trace[l][i].hi + 1e-9)
            << "layer " << l << " neuron " << i;
      }
    }

    // Soundness: every concretely propagated sample stays inside the
    // zonotope box at every layer.
    for (int s = 0; s < 200; ++s) {
      Tensor x(Shape{width});
      for (std::size_t i = 0; i < width; ++i) x[i] = rng.uniform(-1.0, 1.0);
      Tensor v = x;
      for (std::size_t l = 0; l < net.layer_count(); ++l) {
        v = net.layer(l).forward(v);
        for (std::size_t i = 0; i < v.numel(); ++i) {
          EXPECT_GE(v[i], zono_trace[l][i].lo - 1e-7) << "layer " << l;
          EXPECT_LE(v[i], zono_trace[l][i].hi + 1e-7) << "layer " << l;
        }
      }
    }
  }
}

TEST(ZonotopeBounds, OrderReductionStaysSoundAtAnyBudget) {
  Rng rng(41);
  const std::size_t width = 8;
  const nn::Network net = make_relu_tail(width, 3, rng);
  const absint::Box input_box = absint::uniform_box(width, -1.0, 1.0);

  for (const std::size_t budget : {std::size_t{2}, std::size_t{8}, std::size_t{12}}) {
    const absint::Zonotope reduced = absint::propagate_zonotope_range(
        net, absint::Zonotope::from_box(input_box), 0, net.layer_count(), budget);
    EXPECT_LE(reduced.generator_count(), std::max(budget, width));
    const absint::Box box = reduced.to_box();
    for (int s = 0; s < 100; ++s) {
      Tensor x(Shape{width});
      for (std::size_t i = 0; i < width; ++i) x[i] = rng.uniform(-1.0, 1.0);
      const Tensor out = net.forward(x);
      for (std::size_t i = 0; i < out.numel(); ++i) {
        EXPECT_GE(out[i], box[i].lo - 1e-7) << "budget " << budget;
        EXPECT_LE(out[i], box[i].hi + 1e-7) << "budget " << budget;
      }
    }
  }

  // reduce() preserves the per-dimension concretization radius exactly.
  const absint::Zonotope full = absint::propagate_zonotope_range(
      net, absint::Zonotope::from_box(input_box), 0, net.layer_count());
  const absint::Box before = full.to_box();
  const absint::Box after = full.reduce(4).to_box();
  ASSERT_EQ(before.size(), after.size());
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(before[i].lo, after[i].lo, 1e-9);
    EXPECT_NEAR(before[i].hi, after[i].hi, 1e-9);
  }
}

TEST(ZonotopeBounds, EncoderNeverAddsBinariesOverIntervalAndKeepsVerdicts) {
  for (const unsigned seed : {5u, 23u}) {
    Rng rng(seed);
    const std::size_t width = 8;
    const nn::Network net = make_relu_tail(width, 2, rng);
    for (const double threshold : {-1.0, 0.5, 20.0}) {
      const verify::VerificationQuery q = make_query(net, width, threshold);

      verify::TailVerifierOptions interval_opts;
      verify::TailVerifierOptions zono_opts;
      zono_opts.encode.bounds = verify::BoundMethod::kZonotope;

      const verify::VerificationResult ri = verify::TailVerifier(interval_opts).verify(q);
      const verify::VerificationResult rz = verify::TailVerifier(zono_opts).verify(q);
      EXPECT_LE(rz.encoding.binaries, ri.encoding.binaries) << "seed " << seed;
      EXPECT_GE(rz.encoding.stable_relus, ri.encoding.stable_relus) << "seed " << seed;
      EXPECT_EQ(ri.verdict, rz.verdict) << "seed " << seed << " threshold " << threshold;
    }
  }
}

// -------------------------------------------------- range analysis

TEST(RangeAnalysis, SingleEncodingServesBothDirectionsAndCache) {
  Rng rng(31);
  const nn::Network net = make_relu_tail(6, 1, rng);
  verify::VerificationQuery q = make_query(net, 6, 0.0);

  const verify::RangeResult plain = verify::output_range(q, 0);

  verify::RangeAnalysisOptions cached_options;
  cached_options.encoding_cache = std::make_shared<verify::EncodingCache>();
  const verify::RangeResult c1 = verify::output_range(q, 0, cached_options);
  const verify::RangeResult c2 = verify::output_range(q, 0, cached_options);

  EXPECT_EQ(plain.range.lo, c1.range.lo);
  EXPECT_EQ(plain.range.hi, c1.range.hi);
  EXPECT_EQ(c1.range.lo, c2.range.lo);
  EXPECT_EQ(c1.range.hi, c2.range.hi);
  EXPECT_TRUE(plain.exact);
  const verify::EncodingCache::Stats stats = cached_options.encoding_cache->stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);

  // Sanity: concrete outputs stay inside the computed range.
  for (int s = 0; s < 50; ++s) {
    Tensor x(Shape{6});
    for (std::size_t i = 0; i < 6; ++i) x[i] = rng.uniform(-1.0, 1.0);
    const double out = net.forward(x)[0];
    EXPECT_GE(out, plain.range.lo - 1e-6);
    EXPECT_LE(out, plain.range.hi + 1e-6);
  }
}

// ----------------------------------------------- encode-vs-solve stats

TEST(VerificationResult, SummaryReportsEncodeAndSolveSeconds) {
  Rng rng(47);
  const nn::Network net = make_relu_tail(4, 1, rng);
  const verify::VerificationResult r =
      verify::TailVerifier().verify(make_query(net, 4, 100.0));
  EXPECT_GE(r.encode_seconds, 0.0);
  EXPECT_GT(r.encoding.encode_seconds, 0.0);
  EXPECT_NE(r.summary().find("encode="), std::string::npos) << r.summary();
  EXPECT_NE(r.summary().find("solve="), std::string::npos) << r.summary();
}

}  // namespace
}  // namespace dpv
