// Property-based soundness tests of the whole verification stack:
// random tails, random boxes, random risk thresholds. Invariants:
//   * every decided verdict, serial and threaded with and without root
//     cuts, matches exhaustive ReLU phase enumeration
//     (tests/milp_oracle.hpp) unless the exact optimum is within 1e-6 of
//     the threshold;
//   * SAFE  => dense random sampling inside the abstraction finds no
//     output in the risk region (and no h=1 point in it, when a
//     characterizer is present);
//   * UNSAFE => the returned counterexample re-validates by concrete
//     forward execution and lies inside the abstraction;
//   * verdicts are monotone: shrinking the abstraction never turns SAFE
//     into UNSAFE;
//   * bound method (interval vs LP tightening) and stable-ReLU
//     elimination never change the verdict, only the encoding size.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "milp_oracle.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "verify/verifier.hpp"

namespace dpv::verify {
namespace {

nn::Network make_random_tail(Rng& rng, std::size_t in_n, std::size_t hidden,
                             std::size_t out_n) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, out_n);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

Tensor sample_in_box(const absint::Box& box, Rng& rng) {
  Tensor x(Shape{box.size()});
  for (std::size_t i = 0; i < box.size(); ++i) x[i] = rng.uniform(box[i].lo, box[i].hi);
  return x;
}

class VerifierSoundnessSweep : public ::testing::TestWithParam<int> {};

TEST_P(VerifierSoundnessSweep, VerdictAgreesWithPhaseEnumerationAndSampling) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 769 + 5);
  const std::size_t in_n = static_cast<std::size_t>(rng.uniform_int(2, 4));
  const std::size_t hidden = static_cast<std::size_t>(rng.uniform_int(3, 6));
  nn::Network net = make_random_tail(rng, in_n, hidden, 1);
  const absint::Box box = absint::uniform_box(in_n, -1.0, 1.0);

  // Pick a threshold near the sampled output range so both verdicts occur
  // across the sweep.
  double max_seen = -1e100;
  for (int i = 0; i < 200; ++i)
    max_seen = std::max(max_seen, net.forward(sample_in_box(box, rng))[0]);
  const double threshold = max_seen + rng.uniform(-0.3, 0.3);

  VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = box;
  q.risk.output_at_least(0, 1, threshold);

  const VerificationResult r = TailVerifier().verify(q);
  ASSERT_NE(r.verdict, Verdict::kUnknown) << "seed " << GetParam();

  // The exact verdict, unless the true optimum sits on the threshold
  // (where floating-point LPs may legitimately go either way).
  const double optimum = oracle::max_output_by_phases(net, box, 0);
  if (std::abs(optimum - threshold) > 1e-6) {
    const Verdict exact = optimum >= threshold ? Verdict::kUnsafe : Verdict::kSafe;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      for (const std::size_t rounds : {std::size_t{0}, std::size_t{4}}) {
        TailVerifierOptions options;
        options.milp.threads = threads;
        options.milp.cuts.root_rounds = rounds;
        const VerificationResult v = TailVerifier(options).verify(q);
        if (v.verdict == Verdict::kUnknown) continue;
        EXPECT_EQ(v.verdict, exact) << "seed " << GetParam() << " threads " << threads
                                    << " rounds " << rounds << " optimum " << optimum
                                    << " threshold " << threshold;
      }
    }
  }

  if (r.verdict == Verdict::kSafe) {
    for (int i = 0; i < 2000; ++i) {
      const Tensor out = net.forward(sample_in_box(box, rng));
      ASSERT_LT(out[0], threshold + 1e-7)
          << "SAFE verdict contradicted by sampling, seed " << GetParam();
    }
  } else {
    EXPECT_TRUE(r.counterexample_validated) << "seed " << GetParam();
    for (std::size_t i = 0; i < in_n; ++i) {
      EXPECT_GE(r.counterexample_activation[i], box[i].lo - 1e-7);
      EXPECT_LE(r.counterexample_activation[i], box[i].hi + 1e-7);
    }
    EXPECT_GE(r.counterexample_output[0], threshold - 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTails, VerifierSoundnessSweep, ::testing::Range(0, 20));

class VerifierMonotonicitySweep : public ::testing::TestWithParam<int> {};

TEST_P(VerifierMonotonicitySweep, ShrinkingAbstractionPreservesSafety) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 101 + 7);
  nn::Network net = make_random_tail(rng, 3, 5, 1);

  VerificationQuery wide;
  wide.network = &net;
  wide.attach_layer = 0;
  wide.input_box = absint::uniform_box(3, -1.0, 1.0);
  wide.risk.output_at_least(0, 1, rng.uniform(-1.0, 3.0));

  VerificationQuery narrow = wide;
  narrow.input_box = absint::uniform_box(3, -0.3, 0.3);

  const Verdict vw = TailVerifier().verify(wide).verdict;
  const Verdict vn = TailVerifier().verify(narrow).verdict;
  if (vw == Verdict::kSafe) EXPECT_EQ(vn, Verdict::kSafe) << "seed " << GetParam();
  // And diff constraints can only help:
  VerificationQuery with_diff = wide;
  with_diff.diff_bounds.assign(2, absint::Interval(-0.5, 0.5));
  const Verdict vd = TailVerifier().verify(with_diff).verdict;
  if (vw == Verdict::kSafe) EXPECT_EQ(vd, Verdict::kSafe) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomTails, VerifierMonotonicitySweep, ::testing::Range(0, 12));

class VerifierEncodingEquivalenceSweep : public ::testing::TestWithParam<int> {};

TEST_P(VerifierEncodingEquivalenceSweep, OptionsChangeCostNotVerdict) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 37 + 11);
  nn::Network net = make_random_tail(rng, 3, 4, 1);
  VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(3, -0.8, 0.8);
  q.risk.output_at_least(0, 1, rng.uniform(-0.5, 1.5));

  TailVerifierOptions base;
  TailVerifierOptions no_elim;
  no_elim.encode.eliminate_stable_relus = false;
  TailVerifierOptions lp_bounds;
  lp_bounds.encode.bounds = BoundMethod::kLpTightening;

  const Verdict v1 = TailVerifier(base).verify(q).verdict;
  const Verdict v2 = TailVerifier(no_elim).verify(q).verdict;
  const Verdict v3 = TailVerifier(lp_bounds).verify(q).verdict;
  EXPECT_EQ(v1, v2) << "seed " << GetParam();
  EXPECT_EQ(v1, v3) << "seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(RandomTails, VerifierEncodingEquivalenceSweep,
                         ::testing::Range(0, 12));

class VerifierCharacterizerSweep : public ::testing::TestWithParam<int> {};

TEST_P(VerifierCharacterizerSweep, CharacterizerOnlyRestricts) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 211 + 3);
  nn::Network net = make_random_tail(rng, 3, 4, 1);
  nn::Network charac = make_random_tail(rng, 3, 3, 1);

  VerificationQuery free_q;
  free_q.network = &net;
  free_q.attach_layer = 0;
  free_q.input_box = absint::uniform_box(3, -1.0, 1.0);
  free_q.risk.output_at_least(0, 1, rng.uniform(-0.5, 1.0));

  VerificationQuery restricted = free_q;
  restricted.characterizer = &charac;

  const Verdict vf = TailVerifier().verify(free_q).verdict;
  const VerificationResult rr = TailVerifier().verify(restricted);
  // Adding a constraint can only move UNSAFE -> SAFE, never the reverse.
  if (vf == Verdict::kSafe) EXPECT_EQ(rr.verdict, Verdict::kSafe) << "seed " << GetParam();
  if (rr.verdict == Verdict::kUnsafe) {
    EXPECT_TRUE(rr.counterexample_validated);
    EXPECT_GE(rr.characterizer_logit, -1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTails, VerifierCharacterizerSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace dpv::verify
