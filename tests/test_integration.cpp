// Cross-module integration tests: a network that travels through a file
// must reproduce identical verification verdicts, and the solver stack
// must stay consistent at moderate scale.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/rng.hpp"
#include "lp/simplex.hpp"
#include "monitor/activation_recorder.hpp"
#include "monitor/diff_monitor.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/serialize.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

nn::Network make_tail(Rng& rng, std::size_t in_n, std::size_t hidden) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(in_n, hidden);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{hidden}));
  auto d2 = std::make_unique<nn::Dense>(hidden, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

TEST(Integration, VerdictSurvivesModelPersistence) {
  Rng rng(61);
  nn::Network net = make_tail(rng, 4, 6);

  // Build S̃ from synthetic "ODD" activations.
  std::vector<Tensor> odd;
  for (int i = 0; i < 60; ++i) odd.push_back(Tensor::randn(Shape{4}, rng, 0.6));
  const std::vector<Tensor> activations = monitor::record_activations(net, 0, odd);
  const monitor::DiffMonitor mon = monitor::DiffMonitor::from_activations(activations);

  verify::VerificationQuery query;
  query.network = &net;
  query.attach_layer = 0;
  query.input_box = mon.box();
  query.diff_bounds = mon.diff_bounds();
  query.risk.output_at_least(0, 1, 0.4);
  const verify::VerificationResult original = verify::TailVerifier().verify(query);

  // Round-trip the network through its text format.
  std::stringstream net_buffer;
  nn::save(net, net_buffer);
  nn::Network restored_net = nn::load(net_buffer);

  verify::VerificationQuery restored_query;
  restored_query.network = &restored_net;
  restored_query.attach_layer = 0;
  restored_query.input_box = mon.box();
  restored_query.diff_bounds = mon.diff_bounds();
  restored_query.risk = query.risk;
  const verify::VerificationResult restored = verify::TailVerifier().verify(restored_query);

  EXPECT_EQ(restored.verdict, original.verdict);
  if (original.verdict == verify::Verdict::kUnsafe) {
    EXPECT_TRUE(restored.counterexample_validated);
    // Bit-exact serialization -> bit-exact counterexamples.
    for (std::size_t i = 0; i < original.counterexample_activation.numel(); ++i)
      EXPECT_DOUBLE_EQ(restored.counterexample_activation[i],
                       original.counterexample_activation[i]);
  }
}

TEST(Integration, VerificationIsDeterministicAcrossRepeats) {
  Rng rng(67);
  nn::Network net = make_tail(rng, 3, 5);
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(3, -1.0, 1.0);
  q.risk.output_at_least(0, 1, 0.5);

  const verify::VerificationResult first = verify::TailVerifier().verify(q);
  for (int repeat = 0; repeat < 3; ++repeat) {
    const verify::VerificationResult again = verify::TailVerifier().verify(q);
    EXPECT_EQ(again.verdict, first.verdict);
    EXPECT_EQ(again.milp_nodes, first.milp_nodes);
    EXPECT_EQ(again.lp_iterations, first.lp_iterations);
  }
}

TEST(Integration, ModerateScaleLpSolves) {
  // 30 variables, 40 rows: well beyond the unit tests, still fast and
  // feasible by construction.
  Rng rng(71);
  lp::LpProblem p;
  std::vector<double> interior(30);
  for (std::size_t i = 0; i < 30; ++i) {
    p.add_variable(-5.0, 5.0);
    interior[i] = rng.uniform(-1.0, 1.0);
  }
  for (std::size_t r = 0; r < 40; ++r) {
    std::vector<lp::LinearTerm> terms;
    double activity = 0.0;
    for (std::size_t c = 0; c < 30; ++c) {
      const double w = rng.uniform(-1.0, 1.0);
      terms.push_back({c, w});
      activity += w * interior[c];
    }
    p.add_row(terms, lp::RowSense::kLessEqual, activity + rng.uniform(0.2, 1.0));
  }
  std::vector<lp::LinearTerm> obj;
  for (std::size_t c = 0; c < 30; ++c) obj.push_back({c, rng.uniform(-1.0, 1.0)});
  p.set_objective(obj, lp::Objective::kMinimize);

  const lp::LpSolution s = lp::SimplexSolver().solve(p);
  ASSERT_EQ(s.status, lp::SolveStatus::kOptimal);
  // The optimum must not be worse than the known feasible interior point.
  double interior_value = 0.0;
  for (std::size_t c = 0; c < 30; ++c) interior_value += obj[c].coeff * interior[c];
  EXPECT_LE(s.objective, interior_value + 1e-6);
}

TEST(Integration, DeepTailVerificationEndToEnd) {
  // Four hidden ReLU layers, BatchNorm-free: the encoder, bound pre-passes
  // and solver must agree on a forced proof.
  Rng rng(73);
  nn::Network net;
  std::size_t in_n = 4;
  for (int d = 0; d < 4; ++d) {
    auto dense = std::make_unique<nn::Dense>(in_n, 6);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{6}));
    in_n = 6;
  }
  auto out = std::make_unique<nn::Dense>(6, 1);
  out->init_he(rng);
  net.add(std::move(out));

  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(4, -0.5, 0.5);
  q.risk.output_at_least(0, 1, 1e5);  // unreachable

  for (const verify::BoundMethod method :
       {verify::BoundMethod::kInterval, verify::BoundMethod::kSymbolic,
        verify::BoundMethod::kLpTightening}) {
    verify::TailVerifierOptions options;
    options.encode.bounds = method;
    const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
    EXPECT_EQ(r.verdict, verify::Verdict::kSafe)
        << "bound method " << static_cast<int>(method);
  }
}

}  // namespace
}  // namespace dpv
