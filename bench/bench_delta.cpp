// Delta re-certification benchmark (src/verify/delta.hpp).
//
// Simulates the retrain-and-re-certify loop: a base model is certified
// cold (harvesting its artifact bundle), then three retrained variants —
// bit-identical, lightly perturbed (1e-4) and heavily perturbed (1e-3)
// on a mid-tail Dense layer — are certified twice each: cold from
// scratch, and delta with plan_delta_reuse against the base bundle.
// The battery is sized so the encoder's bound-tightening LP pre-pass
// dominates cold cost, which is exactly the work exact/widened trace
// reuse elides; the headline target is delta wall <= 25% of cold wall
// at full verdict compatibility.
//
// After the timed delta pass, three untimed ablation passes re-run the
// delta battery with one reuse class switched off each (pseudocost
// priors, root basis, bound trace), so each class shows what it saves:
// the first two in MILP LP iterations, the trace in tightening LPs.
//
// Writes BENCH_delta.json (kind "delta") for tools/bench_compare.py:
// machine-independent reuse/verdict/LP counters compared strictly, wall
// ratios (not absolute seconds) checked against the floors/ceilings the
// file itself carries.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "nn/network.hpp"
#include "verify/delta.hpp"
#include "verify/verifier.hpp"

namespace dpv {
namespace {

// ----------------------------------------------------------- the battery

constexpr std::size_t kWidth = 16;
constexpr std::size_t kDepth = 3;
/// Layer index of the last hidden Dense: the retrain touches a layer
/// with a downstream ReLU block (so the Lipschitz widening is non-zero
/// and the widened path is exercised) without the multi-layer
/// amplification that would blow the widening budget.
constexpr std::size_t kPerturbLayer = 2 * kDepth - 2;

nn::Network make_relu_tail(Rng& rng) {
  nn::Network net;
  std::size_t in_n = kWidth;
  for (std::size_t d = 0; d < kDepth; ++d) {
    auto dense = std::make_unique<nn::Dense>(in_n, kWidth);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{kWidth}));
    in_n = kWidth;
  }
  auto out = std::make_unique<nn::Dense>(in_n, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

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

/// Risk thresholds from just-above the decision boundary (small proof
/// tree) to clearly provable (settles at the root), so encode cost
/// dominates the battery — the regime where re-certification saves the
/// most, because trace reuse elides exactly the bound-tightening LPs the
/// cold encode pays for.
const std::vector<double>& battery_thresholds() {
  static const std::vector<double> thresholds = {10.0, 11.0, 12.0, 13.0, 14.0, 16.0};
  return thresholds;
}

verify::VerificationQuery make_query(const nn::Network& net, double threshold) {
  verify::VerificationQuery q;
  q.network = &net;
  q.attach_layer = 0;
  q.input_box = absint::uniform_box(kWidth, -1.0, 1.0);
  q.risk.output_at_least(0, 2, threshold);
  return q;
}

verify::TailVerifierOptions battery_options() {
  verify::TailVerifierOptions options;
  // The refinement regime of experiment E7: per-neuron LP tightening
  // buys a small search tree at a hefty encode cost — exactly the work
  // a reused bound trace elides on re-certification.
  options.encode.bounds = verify::BoundMethod::kLpTightening;
  options.milp.cuts.root_rounds = 1;
  return options;
}

// ------------------------------------------------------------ one config

/// The reuse class a delta pass switches off, by clearing the plan's
/// own field before applying it.
enum class Ablation { kNone, kPriors, kRootBasis, kTrace };

/// Totals of one pass of the battery over a model.
struct BatteryPass {
  std::size_t entries_exact = 0;
  std::size_t entries_widened = 0;
  std::size_t entries_cold = 0;
  std::size_t bounds_refreshed = 0;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  std::size_t tightening_lps = 0;
  double encode_seconds = 0.0;
  double solve_seconds = 0.0;
  std::vector<verify::Verdict> verdicts;
};

struct DeltaSweep {
  std::string config;
  double cold_wall_seconds = 0.0;
  double delta_wall_seconds = 0.0;
  BatteryPass cold;
  BatteryPass delta;
  /// The ablation passes: the delta battery with one class switched off.
  std::size_t priors_off_lp_iterations = 0;
  std::size_t basis_off_lp_iterations = 0;
  std::size_t trace_off_tightening_lps = 0;
  bool compatible = true;
};

/// Certifies the base model cold, harvesting every query's artifacts.
verify::DeltaArtifacts certify_base(const nn::Network& base) {
  verify::DeltaArtifacts bundle = verify::make_base_artifacts(base, 0);
  std::size_t key = 1;
  for (const double threshold : battery_thresholds()) {
    const verify::VerificationQuery q = make_query(base, threshold);
    verify::TailVerifierOptions options = battery_options();
    verify::DeltaHarvest harvest;
    options.harvest = &harvest;
    const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
    std::printf("  base query %zu: threshold %+6.1f -> %s, %zu nodes, "
                "encode %.3f s, solve %.3f s\n",
                key, threshold, verify::verdict_name(r.verdict), r.milp_nodes,
                r.encode_seconds, r.solve_seconds);
    if (harvest.captured)
      bundle.upsert(verify::harvest_to_artifacts(key, q, r, std::move(harvest)));
    ++key;
  }
  return bundle;
}

/// Certifies `updated` over the battery: cold when `bundle` is null,
/// else with reuse planned against it, minus the class `ablation` names.
BatteryPass run_pass(const nn::Network& base, const nn::Network& updated,
                     const verify::DeltaArtifacts* bundle, Ablation ablation) {
  BatteryPass pass;
  std::size_t key = 1;
  for (const double threshold : battery_thresholds()) {
    const verify::VerificationQuery q = make_query(updated, threshold);
    verify::TailVerifierOptions options = battery_options();
    verify::DeltaPlan plan;
    const verify::QueryArtifacts* entry = bundle != nullptr ? bundle->find(key) : nullptr;
    ++key;
    if (entry != nullptr) {
      plan = verify::plan_delta_reuse(*bundle, *entry, base, updated, q, {});
      switch (ablation) {
        case Ablation::kNone:
          break;
        case Ablation::kPriors:
          plan.pseudocosts.clear();
          break;
        case Ablation::kRootBasis:
          plan.root_basis = {};
          break;
        case Ablation::kTrace:
          plan.trace = verify::TraceReuse::kNone;
          break;
      }
      if (plan.usable) {
        plan.apply(options);
        // Mirror the campaign wiring: a widened trace over a drifted
        // abstraction pays the selective per-query refresh to recover
        // tight entry bounds.
        if (plan.trace == verify::TraceReuse::kWidened && plan.abstraction_changed)
          options.refresh_query_bounds = true;
      }
    }
    switch (plan.usable ? plan.trace : verify::TraceReuse::kNone) {
      case verify::TraceReuse::kExact:
        ++pass.entries_exact;
        break;
      case verify::TraceReuse::kWidened:
        ++pass.entries_widened;
        break;
      case verify::TraceReuse::kNone:
        ++pass.entries_cold;
        break;
    }
    const verify::VerificationResult r = verify::TailVerifier(options).verify(q);
    pass.nodes += r.milp_nodes;
    pass.lp_iterations += r.lp_iterations;
    pass.tightening_lps += r.encoding.tightening_lps;
    pass.encode_seconds += r.encode_seconds;
    pass.solve_seconds += r.solve_seconds;
    pass.bounds_refreshed += r.refreshed_bounds;
    pass.verdicts.push_back(r.verdict);
  }
  return pass;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

DeltaSweep run_sweep(const std::string& config, const nn::Network& base,
                     const nn::Network& updated, const verify::DeltaArtifacts& bundle) {
  DeltaSweep sweep;
  sweep.config = config;

  // Cold re-certification: the updated model from scratch.
  const auto cold_start = std::chrono::steady_clock::now();
  sweep.cold = run_pass(base, updated, nullptr, Ablation::kNone);
  sweep.cold_wall_seconds = seconds_since(cold_start);

  // Delta re-certification: plan artifact reuse per query, then verify.
  const auto delta_start = std::chrono::steady_clock::now();
  sweep.delta = run_pass(base, updated, &bundle, Ablation::kNone);
  sweep.delta_wall_seconds = seconds_since(delta_start);

  // Untimed ablations. Every pass is a sound re-certification, so its
  // verdicts must equal the cold ones too.
  const BatteryPass priors_off = run_pass(base, updated, &bundle, Ablation::kPriors);
  const BatteryPass basis_off = run_pass(base, updated, &bundle, Ablation::kRootBasis);
  const BatteryPass trace_off = run_pass(base, updated, &bundle, Ablation::kTrace);
  sweep.priors_off_lp_iterations = priors_off.lp_iterations;
  sweep.basis_off_lp_iterations = basis_off.lp_iterations;
  sweep.trace_off_tightening_lps = trace_off.tightening_lps;
  sweep.compatible = sweep.delta.verdicts == sweep.cold.verdicts;
  for (const BatteryPass* pass : {&priors_off, &basis_off, &trace_off})
    sweep.compatible = sweep.compatible && pass->verdicts == sweep.cold.verdicts;
  return sweep;
}

// -------------------------------------------------------------- reporting

std::string verdict_list(const std::vector<verify::Verdict>& verdicts) {
  std::string out;
  for (const verify::Verdict verdict : verdicts) {
    if (!out.empty()) out += ',';
    out += verify::verdict_name(verdict);
  }
  return out;
}

void emit_delta_json(const std::vector<DeltaSweep>& sweeps) {
  std::FILE* f = std::fopen("BENCH_delta.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_delta.json: cannot open for writing\n");
    return;
  }
  double cold_total = 0.0, delta_total = 0.0;
  std::size_t reused = 0, entries = 0;
  bool compatible = true;
  std::fprintf(f, "{\n  \"bench\": \"delta\",\n  \"configs\": [\n");
  for (const DeltaSweep& s : sweeps) {
    cold_total += s.cold_wall_seconds;
    delta_total += s.delta_wall_seconds;
    const BatteryPass& d = s.delta;
    reused += d.entries_exact + d.entries_widened;
    entries += d.entries_exact + d.entries_widened + d.entries_cold;
    compatible = compatible && s.compatible;
    const double fraction =
        s.cold_wall_seconds > 0.0 ? s.delta_wall_seconds / s.cold_wall_seconds : 0.0;
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"cold_wall_seconds\": %.6f, "
                 "\"delta_wall_seconds\": %.6f, \"wall_fraction\": %.4f, "
                 "\"entries_exact\": %zu, \"entries_widened\": %zu, "
                 "\"entries_cold\": %zu, \"bounds_refreshed\": %zu, "
                 "\"cold_nodes\": %zu, \"delta_nodes\": %zu, "
                 "\"delta_lp_iterations\": %zu, \"delta_tightening_lps\": %zu, "
                 "\"priors_off_lp_iterations\": %zu, \"basis_off_lp_iterations\": %zu, "
                 "\"trace_off_tightening_lps\": %zu, "
                 "\"cold_verdicts\": \"%s\", \"delta_verdicts\": \"%s\"}%s\n",
                 s.config.c_str(), s.cold_wall_seconds, s.delta_wall_seconds, fraction,
                 d.entries_exact, d.entries_widened, d.entries_cold, d.bounds_refreshed,
                 s.cold.nodes, d.nodes, d.lp_iterations, d.tightening_lps,
                 s.priors_off_lp_iterations, s.basis_off_lp_iterations,
                 s.trace_off_tightening_lps, verdict_list(s.cold.verdicts).c_str(),
                 verdict_list(d.verdicts).c_str(), &s == &sweeps.back() ? "" : ",");
  }
  const double wall_fraction = cold_total > 0.0 ? delta_total / cold_total : 0.0;
  const double reuse_fraction =
      entries > 0 ? static_cast<double>(reused) / static_cast<double>(entries) : 0.0;
  std::fprintf(f,
               "  ],\n  \"headline\": {\"queries_per_config\": %zu, "
               "\"reuse_fraction\": %.4f, \"min_reuse_fraction\": 1.0, "
               "\"wall_fraction\": %.4f, \"max_wall_fraction\": 0.25, "
               "\"speedup_recert\": %.3f},\n",
               battery_thresholds().size(), reuse_fraction, wall_fraction,
               delta_total > 0.0 ? cold_total / delta_total : 0.0);
  std::fprintf(f, "  \"verdict_compatibility\": %s\n}\n", compatible ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_delta.json\n");
}

void print_delta_report() {
  Rng rng(2020);
  const nn::Network base = make_relu_tail(rng);
  std::printf("\n=== delta re-certification: artifact reuse across model versions ===\n");
  std::printf("battery: %zu queries, tail %zux%zu ReLU, one root cut round\n",
              battery_thresholds().size(), kWidth, kDepth);

  const auto harvest_start = std::chrono::steady_clock::now();
  const verify::DeltaArtifacts bundle = certify_base(base);
  std::printf("base certification + harvest: %.3f s (%zu query entries)\n",
              seconds_since(harvest_start), bundle.queries.size());

  std::vector<DeltaSweep> sweeps;
  sweeps.push_back(run_sweep("identical", base, base.clone(), bundle));
  sweeps.push_back(run_sweep("eps-1e-4", base, perturb_dense(base, kPerturbLayer, 1e-4),
                             bundle));
  sweeps.push_back(run_sweep("eps-1e-3", base, perturb_dense(base, kPerturbLayer, 1e-3),
                             bundle));

  std::printf("%10s | %8s | %8s | %6s | %15s | %8s | %7s | %7s\n", "config", "cold s",
              "delta s", "frac", "exact/wide/cold", "lp iters", "refresh", "compat");
  std::printf(
      "-----------+----------+----------+--------+-----------------+----------+---------+---\n");
  for (const DeltaSweep& s : sweeps) {
    const BatteryPass& d = s.delta;
    std::printf("%10s | %8.3f | %8.3f | %6.3f | %5zu/%4zu/%4zu | %8zu | %7zu | %s\n",
                s.config.c_str(), s.cold_wall_seconds, s.delta_wall_seconds,
                s.cold_wall_seconds > 0.0 ? s.delta_wall_seconds / s.cold_wall_seconds : 0.0,
                d.entries_exact, d.entries_widened, d.entries_cold, d.lp_iterations,
                d.bounds_refreshed, s.compatible ? "yes" : "NO");
    std::printf("%10s | encode %.3f -> %.3f s, solve %.3f -> %.3f s, nodes %zu -> %zu\n", "",
                s.cold.encode_seconds, d.encode_seconds, s.cold.solve_seconds,
                d.solve_seconds, s.cold.nodes, d.nodes);
    std::printf("%10s | ablation: priors off %zu, basis off %zu LP iterations; "
                "trace off %zu tightening LPs (full delta %zu)\n",
                "", s.priors_off_lp_iterations, s.basis_off_lp_iterations,
                s.trace_off_tightening_lps, d.tightening_lps);
  }
  emit_delta_json(sweeps);
}

// -------------------------------------------------- micro: planning cost

void BM_PlanDeltaReuse(benchmark::State& state) {
  Rng rng(2020);
  const nn::Network base = make_relu_tail(rng);
  const nn::Network updated = perturb_dense(base, kPerturbLayer, 1e-4);
  const verify::DeltaArtifacts bundle = certify_base(base);
  const verify::QueryArtifacts* entry = bundle.find(1);
  if (entry == nullptr) {
    state.SkipWithError("no harvested entry");
    return;
  }
  const verify::VerificationQuery q = make_query(updated, battery_thresholds().front());
  for (auto _ : state) {
    const verify::DeltaPlan plan =
        verify::plan_delta_reuse(bundle, *entry, base, updated, q, {});
    benchmark::DoNotOptimize(plan.trace);
  }
}
BENCHMARK(BM_PlanDeltaReuse)->Unit(benchmark::kMillisecond)->Iterations(5);

}  // namespace
}  // namespace dpv

int main(int argc, char** argv) {
  dpv::print_delta_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
