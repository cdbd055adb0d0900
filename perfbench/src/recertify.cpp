// recertify: re-certifying retrained models. Set-up certifies a battery
// of 6 LP-tightened queries on a 16x3 ReLU tail cold, for the base
// network and for two retrains (weight deltas of 1e-4 and 1e-3 on the
// last hidden layer, drawn from the seed), and saves the base artifact
// bundle. One op loads the bundle and re-certifies all three versions
// with planned reuse: 18 queries. The workload is LP-bound with no conv
// work, and it runs the same solver layer cold in set-up and warm in
// the op, so work moved between the two shows in setup_s.
#include <iterator>
#include <map>
#include <memory>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/rng.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "verify/delta.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace dpv;

constexpr std::size_t kWidth = 16;
constexpr std::size_t kDepth = 3;
/// The last hidden Dense: its retrain leaves a ReLU block downstream, so
/// the perturbed versions take the widened reuse path.
constexpr std::size_t kPerturbLayer = 2 * kDepth - 2;
/// Risk thresholds from just above the decision boundary to clearly
/// provable, so the encoder's bound-tightening LPs dominate a cold run.
const double kThresholds[] = {10.0, 11.0, 12.0, 13.0, 14.0, 16.0};

nn::Network make_relu_tail(Rng& rng) {
  nn::Network net;
  for (std::size_t d = 0; d < kDepth; ++d) {
    auto dense = std::make_unique<nn::Dense>(kWidth, kWidth);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{kWidth}));
  }
  auto out = std::make_unique<nn::Dense>(kWidth, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

/// A retrain: every weight of one Dense layer moves by -eps or +eps.
/// Equal magnitudes keep the reuse widening, and so the op's work, close
/// across seeds; only the signs come from the seed.
nn::Network retrain(const nn::Network& net, double eps, Rng& rng) {
  nn::Network copy = net.clone();
  auto& dense = dynamic_cast<nn::Dense&>(copy.layer(kPerturbLayer));
  Tensor w = dense.weight();
  for (std::size_t i = 0; i < w.numel(); ++i) w[i] += rng.bernoulli(0.5) ? eps : -eps;
  dense.set_parameters(std::move(w), dense.bias());
  return copy;
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
  options.encode.bounds = verify::BoundMethod::kLpTightening;
  options.milp.cuts.root_rounds = 1;
  return options;
}

/// One query through the verifier under a span, with the verifier's
/// stage times reported inside it.
verify::VerificationResult verify_traced(const verify::VerificationQuery& query,
                                         const verify::TailVerifierOptions& options,
                                         Tracer& tracer) {
  Span span(tracer, "verify.verify");
  verify::VerificationResult result = verify::TailVerifier(options).verify(query);
  if (tracer.enabled()) {
    StageTotals stages;
    stages.add(result);
    stages.report(tracer);
  }
  return result;
}

struct Version {
  nn::Network network;
  verify::TraceReuse expected_reuse;
  std::vector<verify::Verdict> cold_verdicts;
};

class RecertifyWorkload final : public Workload {
 public:
  void setup(std::uint64_t seed, const std::string& work_dir, Tracer& tracer) override {
    versions_.clear();
    Rng base_rng(2020);
    base_ = make_relu_tail(base_rng);
    Rng delta_rng(seed);
    versions_.push_back({base_.clone(), verify::TraceReuse::kExact, {}});
    versions_.push_back({retrain(base_, 1e-4, delta_rng), verify::TraceReuse::kWidened, {}});
    versions_.push_back({retrain(base_, 1e-3, delta_rng), verify::TraceReuse::kWidened, {}});

    // Cold certification of every version; the base run harvests the
    // artifact bundle the op reuses.
    verify::DeltaArtifacts bundle = verify::make_base_artifacts(base_, 0);
    for (std::size_t v = 0; v < versions_.size(); ++v) {
      for (std::size_t k = 0; k < std::size(kThresholds); ++k) {
        const verify::VerificationQuery query = make_query(versions_[v].network, kThresholds[k]);
        verify::TailVerifierOptions options = battery_options();
        verify::DeltaHarvest harvest;
        if (v == 0) options.harvest = &harvest;
        const verify::VerificationResult result = verify_traced(query, options, tracer);
        versions_[v].cold_verdicts.push_back(result.verdict);
        if (harvest.captured)
          bundle.upsert(verify::harvest_to_artifacts(k + 1, query, result, std::move(harvest)));
      }
    }
    bundle_path_ = work_dir + "/recertify-base.bundle";
    Span span(tracer, "common.bundle_io");
    verify::save_delta_artifacts(bundle_path_, bundle);
  }

  OpOutcome run_op(Tracer& tracer) override {
    OpOutcome out;
    std::vector<verify::DeltaPlan> plans;
    std::vector<verify::Verdict> verdicts;
    bool loaded = false;
    std::map<verify::TraceReuse, double> reuse_counts;
    {
      Span op(tracer, "bench.op");
      const Clock::time_point start = Clock::now();
      verify::DeltaArtifacts bundle;
      {
        Span span(tracer, "common.bundle_io");
        loaded = verify::load_delta_artifacts(bundle_path_, bundle);
      }
      for (const Version& version : versions_) {
        for (std::size_t k = 0; k < std::size(kThresholds); ++k) {
          const verify::VerificationQuery query = make_query(version.network, kThresholds[k]);
          verify::TailVerifierOptions options = battery_options();
          verify::DeltaPlan& plan = plans.emplace_back();
          {
            Span span(tracer, "verify.delta_plan");
            const verify::QueryArtifacts* entry = bundle.find(k + 1);
            if (entry != nullptr) {
              plan = verify::plan_delta_reuse(bundle, *entry, base_, version.network, query, {});
              if (plan.usable) plan.apply(options);
            }
          }
          verdicts.push_back(verify_traced(query, options, tracer).verdict);
          ++reuse_counts[plan.usable ? plan.trace : verify::TraceReuse::kNone];
        }
      }
      out.seconds = seconds_since(start);
    }
    tracer.count("verify.reuse_exact", reuse_counts[verify::TraceReuse::kExact]);
    tracer.count("verify.reuse_widened", reuse_counts[verify::TraceReuse::kWidened]);
    tracer.count("verify.reuse_cold", reuse_counts[verify::TraceReuse::kNone]);

    std::size_t safe = 0;
    for (std::size_t i = 0; i < verdicts.size(); ++i) {
      const Version& version = versions_[i / std::size(kThresholds)];
      const std::size_t k = i % std::size(kThresholds);
      if (out.failure.empty() && verdicts[i] != version.cold_verdicts[k])
        out.failure = "query " + std::to_string(i) + ": delta verdict differs from the cold one";
      const verify::TraceReuse reuse = plans[i].usable ? plans[i].trace : verify::TraceReuse::kNone;
      if (out.failure.empty() && reuse != version.expected_reuse)
        out.failure = "query " + std::to_string(i) + ": reused " + verify::trace_reuse_name(reuse) +
                      ", expected " + verify::trace_reuse_name(version.expected_reuse);
      safe += verdicts[i] == verify::Verdict::kSafe ? 1 : 0;
    }
    if (!loaded) out.failure = "artifact bundle " + bundle_path_ + " did not load";
    out.certified_fraction = static_cast<double>(safe) / static_cast<double>(verdicts.size());
    return out;
  }

 private:
  nn::Network base_;
  std::vector<Version> versions_;
  std::string bundle_path_;
};

}  // namespace

std::unique_ptr<Workload> make_recertify_workload() {
  return std::make_unique<RecertifyWorkload>();
}

}  // namespace perfbench
