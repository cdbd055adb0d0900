// campaign-parallel: the paper's Fig. 1 workflow with its Table I, as a
// safety-case campaign. One op is core::run_campaign over 8 entries on
// the testbed network, on 4 worker threads. Per entry most time goes to
// layer-l feature extraction over the same images and to training the
// characterizer; this is the only workload that trains, the only
// threaded one, and the one where work shared across inputs can show.
#include <optional>
#include <vector>

#include "common/rng.hpp"
#include "core/campaign.hpp"
#include "data/perception_model.hpp"
#include "monitor/activation_recorder.hpp"
#include "monitor/diff_monitor.hpp"
#include "testbed.hpp"
#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/optimizer.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace dpv;

constexpr std::size_t kThreads = 4;

verify::RiskSpec at_most(const char* name, std::size_t output, double bound) {
  verify::RiskSpec risk(name);
  risk.output_at_most(output, 2, bound);
  return risk;
}

verify::RiskSpec at_least(const char* name, std::size_t output, double bound) {
  verify::RiskSpec risk(name);
  risk.output_at_least(output, 2, bound);
  return risk;
}

/// Both bend properties and the traffic-adjacent one, crossed with risks
/// of the E2 funnel battery, so that the attack, the zonotope proof and
/// the MILP each decide at least one entry and one entry is N/A on every
/// seed. heading <= -3 is the one threshold not in E2: S~ admits no
/// bend-right point steering that far left, but only the MILP shows it.
std::vector<std::pair<data::InputProperty, verify::RiskSpec>> battery() {
  verify::RiskSpec straight("steer-straight (|heading| <= 0.05)");
  straight.output_in_range(1, 2, -0.05, 0.05);
  using P = data::InputProperty;
  return {
      {P::kBendRightStrong, straight},
      {P::kBendRightStrong, at_most("heading-hard-left (heading <= -25)", 1, -25.0)},
      {P::kBendRightStrong, at_most("heading-far-left (heading <= -3)", 1, -3.0)},
      {P::kBendRightStrong, at_most("waypoint-anywhere (waypoint <= 1e6)", 0, 1e6)},
      {P::kBendLeftStrong, straight},
      {P::kBendLeftStrong, at_least("heading-hard-right (heading >= 25)", 1, 25.0)},
      {P::kBendLeftStrong, at_least("waypoint-far-out (waypoint >= 50)", 0, 50.0)},
      {P::kTrafficAdjacent, at_most("heading-hard-left (heading <= -25)", 1, -25.0)},
  };
}

class CampaignWorkload final : public Workload {
 public:
  CampaignWorkload() { config_.campaign_threads = kThreads; }

  void setup(std::uint64_t seed, const std::string&, Tracer& tracer) override {
    entries_.clear();
    testbed_.reset();
    testbed_.emplace(load_testbed(seed, tracer));
    Span span(tracer, "data.label");
    for (const auto& [property, risk] : battery())
      entries_.push_back({data::property_name(property),
                          data::to_property_dataset(testbed_->train_samples, property),
                          data::to_property_dataset(testbed_->val_samples, property), risk});
    reference_table_.clear();
  }

  std::size_t threads() const override { return kThreads; }

  OpOutcome run_op(Tracer& tracer) override {
    const Testbed& tb = *testbed_;
    OpOutcome out;
    core::CampaignReport report;
    double op_cpu = 0.0;
    {
      Span op(tracer, "bench.op");
      const Clock::time_point start = Clock::now();
      const double cpu_start = process_cpu_seconds();
      report = core::run_campaign(tb.network, tb.attach_layer, entries_, config_);
      out.seconds = seconds_since(start);
      op_cpu = process_cpu_seconds() - cpu_start;
    }
    out.certified_fraction =
        static_cast<double>(report.safe_count) / static_cast<double>(entries_.size());
    out.failure = check(report);
    if (out.failure.empty() && tracer.enabled()) replay(report, op_cpu, tracer, out);
    return out;
  }

 private:
  std::string check(const core::CampaignReport& report) {
    if (report.interrupted) return "campaign interrupted";
    std::size_t not_characterizable = 0;
    for (std::size_t i = 0; i < report.reports.size(); ++i) {
      const core::WorkflowReport& r = report.reports[i];
      const bool traffic =
          r.property_name == data::property_name(data::InputProperty::kTrafficAdjacent);
      if (traffic == r.characterizer_usable)
        return "entry " + std::to_string(i) + ": characterizable iff not traffic-adjacent";
      not_characterizable += r.characterizer_usable ? 0 : 1;
      if (r.characterizer_usable && r.safety.verdict == core::SafetyVerdict::kUnsafe &&
          !r.safety.verification.counterexample_validated)
        return "entry " + std::to_string(i) + ": UNSAFE without a validated witness";
    }
    const std::size_t milp = report.funnel_milp_proved + report.funnel_milp_falsified;
    if (report.funnel_attack_falsified == 0 || report.funnel_zonotope_proved == 0 || milp == 0 ||
        not_characterizable == 0)
      return "battery must exercise attack, zonotope, MILP and N/A; decided " +
             std::to_string(report.funnel_attack_falsified) + " / " +
             std::to_string(report.funnel_zonotope_proved) + " / " + std::to_string(milp) +
             ", " + std::to_string(not_characterizable) + " N/A";
    std::string table = report.format_table();
    if (reference_table_.empty())
      reference_table_ = std::move(table);
    else if (table != reference_table_)
      return "campaign table differs from the run's first op";
    return {};
  }

  /// Replays each entry's workflow steps through the public functions
  /// SafetyWorkflow::run calls, under per-layer spans, and reports the
  /// verifier's own stage times. The replay is serial; the op ran the
  /// entries on the worker pool, so the replay is held to the op's CPU
  /// time (all workers), which idle workers do not add to. Fails the op
  /// when the replay estimates a different Table I.
  void replay(const core::CampaignReport& report, double op_cpu, Tracer& tracer, OpOutcome& out) {
    const Testbed& tb = *testbed_;
    const core::CharacterizerConfig& cc = config_.characterizer;
    const double cpu_start = process_cpu_seconds();
    Span replay_span(tracer, "bench.replay");
    double prefix_images = 0, sample_steps = 0, busy = 0.0;
    for (std::size_t i = 0; i < entries_.size(); ++i) {
      const core::CampaignEntry& entry = entries_[i];
      Span entry_span(tracer, "bench.entry");
      const Clock::time_point entry_start = Clock::now();
      train::Dataset train_features, val_features;
      {
        Span span(tracer, "nn.prefix");
        train_features = core::to_feature_dataset(tb.network, tb.attach_layer, entry.property_train);
        val_features = core::to_feature_dataset(tb.network, tb.attach_layer, entry.property_val);
        prefix_images += static_cast<double>(train_features.size() + val_features.size());
      }
      Rng init_rng(cc.init_seed);
      nn::Network characterizer =
          data::make_characterizer_network(train_features[0].input.numel(), cc.hidden, init_rng);
      {
        Span span(tracer, "train.fit");
        train::BceWithLogitsLoss loss;
        train::Adam optimizer(cc.learning_rate);
        train::Trainer(cc.trainer).fit(characterizer, train_features, loss, optimizer);
        sample_steps += static_cast<double>(cc.trainer.epochs * train_features.size());
      }
      {
        Span span(tracer, "train.confusion");
        (void)train::binary_confusion(characterizer, train_features);
        (void)train::binary_confusion(characterizer, val_features);
      }
      std::vector<Tensor> activations;
      {
        Span span(tracer, "nn.prefix");
        activations =
            monitor::record_activations(tb.network, tb.attach_layer, entry.property_train.inputs());
        prefix_images += static_cast<double>(activations.size());
      }
      {
        Span span(tracer, "monitor.build");
        (void)monitor::DiffMonitor::from_activations(activations,
                                                     config_.assume_guarantee.monitor_margin);
      }
      core::TableOneEstimate table_one;
      {
        Span span(tracer, "core.table_one");
        table_one =
            core::estimate_table_one(tb.network, tb.attach_layer, characterizer, entry.property_val);
      }
      const train::ConfusionCounts& op_counts = report.reports[i].table_one.counts;
      if (table_one.counts.tp != op_counts.tp || table_one.counts.fp != op_counts.fp ||
          table_one.counts.fn != op_counts.fn || table_one.counts.tn != op_counts.tn) {
        out.failure = "replay estimated a different Table I for entry " + std::to_string(i);
        return;
      }
      busy += seconds_since(entry_start);
    }

    // The verifier's stage times, as the campaign totals them (first
    // passes of budget-retried entries included).
    StageTotals stages;
    stages.attack_seconds = report.attack_seconds;
    stages.zonotope_seconds = report.zonotope_seconds;
    stages.encode_seconds = report.encode_seconds;
    stages.solve_seconds = report.solve_seconds;
    stages.solver = report.solver_totals;
    stages.milp_nodes = report.milp_nodes;
    stages.cuts_recycled = report.delta_cuts_recycled;
    stages.cache_hits = report.encoding_cache_hits;
    stages.cache_misses = report.encoding_cache_misses;
    stages.report(tracer);
    busy += stages.seconds();

    tracer.count("nn.prefix_images", prefix_images);
    tracer.count("train.sample_steps", sample_steps);
    tracer.count("verify.attack_falsified", static_cast<double>(report.funnel_attack_falsified));
    tracer.count("verify.zonotope_proved", static_cast<double>(report.funnel_zonotope_proved));
    tracer.count("core.busy_s", busy);
    tracer.count("core.idle_fraction", 1.0 - busy / (static_cast<double>(kThreads) * out.seconds));
    tracer.count("core.retried", static_cast<double>(report.budget_entries_retried));
    out.replay_mismatch = (process_cpu_seconds() - cpu_start + stages.seconds()) / op_cpu - 1.0;
  }

  std::optional<Testbed> testbed_;
  std::vector<core::CampaignEntry> entries_;
  core::WorkflowConfig config_;
  std::string reference_table_;
};

}  // namespace

std::unique_ptr<Workload> make_campaign_workload() {
  return std::make_unique<CampaignWorkload>();
}

}  // namespace perfbench
