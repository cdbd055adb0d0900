#include "core/assume_guarantee.hpp"

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "monitor/activation_recorder.hpp"

namespace dpv::core {

const char* safety_verdict_name(SafetyVerdict verdict) {
  switch (verdict) {
    case SafetyVerdict::kSafeUnconditional:
      return "SAFE (unconditional)";
    case SafetyVerdict::kSafeConditional:
      return "SAFE (conditional on runtime monitor)";
    case SafetyVerdict::kUnsafe:
      return "UNSAFE (counterexample in abstraction)";
    case SafetyVerdict::kUnknown:
      return "UNKNOWN (resource limit)";
  }
  return "?";
}

AssumeGuaranteeVerifier::AssumeGuaranteeVerifier(AssumeGuaranteeConfig config)
    : config_(std::move(config)) {}

SafetyCase AssumeGuaranteeVerifier::verify(const nn::Network& network,
                                           std::size_t attach_layer,
                                           const nn::Network* characterizer,
                                           const verify::RiskSpec& risk,
                                           const std::vector<Tensor>& odd_inputs,
                                           const absint::Box& input_box) const {
  verify::VerificationQuery query;
  query.network = &network;
  query.attach_layer = attach_layer;
  query.characterizer = characterizer;
  query.risk = risk;

  if (config_.bounds == BoundsSource::kStaticAnalysis) {
    check(!input_box.empty(),
          "AssumeGuaranteeVerifier: static analysis requires the raw input box");
    query.input_box = absint::propagate_box_range(network, input_box, 0, attach_layer);
    return finish(query);
  }

  check(!odd_inputs.empty(),
        "AssumeGuaranteeVerifier: monitor bounds require ODD training inputs");
  const std::vector<Tensor> activations =
      monitor::record_activations(network, attach_layer, odd_inputs);
  monitor::DiffMonitor mon =
      monitor::DiffMonitor::from_activations(activations, config_.monitor_margin);
  query.input_box = mon.box();
  if (config_.bounds == BoundsSource::kMonitorBoxDiff) query.diff_bounds = mon.diff_bounds();
  SafetyCase result = finish(query);
  result.deployed_monitor = std::move(mon);
  return result;
}

SafetyCase AssumeGuaranteeVerifier::verify_with_monitor(const nn::Network& network,
                                                        std::size_t attach_layer,
                                                        const nn::Network* characterizer,
                                                        const verify::RiskSpec& risk,
                                                        const monitor::DiffMonitor& mon) const {
  check(config_.bounds != BoundsSource::kStaticAnalysis,
        "AssumeGuaranteeVerifier: verify_with_monitor needs a monitor bounds source");
  verify::VerificationQuery query;
  query.network = &network;
  query.attach_layer = attach_layer;
  query.characterizer = characterizer;
  query.risk = risk;
  query.input_box = mon.box();
  if (config_.bounds == BoundsSource::kMonitorBoxDiff) query.diff_bounds = mon.diff_bounds();
  SafetyCase result = finish(query);
  result.deployed_monitor = mon;
  return result;
}

SafetyCase AssumeGuaranteeVerifier::finish(verify::VerificationQuery& query) const {
  SafetyCase result;
  result.bounds_source = config_.bounds;

  // Delta re-certification: plan artifact reuse against the base
  // version's bundle and apply the surviving classes to a per-query
  // options copy. The plan owns the widened trace / root basis /
  // priors that apply() wires in by pointer, so it must live until
  // verify() returns.
  verify::TailVerifierOptions options = config_.verifier;
  verify::DeltaPlan plan;
  if (config_.delta_base != nullptr && config_.delta_artifacts != nullptr &&
      query.network != nullptr) {
    const verify::QueryArtifacts* entry =
        config_.delta_artifacts->find(config_.delta_query_key);
    if (entry != nullptr) {
      plan = verify::plan_delta_reuse(*config_.delta_artifacts, *entry, *config_.delta_base,
                                      *query.network, query, config_.delta_plan);
      if (plan.usable) {
        plan.apply(options);
        result.delta_trace = plan.trace;
        result.delta_widening = plan.widening;
        // A widened trace over a *drifted* abstraction leaves the
        // query's entry boxes loose; the selective refresh recovers
        // per-query tightness with a few LPs instead of a full bound
        // pre-pass. With an unchanged box the entry bounds cannot be
        // stale and the refresh would be pure overhead.
        if (plan.trace == verify::TraceReuse::kWidened && plan.abstraction_changed)
          options.refresh_query_bounds = true;
      }
    }
  }

  // Harvest for the NEXT delta generation: route the MILP artifacts into
  // a stack-local slot and package them after the verdict.
  verify::DeltaHarvest harvest;
  if (config_.delta_harvest != nullptr) options.harvest = &harvest;

  const verify::TailVerifier verifier(options);
  result.verification = verifier.verify(query);
  if (config_.delta_harvest != nullptr && harvest.captured)
    *config_.delta_harvest = verify::harvest_to_artifacts(
        config_.delta_query_key, query, result.verification, std::move(harvest));

  // Trace which pipeline stages ran and what each cost, so campaign
  // reports can aggregate a per-stage funnel. A stage that did not
  // decide records kUnknown (it passed the query on).
  if (config_.verifier.falsify.enabled) {
    const verify::VerificationResult& v = result.verification;
    const bool attack_decided = v.decided_by == verify::DecisionStage::kAttack;
    result.pipeline.push_back(
        {"attack", attack_decided ? v.verdict : verify::Verdict::kUnknown, 0, 0,
         v.attack_seconds});
    if (!attack_decided && config_.verifier.falsify.zonotope_prove) {
      const bool zono_decided = v.decided_by == verify::DecisionStage::kZonotope;
      result.pipeline.push_back(
          {"zonotope", zono_decided ? v.verdict : verify::Verdict::kUnknown, 0, 0,
           v.zonotope_seconds});
    }
    if (v.decided_by == verify::DecisionStage::kMilp)
      result.pipeline.push_back({"milp", v.verdict, v.encoding.binaries, v.milp_nodes,
                                 v.encode_seconds + v.solve_seconds});
  }

  switch (result.verification.verdict) {
    case verify::Verdict::kSafe:
      result.verdict = config_.bounds == BoundsSource::kStaticAnalysis
                           ? SafetyVerdict::kSafeUnconditional
                           : SafetyVerdict::kSafeConditional;
      break;
    case verify::Verdict::kUnsafe:
      result.verdict = SafetyVerdict::kUnsafe;
      break;
    case verify::Verdict::kUnknown:
      result.verdict = SafetyVerdict::kUnknown;
      break;
  }
  return result;
}

}  // namespace dpv::core
