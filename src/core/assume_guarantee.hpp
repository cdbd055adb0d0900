// Assume-guarantee safety verification (Sec. II-B of the paper).
//
// Three ways to obtain the layer-l abstraction, in decreasing order of
// strength of the resulting claim:
//   * kStaticAnalysis — propagate the raw input box through the whole
//     prefix with interval arithmetic: a sound S (Lemma 2); a SAFE
//     verdict is unconditional, but the paper's footnote 1 explains why
//     this usually admits out-of-ODD garbage inputs and fails to prove
//     anything useful.
//   * kMonitorBox — S̃ = per-neuron min/max over the training data
//     (Fig. 1); SAFE becomes *conditional* on the runtime monitor, which
//     must check f^(l)(in) ∈ S̃ on every deployed frame.
//   * kMonitorBoxDiff — S̃ additionally bounded by adjacent-neuron
//     differences (Sec. V's strengthening); same conditionality.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

#include "monitor/diff_monitor.hpp"
#include "nn/network.hpp"
#include "verify/delta.hpp"
#include "verify/verifier.hpp"

namespace dpv::core {

enum class BoundsSource { kStaticAnalysis, kMonitorBox, kMonitorBoxDiff };

enum class SafetyVerdict {
  kSafeUnconditional,  ///< proven over a sound static S
  kSafeConditional,    ///< proven over S̃; valid while the monitor is quiet
  kUnsafe,             ///< counterexample within the abstraction
  kUnknown,            ///< solver resource limit
};

const char* safety_verdict_name(SafetyVerdict verdict);

struct AssumeGuaranteeConfig {
  BoundsSource bounds = BoundsSource::kMonitorBoxDiff;
  /// Fractional margin applied to monitor hulls (0 = exact hull).
  double monitor_margin = 0.0;
  verify::TailVerifierOptions verifier = {};

  /// Delta re-certification (src/verify/delta.hpp). When `delta_base`
  /// and `delta_artifacts` are both set and the artifact bundle has an
  /// entry under `delta_query_key`, finish() plans the reuse against the
  /// network under verification, applies the surviving classes to a
  /// per-query copy of `verifier`, and records the reuse accounting in
  /// the SafetyCase. All pointers are borrowed and must outlive verify().
  const nn::Network* delta_base = nullptr;                   ///< exact base version
  const verify::DeltaArtifacts* delta_artifacts = nullptr;   ///< base's bundle
  std::size_t delta_query_key = 0;                           ///< entry to look up
  verify::DeltaPlanOptions delta_plan = {};
  /// Out-slot: when set, the MILP stage harvests artifacts and finish()
  /// packages them here (keyed by `delta_query_key`) for the caller to
  /// upsert into the next bundle. Left untouched when a cheap pipeline
  /// stage decided and the MILP never ran.
  verify::QueryArtifacts* delta_harvest = nullptr;
};

/// One attempted step of a verification ladder — an escalation rung
/// (src/core/escalation.hpp) or a stage of the staged falsify-then-prove
/// pipeline — with its verdict and cost. Campaign reports aggregate the
/// `seconds` per stage name into the funnel summary.
struct EscalationStep {
  std::string rung;
  verify::Verdict verdict = verify::Verdict::kUnknown;
  std::size_t binaries = 0;
  std::size_t milp_nodes = 0;
  double seconds = 0.0;
};

struct SafetyCase {
  SafetyVerdict verdict = SafetyVerdict::kUnknown;
  BoundsSource bounds_source = BoundsSource::kMonitorBoxDiff;
  verify::VerificationResult verification;
  /// Staged-pipeline trace: one step per stage that actually ran
  /// (attack / zonotope / milp), with per-stage wall seconds. Empty when
  /// the falsify pipeline is off and the MILP decided directly — then
  /// `verification`'s encode/solve seconds are the whole story.
  std::vector<EscalationStep> pipeline;
  /// The monitor to deploy alongside a conditional proof.
  std::optional<monitor::DiffMonitor> deployed_monitor;

  /// Delta-reuse accounting (meaningful when the config carried delta
  /// artifacts): how the bound trace was reused, the max widening radius
  /// applied, and the recycled/dropped cut split from planning.
  verify::TraceReuse delta_trace = verify::TraceReuse::kNone;
  double delta_widening = 0.0;
  std::size_t delta_cuts_recycled = 0;
  std::size_t delta_cuts_dropped = 0;
};

class AssumeGuaranteeVerifier {
 public:
  explicit AssumeGuaranteeVerifier(AssumeGuaranteeConfig config = {});

  /// Verifies `risk` over the tail of `network` cut at `attach_layer`.
  ///
  /// `characterizer` may be null (no property constraint). For monitor
  /// bounds, `odd_inputs` supplies the training-set images whose layer-l
  /// activations induce S̃; for static analysis, `input_box` is the raw
  /// input domain (e.g. [0,1]^pixels).
  SafetyCase verify(const nn::Network& network, std::size_t attach_layer,
                    const nn::Network* characterizer, const verify::RiskSpec& risk,
                    const std::vector<Tensor>& odd_inputs,
                    const absint::Box& input_box) const;

  /// Same verification, but against a caller-built monitor: the query's
  /// layer-l box (and, under kMonitorBoxDiff, diff bounds) come from
  /// `mon` as-is — `monitor_margin` is NOT re-applied, the caller bakes
  /// any margin in when building the monitor. This is the entry point
  /// for callers that scope S̃ themselves (the scenario-coverage engine
  /// builds one monitor per domain cell from that cell's renders).
  /// `config_.bounds` must be a monitor source. A SAFE verdict is
  /// conditional on deploying exactly `mon`.
  SafetyCase verify_with_monitor(const nn::Network& network, std::size_t attach_layer,
                                 const nn::Network* characterizer,
                                 const verify::RiskSpec& risk,
                                 const monitor::DiffMonitor& mon) const;

 private:
  /// Shared tail: runs the verifier on a fully-built query, records the
  /// pipeline trace, and maps the raw verdict to a SafetyVerdict.
  SafetyCase finish(verify::VerificationQuery& query) const;

  AssumeGuaranteeConfig config_;
};

}  // namespace dpv::core
