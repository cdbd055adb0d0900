// End-to-end safety verification workflow (Fig. 1 of the paper).
//
// Given a trained direct perception network, a property-labelled image
// set, and a risk condition psi, the workflow
//   1. trains the input property characterizer h_l^phi on layer-l
//      features (the specification step),
//   2. builds the S̃ abstraction from the ODD training inputs and runs
//      the assume-guarantee MILP verification (the scalability step),
//   3. estimates Table I on held-out data and derives the (1 - gamma)
//      statistical guarantee (Sec. III),
// and returns a single report combining verdict, counterexample (if any),
// monitor, characterizer quality and statistical strength.
#pragma once

#include <memory>
#include <string>

#include "common/run_control.hpp"
#include "core/assume_guarantee.hpp"
#include "core/characterizer.hpp"
#include "core/statistical.hpp"
#include "verify/risk_spec.hpp"

namespace dpv::core {

class CounterexamplePool;

struct WorkflowConfig {
  CharacterizerConfig characterizer = {};
  AssumeGuaranteeConfig assume_guarantee = {};
  /// Validation accuracy below which the property is reported as
  /// uncharacterizable at layer l (the paper's coin-flip observation).
  double min_separability = 0.75;
  /// Worker pool size for run_campaign (<= 1: serial). Entries are
  /// independent and deterministically seeded, so reports are
  /// bit-identical across thread counts; only wall time changes.
  std::size_t campaign_threads = 1;
  /// Per-entry MILP node budget applied by run_campaign on top of the
  /// verifier configuration (0 = keep assume_guarantee.verifier.milp
  /// .max_nodes as configured).
  std::size_t entry_node_budget = 0;
  /// With `entry_node_budget > 0`: entries that finish under budget
  /// return their unused nodes to a shared pool, and entries left
  /// UNKNOWN by an exhausted node budget are re-run once with an even
  /// share of the pool on top of their budget — easy entries donate to
  /// hard ones instead of the surplus evaporating. Per-entry runs stay
  /// independently seeded and every search is deterministic under its
  /// node budget, so the pool, the grants and every retried verdict are
  /// deterministic and reports remain bit-identical across campaign
  /// thread counts. The redistribution is recorded in CampaignReport.
  bool reallocate_node_budget = true;
  /// Share one verify::EncodingCache across all campaign entries: the
  /// query-independent tail encoding is frozen on first use and entries
  /// with the same abstraction only append their characterizer and risk
  /// rows. Verdicts, counterexamples and report tables are bit-identical
  /// either way (stamped problems equal fresh encodes row for row); only
  /// encode time changes. Ignored when the verifier options already
  /// carry a cache.
  bool share_tail_encodings = true;
  /// Staged falsify-then-prove pipeline (src/verify/falsifier.hpp):
  /// attack the risk margin first (UNSAFE settles with a validated
  /// witness, no encoding), then try a zonotope bound proof (cheap
  /// SAFE), and only survivors pay for the MILP. Decided verdicts are
  /// compatible with a pipeline-off run — only UNKNOWNs can improve.
  /// Tune the stages via `assume_guarantee.verifier.falsify` (restarts,
  /// steps, seed); this flag only flips `falsify.enabled` so a default
  /// config gets the fast path without hand-wiring verifier options.
  bool falsify_first = true;
  /// After an UNSAFE verdict, run train::concretize_activation from the
  /// first property training image to search the *input* space for an
  /// image whose layer-l features approach the activation witness (the
  /// paper's "construct a counter example ... by using adversarial
  /// perturbation techniques"). Off by default: it is a best-effort
  /// gradient search whose result lands in WorkflowReport, not a
  /// verdict change.
  bool concretize_witnesses = false;
  /// Start-point pool shared across campaigns: run_campaign contributes
  /// MILP counterexamples and B&B frontier near-misses here and seeds
  /// each entry's stage-0 attack from the snapshot under its risk name.
  /// Null = run_campaign uses a private per-campaign pool.
  std::shared_ptr<CounterexamplePool> counterexample_pool;
  /// Campaign-wide cooperative cancellation (run_campaign only):
  /// threaded into every entry's verifier, polled before each entry
  /// claim. On expiry the campaign stops gracefully — settled entries
  /// keep their verdicts, interrupted/unclaimed entries are reported as
  /// deadline-skipped UNKNOWNs, and a checkpoint (when configured)
  /// preserves the settled work for --resume. Not owned.
  const RunControl* run_control = nullptr;
  /// Checkpoint file for run_campaign (empty = no checkpointing):
  /// written after the first pass — and, on a mid-pass fault, from the
  /// error path before rethrowing — holding every settled entry.
  std::string checkpoint_path;
  /// Load `checkpoint_path` before running and skip the settled entries
  /// it holds. The file must match this campaign (network fingerprint +
  /// config hash) or run_campaign throws ContractViolation. A resumed
  /// run reproduces the uninterrupted run's tables bit-identically.
  bool resume = false;

  /// Delta re-certification across model versions (run_campaign only;
  /// see src/verify/delta.hpp). `delta_base` is the exact network
  /// version whose campaign produced the artifact bundle at
  /// `delta_artifacts_path`; when both are set and the bundle loads,
  /// each entry's verification plans artifact reuse (bound trace,
  /// root-cut pool, pseudocost priors) against it — every class gated by
  /// its own soundness argument, so verdicts match a cold run. Not
  /// owned; must outlive run_campaign.
  const nn::Network* delta_base = nullptr;
  std::string delta_artifacts_path;
  /// When non-empty, run_campaign harvests this campaign's artifacts and
  /// saves the next-generation bundle here (chain extended when the run
  /// itself was a delta run, fresh base bundle otherwise). May equal
  /// `delta_artifacts_path` — the save is atomic and happens after all
  /// entries settle.
  std::string delta_artifacts_out_path;
};

struct WorkflowReport {
  std::string property_name;
  std::string risk_name;

  TrainedCharacterizer characterizer;
  bool characterizer_usable = false;

  SafetyCase safety;
  TableOneEstimate table_one;

  /// Input-space witness from `concretize_witnesses`: an image whose
  /// layer-l features approach the activation counterexample, plus the
  /// residual ||f^(l)(input) - n̂_l||_inf. Best-effort — a large
  /// distance means the activation witness may not be realizable from
  /// the ODD images tried.
  bool have_input_witness = false;
  Tensor input_witness;
  double input_witness_distance = 0.0;

  /// True when a campaign deadline expired before this entry ran (or
  /// while it ran, leaving it undecided): the entry is tallied as
  /// UNKNOWN and its table row is marked. Only interrupted campaign
  /// reports ever carry this; a resumed run re-runs these entries.
  bool deadline_skipped = false;

  /// Human-readable multi-line report.
  std::string to_string() const;
};

class SafetyWorkflow {
 public:
  /// `perception` must outlive the workflow. `attach_layer` is the cut
  /// depth l (feature width = input of layer l).
  SafetyWorkflow(const nn::Network& perception, std::size_t attach_layer);

  /// Runs the full pipeline.
  ///
  /// `property_train` / `property_val`: image -> {0,1} datasets labelled
  /// by the phi oracle. `risk`: the undesired output region psi. The
  /// characterizer is trained on `property_train`; Table I is estimated
  /// on `property_val`; S̃ is built from the training images.
  WorkflowReport run(const std::string& property_name, const train::Dataset& property_train,
                     const train::Dataset& property_val, const verify::RiskSpec& risk,
                     const WorkflowConfig& config) const;

 private:
  const nn::Network& perception_;
  std::size_t attach_layer_;
};

}  // namespace dpv::core
