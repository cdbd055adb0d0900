#include "core/campaign.hpp"

#include <algorithm>
#include <chrono>
#include <iomanip>
#include <memory>
#include <sstream>

#include "common/check.hpp"
#include "core/checkpoint.hpp"
#include "core/counterexample_pool.hpp"
#include "core/parallel_pass.hpp"
#include "verify/delta.hpp"
#include "verify/encoding_cache.hpp"

namespace dpv::core {

namespace {

/// Hash of every semantics-affecting campaign option plus the entry
/// identities — what a checkpoint must match before its records may be
/// trusted. Thread counts and caching flags are deliberately excluded:
/// they change wall time, never verdicts. The delta-reuse fields are
/// excluded for the same reason — every reuse class is
/// verdict-preserving by construction, so a delta run may resume a cold
/// run's checkpoint and vice versa.
std::size_t campaign_config_hash(const std::vector<CampaignEntry>& entries,
                                 const WorkflowConfig& config) {
  ConfigHasher h;
  h.add(std::string("campaign"));
  h.add(static_cast<std::uint64_t>(entries.size()));
  for (const CampaignEntry& e : entries) {
    h.add(e.property_name);
    h.add(e.risk.name());
  }
  h.add(config.min_separability);
  h.add(static_cast<std::uint64_t>(config.entry_node_budget));
  h.add(config.reallocate_node_budget);
  h.add(config.falsify_first);
  h.add(config.concretize_witnesses);
  h.add(static_cast<std::uint64_t>(config.characterizer.hidden));
  h.add(config.characterizer.learning_rate);
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.epochs));
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.batch_size));
  h.add(static_cast<std::uint64_t>(config.characterizer.trainer.shuffle_seed));
  h.add(static_cast<std::uint64_t>(config.characterizer.init_seed));
  h.add(static_cast<std::uint64_t>(config.assume_guarantee.bounds));
  h.add(config.assume_guarantee.monitor_margin);
  const verify::TailVerifierOptions& v = config.assume_guarantee.verifier;
  h.add(static_cast<std::uint64_t>(v.milp.max_nodes));
  h.add(v.validation_tolerance);
  h.add(v.risk_margin_objective);
  h.add(static_cast<std::uint64_t>(v.falsify.restarts));
  h.add(static_cast<std::uint64_t>(v.falsify.steps));
  h.add(v.falsify.step_scale);
  h.add(static_cast<std::uint64_t>(v.falsify.seed));
  return h.hash();
}

/// The checkpoint view of a settled first-pass result: exactly what the
/// downstream passes read (see CampaignEntryRecord).
CampaignEntryRecord make_entry_record(std::size_t i, const WorkflowReport& wr) {
  const verify::VerificationResult& v = wr.safety.verification;
  CampaignEntryRecord rec;
  rec.index = i;
  rec.property_name = wr.property_name;
  rec.risk_name = wr.risk_name;
  rec.train_confusion = wr.characterizer.train_confusion;
  rec.validation_confusion = wr.characterizer.validation_confusion;
  rec.characterizer_usable = wr.characterizer_usable;
  rec.safety_verdict = wr.safety.verdict;
  rec.bounds_source = wr.safety.bounds_source;
  rec.pipeline_ran = !wr.safety.pipeline.empty();
  rec.table_one = wr.table_one.counts;
  rec.verdict = v.verdict;
  rec.decided_by = v.decided_by;
  rec.milp_nodes = v.milp_nodes;
  rec.hit_node_limit = v.hit_node_limit;
  rec.counterexample_validated = v.counterexample_validated;
  if (v.counterexample_validated) rec.counterexample_activation = v.counterexample_activation;
  rec.have_frontier_activation = v.have_frontier_activation;
  if (v.have_frontier_activation) rec.frontier_activation = v.frontier_activation;
  return rec;
}

/// Skeleton WorkflowReport from a restored record: verdict, table and
/// pool-contribution fields are exact; heavyweight artifacts (trained
/// characterizer network, deployed monitor, solver stats) are absent —
/// they belong to the process that actually did the work.
WorkflowReport restore_entry_record(const CampaignEntryRecord& rec) {
  WorkflowReport wr;
  wr.property_name = rec.property_name;
  wr.risk_name = rec.risk_name;
  wr.characterizer.train_confusion = rec.train_confusion;
  wr.characterizer.validation_confusion = rec.validation_confusion;
  wr.characterizer_usable = rec.characterizer_usable;
  wr.safety.verdict = rec.safety_verdict;
  wr.safety.bounds_source = rec.bounds_source;
  if (rec.pipeline_ran) {
    EscalationStep step;
    step.rung = "checkpoint-restored";
    step.verdict = rec.verdict;
    wr.safety.pipeline.push_back(std::move(step));
  }
  wr.table_one.counts = rec.table_one;
  verify::VerificationResult& v = wr.safety.verification;
  v.verdict = rec.verdict;
  v.decided_by = rec.decided_by;
  v.milp_nodes = rec.milp_nodes;
  v.hit_node_limit = rec.hit_node_limit;
  v.counterexample_validated = rec.counterexample_validated;
  v.counterexample_activation = rec.counterexample_activation;
  v.have_frontier_activation = rec.have_frontier_activation;
  v.frontier_activation = rec.frontier_activation;
  return wr;
}

}  // namespace

std::string CampaignReport::format_table() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(4);
  out << std::left << std::setw(28) << "property phi" << " | " << std::setw(34) << "risk psi"
      << " | " << std::setw(9) << "char-acc" << " | " << std::setw(38) << "verdict" << " | "
      << "1-gamma\n";
  out << std::string(28, '-') << "-+-" << std::string(34, '-') << "-+-" << std::string(9, '-')
      << "-+-" << std::string(38, '-') << "-+--------\n";
  for (const WorkflowReport& r : reports) {
    out << std::left << std::setw(28) << r.property_name << " | " << std::setw(34)
        << r.risk_name << " | " << std::setw(9) << r.characterizer.separability() << " | "
        << std::setw(38)
        << (r.deadline_skipped ? std::string("UNKNOWN (deadline-skipped)")
            : r.characterizer_usable
                ? std::string(safety_verdict_name(r.safety.verdict))
                : std::string("N/A (property not characterizable)"))
        << " | " << r.table_one.guarantee() << "\n";
  }
  out << "\ntally: " << safe_count << " safe, " << unsafe_count << " unsafe, "
      << unknown_count << " unknown, " << uncharacterizable_count
      << " not characterizable at layer l";
  if (interrupted)
    out << "\n(run interrupted by deadline: deadline-skipped entries are tallied as unknown;"
        << " resume from the checkpoint to settle them)";
  return out.str();
}

std::string CampaignReport::format_encoding_summary() const {
  std::ostringstream out;
  out << std::fixed << std::setprecision(6);
  out << "encoding: " << encode_seconds << "s encode vs " << solve_seconds
      << "s solve across " << reports.size() << " entries";
  if (encoding_cache_hits + encoding_cache_misses > 0) {
    out << "; cache " << encoding_cache_hits << " hits / " << encoding_cache_misses
        << " misses, " << encoding_reused_rows << " rows + " << encoding_reused_variables
        << " variables stamped from frozen bases";
  } else {
    out << "; encoding cache off (every entry re-encoded its tail)";
  }
  if (cuts_added > 0 || cut_rounds > 0) {
    out << "; cuts: " << cuts_added << " added over " << cut_rounds
        << " root rounds, " << milp_nodes << " B&B nodes total";
    if (solver_totals.root_warm_starts > 0)
      out << ", " << solver_totals.root_warm_starts << " root LPs warm-started";
  }
  // Staged-pipeline funnel: only when the falsify pipeline actually ran
  // (a falsify-off campaign reads exactly as before).
  if (funnel_attack_falsified + funnel_zonotope_proved + funnel_milp_proved +
          funnel_milp_falsified + funnel_unknown >
      0) {
    out << "; funnel: " << funnel_attack_falsified << " attack-falsified / "
        << funnel_zonotope_proved << " zonotope-proved / "
        << funnel_milp_proved + funnel_milp_falsified << " milp-decided ("
        << funnel_milp_proved << " safe, " << funnel_milp_falsified << " unsafe) / "
        << funnel_unknown << " unknown; stage time " << attack_seconds << "s attack + "
        << zonotope_seconds << "s zonotope";
    if (pool_points_contributed > 0 || attack_seeds_tried > 0)
      out << "; recycling: " << pool_points_contributed << " points pooled, "
          << attack_seeds_tried << " seeds tried";
  }
  // Only when re-allocation actually engaged — a pool with no starved
  // entry to spend it on is the budget working, not news.
  if (budget_entries_retried > 0) {
    out << "; budget: " << budget_nodes_returned << " unused nodes pooled, "
        << budget_nodes_granted << " granted over " << budget_entries_retried
        << " retries (" << budget_entries_rescued << " rescued)";
  }
  if (solver_totals.basis_factorizations > 0 || solver_totals.basis_updates > 0) {
    out << "; basis: " << solver_totals.basis_factorizations << " factorizations, ";
    if (solver_totals.basis_restores > 0)
      out << solver_totals.basis_restores << " restores, ";
    out << solver_totals.basis_updates << " updates";
    if (solver_totals.basis_updates > 0)
      out << " (avg eta nnz " << solver_totals.avg_eta_nonzeros() << ")";
    if (solver_totals.singular_recoveries > 0)
      out << ", " << solver_totals.singular_recoveries << " singular recoveries";
    if (solver_totals.nonfinite_recoveries > 0)
      out << ", " << solver_totals.nonfinite_recoveries << " nonfinite recoveries";
    out << "; lp time " << solver_totals.factor_seconds << "s factor + "
        << solver_totals.pivot_seconds << "s pivot";
  }
  if (checkpoint_seconds > 0.0 || resume_entries_restored > 0) {
    out << "; checkpoint: " << checkpoint_seconds << "s writing, "
        << resume_entries_restored << " entries restored on resume";
  }
  if (delta_entries_exact + delta_entries_widened + delta_entries_cold > 0) {
    out << "; delta: " << delta_entries_exact << " exact / " << delta_entries_widened
        << " widened / " << delta_entries_cold << " cold trace reuse";
    if (delta_bounds_refreshed > 0)
      out << ", " << delta_bounds_refreshed << " bounds refreshed in "
          << delta_refresh_seconds << "s";
  }
  if (delta_artifacts_saved) out << "; delta artifact bundle saved";
  return out.str();
}

CampaignReport run_campaign(const nn::Network& perception, std::size_t attach_layer,
                            const std::vector<CampaignEntry>& entries,
                            const WorkflowConfig& config) {
  check(!entries.empty(), "run_campaign: no entries");
  const SafetyWorkflow workflow(perception, attach_layer);

  // Per-entry solver budget: an override applied uniformly so one
  // pathological entry cannot starve the rest of the battery.
  WorkflowConfig entry_config = config;
  if (config.entry_node_budget > 0)
    entry_config.assume_guarantee.verifier.milp.max_nodes = config.entry_node_budget;
  // The campaign deadline reaches into every entry's falsifier, B&B and
  // simplex loop: an expiring entry degrades to an explained UNKNOWN
  // instead of blocking the battery.
  entry_config.assume_guarantee.verifier.run_control = config.run_control;

  // One encoding cache shared across the worker pool: entries with the
  // same abstraction reuse the frozen tail and only append their own
  // characterizer and risk rows. Copy-on-freeze, so no mutex — workers
  // copy the immutable base and never mutate it.
  std::shared_ptr<verify::EncodingCache> cache =
      entry_config.assume_guarantee.verifier.encoding_cache;
  if (config.share_tail_encodings && cache == nullptr) {
    cache = std::make_shared<verify::EncodingCache>();
    entry_config.assume_guarantee.verifier.encoding_cache = cache;
  }

  // Start-point pool for stage-0 attacks: caller-shared (persists across
  // campaigns) or private to this battery. Contributions happen only
  // between passes, so every job of a pass snapshots the same state.
  std::shared_ptr<CounterexamplePool> pool = config.counterexample_pool;
  if (pool == nullptr) pool = std::make_shared<CounterexamplePool>();
  CampaignReport report;

  // Delta re-certification: load the base version's artifact bundle (if
  // configured and present) and key each entry by its (property, risk)
  // identity — the same pair the checkpoint trusts. A bundle built at a
  // different attach layer shares nothing and is ignored wholesale.
  verify::DeltaArtifacts previous_artifacts;
  bool have_previous = false;
  if (config.delta_base != nullptr && !config.delta_artifacts_path.empty() &&
      verify::load_delta_artifacts(config.delta_artifacts_path, previous_artifacts))
    have_previous = previous_artifacts.attach_layer == attach_layer;
  const auto entry_query_key = [&entries](std::size_t i) {
    ConfigHasher h;
    h.add(entries[i].property_name);
    h.add(entries[i].risk.name());
    const std::size_t key = h.hash();
    // Zero is QueryArtifacts' "empty slot" sentinel; never collide with it.
    return key != 0 ? key : std::size_t{1};
  };
  // One harvest slot per entry: workers fill only their own slot, so no
  // synchronization is needed, and a slot left with query_key == 0 means
  // the entry never reached the MILP (or never ran).
  const bool harvesting = !config.delta_artifacts_out_path.empty();
  std::vector<verify::QueryArtifacts> harvests(harvesting ? entries.size() : 0);

  // Checkpoint identity: the network fingerprint pins the weights, the
  // config hash pins every semantics-affecting option. Only the first
  // pass is recorded — the retry pass is a pure function of first-pass
  // results, so a resumed run re-derives it bit-identically.
  const bool checkpointing = !config.checkpoint_path.empty();
  std::size_t fingerprint = 0;
  std::size_t config_hash = 0;
  if (checkpointing) {
    fingerprint = verify::tail_fingerprint(perception, 0);
    config_hash = campaign_config_hash(entries, config);
  }

  // Entries are independent (each workflow run seeds its own RNGs from
  // the config), so they fan out over a worker pool; results land in
  // their entry slot, keeping report ordering deterministic regardless
  // of thread count or completion order. A pass runs a job list of
  // (entry index, node-budget override — 0 keeps entry_config's); the
  // retry pass below reuses it with per-entry grants.
  //
  // `settled[i]` marks a first-pass result that is final for resume
  // purposes: the entry completed without a deadline expiring inside it.
  // A deadlined entry is honestly UNKNOWN in *this* report but stays
  // unsettled so a resume run re-verifies it with a fresh budget.
  std::vector<WorkflowReport> results(entries.size());
  std::vector<char> settled(entries.size(), 0);

  if (config.resume && checkpointing) {
    CampaignCheckpoint ckpt;
    if (load_campaign_checkpoint(config.checkpoint_path, ckpt)) {
      check(ckpt.fingerprint == fingerprint,
            "run_campaign: checkpoint was written for a different network "
            "(fingerprint mismatch) — delete it or rerun from scratch");
      check(ckpt.config_hash == config_hash,
            "run_campaign: checkpoint was written under different "
            "semantics-affecting options (config hash mismatch)");
      check(ckpt.entry_count == entries.size(), "run_campaign: checkpoint entry count mismatch");
      for (const CampaignEntryRecord& rec : ckpt.records) {
        check(rec.index < entries.size(), "run_campaign: checkpoint entry index out of range");
        check(rec.property_name == entries[rec.index].property_name &&
                  rec.risk_name == entries[rec.index].risk.name(),
              "run_campaign: checkpoint entry identity mismatch");
        results[rec.index] = restore_entry_record(rec);
        settled[rec.index] = 1;
      }
      report.resume_entries_restored = ckpt.records.size();
    }
  }

  // `job_done[j]` is set by the worker as its job's last action; the
  // pass join gives the happens-before, so after a pass (even one cut
  // short by a deadline or a fault) the main thread knows exactly which
  // slots hold finished results.
  std::vector<char> job_done;
  const auto run_pass = [&](const std::vector<std::pair<std::size_t, std::size_t>>& jobs) {
    job_done.assign(jobs.size(), 0);
    ParallelPassOptions pass_options;
    pass_options.run_control = config.run_control;
    pass_options.job_label = [&jobs, &entries](std::size_t j) {
      return "entry " + std::to_string(jobs[j].first) + " (" +
             entries[jobs[j].first].property_name + ")";
    };
    run_parallel_pass(
        jobs.size(), config.campaign_threads,
        [&](std::size_t j) {
          const std::size_t i = jobs[j].first;
          WorkflowConfig job_config = entry_config;
          if (jobs[j].second > 0)
            job_config.assume_guarantee.verifier.milp.max_nodes = jobs[j].second;
          // Per-entry deterministic attack seeding: derived from the
          // configured falsify seed and the entry index (never thread or
          // schedule state), plus recycled start points for this risk.
          verify::FalsifyOptions& falsify = job_config.assume_guarantee.verifier.falsify;
          falsify.seed += 0x9e3779b97f4a7c15ULL * (i + 1);
          falsify.seed_points = pool->snapshot(entries[i].risk.name());
          // Delta reuse in, harvest out. Planning happens inside the
          // assume-guarantee finish step, where the query is fully built.
          AssumeGuaranteeConfig& ag = job_config.assume_guarantee;
          if (have_previous) {
            ag.delta_base = config.delta_base;
            ag.delta_artifacts = &previous_artifacts;
          }
          if (have_previous || harvesting) ag.delta_query_key = entry_query_key(i);
          if (harvesting) ag.delta_harvest = &harvests[i];
          results[i] = workflow.run(entries[i].property_name, entries[i].property_train,
                                    entries[i].property_val, entries[i].risk, job_config);
          job_done[j] = 1;
        },
        pass_options);
  };

  const auto write_checkpoint = [&] {
    if (!checkpointing) return;
    const auto t0 = std::chrono::steady_clock::now();
    CampaignCheckpoint ckpt;
    ckpt.fingerprint = fingerprint;
    ckpt.config_hash = config_hash;
    ckpt.entry_count = entries.size();
    for (std::size_t i = 0; i < entries.size(); ++i)
      if (settled[i]) ckpt.records.push_back(make_entry_record(i, results[i]));
    save_campaign_checkpoint(config.checkpoint_path, ckpt);
    report.checkpoint_seconds +=
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  };

  std::vector<std::pair<std::size_t, std::size_t>> first_pass;
  first_pass.reserve(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i)
    if (!settled[i]) first_pass.emplace_back(i, 0);
  try {
    run_pass(first_pass);
  } catch (const ParallelPassError&) {
    // A worker died. Salvage every job that did finish cleanly into the
    // checkpoint before propagating — the rerun resumes from there.
    for (std::size_t j = 0; j < first_pass.size(); ++j) {
      const std::size_t i = first_pass[j].first;
      if (job_done[j] && !results[i].safety.verification.hit_deadline) settled[i] = 1;
    }
    write_checkpoint();
    throw;
  }
  for (std::size_t j = 0; j < first_pass.size(); ++j) {
    const std::size_t i = first_pass[j].first;
    if (job_done[j] && !results[i].safety.verification.hit_deadline) settled[i] = 1;
  }
  write_checkpoint();

  // Deadline honesty: if anything is left unsettled the run was
  // interrupted. Unclaimed or mid-flight-abandoned entries get a marked
  // UNKNOWN row; entries that *did* run but expired internally keep
  // their own (already honest) UNKNOWN report and are marked too, since
  // a resume run will redo them. The pool contribution, budget retry and
  // their determinism contracts assume complete first-pass results, so
  // an interrupted run skips straight to aggregation.
  for (std::size_t i = 0; i < entries.size(); ++i) {
    if (settled[i]) continue;
    report.interrupted = true;
    results[i].deadline_skipped = true;
    if (results[i].property_name.empty()) {
      results[i].property_name = entries[i].property_name;
      results[i].risk_name = entries[i].risk.name();
    }
  }

  // Recycle this pass's discoveries into the pool, in entry order: a
  // validated layer-l witness is a proven risk point for its risk
  // region, and a frontier near-miss is the B&B's best open relaxation
  // point — both are prime stage-0 starts for the retry pass below and
  // for later campaigns sharing the pool. Contributing here (never from
  // inside a worker) keeps snapshots schedule-independent.
  const auto contribute_results = [&](const std::vector<std::size_t>& indices) {
    for (const std::size_t i : indices) {
      const verify::VerificationResult& v = results[i].safety.verification;
      if (v.verdict == verify::Verdict::kUnsafe && v.counterexample_validated &&
          v.counterexample_activation.numel() > 0) {
        pool->contribute(entries[i].risk.name(), i, v.counterexample_activation);
        ++report.pool_points_contributed;
      }
      if (v.have_frontier_activation) {
        pool->contribute(entries[i].risk.name(), i, v.frontier_activation);
        ++report.pool_points_contributed;
      }
    }
  };
  std::vector<std::size_t> all_indices(entries.size());
  for (std::size_t i = 0; i < entries.size(); ++i) all_indices[i] = i;
  if (!report.interrupted) contribute_results(all_indices);

  // Budget re-allocation: unused nodes of early finishers form a pool
  // that node-limit UNKNOWN entries draw from in one retry pass, split
  // evenly (remainder to the earliest entries). Everything here is a
  // pure function of the deterministic first-pass results, so verdicts
  // and tables stay bit-identical across thread counts.
  double retry_encode_seconds = 0.0, retry_solve_seconds = 0.0;
  double retry_attack_seconds = 0.0, retry_zonotope_seconds = 0.0;
  std::size_t retry_nodes = 0;
  solver::SolverStats retry_stats;
  if (config.entry_node_budget > 0 && config.reallocate_node_budget && !report.interrupted) {
    std::size_t pool_nodes = 0;
    std::vector<std::size_t> starved;
    for (std::size_t i = 0; i < entries.size(); ++i) {
      const verify::VerificationResult& v = results[i].safety.verification;
      const bool unknown = results[i].characterizer_usable &&
                           results[i].safety.verdict == SafetyVerdict::kUnknown;
      if (unknown && v.hit_node_limit) {
        starved.push_back(i);
      } else if (!unknown && v.milp_nodes < config.entry_node_budget) {
        // Only entries that genuinely *finished* donate. An UNKNOWN for
        // another reason (LP iteration limit) neither donates — its
        // leftover is failure, not surplus — nor draws (more nodes
        // would not fix a per-LP resource failure).
        pool_nodes += config.entry_node_budget - v.milp_nodes;
      }
    }
    report.budget_nodes_returned = pool_nodes;
    if (!starved.empty() && pool_nodes > 0) {
      const std::size_t share = pool_nodes / starved.size();
      const std::size_t remainder = pool_nodes % starved.size();
      std::vector<std::pair<std::size_t, std::size_t>> retries;
      for (std::size_t k = 0; k < starved.size(); ++k) {
        const std::size_t grant = share + (k < remainder ? 1 : 0);
        if (grant == 0) continue;
        retries.emplace_back(starved[k], config.entry_node_budget + grant);
        report.budget_nodes_granted += grant;
      }
      // First-pass costs of retried entries stay in the totals — the
      // work was spent either way. The first pass's open gap does NOT:
      // the retry supersedes that search, and merge keeps maxima, so a
      // stale gap would survive into the report even after the retry
      // closed it.
      for (const auto& [i, budget] : retries) {
        (void)budget;
        const verify::VerificationResult& v = results[i].safety.verification;
        retry_encode_seconds += v.encode_seconds;
        retry_solve_seconds += v.solve_seconds;
        retry_attack_seconds += v.attack_seconds;
        retry_zonotope_seconds += v.zonotope_seconds;
        retry_nodes += v.milp_nodes;
        solver::SolverStats first_pass = v.solver_stats;
        first_pass.best_bound_gap = 0.0;
        retry_stats.merge(first_pass);
      }
      run_pass(retries);
      report.budget_entries_retried = retries.size();
      std::vector<std::size_t> retried_indices;
      for (const auto& [i, budget] : retries) {
        (void)budget;
        retried_indices.push_back(i);
        if (results[i].safety.verdict != SafetyVerdict::kUnknown)
          ++report.budget_entries_rescued;
      }
      // A rescued UNSAFE or a fresh frontier near-miss is new seed
      // material for campaigns sharing this pool.
      contribute_results(retried_indices);
    }
  }
  // Persist the next-generation artifact bundle: chain extended when
  // this run reused a previous bundle, fresh base bundle otherwise.
  // Skipped on an interrupted run — a partial harvest would silently
  // degrade the next version's reuse to cold on the missing entries, so
  // the old bundle (if any) is left in place for the resume run.
  if (harvesting && !report.interrupted) {
    verify::DeltaArtifacts next =
        have_previous ? verify::advance_artifacts(previous_artifacts, perception)
                      : verify::make_base_artifacts(perception, attach_layer);
    for (verify::QueryArtifacts& harvest : harvests)
      if (harvest.query_key != 0) next.upsert(std::move(harvest));
    verify::save_delta_artifacts(config.delta_artifacts_out_path, next);
    report.delta_artifacts_saved = true;
  }

  if (cache != nullptr) {
    const verify::EncodingCache::Stats cs = cache->stats();
    report.encoding_cache_hits = cs.hits;
    report.encoding_cache_misses = cs.misses;
    report.encoding_reused_rows = cs.reused_rows;
    report.encoding_reused_variables = cs.reused_variables;
  }
  report.reports.reserve(entries.size());
  for (WorkflowReport& wr : results) {
    const verify::VerificationResult& v = wr.safety.verification;
    report.encode_seconds += v.encode_seconds;
    report.solve_seconds += v.solve_seconds;
    report.attack_seconds += v.attack_seconds;
    report.zonotope_seconds += v.zonotope_seconds;
    report.attack_seeds_tried += v.attack_seeds_tried;
    report.milp_nodes += v.milp_nodes;
    report.solver_totals.merge(v.solver_stats);
    report.delta_bounds_refreshed += v.refreshed_bounds;
    report.delta_refresh_seconds += v.refresh_seconds;
    if (have_previous) {
      switch (wr.safety.delta_trace) {
        case verify::TraceReuse::kExact:
          ++report.delta_entries_exact;
          break;
        case verify::TraceReuse::kWidened:
          ++report.delta_entries_widened;
          break;
        case verify::TraceReuse::kNone:
          ++report.delta_entries_cold;
          break;
      }
    }
    if (wr.deadline_skipped) {
      // Deadline honesty: an entry the deadline skipped (or interrupted
      // mid-verification) is UNKNOWN, never "uncharacterizable" — we
      // simply did not get to find out.
      ++report.unknown_count;
    } else if (!wr.characterizer_usable) {
      ++report.uncharacterizable_count;
    } else {
      switch (wr.safety.verdict) {
        case SafetyVerdict::kSafeUnconditional:
        case SafetyVerdict::kSafeConditional:
          ++report.safe_count;
          break;
        case SafetyVerdict::kUnsafe:
          ++report.unsafe_count;
          break;
        case SafetyVerdict::kUnknown:
          ++report.unknown_count;
          break;
      }
      // Funnel: which stage settled this entry. Only meaningful when the
      // falsify pipeline ran (all zero otherwise, and the summary line
      // stays silent), except UNKNOWN which we only tally alongside the
      // other funnel buckets.
      if (!wr.safety.pipeline.empty()) {
        if (wr.safety.verdict == SafetyVerdict::kUnknown) {
          ++report.funnel_unknown;
        } else {
          switch (v.decided_by) {
            case verify::DecisionStage::kAttack:
              ++report.funnel_attack_falsified;
              break;
            case verify::DecisionStage::kZonotope:
              ++report.funnel_zonotope_proved;
              break;
            case verify::DecisionStage::kMilp:
              if (v.verdict == verify::Verdict::kUnsafe)
                ++report.funnel_milp_falsified;
              else
                ++report.funnel_milp_proved;
              break;
          }
        }
      }
    }
    report.reports.push_back(std::move(wr));
  }
  report.encode_seconds += retry_encode_seconds;
  report.solve_seconds += retry_solve_seconds;
  report.attack_seconds += retry_attack_seconds;
  report.zonotope_seconds += retry_zonotope_seconds;
  report.milp_nodes += retry_nodes;
  report.solver_totals.merge(retry_stats);
  // The dedicated cut counters mirror the merged totals (kept as
  // top-level fields for report readers; one accumulation source).
  report.cuts_added = report.solver_totals.cuts_added;
  report.cut_rounds = report.solver_totals.cut_rounds;
  return report;
}

}  // namespace dpv::core
