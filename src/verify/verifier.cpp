#include "verify/verifier.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <new>
#include <sstream>
#include <unordered_map>

#include "common/check.hpp"
#include "common/fault_inject.hpp"

namespace dpv::verify {

const char* verdict_name(Verdict verdict) {
  switch (verdict) {
    case Verdict::kSafe:
      return "SAFE";
    case Verdict::kUnsafe:
      return "UNSAFE";
    case Verdict::kUnknown:
      return "UNKNOWN";
  }
  return "?";
}

const char* decision_stage_name(DecisionStage stage) {
  switch (stage) {
    case DecisionStage::kAttack:
      return "attack";
    case DecisionStage::kZonotope:
      return "zonotope";
    case DecisionStage::kMilp:
      return "milp";
  }
  return "?";
}

std::string VerificationResult::summary() const {
  std::ostringstream out;
  out << verdict_name(verdict);
  if (decided_by != DecisionStage::kMilp)
    out << " [" << decision_stage_name(decided_by) << "]";
  out << " (relu=" << encoding.relu_neurons
      << ", stable=" << encoding.stable_relus << ", binaries=" << encoding.binaries
      << ", nodes=" << milp_nodes << ", lp-iters=" << lp_iterations;
  if (solver_stats.warm_attempts > 0)
    out << ", warm-hit=" << solver_stats.warm_hit_rate();
  if (solver_stats.root_warm_starts > 0)
    out << ", root-warm=" << solver_stats.root_warm_starts;
  if (solver_stats.cut_rounds > 0 || solver_stats.cuts_added > 0)
    out << ", cuts=" << solver_stats.cuts_added << "/" << solver_stats.cut_rounds
        << "r";
  if (solver_stats.basis_factorizations > 0 || solver_stats.basis_updates > 0) {
    out << ", basis=" << solver_stats.basis_factorizations << "f/"
        << solver_stats.basis_updates << "u";
    if (solver_stats.basis_restores > 0)
      out << ", restores=" << solver_stats.basis_restores;
    if (solver_stats.eta_nonzeros > 0)
      out << ", eta-nnz=" << solver_stats.avg_eta_nonzeros();
    if (solver_stats.singular_recoveries > 0)
      out << ", singular-recoveries=" << solver_stats.singular_recoveries;
    if (solver_stats.nonfinite_recoveries > 0)
      out << ", nonfinite-recoveries=" << solver_stats.nonfinite_recoveries;
  }
  if (solver_stats.pricing_resets > 0)
    out << ", pricing-resets=" << solver_stats.pricing_resets;
  if (solver_stats.sibling_batches > 0)
    out << ", sibling-batches=" << solver_stats.sibling_batches;
  if (solver_stats.peak_open_nodes > 1)
    out << ", peak-open=" << solver_stats.peak_open_nodes;
  if (have_best_bound_gap) out << ", gap=" << best_bound_gap;
  out << ", encode=" << encode_seconds << "s, solve=" << solve_seconds << "s)";
  if (!note.empty()) out << " [" << note << "]";
  return out.str();
}

TailVerifier::TailVerifier(TailVerifierOptions options) : options_(std::move(options)) {
  // Counterexample search: the first feasible integral point suffices.
  options_.milp.stop_at_first_feasible = true;
}

VerificationResult TailVerifier::verify(const VerificationQuery& query) const {
  VerificationResult result;

  // ---- Run control --------------------------------------------------
  // A per-query time budget chains a stack-local child deadline onto the
  // caller's token; `control` is what every stage below polls (and what
  // gets threaded into the falsifier and the MILP stack). Either source
  // alone works; together, whichever expires first stops the query.
  RunControl query_budget(options_.run_control);
  const RunControl* control = options_.run_control;
  if (options_.time_budget_seconds > 0) {
    query_budget.set_deadline_after(options_.time_budget_seconds);
    control = &query_budget;
  }
  if (run_expired(control)) {
    result.verdict = Verdict::kUnknown;
    result.hit_deadline = true;
    result.note = "deadline expired before verification started";
    return result;
  }

  // ---- Staged pipeline, stages 0 and 1 ------------------------------
  // Stage 0 settles UNSAFE with a validated concrete witness (skipping
  // the encoding entirely); stage 1 settles SAFE from a sound output-
  // range over-approximation. Both are conservative: anything they
  // decide, the MILP below would have decided the same way, so verdicts
  // stay compatible with a pipeline-off run — only UNKNOWNs can change.
  if (options_.falsify.enabled) {
    FalsifyOptions falsify = options_.falsify;
    falsify.run_control = control;
    const auto attack_start = std::chrono::steady_clock::now();
    const FalsifyReport attack = falsify_query(query, falsify);
    result.attack_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - attack_start).count();
    result.attack_starts = attack.starts;
    result.attack_seeds_tried = attack.seeds_tried;
    if (attack.falsified) {
      result.verdict = Verdict::kUnsafe;
      result.decided_by = DecisionStage::kAttack;
      result.counterexample_activation = attack.counterexample_activation;
      result.counterexample_output = attack.counterexample_output;
      result.characterizer_logit = attack.characterizer_logit;
      // validate_witness already re-ran the concrete tail with a
      // stricter margin than validation_tolerance.
      result.counterexample_validated = true;
      return result;
    }
    if (falsify.zonotope_prove) {
      const auto zono_start = std::chrono::steady_clock::now();
      const BoundProofReport proof = prove_by_bounds(query, falsify);
      result.zonotope_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - zono_start).count();
      if (proof.proved_safe) {
        result.verdict = Verdict::kSafe;
        result.decided_by = DecisionStage::kZonotope;
        result.note = proof.reason;
        return result;
      }
    }
  }

  // Cheap stages are done; the expensive encode + search starts here.
  // Check the deadline once more so an already-expired run never pays
  // for an encoding it cannot use.
  if (run_expired(control)) {
    result.verdict = Verdict::kUnknown;
    result.hit_deadline = true;
    result.note = "deadline expired before encoding";
    return result;
  }

  // Encode (or stamp out from the shared base) and time it separately
  // from the solve, so encode-vs-solve cost is visible per query. On a
  // cache miss the measured time includes the one-time base encode; on
  // a hit it is just the stamp-out. Allocation failure while stamping is
  // a recoverable per-query fault, not a crash: nothing is half-mutated
  // (the encoding is a local), so the query degrades to an explained
  // UNKNOWN and the campaign carries on.
  const auto encode_start = std::chrono::steady_clock::now();
  TailEncoding encoding;
  try {
    if (fault::should_fire("verify.encode_alloc")) throw std::bad_alloc();
    if (options_.encoding_cache != nullptr) {
      const std::shared_ptr<const SharedTailEncoding> base =
          options_.encoding_cache->get_or_build(query, options_.encode);
      encoding = base->instantiate(query);
    } else {
      encoding = encode_tail_query(query, options_.encode);
    }
  } catch (const std::bad_alloc&) {
    result.encode_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - encode_start)
            .count();
    result.verdict = Verdict::kUnknown;
    result.note =
        "encoding allocation failure; query degraded to UNKNOWN (shrink the "
        "encoding or free memory and retry)";
    return result;
  }
  result.encode_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - encode_start).count();
  encoding.stats.encode_seconds = result.encode_seconds;
  result.encoding = encoding.stats;

  // ---- Selective per-query bound refresh ----------------------------
  // Re-tighten only the layer-l feature variables' column bounds with
  // min/max LPs over the stamped per-query relaxation (characterizer +
  // risk rows included, so the refresh sees exactly what this query
  // constrains). The relaxation over-approximates the integer-feasible
  // set, so the LP range covers every counterexample's value: shrinking
  // column bounds preserves all integral points and verdicts. This is
  // the cheap counterpart of full kLpTightening when a delta-reused
  // (possibly widened) trace left the entry bounds stale.
  if (options_.refresh_query_bounds && !encoding.input_vars.empty()) {
    const auto refresh_start = std::chrono::steady_clock::now();
    // The dense-tableau solver does not poll RunControl; the loop's own
    // run_expired check between variables is what stops a refresh.
    const lp::SimplexSolver refresh_solver(options_.encode.lp_options);
    lp::LpProblem& relaxation = encoding.problem.relaxation();
    for (const std::size_t var : encoding.input_vars) {
      if (run_expired(control)) break;
      double lo = relaxation.lower_bound(var), hi = relaxation.upper_bound(var);
      const double old_width = hi - lo;
      const lp::LpRange range = refresh_solver.solve_range(relaxation, var);
      if (range.min.status == lp::SolveStatus::kOptimal)
        lo = std::max(lo, range.min.objective - 1e-9);
      if (range.max.status == lp::SolveStatus::kOptimal)
        hi = std::min(hi, range.max.objective + 1e-9);
      if (lo > hi) lo = hi;  // numerical guard; keeps the box non-empty
      relaxation.set_bounds(var, lo, hi);
      if (hi - lo < old_width) ++result.refreshed_bounds;
    }
    result.refresh_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - refresh_start)
            .count();
  }

  const auto start = std::chrono::steady_clock::now();
  // Risk-margin objective: the per-query problem (a private copy, even
  // when stamped from a frozen cache base) gets "maximize the leading
  // risk inequality's activation" with its threshold as the search's
  // bound target. Feasibility is untouched — the risk rows still
  // constrain — but the search gains an ordering signal and a
  // node-limit stop can report the remaining margin headroom as a gap.
  milp::BranchAndBoundOptions milp_options = options_.milp;
  milp_options.run_control = control;  // B&B inherits it into lp_options too
  if (options_.risk_margin_objective && !query.risk.inequalities().empty()) {
    const OutputInequality& lead = query.risk.inequalities().front();
    if (lead.sense != lp::RowSense::kEqual) {
      std::vector<lp::LinearTerm> terms;
      const std::size_t out_n =
          std::min(lead.coeffs.size(), encoding.output_vars.size());
      for (std::size_t i = 0; i < out_n; ++i)
        if (lead.coeffs[i] != 0.0)
          terms.push_back({encoding.output_vars[i], lead.coeffs[i]});
      if (!terms.empty()) {
        encoding.problem.set_objective(std::move(terms),
                                       lead.sense == lp::RowSense::kGreaterEqual
                                           ? lp::Objective::kMaximize
                                           : lp::Objective::kMinimize);
        milp_options.bound_target = lead.rhs;
      }
    }
  }
  // ---- Delta re-certification plumbing ------------------------------
  // Name-keyed priors translate to this problem's variable indices here,
  // after encoding: the encoder's deterministic names survive the index
  // shifts a weight delta causes, so a prior can never land on the wrong
  // variable. Unmatched names are simply dropped.
  std::vector<std::pair<milp::search::PseudocostTable::DirectionStats,
                        milp::search::PseudocostTable::DirectionStats>>
      prior_table;
  if (options_.pseudocost_priors != nullptr && !options_.pseudocost_priors->empty()) {
    const lp::LpProblem& relaxation = encoding.problem.relaxation();
    std::unordered_map<std::string, std::size_t> index;
    index.reserve(relaxation.variable_count());
    for (std::size_t var = 0; var < relaxation.variable_count(); ++var)
      index.emplace(relaxation.variable_name(var), var);
    prior_table.assign(relaxation.variable_count(), {});
    for (const NamedPseudocost& prior : *options_.pseudocost_priors) {
      const auto it = index.find(prior.var);
      if (it != index.end()) prior_table[it->second] = {prior.down, prior.up};
    }
    milp_options.pseudocost_priors = &prior_table;
  }
  if (options_.harvest != nullptr) {
    milp_options.cuts.harvest_root_cuts = true;
    milp_options.export_pseudocosts = true;
  }

  const milp::BranchAndBoundSolver solver(milp_options);
  const milp::MilpResult milp_result = solver.solve(encoding.problem);
  result.milp_nodes = milp_result.nodes_explored;
  result.lp_iterations = milp_result.lp_iterations;
  result.solver_stats = milp_result.solver_stats;
  result.cuts_recycled = milp_result.cuts_recycled;

  if (options_.harvest != nullptr) {
    DeltaHarvest& harvest = *options_.harvest;
    harvest.captured = true;
    harvest.tail_boxes = encoding.realized_tail_boxes;
    harvest.tail_vars = encoding.realized_tail_vars;
    harvest.root_cuts = milp_result.root_cut_rows;
    harvest.root_basis = milp_result.root_basis;
    harvest.pseudocosts.clear();
    const lp::LpProblem& relaxation = encoding.problem.relaxation();
    for (std::size_t var = 0; var < milp_result.pseudocost_snapshot.size(); ++var) {
      const auto& stats = milp_result.pseudocost_snapshot[var];
      if (stats.first.observations() == 0 && stats.second.observations() == 0) continue;
      harvest.pseudocosts.push_back(
          {relaxation.variable_name(var), stats.first, stats.second});
    }
  }

  switch (milp_result.status) {
    case milp::MilpStatus::kInfeasible:
      result.verdict = Verdict::kSafe;
      break;
    case milp::MilpStatus::kOptimal:
    case milp::MilpStatus::kFeasible: {
      result.verdict = Verdict::kUnsafe;
      const std::size_t n = encoding.input_vars.size();
      Tensor activation(Shape{n});
      for (std::size_t i = 0; i < n; ++i)
        activation[i] = milp_result.values[encoding.input_vars[i]];
      result.counterexample_activation = activation;
      // Re-validate on the concrete tail: the MILP's claim must agree with
      // the real network within tolerance.
      result.counterexample_output =
          query.network->forward_suffix(activation, query.attach_layer);
      bool ok = query.risk.satisfied_by(result.counterexample_output,
                                        options_.validation_tolerance);
      if (query.characterizer != nullptr) {
        const Tensor logit = query.characterizer->forward(activation);
        result.characterizer_logit = logit[0];
        ok = ok && logit[0] >= query.characterizer_threshold - options_.validation_tolerance;
      }
      result.counterexample_validated = ok;
      break;
    }
    case milp::MilpStatus::kNodeLimit: {
      result.verdict = Verdict::kUnknown;
      // Three distinct resource stories, in priority order: the deadline
      // (run control expired — checkpoint/resume territory, never a
      // retry-budget signal), a per-LP iteration limit (fix by raising
      // lp_options.max_iterations), or the node budget proper (the
      // signal campaign budget re-allocation keys on).
      result.hit_deadline = milp_result.deadline_expired;
      result.hit_node_limit =
          !milp_result.deadline_expired && !milp_result.lp_iteration_limit_hit;
      std::ostringstream note;
      if (milp_result.deadline_expired) {
        note << "deadline expired before a proof";
        if (milp_result.have_best_bound && !std::isnan(milp_options.bound_target)) {
          result.have_best_bound_gap = true;
          result.best_bound_gap = milp_result.best_bound_gap;
          note << "; best-bound gap " << milp_result.best_bound_gap
               << " (open relaxation margin beyond the risk threshold)";
        }
      } else if (milp_result.lp_iteration_limit_hit) {
        note << "LP iteration limit hit before a proof; raise "
                "lp_options.max_iterations or simplify the query";
      } else {
        note << "node budget exhausted before a proof";
        if (milp_result.have_best_bound && !std::isnan(milp_options.bound_target)) {
          result.have_best_bound_gap = true;
          result.best_bound_gap = milp_result.best_bound_gap;
          note << "; best-bound gap " << milp_result.best_bound_gap
               << " (open relaxation margin beyond the risk threshold)";
        }
      }
      // Recycle the best open relaxation point as attack seed material:
      // restricted to the layer-l variables it is a near-miss start for
      // the falsifier on this or a related query.
      if (milp_result.have_frontier_point) {
        const std::size_t n = encoding.input_vars.size();
        Tensor frontier(Shape{n});
        for (std::size_t i = 0; i < n; ++i)
          frontier[i] = milp_result.frontier_values[encoding.input_vars[i]];
        result.have_frontier_activation = true;
        result.frontier_activation = std::move(frontier);
      }
      result.note = note.str();
      break;
    }
  }

  const auto end = std::chrono::steady_clock::now();
  result.solve_seconds = std::chrono::duration<double>(end - start).count();
  return result;
}

}  // namespace dpv::verify
