#include "milp/search/branching_rule.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dpv::milp::search {

// ------------------------------------------------------------------
// PseudocostTable

PseudocostTable::PseudocostTable(std::size_t variable_count)
    : entries_(variable_count * 2) {}

const PseudocostTable::DirectionStats& PseudocostTable::stats(std::size_t var,
                                                              bool up) const {
  internal_check(var * 2 + (up ? 1 : 0) < entries_.size(),
                 "PseudocostTable: variable out of range");
  return entries_[var * 2 + (up ? 1 : 0)];
}

PseudocostTable::DirectionStats& PseudocostTable::entry(std::size_t var, bool up) {
  internal_check(var * 2 + (up ? 1 : 0) < entries_.size(),
                 "PseudocostTable: variable out of range");
  return entries_[var * 2 + (up ? 1 : 0)];
}

void PseudocostTable::record(std::size_t var, bool up, double gain) {
  DirectionStats& e = entry(var, up);
  e.gain_sum += gain;
  ++e.solved;
  global_gain_sum_ += gain;
  ++global_solved_;
}

void PseudocostTable::record_infeasible(std::size_t var, bool up) {
  ++entry(var, up).infeasible;
}

std::vector<std::pair<PseudocostTable::DirectionStats, PseudocostTable::DirectionStats>>
PseudocostTable::snapshot_all() const {
  std::vector<std::pair<DirectionStats, DirectionStats>> out;
  out.reserve(entries_.size() / 2);
  for (std::size_t var = 0; var * 2 + 1 < entries_.size(); ++var)
    out.emplace_back(entries_[var * 2], entries_[var * 2 + 1]);
  return out;
}

void PseudocostTable::seed(
    const std::vector<std::pair<DirectionStats, DirectionStats>>& priors, double weight) {
  const auto demote = [weight](const DirectionStats& s) {
    DirectionStats d;
    d.solved = s.solved == 0 ? 0
                             : std::max<std::size_t>(
                                   1, static_cast<std::size_t>(
                                          std::llround(static_cast<double>(s.solved) * weight)));
    d.infeasible =
        s.infeasible == 0
            ? 0
            : std::max<std::size_t>(1, static_cast<std::size_t>(std::llround(
                                           static_cast<double>(s.infeasible) * weight)));
    d.gain_sum = s.average_gain() * static_cast<double>(d.solved);
    return d;
  };
  for (std::size_t var = 0; var < priors.size() && var * 2 + 1 < entries_.size(); ++var) {
    const DirectionStats down = demote(priors[var].first);
    const DirectionStats up = demote(priors[var].second);
    entries_[var * 2] = down;
    entries_[var * 2 + 1] = up;
    global_gain_sum_ += down.gain_sum + up.gain_sum;
    global_solved_ += down.solved + up.solved;
  }
}

double PseudocostTable::global_average_gain() const {
  return global_solved_ == 0
             ? 0.0
             : global_gain_sum_ / static_cast<double>(global_solved_);
}

// ------------------------------------------------------------------
// Shared helpers

double total_fractionality(const MilpProblem& problem, const std::vector<double>& values) {
  double total = 0.0;
  for (const std::size_t b : problem.binary_variables()) {
    const double v = values[b];
    total += std::abs(v - std::round(v));
  }
  return total;
}

void record_child_outcome(PseudocostTable& table, std::size_t var, bool up,
                          double distance, bool infeasible, double degradation,
                          double fractionality_drop) {
  if (infeasible) {
    table.record_infeasible(var, up);
    return;
  }
  table.record(var, up,
               (degradation + fractionality_drop) / std::max(distance, 1e-9));
}

namespace {

/// Minimum recorded observations per (variable, direction) before its
/// pseudocost estimate is trusted; thinner candidates are probed first.
constexpr std::size_t kReliability = 1;
/// At most this many candidates are probed per node (two LP re-solves
/// each).
constexpr std::size_t kProbeCandidates = 4;
/// Weight of the observed child-infeasibility rate in a direction's
/// score. An infeasible child is the strongest outcome of a branch (the
/// subtree vanishes), and on pure feasibility MILPs — the verifier's
/// workload, objective zero — it is the only signal besides the
/// fractionality reduction.
constexpr double kInfeasibleScoreWeight = 1.0;

struct Candidate {
  std::size_t var = 0;
  double value = 0.0;
  double frac = 0.0;  ///< distance to the nearest integer
};

/// Fractional binaries of the node relaxation, most fractional first,
/// ties on the smaller variable index (with no further information the
/// first candidate is the most-fractional choice).
std::vector<Candidate> collect_candidates(const BranchContext& ctx) {
  std::vector<Candidate> out;
  for (const std::size_t b : ctx.problem->binary_variables()) {
    const double v = ctx.lp->values[b];
    const double frac = std::abs(v - std::round(v));
    if (frac > ctx.integrality_tolerance) out.push_back({b, v, frac});
  }
  std::sort(out.begin(), out.end(), [](const Candidate& a, const Candidate& b) {
    if (a.frac != b.frac) return a.frac > b.frac;
    return a.var < b.var;
  });
  return out;
}

/// One reliability probe: re-solve the child with `var` fixed to
/// `value` (warm from the node's basis when available), then restore
/// the variable's problem-level box.
struct ProbeOutcome {
  bool solved = false;      ///< child relaxation solved to optimality
  bool infeasible = false;  ///< child relaxation proven infeasible
  double objective = 0.0;         ///< child relaxation objective (when solved)
  double degradation = 0.0;       ///< objective worsening, minimize-oriented
  double fractionality_drop = 0.0;  ///< parent minus child infeasibility
};

ProbeOutcome probe_child(const BranchContext& ctx, std::size_t var, double value,
                         double parent_fractionality) {
  ctx.simplex->set_bounds(var, value, value);
  const lp::LpSolution child = ctx.warm_basis != nullptr
                                   ? ctx.simplex->resolve(*ctx.warm_basis)
                                   : ctx.simplex->solve();
  const lp::LpProblem& base = ctx.problem->relaxation();
  ctx.simplex->set_bounds(var, base.lower_bound(var), base.upper_bound(var));

  ProbeOutcome out;
  if (child.status == lp::SolveStatus::kInfeasible) {
    out.infeasible = true;
    return out;
  }
  if (child.status != lp::SolveStatus::kOptimal) return out;  // no information
  out.solved = true;
  out.objective = child.objective;
  out.degradation = std::max(
      0.0, ctx.minimize ? child.objective - ctx.lp->objective
                        : ctx.lp->objective - child.objective);
  out.fractionality_drop = std::max(
      0.0, parent_fractionality - total_fractionality(*ctx.problem, child.values));
  return out;
}

/// Records one probe outcome into the table through the common
/// record_child_outcome scale; probes that solved to neither optimal
/// nor infeasible carry no information and record nothing.
void record_probe(PseudocostTable& table, std::size_t var, bool up, double distance,
                  const ProbeOutcome& probe) {
  if (!probe.infeasible && !probe.solved) return;
  record_child_outcome(table, var, up, distance, probe.infeasible, probe.degradation,
                       probe.fractionality_drop);
}

/// Transfers one probed (down, up) outcome pair onto the decision —
/// the single place the BranchDecision probe-evidence contract is
/// written.
void attach_probe_pair(BranchDecision& decision, const ProbeOutcome& down,
                       const ProbeOutcome& up) {
  decision.down_infeasible = down.infeasible;
  decision.up_infeasible = up.infeasible;
  decision.down_recorded = down.infeasible || down.solved;
  decision.up_recorded = up.infeasible || up.solved;
  decision.have_down_bound = down.solved;
  decision.down_bound = down.objective;
  decision.have_up_bound = up.solved;
  decision.up_bound = up.objective;
}

/// Estimated gain of branching `distance` in one direction. Directions
/// never observed fall back to the table-wide mean gain so a lone thin
/// candidate is not scored as worthless.
double direction_score(const PseudocostTable::DirectionStats& stats, double distance,
                       double global_gain) {
  if (stats.observations() == 0) return global_gain * distance;
  return stats.average_gain() * distance +
         kInfeasibleScoreWeight * stats.infeasible_rate();
}

}  // namespace

BranchDecision decide_branch(const BranchContext& ctx) {
  internal_check(ctx.pseudocosts != nullptr, "decide_branch: no pseudocost table");
  const std::vector<Candidate> candidates = collect_candidates(ctx);
  BranchDecision decision;
  if (candidates.empty()) return decision;
  decision.var = candidates.front().var;
  PseudocostTable& table = *ctx.pseudocosts;

  // Reliability initialization: probe (both children of) the most
  // fractional candidates whose statistics are still thin, up to the
  // per-node probe budget. Probe outcomes are kept: if the chosen
  // variable was probed, its infeasible children need not be pushed.
  const double parent_frac = total_fractionality(*ctx.problem, ctx.lp->values);
  std::vector<std::pair<std::size_t, std::pair<ProbeOutcome, ProbeOutcome>>> probed;
  for (const Candidate& c : candidates) {
    if (probed.size() >= kProbeCandidates) break;
    if (table.stats(c.var, false).observations() >= kReliability &&
        table.stats(c.var, true).observations() >= kReliability)
      continue;
    const ProbeOutcome down = probe_child(ctx, c.var, 0.0, parent_frac);
    const ProbeOutcome up = probe_child(ctx, c.var, 1.0, parent_frac);
    record_probe(table, c.var, false, c.value, down);
    record_probe(table, c.var, true, 1.0 - c.value, up);
    if (down.infeasible && up.infeasible) {
      // Both children infeasible: the node is dead. No score can
      // beat that — branch here so the search fathoms it for free
      // instead of re-proving the subtree under another variable.
      decision.var = c.var;
      attach_probe_pair(decision, down, up);
      return decision;
    }
    probed.emplace_back(c.var, std::make_pair(down, up));
  }

  // Product score over both directions, probe outcomes included.
  const double global_gain = table.global_average_gain();
  double best_score = -1.0;
  for (const Candidate& c : candidates) {
    const double down = direction_score(table.stats(c.var, false), c.value, global_gain);
    const double up = direction_score(table.stats(c.var, true), 1.0 - c.value, global_gain);
    const double score = (1e-6 + down) * (1e-6 + up);
    if (score > best_score) {
      best_score = score;
      decision.var = c.var;
    }
  }
  for (const auto& [var, outcomes] : probed) {
    if (var != decision.var) continue;
    attach_probe_pair(decision, outcomes.first, outcomes.second);
    break;
  }
  return decision;
}

}  // namespace dpv::milp::search
