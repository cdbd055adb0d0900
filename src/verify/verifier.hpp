// The tail safety verifier (Lemmas 1 and 2).
//
// Decides the query: does some layer-l activation n̂_l inside the
// abstraction (box + optional adjacent-difference polyhedron) satisfy the
// characterizer (h = 1) while driving the tail output into the risk
// region psi?  MILP-infeasible  => safe (w.r.t. the supplied abstraction;
// conditional when the abstraction is the data-derived S̃),
// MILP-feasible => counterexample, returned at layer l together with the
// tail's actual output on it (re-validated by concrete forward execution).
#pragma once

#include <cstddef>
#include <memory>
#include <string>

#include "verify/encoder.hpp"
#include "verify/encoding_cache.hpp"
#include "verify/falsifier.hpp"

namespace dpv::verify {

enum class Verdict {
  kSafe,     ///< no counterexample exists within the abstraction
  kUnsafe,   ///< counterexample found (see activation/output)
  kUnknown,  ///< resource limit hit before a proof either way
};

const char* verdict_name(Verdict verdict);

/// Which stage of the staged falsify-then-prove pipeline produced the
/// final verdict. kMilp also covers UNKNOWN results (the MILP is always
/// the last stage to run) and every verdict of a pipeline-off run.
enum class DecisionStage {
  kAttack,    ///< stage 0: multi-start PGD on the risk margin
  kZonotope,  ///< stage 1: zonotope/interval output-range proof
  kMilp,      ///< stage 2: encoding + branch & bound
};

const char* decision_stage_name(DecisionStage stage);

/// One variable's pseudocost history keyed by its problem variable
/// *name* instead of its index. Delta re-certification persists these
/// across model versions: weight changes can flip ReLU stability and
/// shift every later variable index, but the encoder's deterministic
/// naming (layer + neuron) survives, so name-keyed priors can never be
/// re-applied to the wrong variable.
struct NamedPseudocost {
  std::string var;
  milp::search::PseudocostTable::DirectionStats down;
  milp::search::PseudocostTable::DirectionStats up;
};

/// Everything the MILP stage of one verified query can hand to delta
/// re-certification (see src/verify/delta.hpp): the realized tail
/// bounds, the basis round 0 of the root cut loop stopped on
/// (milp::MilpResult::root_basis) and the learned pseudocost table.
/// Only populated when the query actually reached the MILP stage —
/// attack/zonotope-decided queries leave `captured` false.
struct DeltaHarvest {
  bool captured = false;
  std::vector<absint::Box> tail_boxes;
  lp::SimplexBasis root_basis;
  std::vector<NamedPseudocost> pseudocosts;
};

struct VerificationResult {
  Verdict verdict = Verdict::kUnknown;

  /// Counterexample data (valid when kUnsafe).
  Tensor counterexample_activation;  ///< n̂_l at layer l
  Tensor counterexample_output;      ///< tail output on n̂_l
  double characterizer_logit = 0.0;  ///< h logit on n̂_l (when encoded)
  /// True when the counterexample re-validates by concrete forward
  /// execution of the real tail (guards against MILP numerics).
  bool counterexample_validated = false;

  EncodingStats encoding;
  std::size_t milp_nodes = 0;
  std::size_t lp_iterations = 0;
  /// Wall seconds to build the MILP (fresh encode, or cache stamp-out
  /// when `encoding.from_cache`); mirrors encoding.encode_seconds.
  double encode_seconds = 0.0;
  /// Wall seconds in the branch & bound search (excludes encoding).
  double solve_seconds = 0.0;
  /// Warm-start hit rate, iteration accounting, cutting-plane counters
  /// (`cuts_added`, `cut_rounds`), basis-factorization accounting
  /// (factorizations, eta updates + nonzeros, factor-vs-pivot seconds)
  /// and search-layer counters (`peak_open_nodes`, `best_bound_gap`)
  /// from the MILP search.
  solver::SolverStats solver_stats;
  /// True when the verdict is kUnknown because the MILP node budget ran
  /// out (as opposed to an LP iteration limit) — the signal campaign
  /// budget re-allocation keys on.
  bool hit_node_limit = false;
  /// True when the verdict is kUnknown because the run control expired
  /// (campaign deadline, per-query time budget, or external cancel).
  /// Deliberately distinct from `hit_node_limit`: budget re-allocation
  /// must not burn retry budget on entries a deadline interrupted —
  /// checkpoint/resume re-runs those instead. When the expiry struck
  /// mid-search, `best_bound_gap` / `frontier_activation` are populated
  /// exactly as for a node-budget stop.
  bool hit_deadline = false;
  /// Remaining risk-margin headroom over the unexplored frontier when
  /// `hit_node_limit` (see TailVerifierOptions::risk_margin_objective):
  /// open relaxation points can exceed the risk threshold by at most
  /// this much, and it shrinks toward 0 as the search nears a SAFE
  /// proof. Valid when `have_best_bound_gap`.
  bool have_best_bound_gap = false;
  double best_bound_gap = 0.0;
  /// Set when the verdict is kUnknown for a reason worth surfacing (e.g.
  /// an LP iteration limit rather than the node budget).
  std::string note;

  /// Staged-pipeline funnel: which stage decided, and what each cheap
  /// stage cost. attack/zonotope seconds stay 0 when the pipeline is
  /// off; milp cost is encode_seconds + solve_seconds as before.
  DecisionStage decided_by = DecisionStage::kMilp;
  double attack_seconds = 0.0;
  double zonotope_seconds = 0.0;
  std::size_t attack_starts = 0;       ///< PGD starts consumed by stage 0
  std::size_t attack_seeds_tried = 0;  ///< recycled pool seeds consumed
  /// Near-miss relaxation point from a node-limit MILP stop, mapped to
  /// layer-l activation space — recycled into the campaign's start-point
  /// pool to seed the next attack on a related query.
  bool have_frontier_activation = false;
  Tensor frontier_activation;

  /// Per-query bound refresh accounting (see
  /// TailVerifierOptions::refresh_query_bounds): feature variables whose
  /// box actually shrank, and the wall seconds the refresh LPs took.
  std::size_t refreshed_bounds = 0;
  double refresh_seconds = 0.0;
  /// Always 0; kept for perfbench's `milp.cuts_recycled` counter.
  std::size_t cuts_recycled = 0;

  std::string summary() const;
};

struct TailVerifierOptions {
  EncodeOptions encode = {};
  /// MILP search options; `milp.cuts.root_rounds` turns on the
  /// cutting-plane engine (verdict-preserving; shrinks proof trees on
  /// hard SAFE queries).
  milp::BranchAndBoundOptions milp = {};
  /// Tolerance for re-validating counterexamples on the concrete tail.
  double validation_tolerance = 1e-6;
  /// Give the (otherwise objective-free) feasibility MILP a risk-margin
  /// objective: maximize the first risk inequality's activation, with
  /// its threshold as the search's bound target. Verdicts are
  /// unaffected — the rows still constrain — but the best-bound node
  /// order and pseudocost branching get a signal to order on, and a
  /// node-limit UNKNOWN reports a best-bound gap (how much margin the
  /// unexplored frontier still admits) instead of nothing.
  bool risk_margin_objective = true;
  /// When set, the verifier routes encoding through this cache: the
  /// query-independent tail is frozen once per key and per-query
  /// problems are stamped out by appending only risk + characterizer
  /// rows. Null = fresh encode per query. The cache is thread-safe and
  /// meant to be shared across a campaign's worker pool.
  std::shared_ptr<EncodingCache> encoding_cache;
  /// Staged falsify-then-prove pipeline (src/verify/falsifier.hpp).
  /// When `falsify.enabled`, verify() runs multi-start PGD on the risk
  /// margin first (UNSAFE settles with a validated witness and no
  /// encoding), then the zonotope bound proof (cheap SAFE), and only
  /// survivors pay for the MILP. Off by default at this level; the
  /// workflow's `falsify_first` flag turns it on for campaigns.
  FalsifyOptions falsify = {};
  /// Cooperative cancellation for the whole query: polled between
  /// pipeline stages and threaded into the falsifier, the root cut loop,
  /// the B&B node pops and the simplex iterations. Expiry degrades the
  /// query to an explained UNKNOWN with `hit_deadline` set; decided
  /// verdicts are never affected. Not owned.
  const RunControl* run_control = nullptr;
  /// Per-query wall-clock budget in seconds (0 = none). Implemented as a
  /// stack-local child RunControl chained onto `run_control`, so a query
  /// budget and a campaign-wide deadline compose: whichever expires
  /// first stops the query.
  double time_budget_seconds = 0.0;
  /// Name-keyed pseudocost priors (a previous model version's learned
  /// table, exported via `harvest`). Translated to this query's variable
  /// indices *after* encoding — names survive the index shifts a weight
  /// delta causes through flipped ReLU stability — then seeded into the
  /// search demoted by `milp.pseudocost_prior_weight`. Priors bias node
  /// order only, never verdicts. Not owned; must outlive verify().
  const std::vector<NamedPseudocost>* pseudocost_priors = nullptr;
  /// Out-slot for delta re-certification: when set, the MILP stage runs
  /// with pseudocost export enabled and fills this with the artifacts of
  /// src/verify/delta.hpp. Overwritten per query; left
  /// `captured == false` when a cheap pipeline stage decided. Not owned.
  DeltaHarvest* harvest = nullptr;
  /// Selective per-query bound refresh: after the problem is stamped
  /// out (typically from a delta-reused trace), re-tighten only the
  /// layer-l feature variables — the neurons the characterizer and
  /// abstraction rows actually constrain — with one min/max LP pair
  /// each over the full per-query relaxation. Sound because the
  /// relaxation over-approximates the integer-feasible set, so the LP
  /// range contains every counterexample's value and shrinking the
  /// *column* bounds (rows are never touched) preserves all integral
  /// points: verdicts are unchanged, but stale widened boxes at the
  /// query's entry recover per-query tightness without re-running the
  /// full bound pre-pass.
  bool refresh_query_bounds = false;
};

class TailVerifier {
 public:
  explicit TailVerifier(TailVerifierOptions options = {});

  VerificationResult verify(const VerificationQuery& query) const;

 private:
  TailVerifierOptions options_;
};

}  // namespace dpv::verify
