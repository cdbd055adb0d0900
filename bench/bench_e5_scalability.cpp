// Experiment E5 (Sec. I): the scalability motivation for layer
// abstraction — with a thread-count axis.
//
// Paper claim: direct perception networks "challenge any state-of-the-art
// formal analysis framework in terms of scalability" — which is why the
// workflow verifies only the close-to-output sub-network. This bench
// measures how exact MILP verification cost grows with the width and
// depth of the verified tail, and how far the solver layer pushes the
// wall: the warm-started bounded-variable revised simplex under serial
// vs parallel branch & bound, and a serial vs pooled query battery (the
// campaign engine's shape).
//
// SAFE proofs are forced (unreachable risk threshold) so the solver must
// exhaust the branch & bound tree — the worst case for verification.
//
// Machine-readable results land in BENCH_e5.json (cwd) so the perf
// trajectory is tracked across PRs; the LP-core axis writes
// BENCH_simplex.json (deterministic pivot, factorization, pricing and
// node counters of the one LP-core configuration plus exact verdicts,
// for a heavier battery, its widest tail and the E5 battery — compared
// against bench/baselines/BENCH_simplex.json by tools/bench_compare.py),
// the cutting-plane axis writes BENCH_cuts.json (B&B node counts with
// the cut engine off / root at verdict parity), and the bounds-method x
// encoding-cache battery additionally writes BENCH_encoding.json
// (binaries, stable ReLUs and encode time per bound method, plus the
// cached stamp-out speedup after the first entry). Every axis runs the
// verifier's one branch & bound search.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/simd.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "solver/lp_backend.hpp"
#include "verify/encoding_cache.hpp"
#include "verify/verifier.hpp"

namespace {

using namespace dpv;

nn::Network make_tail(std::size_t width, std::size_t depth, Rng& rng) {
  nn::Network net;
  std::size_t in_n = width;
  for (std::size_t d = 0; d < depth; ++d) {
    auto dense = std::make_unique<nn::Dense>(in_n, width);
    dense->init_he(rng);
    net.add(std::move(dense));
    net.add(std::make_unique<nn::ReLU>(Shape{width}));
    in_n = width;
  }
  auto out = std::make_unique<nn::Dense>(in_n, 2);
  out->init_he(rng);
  net.add(std::move(out));
  return net;
}

/// A threshold between the sampled true maximum and the root LP-relaxation
/// bound: unreachable (so the verdict is SAFE) yet below the relaxation
/// optimum (so the proof needs actual branching — the verifier's worst
/// case).
double proof_forcing_threshold(const nn::Network& net, std::size_t width, Rng& rng) {
  double sampled_max = -1e100;
  for (int i = 0; i < 400; ++i) {
    Tensor x(Shape{width});
    for (std::size_t j = 0; j < width; ++j) x[j] = rng.uniform(-1.0, 1.0);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  // Root relaxation bound: maximize the output over the LP relaxation of
  // the exact encoding (binaries relaxed to [0, 1]).
  verify::VerificationQuery probe;
  probe.network = &net;
  probe.attach_layer = 0;
  probe.input_box = absint::uniform_box(width, -1.0, 1.0);
  probe.risk.output_at_least(0, 2, -1e9);  // vacuous
  verify::TailEncoding enc = verify::encode_tail_query(probe, {});
  enc.problem.relaxation().set_objective({{enc.output_vars[0], 1.0}},
                                         lp::Objective::kMaximize);
  const lp::LpSolution root = lp::SimplexSolver().solve(enc.problem.relaxation());
  const double relaxation_max =
      root.status == lp::SolveStatus::kOptimal ? root.objective : sampled_max + 1.0;
  // 0.6 of the way to the relaxation bound: comfortably above the true
  // maximum (sampling under-estimates it in high dimension) yet below the
  // root bound, so the proof requires branching without sitting on the
  // exponential phase-transition boundary.
  return sampled_max + 0.6 * std::max(relaxation_max - sampled_max, 0.1);
}

/// One prepared verification query of the battery.
struct Query {
  std::size_t width = 0;
  std::size_t depth = 0;
  nn::Network net;
  double threshold = 0.0;
};

std::vector<Query> make_query_set() {
  std::vector<Query> queries;
  for (const std::size_t depth : {1u, 2u}) {
    for (const std::size_t width : {8u, 12u, 16u, 20u}) {
      Rng rng(width * 10 + depth);
      Query q;
      q.width = width;
      q.depth = depth;
      q.net = make_tail(width, depth, rng);
      q.threshold = proof_forcing_threshold(q.net, width, rng);
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

/// Runs one query with every solver axis pinned explicitly.
verify::VerificationResult verify_tail(const Query& query, std::size_t threads,
                                       std::size_t cut_rounds = 0) {
  verify::VerificationQuery vq;
  vq.network = &query.net;
  vq.attach_layer = 0;
  vq.input_box = absint::uniform_box(query.width, -1.0, 1.0);
  vq.risk.output_at_least(0, 2, query.threshold);
  verify::TailVerifierOptions options;
  // A modest budget: rows that exhaust it print UNKNOWN — which is itself
  // the scalability message (the wall the paper's layer cut avoids).
  options.milp.max_nodes = 4000;
  options.milp.threads = threads;
  options.milp.cuts.root_rounds = cut_rounds;
  return verify::TailVerifier(options).verify(vq);
}

/// Per-entry verdict compatibility across every sweep's comma-joined
/// verdict string: for each battery entry, all *decided* verdicts
/// (SAFE/UNSAFE) must agree, while UNKNOWN — a budget artifact under
/// the shared node cap — is compatible with anything. A configuration
/// that proves an entry another left UNKNOWN is an improvement, not a
/// soundness break; a SAFE vs UNSAFE conflict anywhere is. Checked as
/// a per-entry consensus over ALL sweeps (not pairwise against a
/// baseline, where a baseline UNKNOWN would mask conflicts between
/// the other configurations).
bool decided_verdicts_agree(const std::vector<std::string>& sweeps) {
  std::vector<std::vector<std::string>> split;
  for (const std::string& s : sweeps) {
    std::vector<std::string> entries;
    std::size_t i = 0;
    while (i <= s.size()) {
      const std::size_t e = std::min(s.find(',', i), s.size());
      entries.push_back(s.substr(i, e - i));
      i = e + 1;
      if (e >= s.size()) break;
    }
    split.push_back(std::move(entries));
  }
  for (const auto& entries : split)
    if (entries.size() != split.front().size()) return false;
  for (std::size_t k = 0; k < split.front().size(); ++k) {
    std::string decided;
    for (const auto& entries : split) {
      if (entries[k] == "UNKNOWN") continue;
      if (decided.empty()) decided = entries[k];
      if (entries[k] != decided) return false;
    }
  }
  return true;
}

/// Aggregate of one thread-count sweep over the query set.
struct SweepResult {
  std::size_t threads = 1;
  double wall_seconds = 0.0;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  double warm_hit_rate = 0.0;
  std::string verdicts;
};

SweepResult run_sweep(const std::vector<Query>& queries, std::size_t threads) {
  SweepResult sweep;
  sweep.threads = threads;
  solver::SolverStats stats;
  const auto start = std::chrono::steady_clock::now();
  for (const Query& query : queries) {
    const verify::VerificationResult r = verify_tail(query, threads);
    sweep.nodes += r.milp_nodes;
    sweep.lp_iterations += r.lp_iterations;
    stats.merge(r.solver_stats);
    if (!sweep.verdicts.empty()) sweep.verdicts += ',';
    sweep.verdicts += verify::verdict_name(r.verdict);
  }
  const auto end = std::chrono::steady_clock::now();
  sweep.wall_seconds = std::chrono::duration<double>(end - start).count();
  sweep.warm_hit_rate = stats.warm_hit_rate();
  return sweep;
}

/// The campaign-engine shape: the same battery fanned out over a worker
/// pool, one single-threaded verification per entry.
double run_battery_pooled(const std::vector<Query>& queries, std::size_t pool) {
  const auto start = std::chrono::steady_clock::now();
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> workers;
  std::vector<verify::Verdict> verdicts(queries.size());
  for (std::size_t t = 0; t < pool; ++t) {
    workers.emplace_back([&] {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= queries.size()) return;
        verdicts[i] = verify_tail(queries[i], 1).verdict;
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// --------------------------------------------------------------------
// Cutting-plane axis: the same SAFE-proof battery with the cut engine
// off and with root rounds. Cuts attack the tree size itself —
// the cost PR 1 (cheap node solves) and PR 2 (cheap problem builds)
// left standing — so the headline number is the B&B node reduction at
// verdict parity.

struct CutsSweep {
  std::string config;
  std::size_t rounds = 0;
  std::size_t nodes = 0;
  std::size_t lp_iterations = 0;
  std::size_t cuts_added = 0;
  double wall_seconds = 0.0;
  std::string verdicts;
};

CutsSweep run_cuts_sweep(const std::vector<Query>& queries, const char* config,
                         std::size_t rounds) {
  CutsSweep sweep;
  sweep.config = config;
  sweep.rounds = rounds;
  const auto start = std::chrono::steady_clock::now();
  for (const Query& query : queries) {
    const verify::VerificationResult r = verify_tail(query, 1, rounds);
    sweep.nodes += r.milp_nodes;
    sweep.lp_iterations += r.lp_iterations;
    sweep.cuts_added += r.solver_stats.cuts_added;
    if (!sweep.verdicts.empty()) sweep.verdicts += ',';
    sweep.verdicts += verify::verdict_name(r.verdict);
  }
  sweep.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return sweep;
}

void emit_cuts_json(const std::vector<CutsSweep>& sweeps, bool parity) {
  std::FILE* f = std::fopen("BENCH_cuts.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_cuts.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"e5_cuts\",\n  \"sweeps\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const CutsSweep& s = sweeps[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"root_rounds\": %zu, "
                 "\"nodes\": %zu, \"lp_iterations\": %zu, \"cuts_added\": %zu, "
                 "\"wall_seconds\": %.6f, \"verdicts\": \"%s\"}%s\n",
                 s.config.c_str(), s.rounds, s.nodes, s.lp_iterations, s.cuts_added,
                 s.wall_seconds, s.verdicts.c_str(), i + 1 < sweeps.size() ? "," : "");
  }
  const double base = static_cast<double>(sweeps.front().nodes);
  std::fprintf(f, "  ],\n  \"node_reduction_root\": %.3f,\n",
               sweeps[1].nodes > 0 ? base / sweeps[1].nodes : 0.0);
  std::fprintf(f, "  \"verdicts_compatible\": %s\n}\n", parity ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_cuts.json\n");
}

void print_cuts_report(const std::vector<Query>& queries) {
  std::printf("\n=== E5: cutting-plane axis (same SAFE-proof battery) ===\n");
  std::printf("%14s | %7s | %9s | %9s | %9s | %9s\n", "config", "cuts", "nodes",
              "lp-iter", "wall s", "nodes/off");
  std::printf("---------------+---------+-----------+-----------+-----------+-----------\n");
  std::vector<CutsSweep> sweeps;
  sweeps.push_back(run_cuts_sweep(queries, "cuts-off", 0));
  sweeps.push_back(run_cuts_sweep(queries, "root-8", 8));
  std::vector<std::string> all_verdicts;
  for (const CutsSweep& s : sweeps) {
    all_verdicts.push_back(s.verdicts);
    std::printf("%14s | %7zu | %9zu | %9zu | %9.3f | %9.2f\n", s.config.c_str(),
                s.cuts_added, s.nodes, s.lp_iterations, s.wall_seconds,
                s.nodes > 0 ? static_cast<double>(sweeps.front().nodes) / s.nodes : 0.0);
  }
  const bool parity = decided_verdicts_agree(all_verdicts);
  std::printf("verdict compatibility across cut configurations (UNKNOWN = budget): %s\n",
              parity ? "OK" : "CONFLICT");
  emit_cuts_json(sweeps, parity);
}

// --------------------------------------------------------------------
// LP-core axis: the counters of the one LP-core configuration (sparse
// LU with Forrest–Tomlin updates, Devex pricing, matching-basis reuse,
// incremental reduced costs, batched sibling re-solves) on serial,
// cuts-off searches. They are deterministic for a given build, so the
// committed baseline gates drift in them and exact verdicts; wall
// seconds are recorded but not compared.

/// The LP-core axis uses a heavier battery than the scalability table:
/// pivot kernels, not encoding and node bookkeeping, dominate its wall.
std::vector<Query> make_lp_core_query_set() {
  std::vector<Query> queries;
  for (const std::size_t depth : {2u, 3u}) {
    for (const std::size_t width : {16u, 24u, 32u}) {
      Rng rng(width * 10 + depth);
      Query q;
      q.width = width;
      q.depth = depth;
      q.net = make_tail(width, depth, rng);
      q.threshold = proof_forcing_threshold(q.net, width, rng);
      queries.push_back(std::move(q));
    }
  }
  return queries;
}

std::size_t widest_query_index(const std::vector<Query>& queries) {
  std::size_t widest = 0;
  for (std::size_t i = 0; i < queries.size(); ++i)
    if (queries[i].width * queries[i].depth >=
        queries[widest].width * queries[widest].depth)
      widest = i;
  return widest;
}

/// One BENCH_simplex row: counters summed over the queries it covers.
struct LpCoreRow {
  std::string config;
  double wall_seconds = 0.0;
  std::size_t nodes = 0;
  std::size_t pivots = 0;  ///< simplex iterations
  solver::SolverStats stats;
  std::string verdicts;

  void add(const verify::VerificationResult& r, double seconds) {
    wall_seconds += seconds;
    nodes += r.milp_nodes;
    pivots += r.lp_iterations;
    stats.merge(r.solver_stats);
    if (!verdicts.empty()) verdicts += ',';
    verdicts += verify::verdict_name(r.verdict);
  }
};

/// Serial, cuts-off verification of `query`, with its wall seconds.
std::pair<verify::VerificationResult, double> timed_verify(const Query& query) {
  const auto start = std::chrono::steady_clock::now();
  verify::VerificationResult r = verify_tail(query, 1);
  return {std::move(r),
          std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count()};
}

void emit_simplex_json(const std::vector<LpCoreRow>& rows) {
  std::FILE* f = std::fopen("BENCH_simplex.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_simplex.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"e5_lp_core\",\n  \"simd_compiled\": %s,\n",
               simd::compiled_with_avx2() ? "true" : "false");
  std::fprintf(f, "  \"configs\": [\n");
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const LpCoreRow& row = rows[i];
    std::fprintf(f,
                 "    {\"config\": \"%s\", \"nodes\": %zu, \"pivots\": %zu, "
                 "\"refactorizations\": %zu, \"updates\": %zu, \"pricing_resets\": %zu, "
                 "\"sibling_batches\": %zu, \"avg_eta_nnz\": %.2f, "
                 "\"wall_seconds\": %.6f, \"factor_seconds\": %.6f, "
                 "\"pivot_seconds\": %.6f, \"verdicts\": \"%s\"}%s\n",
                 row.config.c_str(), row.nodes, row.pivots, row.stats.basis_factorizations,
                 row.stats.basis_updates, row.stats.pricing_resets,
                 row.stats.sibling_batches, row.stats.avg_eta_nonzeros(), row.wall_seconds,
                 row.stats.factor_seconds, row.stats.pivot_seconds, row.verdicts.c_str(),
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_simplex.json\n");
}

void print_simplex_report(const std::vector<Query>& e5_queries) {
  const std::vector<Query> queries = make_lp_core_query_set();
  const std::size_t widest = widest_query_index(queries);
  std::vector<LpCoreRow> rows(3);
  rows[0].config = "lp-core-battery";
  rows[1].config = "widest-tail";
  rows[2].config = "e5-battery";
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto [r, seconds] = timed_verify(queries[i]);
    rows[0].add(r, seconds);
    if (i == widest) rows[1].add(r, seconds);
  }
  for (const Query& query : e5_queries) {
    const auto [r, seconds] = timed_verify(query);
    rows[2].add(r, seconds);
  }

  std::printf("\n=== E5: LP-core axis (serial, cuts off; counters gated, walls not) ===\n");
  std::printf("%16s | %8s | %8s | %8s | %8s | %8s | %6s | %8s\n", "config", "wall s",
              "nodes", "pivots", "refactor", "updates", "resets", "batches");
  std::printf("-----------------+----------+----------+----------+----------+----------+--------+---------\n");
  for (const LpCoreRow& row : rows)
    std::printf("%16s | %8.3f | %8zu | %8zu | %8zu | %8zu | %6zu | %8zu  %s\n",
                row.config.c_str(), row.wall_seconds, row.nodes, row.pivots,
                row.stats.basis_factorizations, row.stats.basis_updates,
                row.stats.pricing_resets, row.stats.sibling_batches, row.verdicts.c_str());
  emit_simplex_json(rows);
}

// --------------------------------------------------------------------
// Bounds-method x encoding-cache battery: one fixed tail, many (risk)
// entries — the campaign shape where only the risk rows differ. Fresh
// encoding rebuilds the tail per entry; the cache freezes it once and
// stamps the rest.

struct EncodingSweep {
  std::string bounds;
  std::size_t relu_neurons = 0;
  std::size_t stable_relus = 0;
  std::size_t binaries = 0;
  double fresh_encode_per_entry = 0.0;   ///< mean encode s/entry, no cache
  double cached_first_encode = 0.0;      ///< entry 1 with cache (base freeze)
  double cached_rest_per_entry = 0.0;    ///< mean encode s/entry after the first
  double encode_speedup_after_first = 0.0;
  double fresh_wall_seconds = 0.0;       ///< end-to-end battery, cache off
  double cached_wall_seconds = 0.0;      ///< end-to-end battery, cache on
  bool verdict_parity = true;
};

/// Tight layer-l hull of the kind a runtime monitor records from
/// training data (the paper's S̃): narrow, skewed positive. Here
/// interval propagation loses the inter-neuron correlations layer over
/// layer, so the tighter zonotope/symbolic tiers prove substantially
/// more ReLUs stable and drop their binaries.
absint::Box battery_box(std::size_t width) { return absint::uniform_box(width, 0.35, 0.45); }

std::vector<double> battery_thresholds(const nn::Network& net, std::size_t width, Rng& rng) {
  // Half the entries unreachable (fast SAFE via an infeasible root),
  // half easily reachable (fast UNSAFE at the first feasible point):
  // real verdict mix at minimal solve cost, so encode time dominates.
  const absint::Box box = battery_box(width);
  std::vector<double> thresholds;
  double sampled_max = -1e100;
  for (int i = 0; i < 200; ++i) {
    Tensor x(Shape{width});
    for (std::size_t j = 0; j < width; ++j) x[j] = rng.uniform(box[j].lo, box[j].hi);
    sampled_max = std::max(sampled_max, net.forward(x)[0]);
  }
  for (int i = 0; i < 8; ++i) {
    thresholds.push_back(sampled_max + 1e4 + i);  // unreachable
    thresholds.push_back(sampled_max - 5.0 - i);  // comfortably reachable
  }
  return thresholds;
}

EncodingSweep run_encoding_battery(const nn::Network& net, std::size_t width,
                                   const std::vector<double>& thresholds,
                                   verify::BoundMethod bounds) {
  EncodingSweep sweep;
  sweep.bounds = verify::bound_method_name(bounds);

  verify::TailVerifierOptions fresh_options;
  fresh_options.encode.bounds = bounds;
  fresh_options.milp.max_nodes = 2000;
  verify::TailVerifierOptions cached_options = fresh_options;
  cached_options.encoding_cache = std::make_shared<verify::EncodingCache>();

  const auto make_entry_query = [&](double threshold) {
    verify::VerificationQuery q;
    q.network = &net;
    q.attach_layer = 0;
    q.input_box = battery_box(width);
    q.risk.output_at_least(0, 2, threshold);
    return q;
  };

  std::vector<verify::Verdict> fresh_verdicts, cached_verdicts;
  const auto fresh_start = std::chrono::steady_clock::now();
  double fresh_encode_total = 0.0;
  for (const double threshold : thresholds) {
    const verify::VerificationResult r =
        verify::TailVerifier(fresh_options).verify(make_entry_query(threshold));
    fresh_encode_total += r.encode_seconds;
    fresh_verdicts.push_back(r.verdict);
    sweep.relu_neurons = r.encoding.relu_neurons;
    sweep.stable_relus = r.encoding.stable_relus;
    sweep.binaries = r.encoding.binaries;
  }
  sweep.fresh_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - fresh_start).count();

  const auto cached_start = std::chrono::steady_clock::now();
  double cached_rest_total = 0.0;
  for (std::size_t i = 0; i < thresholds.size(); ++i) {
    const verify::VerificationResult r =
        verify::TailVerifier(cached_options).verify(make_entry_query(thresholds[i]));
    if (i == 0)
      sweep.cached_first_encode = r.encode_seconds;
    else
      cached_rest_total += r.encode_seconds;
    cached_verdicts.push_back(r.verdict);
  }
  sweep.cached_wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - cached_start).count();

  sweep.fresh_encode_per_entry = fresh_encode_total / thresholds.size();
  sweep.cached_rest_per_entry =
      thresholds.size() > 1 ? cached_rest_total / (thresholds.size() - 1) : 0.0;
  sweep.encode_speedup_after_first =
      sweep.cached_rest_per_entry > 0.0
          ? sweep.fresh_encode_per_entry / sweep.cached_rest_per_entry
          : 0.0;
  sweep.verdict_parity = fresh_verdicts == cached_verdicts;
  return sweep;
}

void emit_encoding_json(const std::vector<EncodingSweep>& sweeps, std::size_t entries,
                        bool zonotope_leq_interval) {
  std::FILE* f = std::fopen("BENCH_encoding.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_encoding.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"e5_encoding_cache\",\n  \"battery_entries\": %zu,\n",
               entries);
  std::fprintf(f, "  \"methods\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const EncodingSweep& s = sweeps[i];
    std::fprintf(
        f,
        "    {\"bounds\": \"%s\", \"relu_neurons\": %zu, \"stable_relus\": %zu, "
        "\"binaries\": %zu, \"fresh_encode_seconds_per_entry\": %.9f, "
        "\"cached_first_encode_seconds\": %.9f, "
        "\"cached_rest_encode_seconds_per_entry\": %.9f, "
        "\"encode_speedup_after_first\": %.2f, \"fresh_wall_seconds\": %.6f, "
        "\"cached_wall_seconds\": %.6f, \"verdict_parity\": %s}%s\n",
        s.bounds.c_str(), s.relu_neurons, s.stable_relus, s.binaries,
        s.fresh_encode_per_entry, s.cached_first_encode, s.cached_rest_per_entry,
        s.encode_speedup_after_first, s.fresh_wall_seconds, s.cached_wall_seconds,
        s.verdict_parity ? "true" : "false", i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"zonotope_binaries_leq_interval\": %s\n}\n",
               zonotope_leq_interval ? "true" : "false");
  std::fclose(f);
  std::printf("wrote BENCH_encoding.json\n");
}

void print_encoding_report() {
  Rng rng(4242);
  const std::size_t width = 24;
  const nn::Network net = make_tail(width, 2, rng);
  const std::vector<double> thresholds = battery_thresholds(net, width, rng);
  std::printf("\n=== E5: bound method x encoding cache (one tail, %zu risk entries) ===\n",
              thresholds.size());

  std::printf("%10s | %6s | %8s | %8s | %13s | %13s | %9s | %7s\n", "bounds", "relu",
              "stable", "binaries", "fresh enc/ent", "cached rest/e", "enc-spdup",
              "parity");
  std::printf("-----------+--------+----------+----------+---------------+---------------+-----------+--------\n");
  std::vector<EncodingSweep> sweeps;
  for (const verify::BoundMethod bounds :
       {verify::BoundMethod::kInterval, verify::BoundMethod::kZonotope,
        verify::BoundMethod::kSymbolic}) {
    sweeps.push_back(run_encoding_battery(net, width, thresholds, bounds));
    const EncodingSweep& s = sweeps.back();
    std::printf("%10s | %6zu | %8zu | %8zu | %12.2fus | %12.2fus | %8.1fx | %7s\n",
                s.bounds.c_str(), s.relu_neurons, s.stable_relus, s.binaries,
                s.fresh_encode_per_entry * 1e6, s.cached_rest_per_entry * 1e6,
                s.encode_speedup_after_first, s.verdict_parity ? "OK" : "FAIL");
  }
  const bool zonotope_leq_interval = sweeps[1].binaries <= sweeps[0].binaries;
  std::printf("zonotope binaries <= interval binaries: %s\n",
              zonotope_leq_interval ? "OK" : "VIOLATION");
  std::printf("battery wall (cache off -> on): interval %.3fs -> %.3fs, zonotope %.3fs -> "
              "%.3fs, symbolic %.3fs -> %.3fs\n",
              sweeps[0].fresh_wall_seconds, sweeps[0].cached_wall_seconds,
              sweeps[1].fresh_wall_seconds, sweeps[1].cached_wall_seconds,
              sweeps[2].fresh_wall_seconds, sweeps[2].cached_wall_seconds);
  emit_encoding_json(sweeps, thresholds.size(), zonotope_leq_interval);
}

void emit_json(const std::vector<SweepResult>& sweeps, bool verdicts_match,
               std::size_t battery_entries, double battery_serial,
               double battery_pool4) {
  std::FILE* f = std::fopen("BENCH_e5.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "BENCH_e5.json: cannot open for writing\n");
    return;
  }
  std::fprintf(f, "{\n  \"bench\": \"e5_scalability\",\n  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(f, "  \"sweeps\": [\n");
  for (std::size_t i = 0; i < sweeps.size(); ++i) {
    const SweepResult& s = sweeps[i];
    std::fprintf(f,
                 "    {\"threads\": %zu, \"wall_seconds\": %.6f, "
                 "\"nodes\": %zu, \"nodes_per_sec\": %.1f, \"lp_iterations\": %zu, "
                 "\"warm_hit_rate\": %.4f, \"verdicts\": \"%s\"}%s\n",
                 s.threads, s.wall_seconds, s.nodes,
                 s.wall_seconds > 0 ? s.nodes / s.wall_seconds : 0.0, s.lp_iterations,
                 s.warm_hit_rate, s.verdicts.c_str(),
                 i + 1 < sweeps.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"verdicts_compatible\": %s,\n",
               verdicts_match ? "true" : "false");
  std::fprintf(f,
               "  \"battery\": {\"entries\": %zu, \"serial_seconds\": %.6f, "
               "\"pool4_seconds\": %.6f, \"speedup\": %.2f}\n}\n",
               battery_entries, battery_serial, battery_pool4,
               battery_pool4 > 0 ? battery_serial / battery_pool4 : 0.0);
  std::fclose(f);
  std::printf("wrote BENCH_e5.json\n");
}

void print_report() {
  std::printf("\n=== E5: exact verification cost vs verified-tail size ===\n");
  std::printf("(per-query table, serial)\n");
  std::printf("%6s | %6s | %8s | %8s | %8s | %8s | %10s\n", "width", "depth", "relu",
              "binaries", "nodes", "lp-iter", "seconds");
  std::printf("-------+--------+----------+----------+----------+----------+-----------\n");
  const std::vector<Query> queries = make_query_set();
  for (const Query& query : queries) {
    const verify::VerificationResult r = verify_tail(query, 1);
    std::printf("%6zu | %6zu | %8zu | %8zu | %8zu | %8zu | %10.3f  %s\n", query.width,
                query.depth, r.encoding.relu_neurons, r.encoding.binaries, r.milp_nodes,
                r.lp_iterations, r.solve_seconds, verify::verdict_name(r.verdict));
  }

  std::printf("\n=== E5: thread-count sweep (same query set) ===\n");
  std::printf("%7s | %9s | %9s | %9s | %9s | %8s\n", "threads", "wall s", "nodes",
              "nodes/s", "lp-iter", "warm-hit");
  std::printf("--------+-----------+-----------+-----------+-----------+---------\n");
  std::vector<SweepResult> sweeps;
  for (const std::size_t threads : {1u, 2u, 4u}) sweeps.push_back(run_sweep(queries, threads));
  std::vector<std::string> sweep_verdicts;
  for (const SweepResult& s : sweeps) {
    sweep_verdicts.push_back(s.verdicts);
    std::printf("%7zu | %9.3f | %9zu | %9.1f | %9zu | %8.3f\n", s.threads,
                s.wall_seconds, s.nodes,
                s.wall_seconds > 0 ? s.nodes / s.wall_seconds : 0.0, s.lp_iterations,
                s.warm_hit_rate);
  }
  // Threads 2/4 run under the shared node budget, where steal timing
  // decides which subtrees fit (see src/milp/branch_and_bound.hpp) —
  // so, like the cuts axis, decided verdicts must agree and UNKNOWN is
  // a budget artifact.
  const bool verdicts_match = decided_verdicts_agree(sweep_verdicts);
  std::printf("verdict compatibility across thread counts (UNKNOWN = budget): %s\n",
              verdicts_match ? "OK" : "CONFLICT");

  std::printf("\n=== E5: query battery, serial vs 4-thread pool (campaign shape) ===\n");
  const double serial = run_battery_pooled(queries, 1);
  const double pooled = run_battery_pooled(queries, 4);
  std::printf("serial %.3fs | pool-4 %.3fs | speedup %.2fx (on %u hardware threads)\n",
              serial, pooled, serial / std::max(pooled, 1e-9),
              std::thread::hardware_concurrency());
  if (std::thread::hardware_concurrency() < 2)
    std::printf("note: single-core host -- parallel speedup cannot materialize here;\n"
                "      verdict parity above is the correctness evidence.\n");

  emit_json(sweeps, verdicts_match, queries.size(), serial, pooled);

  print_simplex_report(queries);

  print_cuts_report(queries);

  print_encoding_report();

  std::printf("\npaper shape: cost grows steeply with tail size -- verifying the full\n"
              "million-neuron perception network is hopeless, verifying the layer-l tail\n"
              "is tractable. That asymmetry is the paper's scalability argument; the\n"
              "solver layer (warm starts + parallelism) moves the wall, it does not\n"
              "remove the exponent.\n\n");
}

void BM_VerifyTail(benchmark::State& state) {
  const std::size_t width = static_cast<std::size_t>(state.range(0));
  const std::size_t depth = static_cast<std::size_t>(state.range(1));
  Rng rng(width * 10 + depth);
  Query query;
  query.width = width;
  query.depth = depth;
  query.net = make_tail(width, depth, rng);
  query.threshold = proof_forcing_threshold(query.net, width, rng);
  for (auto _ : state) {
    const verify::VerificationResult r = verify_tail(query, 1);
    benchmark::DoNotOptimize(r.verdict);
    state.counters["nodes"] = static_cast<double>(r.milp_nodes);
    state.counters["lp_iters"] = static_cast<double>(r.lp_iterations);
  }
}
BENCHMARK(BM_VerifyTail)
    ->Unit(benchmark::kMillisecond)
    ->Args({8, 1})
    ->Args({16, 1})
    ->Args({16, 2})
    ->Iterations(2);

}  // namespace

int main(int argc, char** argv) {
  print_report();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
