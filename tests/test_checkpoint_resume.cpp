// Checkpoint/resume tests: file-format round trips (doubles must survive
// bit-exactly), the campaign deadline-honesty grid, kill-and-resume
// bit-identity for both deadline cuts and injected faults, and the
// coverage engine's round-boundary resume. The contract under test: a
// resumed run reproduces the uninterrupted run's tables bit for bit,
// wherever the interruption landed.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/fault_inject.hpp"
#include "common/rng.hpp"
#include "common/run_control.hpp"
#include "core/campaign.hpp"
#include "core/checkpoint.hpp"
#include "core/coverage.hpp"
#include "core/parallel_pass.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "nn/activations.hpp"
#include "nn/dense.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::core {
namespace {

std::string temp_path(const std::string& name) {
  const std::string path = ::testing::TempDir() + name;
  std::remove(path.c_str());
  return path;
}

bool bits_equal(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Copies the file at `source` to temp file `name` with the first
/// occurrence of `from` replaced by `to`; returns the copy's path.
std::string corrupted_copy(const std::string& source, const std::string& name,
                           const std::string& from, const std::string& to) {
  std::ifstream in(source, std::ios::binary);
  std::string text((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "'" << from << "' not in " << source;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  const std::string path = temp_path(name);
  std::ofstream(path, std::ios::binary) << text;
  return path;
}

bool tensor_bits_equal(const Tensor& a, const Tensor& b) {
  if (a.numel() != b.numel()) return false;
  for (std::size_t i = 0; i < a.numel(); ++i)
    if (!bits_equal(a[i], b[i])) return false;
  return true;
}

// ---------------------------------------------------------------------
// File format primitives.

TEST(CheckpointFile, CampaignRecordsRoundTripBitExactly) {
  // Doubles chosen to break decimal round-trips: a denormal, signed
  // zero, the largest finite value, and non-terminating fractions.
  const std::vector<double> tricky = {5e-324, -0.0, 1.7976931348623157e308,
                                      1.0 / 3.0, -1e-200, 0.1};
  CampaignCheckpoint ckpt;
  ckpt.fingerprint = 0xfeedface12345678ULL;
  ckpt.config_hash = 0x0123456789abcdefULL;
  ckpt.entry_count = 7;
  CampaignEntryRecord rec;
  rec.index = 3;
  rec.property_name = "property with spaces:and,separators";
  rec.risk_name = "risk name\twith tab";
  rec.train_confusion.tp = 12;
  rec.train_confusion.fp = 3;
  rec.train_confusion.fn = 4;
  rec.train_confusion.tn = 181;
  rec.validation_confusion.tp = 40;
  rec.validation_confusion.tn = 55;
  rec.characterizer_usable = true;
  rec.safety_verdict = SafetyVerdict::kSafeConditional;
  rec.pipeline_ran = true;
  rec.table_one.tp = 9;
  rec.table_one.fn = 1;
  rec.verdict = verify::Verdict::kUnsafe;
  rec.decided_by = verify::DecisionStage::kAttack;
  rec.milp_nodes = 77;
  rec.hit_node_limit = true;
  rec.counterexample_validated = true;
  rec.counterexample_activation = Tensor::vector1d(tricky);
  rec.have_frontier_activation = true;
  rec.frontier_activation = Tensor::vector1d({-1.0 / 7.0, 2.2250738585072014e-308});
  ckpt.records.push_back(rec);
  // A settled entry with no counterexample: both tensors are the default
  // "none" (numel 0 under a rank-0 shape) — the case a dim-product
  // round-trip would silently corrupt into a one-element scalar.
  CampaignEntryRecord bare;
  bare.index = 5;
  bare.property_name = "clean";
  bare.risk_name = "far-out";
  ckpt.records.push_back(bare);

  const std::string path = temp_path("ckpt_roundtrip_campaign");
  save_campaign_checkpoint(path, ckpt);
  CampaignCheckpoint loaded;
  ASSERT_TRUE(load_campaign_checkpoint(path, loaded));
  EXPECT_EQ(loaded.fingerprint, ckpt.fingerprint);
  EXPECT_EQ(loaded.config_hash, ckpt.config_hash);
  EXPECT_EQ(loaded.entry_count, 7u);
  ASSERT_EQ(loaded.records.size(), 2u);
  const CampaignEntryRecord& r = loaded.records[0];
  EXPECT_EQ(r.index, 3u);
  EXPECT_EQ(r.property_name, rec.property_name);
  EXPECT_EQ(r.risk_name, rec.risk_name);
  EXPECT_EQ(r.train_confusion.tp, 12u);
  EXPECT_EQ(r.train_confusion.tn, 181u);
  EXPECT_EQ(r.validation_confusion.tp, 40u);
  EXPECT_TRUE(r.characterizer_usable);
  EXPECT_EQ(r.safety_verdict, SafetyVerdict::kSafeConditional);
  EXPECT_TRUE(r.pipeline_ran);
  EXPECT_EQ(r.table_one.tp, 9u);
  EXPECT_EQ(r.verdict, verify::Verdict::kUnsafe);
  EXPECT_EQ(r.decided_by, verify::DecisionStage::kAttack);
  EXPECT_EQ(r.milp_nodes, 77u);
  EXPECT_TRUE(r.hit_node_limit);
  EXPECT_TRUE(r.counterexample_validated);
  EXPECT_TRUE(tensor_bits_equal(r.counterexample_activation, rec.counterexample_activation));
  EXPECT_TRUE(r.have_frontier_activation);
  EXPECT_TRUE(tensor_bits_equal(r.frontier_activation, rec.frontier_activation));
  const CampaignEntryRecord& clean = loaded.records[1];
  EXPECT_EQ(clean.property_name, "clean");
  EXPECT_EQ(clean.counterexample_activation.numel(), 0u);
  EXPECT_EQ(clean.frontier_activation.numel(), 0u);
}

TEST(CheckpointFile, CoverageRecordsRoundTripBitExactly) {
  CoverageCheckpoint ckpt;
  ckpt.fingerprint = 42;
  ckpt.config_hash = 43;
  CoverageRound round;
  round.round = 1;
  round.cells_processed = 4;
  round.cells_certified = 2;
  round.certified_volume_fraction = 1.0 / 3.0;
  round.milp_nodes = 999;
  ckpt.rounds.push_back(round);

  CoverageCellRecord cell;
  cell.id = 0;  // the loader enforces dense id order
  cell.parent = CoverageCell::kNone;
  cell.depth = 2;
  cell.path_hash = 0xdeadbeefcafef00dULL;
  cell.box = data::scenario_domain();
  cell.box.curvature.lo = -0.123456789012345678;
  cell.volume_fraction = 1.0 / 7.0;
  cell.status = CellStatus::kUnsafe;
  cell.verdict = SafetyVerdict::kUnsafe;
  cell.decided_by = "scenario-attack";
  cell.decided_round = 1;
  cell.has_counterexample_scenario = true;
  cell.counterexample_scenario.curvature = -0.7 + 1e-16;
  cell.counterexample_scenario.lane_offset = 5e-324;
  cell.counterexample_scenario.traffic_adjacent = true;
  cell.split_dim = 0;
  cell.children = {7, 8};
  ckpt.cells.push_back(cell);

  PoolPointRecord point;
  point.key = "heading-hard-left@cell:12";
  point.order = 3;
  point.point = Tensor::vector1d({0.25, -0.0, 1e300});
  ckpt.pool.push_back(point);
  ckpt.pool_points_contributed = 9;

  const std::string path = temp_path("ckpt_roundtrip_coverage");
  save_coverage_checkpoint(path, ckpt);
  CoverageCheckpoint loaded;
  ASSERT_TRUE(load_coverage_checkpoint(path, loaded));
  EXPECT_EQ(loaded.fingerprint, 42u);
  ASSERT_EQ(loaded.rounds.size(), 1u);
  EXPECT_EQ(loaded.rounds[0].cells_processed, 4u);
  EXPECT_TRUE(bits_equal(loaded.rounds[0].certified_volume_fraction, 1.0 / 3.0));
  ASSERT_EQ(loaded.cells.size(), 1u);
  const CoverageCellRecord& c = loaded.cells[0];
  EXPECT_EQ(c.id, 0u);
  EXPECT_EQ(c.path_hash, cell.path_hash);
  EXPECT_TRUE(bits_equal(c.box.curvature.lo, cell.box.curvature.lo));
  EXPECT_TRUE(bits_equal(c.volume_fraction, 1.0 / 7.0));
  EXPECT_EQ(c.status, CellStatus::kUnsafe);
  EXPECT_EQ(c.decided_by, "scenario-attack");
  EXPECT_TRUE(c.has_counterexample_scenario);
  EXPECT_TRUE(bits_equal(c.counterexample_scenario.curvature, -0.7 + 1e-16));
  EXPECT_TRUE(bits_equal(c.counterexample_scenario.lane_offset, 5e-324));
  EXPECT_TRUE(c.counterexample_scenario.traffic_adjacent);
  EXPECT_EQ(c.split_dim, 0u);
  EXPECT_EQ(c.children[0], 7u);
  EXPECT_EQ(c.children[1], 8u);
  ASSERT_EQ(loaded.pool.size(), 1u);
  EXPECT_EQ(loaded.pool[0].key, point.key);
  EXPECT_EQ(loaded.pool[0].order, 3u);
  EXPECT_TRUE(tensor_bits_equal(loaded.pool[0].point, point.point));
  EXPECT_EQ(loaded.pool_points_contributed, 9u);
}

TEST(CheckpointFile, MissingMalformedAndWrongKindFiles) {
  CampaignCheckpoint out;
  EXPECT_FALSE(load_campaign_checkpoint(temp_path("ckpt_nonexistent"), out));

  const std::string garbage = temp_path("ckpt_garbage");
  std::ofstream(garbage) << "not a checkpoint at all\n";
  EXPECT_THROW(load_campaign_checkpoint(garbage, out), ContractViolation);

  // A campaign file refuses to load as a coverage checkpoint.
  const std::string wrong_kind = temp_path("ckpt_wrong_kind");
  save_campaign_checkpoint(wrong_kind, CampaignCheckpoint{});
  CoverageCheckpoint cov;
  EXPECT_THROW(load_coverage_checkpoint(wrong_kind, cov), ContractViolation);

  // Malformed numbers: integers are digits only, and a string length
  // that would overflow the bounds check is truncation, not a rewind.
  CampaignCheckpoint one;
  one.entry_count = 1;
  CampaignEntryRecord rec;
  rec.property_name = "prop";
  rec.risk_name = "risk";
  one.records.push_back(rec);
  const std::string campaign = temp_path("ckpt_one_record");
  save_campaign_checkpoint(campaign, one);
  ASSERT_TRUE(load_campaign_checkpoint(campaign, out));
  EXPECT_EQ(out.records.at(0).property_name, "prop");
  const std::pair<const char*, const char*> campaign_cases[] = {
      {"fingerprint 0 ", "fingerprint -1 "},
      {"entries 1 ", "entries 1abc "},
      {"s4 prop ", "s18446744073709551615 "},
      // Counts the rest of the file cannot hold fail before any
      // allocation is sized from them.
      {"entries 1 records 1 ", "entries 99999999999999 records 99999999999999 "},
  };
  for (const auto& [from, to] : campaign_cases)
    EXPECT_THROW(load_campaign_checkpoint(
                     corrupted_copy(campaign, "ckpt_bad_campaign", from, to), out),
                 ContractViolation)
        << to;

  const std::string coverage = temp_path("ckpt_empty_coverage");
  save_coverage_checkpoint(coverage, CoverageCheckpoint{});
  ASSERT_TRUE(load_coverage_checkpoint(coverage, cov));
  const std::pair<const char*, const char*> coverage_cases[] = {
      {"rounds 0 ", "rounds -1 "},
      {"cells 0 ", "cells 99999999999999 "},
      {"pool 0 ", "pool 18446744073709551615 "},
  };
  for (const auto& [from, to] : coverage_cases)
    EXPECT_THROW(load_coverage_checkpoint(
                     corrupted_copy(coverage, "ckpt_bad_coverage", from, to), cov),
                 ContractViolation)
        << to;
}

TEST(CheckpointFile, ConfigHasherSeparatesBitPatterns) {
  ConfigHasher a, b;
  a.add(0.0);
  b.add(-0.0);
  EXPECT_NE(a.hash(), b.hash());  // hashed by bit pattern, not value
  ConfigHasher c, d;
  c.add(std::string("ab"));
  c.add(std::string("c"));
  d.add(std::string("a"));
  d.add(std::string("bc"));
  EXPECT_NE(c.hash(), d.hash());  // length-prefixed, no concatenation alias
}

// ---------------------------------------------------------------------
// Campaign: deadline honesty and kill-and-resume bit-identity.

/// Perception-style net: dense(2->4) relu | tail dense(4->1).
nn::Network make_monitored_net(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 1);
  d2->init_he(rng);
  net.add(std::move(d2));
  return net;
}

/// With a ReLU layer in the verified tail:
/// dense(2->4) relu | tail dense(4->6) relu dense(6->1).
nn::Network make_relu_tail_net(Rng& rng) {
  nn::Network net;
  auto d1 = std::make_unique<nn::Dense>(2, 4);
  d1->init_he(rng);
  net.add(std::move(d1));
  net.add(std::make_unique<nn::ReLU>(Shape{4}));
  auto d2 = std::make_unique<nn::Dense>(4, 6);
  d2->init_he(rng);
  net.add(std::move(d2));
  net.add(std::make_unique<nn::ReLU>(Shape{6}));
  auto d3 = std::make_unique<nn::Dense>(6, 1);
  d3->init_he(rng);
  net.add(std::move(d3));
  return net;
}

train::Dataset labelled_cloud(Rng& rng, std::size_t count, double threshold) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    const double x0 = rng.uniform(-1.0, 1.0);
    const double x1 = rng.uniform(-1.0, 1.0);
    data.add(Tensor::vector1d({x0, x1}),
             Tensor::vector1d({x0 > threshold ? 1.0 : 0.0}));
  }
  return data;
}

WorkflowConfig base_config() {
  WorkflowConfig config;
  config.characterizer.trainer.epochs = 60;
  return config;
}

struct CampaignTestbed {
  nn::Network net;
  std::vector<CampaignEntry> entries;
  std::string reference_table;  ///< uninterrupted, no checkpointing
  std::size_t milp_decided = 0;  ///< entries the reference run settled by B&B
};

/// Runs the uninterrupted, checkpoint-free reference battery.
void run_reference(CampaignTestbed& tb) {
  const CampaignReport report = run_campaign(tb.net, 2, tb.entries, base_config());
  tb.reference_table = report.format_table();
  tb.milp_decided = report.funnel_milp_proved + report.funnel_milp_falsified;
}

const CampaignTestbed& campaign_testbed() {
  static const CampaignTestbed instance = [] {
    CampaignTestbed tb;
    Rng rng(53);
    tb.net = make_monitored_net(rng);
    verify::RiskSpec unreachable("far-out");
    unreachable.output_at_least(0, 1, 1e6);
    verify::RiskSpec reachable("reachable");
    reachable.output_at_most(0, 1, 1e6);
    verify::RiskSpec unreachable_b("far-out-b");
    unreachable_b.output_at_least(0, 1, 2e6);
    tb.entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                          labelled_cloud(rng, 100, 0.0), unreachable});
    tb.entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                          labelled_cloud(rng, 100, 0.0), reachable});
    tb.entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                          labelled_cloud(rng, 100, 0.0), unreachable_b});
    run_reference(tb);
    return tb;
  }();
  return instance;
}

/// A battery that branch and bound decides: the attack and the zonotope
/// settle every entry of campaign_testbed() before any LP runs, so LP
/// recoveries (the CI chaos pass's LP fault specs) only happen here.
const CampaignTestbed& lp_campaign_testbed() {
  static const CampaignTestbed instance = [] {
    CampaignTestbed tb;
    Rng rng(53);
    tb.net = make_relu_tail_net(rng);
    verify::RiskSpec unreachable("far-out");
    unreachable.output_at_least(0, 1, 1e6);
    // Above every output the data reaches (about 4.4) but inside the
    // tail's interval output range: no attack finds it and the zonotope
    // cannot rule it out, so branch and bound proves it.
    verify::RiskSpec inside("inside-output-range");
    inside.output_at_least(0, 1, 6.0);
    tb.entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                          labelled_cloud(rng, 100, 0.0), unreachable});
    tb.entries.push_back({"x0-positive", labelled_cloud(rng, 200, 0.0),
                          labelled_cloud(rng, 100, 0.0), inside});
    run_reference(tb);
    return tb;
  }();
  return instance;
}

/// Sweeps the deadline through the whole battery: wherever it lands, the
/// interrupted report must be an honest partial (deadline-skipped rows
/// tallied as unknown) and a resume must reproduce the uninterrupted
/// table bit for bit. Budgets grow until one run completes untouched.
void expect_deadline_grid_resumes(const CampaignTestbed& tb, const std::string& name) {
  const std::string path = temp_path(name);
  bool saw_interrupt = false;
  bool saw_partial_restore = false;
  bool saw_completion = false;
  for (std::uint64_t budget = 0; budget <= (1u << 20); budget = budget == 0 ? 1 : budget * 2) {
    std::remove(path.c_str());
    RunControl rc;
    rc.set_poll_budget(budget);
    WorkflowConfig cut = base_config();
    cut.run_control = &rc;
    cut.checkpoint_path = path;
    const CampaignReport report = run_campaign(tb.net, 2, tb.entries, cut);
    if (report.interrupted) {
      saw_interrupt = true;
      const std::string table = report.format_table();
      EXPECT_NE(table.find("deadline-skipped"), std::string::npos) << "budget " << budget;
      EXPECT_NE(table.find("run interrupted by deadline"), std::string::npos);
      ASSERT_EQ(report.reports.size(), tb.entries.size());

      WorkflowConfig cont = base_config();
      cont.checkpoint_path = path;
      cont.resume = true;
      const CampaignReport resumed = run_campaign(tb.net, 2, tb.entries, cont);
      EXPECT_FALSE(resumed.interrupted);
      saw_partial_restore |= resumed.resume_entries_restored > 0;
      EXPECT_EQ(resumed.format_table(), tb.reference_table) << "budget " << budget;
    } else {
      saw_completion = true;
      EXPECT_EQ(report.format_table(), tb.reference_table) << "budget " << budget;
      break;  // larger budgets only repeat the full run
    }
  }
  EXPECT_TRUE(saw_interrupt);
  EXPECT_TRUE(saw_completion);
  EXPECT_TRUE(saw_partial_restore);  // some cut landed mid-battery
}

TEST(CampaignResume, DeadlineGridIsHonestAndResumesBitIdentically) {
  expect_deadline_grid_resumes(campaign_testbed(), "ckpt_campaign_deadline");
}

TEST(CampaignResume, LpDecidedBatteryResumesBitIdentically) {
  // The same grid over a battery whose second entry only B&B decides: the
  // cuts land inside LP solves, and under the CI chaos pass the LP fault
  // probes fire inside them.
  const CampaignTestbed& tb = lp_campaign_testbed();
  ASSERT_GT(tb.milp_decided, 0u) << tb.reference_table;
  expect_deadline_grid_resumes(tb, "ckpt_campaign_lp_deadline");
}

TEST(CampaignResume, ResumeIsThreadCountInvariant) {
  // With a worker pool the deadline lands nondeterministically, but the
  // resumed table must still match the serial uninterrupted reference.
  const CampaignTestbed& tb = campaign_testbed();
  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const std::string path =
        temp_path("ckpt_campaign_threads_" + std::to_string(threads));
    RunControl rc;
    rc.set_poll_budget(512);
    WorkflowConfig cut = base_config();
    cut.campaign_threads = threads;
    cut.run_control = &rc;
    cut.checkpoint_path = path;
    const CampaignReport report = run_campaign(tb.net, 2, tb.entries, cut);
    if (report.interrupted) {
      WorkflowConfig cont = base_config();
      cont.campaign_threads = threads;
      cont.checkpoint_path = path;
      cont.resume = true;
      const CampaignReport resumed = run_campaign(tb.net, 2, tb.entries, cont);
      EXPECT_EQ(resumed.format_table(), tb.reference_table) << threads << " threads";
    } else {
      EXPECT_EQ(report.format_table(), tb.reference_table) << threads << " threads";
    }
  }
}

TEST(CampaignResume, InjectedFaultSalvagesSettledWorkForResume) {
  // A worker that dies mid-battery aborts the campaign with an exception
  // — but the entries already settled are salvaged into the checkpoint
  // on the way out, and a resume completes the battery bit-identically.
  const CampaignTestbed& tb = campaign_testbed();
  const std::string path = temp_path("ckpt_campaign_fault");
  fault::disarm_all();
  fault::arm("core.worker_throw", 2);  // entry 0 settles, entry 1 dies
  WorkflowConfig cut = base_config();
  cut.checkpoint_path = path;
  EXPECT_THROW(run_campaign(tb.net, 2, tb.entries, cut), ParallelPassError);
  fault::disarm_all();

  WorkflowConfig cont = base_config();
  cont.checkpoint_path = path;
  cont.resume = true;
  const CampaignReport resumed = run_campaign(tb.net, 2, tb.entries, cont);
  EXPECT_EQ(resumed.resume_entries_restored, 1u);
  EXPECT_EQ(resumed.format_table(), tb.reference_table);
}

TEST(CampaignResume, CompletedCheckpointResumesAsANoOp) {
  const CampaignTestbed& tb = campaign_testbed();
  const std::string path = temp_path("ckpt_campaign_complete");
  WorkflowConfig with_ckpt = base_config();
  with_ckpt.checkpoint_path = path;
  const CampaignReport full = run_campaign(tb.net, 2, tb.entries, with_ckpt);
  ASSERT_FALSE(full.interrupted);

  WorkflowConfig cont = base_config();
  cont.checkpoint_path = path;
  cont.resume = true;
  const CampaignReport resumed = run_campaign(tb.net, 2, tb.entries, cont);
  EXPECT_EQ(resumed.resume_entries_restored, tb.entries.size());
  EXPECT_EQ(resumed.format_table(), tb.reference_table);
}

TEST(CampaignResume, MismatchedConfigOrNetworkThrows) {
  const CampaignTestbed& tb = campaign_testbed();
  const std::string path = temp_path("ckpt_campaign_mismatch");
  // Cheap interrupted run to produce a checkpoint: budget 0 skips all.
  RunControl rc;
  rc.set_poll_budget(0);
  WorkflowConfig cut = base_config();
  cut.run_control = &rc;
  cut.checkpoint_path = path;
  ASSERT_TRUE(run_campaign(tb.net, 2, tb.entries, cut).interrupted);

  // A semantics-affecting option changed: the checkpoint is not ours.
  WorkflowConfig other = base_config();
  other.checkpoint_path = path;
  other.resume = true;
  other.entry_node_budget = 12345;
  EXPECT_THROW(run_campaign(tb.net, 2, tb.entries, other), ContractViolation);

  // A different network: fingerprint mismatch.
  Rng rng(99);
  const nn::Network other_net = make_monitored_net(rng);
  WorkflowConfig cont = base_config();
  cont.checkpoint_path = path;
  cont.resume = true;
  EXPECT_THROW(run_campaign(other_net, 2, tb.entries, cont), ContractViolation);
}

TEST(CampaignResume, ResumeWithoutACheckpointRunsFresh) {
  const CampaignTestbed& tb = campaign_testbed();
  WorkflowConfig cont = base_config();
  cont.checkpoint_path = temp_path("ckpt_campaign_missing");
  cont.resume = true;
  const CampaignReport report = run_campaign(tb.net, 2, tb.entries, cont);
  EXPECT_EQ(report.resume_entries_restored, 0u);
  EXPECT_FALSE(report.interrupted);
  EXPECT_EQ(report.format_table(), tb.reference_table);
}

// ---------------------------------------------------------------------
// Coverage: round-boundary resume over a trained perception model.

struct ResumeCoverageTestbed {
  data::PerceptionModel model;
  verify::RiskSpec risk;
  std::string reference_table;
  std::string reference_map;
};

CoverageOptions coverage_options(const data::PerceptionConfig& pconfig) {
  CoverageOptions options;
  options.render = pconfig.render;
  options.samples_per_cell = 10;
  options.seed = 99;
  options.max_rounds = 3;
  options.max_depth = 4;
  options.threads = 1;
  options.cell_node_budget = 600;
  options.verifier.falsify.restarts = 2;
  options.verifier.falsify.steps = 25;
  return options;
}

OperationalDomain coverage_domain() {
  OperationalDomain domain;
  domain.initial_grid = {4, 1, 1, 1};
  return domain;
}

const ResumeCoverageTestbed& coverage_testbed() {
  static const ResumeCoverageTestbed instance = [] {
    ResumeCoverageTestbed tb;
    data::PerceptionConfig pconfig;
    pconfig.render.width = 16;
    pconfig.render.height = 8;
    pconfig.conv1_channels = 2;
    pconfig.conv2_channels = 4;
    pconfig.embedding = 12;
    pconfig.features = 8;
    pconfig.tail_hidden = 8;
    pconfig.batchnorm_tail = false;
    Rng rng(7);
    tb.model = data::make_perception_network(pconfig, rng);

    data::RoadDatasetConfig data_cfg{400, 17, pconfig.render};
    const std::vector<data::RoadSample> samples = data::generate_road_samples(data_cfg);
    train::MseLoss loss;
    train::Adam optimizer(0.005);
    train::Trainer trainer({.epochs = 25, .batch_size = 32, .shuffle_seed = 3});
    trainer.fit(tb.model.network, data::to_regression_dataset(samples), loss, optimizer);

    tb.risk = verify::RiskSpec("heading-hard-left");
    tb.risk.output_at_most(1, 2, -0.35);

    const CoverageReport reference =
        run_coverage(tb.model.network, tb.model.attach_layer, tb.risk, coverage_domain(),
                     coverage_options(tb.model.config));
    tb.reference_table = reference.format_table();
    tb.reference_map = reference.map.format_map();
    return tb;
  }();
  return instance;
}

TEST(CoverageResume, DeadlineCutResumesToTheIdenticalMap) {
  // Sweep the deadline across the run. Every interrupted run must resume
  // to the uninterrupted table AND refinement tree, bit for bit — the
  // round-start checkpoint plus deterministic split replay guarantee it.
  const ResumeCoverageTestbed& tb = coverage_testbed();
  const std::string path = temp_path("ckpt_coverage_deadline");
  bool saw_interrupt = false;
  bool saw_completion = false;
  for (std::uint64_t budget = 0; budget <= (1u << 22);
       budget = budget == 0 ? 256 : budget * 4) {
    std::remove(path.c_str());
    RunControl rc;
    rc.set_poll_budget(budget);
    CoverageOptions cut = coverage_options(tb.model.config);
    cut.run_control = &rc;
    cut.checkpoint_path = path;
    const CoverageReport report = run_coverage(tb.model.network, tb.model.attach_layer,
                                               tb.risk, coverage_domain(), cut);
    if (report.interrupted) {
      saw_interrupt = true;
      EXPECT_NE(report.format_table().find("run interrupted by deadline"),
                std::string::npos)
          << "budget " << budget;

      CoverageOptions cont = coverage_options(tb.model.config);
      cont.checkpoint_path = path;
      cont.resume = true;
      const CoverageReport resumed = run_coverage(
          tb.model.network, tb.model.attach_layer, tb.risk, coverage_domain(), cont);
      EXPECT_FALSE(resumed.interrupted);
      EXPECT_EQ(resumed.format_table(), tb.reference_table) << "budget " << budget;
      EXPECT_EQ(resumed.map.format_map(), tb.reference_map) << "budget " << budget;
    } else {
      saw_completion = true;
      EXPECT_EQ(report.format_table(), tb.reference_table) << "budget " << budget;
      break;
    }
  }
  EXPECT_TRUE(saw_interrupt);
  EXPECT_TRUE(saw_completion);
}

TEST(CoverageResume, CompletedCheckpointRestoresEveryRound) {
  // A completed run's final checkpoint makes resume a pure restore: the
  // whole refinement tree is replayed from records and the tables match
  // without a single verification query.
  const ResumeCoverageTestbed& tb = coverage_testbed();
  const std::string path = temp_path("ckpt_coverage_complete");
  CoverageOptions with_ckpt = coverage_options(tb.model.config);
  with_ckpt.checkpoint_path = path;
  const CoverageReport full = run_coverage(tb.model.network, tb.model.attach_layer,
                                           tb.risk, coverage_domain(), with_ckpt);
  ASSERT_FALSE(full.interrupted);
  EXPECT_EQ(full.format_table(), tb.reference_table);

  CoverageOptions cont = coverage_options(tb.model.config);
  cont.checkpoint_path = path;
  cont.resume = true;
  const CoverageReport resumed = run_coverage(tb.model.network, tb.model.attach_layer,
                                              tb.risk, coverage_domain(), cont);
  EXPECT_EQ(resumed.resume_rounds_restored, full.rounds.size());
  EXPECT_EQ(resumed.format_table(), tb.reference_table);
  EXPECT_EQ(resumed.map.format_map(), tb.reference_map);
}

TEST(CoverageResume, MismatchedConfigThrows) {
  const ResumeCoverageTestbed& tb = coverage_testbed();
  const std::string path = temp_path("ckpt_coverage_mismatch");
  RunControl rc;
  rc.set_poll_budget(0);
  CoverageOptions cut = coverage_options(tb.model.config);
  cut.run_control = &rc;
  cut.checkpoint_path = path;
  ASSERT_TRUE(run_coverage(tb.model.network, tb.model.attach_layer, tb.risk,
                           coverage_domain(), cut)
                  .interrupted);

  CoverageOptions other = coverage_options(tb.model.config);
  other.checkpoint_path = path;
  other.resume = true;
  other.seed = 12345;  // semantics-affecting: different sample draws
  EXPECT_THROW(run_coverage(tb.model.network, tb.model.attach_layer, tb.risk,
                            coverage_domain(), other),
               ContractViolation);
}

}  // namespace
}  // namespace dpv::core
