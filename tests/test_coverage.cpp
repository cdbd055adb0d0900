// Scenario-coverage engine tests: partition invariants over randomized
// refinement, certified-volume monotonicity, soundness of SAFE and
// UNSAFE cells against concrete renders, and the determinism grid
// (thread counts, falsify modes).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "common/rng.hpp"
#include "core/coverage.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "monitor/activation_recorder.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

namespace dpv::core {
namespace {

// ---------------------------------------------------------------------
// Partition invariants (no network required).

OperationalDomain small_domain() {
  OperationalDomain domain;
  domain.initial_grid = {3, 2, 2, 1};
  return domain;
}

double leaf_volume_sum(const CoverageMap& map) {
  double total = 0.0;
  for (const std::size_t id : map.leaves()) total += map.cell(id).volume_fraction;
  return total;
}

/// Counts leaves containing the scenario. Random draws are almost surely
/// off every cell face, so an exact tiling yields exactly one.
std::size_t containing_leaves(const CoverageMap& map, const data::RoadScenario& s) {
  std::size_t count = 0;
  for (const std::size_t id : map.leaves())
    if (data::scenario_in_box(map.cell(id).box, s)) ++count;
  return count;
}

TEST(CoveragePartition, InitialGridTilesDomain) {
  const OperationalDomain domain = small_domain();
  const CoverageMap map(domain);
  EXPECT_EQ(map.cells().size(), 3u * 2u * 2u * 1u);
  EXPECT_NEAR(leaf_volume_sum(map), 1.0, 1e-12);

  Rng rng(11);
  for (int i = 0; i < 200; ++i) {
    const data::RoadScenario s = data::sample_scenario_in(domain.box, rng);
    EXPECT_EQ(containing_leaves(map, s), 1u);
  }
}

TEST(CoveragePartition, RandomizedRefinementTilesExactly) {
  const OperationalDomain domain = small_domain();
  CoverageMap map(domain);
  Rng rng(23);
  // Random refinement sequence: any leaf, any dimension. The invariants
  // must hold after every split, not just at the end.
  for (int step = 0; step < 40; ++step) {
    const std::vector<std::size_t> leaf_ids = map.leaves();
    const std::size_t pick = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(leaf_ids.size()) - 1));
    const std::size_t dim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<int>(data::ScenarioBox::kDimensions) - 1));
    map.split_cell(leaf_ids[pick], dim);
    ASSERT_NEAR(leaf_volume_sum(map), 1.0, 1e-9);
  }
  for (int i = 0; i < 200; ++i) {
    const data::RoadScenario s = data::sample_scenario_in(domain.box, rng);
    EXPECT_EQ(containing_leaves(map, s), 1u);
  }
  // Children share the split face exactly and halve the volume.
  for (const CoverageCell& c : map.cells()) {
    if (c.is_leaf()) continue;
    const CoverageCell& lo = map.cell(c.children[0]);
    const CoverageCell& hi = map.cell(c.children[1]);
    EXPECT_EQ(lo.box.dim(c.split_dim).hi, hi.box.dim(c.split_dim).lo);
    EXPECT_NEAR(lo.volume_fraction + hi.volume_fraction, c.volume_fraction, 1e-12);
    EXPECT_EQ(lo.parent, c.id);
    EXPECT_EQ(hi.parent, c.id);
    EXPECT_EQ(lo.depth, c.depth + 1);
  }
}

TEST(CoveragePartition, CertifiedCellsAreNeverSplit) {
  CoverageMap map(small_domain());
  map.cell_mutable(0).status = CellStatus::kCertified;
  EXPECT_THROW(map.split_cell(0, 0), ContractViolation);
  // The same cell as UNSAFE splits fine.
  map.cell_mutable(0).status = CellStatus::kUnsafe;
  EXPECT_NO_THROW(map.split_cell(0, 0));
  // And a non-leaf refuses a second split.
  EXPECT_THROW(map.split_cell(0, 1), ContractViolation);
}

TEST(CoveragePartition, ChildHashesAreLineageStable) {
  CoverageMap a(small_domain());
  CoverageMap b(small_domain());
  const auto [a_lo, a_hi] = a.split_cell(2, 1);
  const auto [b_lo, b_hi] = b.split_cell(2, 1);
  EXPECT_EQ(a.cell(a_lo).path_hash, b.cell(b_lo).path_hash);
  EXPECT_EQ(a.cell(a_hi).path_hash, b.cell(b_hi).path_hash);
  EXPECT_NE(a.cell(a_lo).path_hash, a.cell(a_hi).path_hash);
  EXPECT_EQ(a.cell(a_lo).path_hash, coverage_child_hash(a.cell(2).path_hash, 1, 0));
}

TEST(CoverageSplitHeuristic, CounterexampleImplicatesOffCenterDimension) {
  const data::ScenarioBox domain = data::scenario_domain();
  data::ScenarioBox cell = domain;  // full domain cell
  data::RoadScenario cex;
  cex.curvature = -0.9;  // far off the midpoint 0 in domain units
  cex.lane_offset = 0.01;
  cex.brightness = 0.85;  // dead center
  cex.traffic_distance = 0.55;
  EXPECT_EQ(choose_split_dimension(cell, domain, &cex), 0u);

  // Same witness, but the curvature dimension already collapsed around
  // it: lane offset (next most off-center in domain units) wins.
  cell.curvature = absint::Interval(-0.9, -0.9);
  cex.lane_offset = -0.29;
  EXPECT_EQ(choose_split_dimension(cell, domain, &cex), 1u);
}

TEST(CoverageSplitHeuristic, BisectionFallbackPicksRelativelyWidestDim) {
  const data::ScenarioBox domain = data::scenario_domain();
  data::ScenarioBox cell = domain;
  cell.curvature = absint::Interval(-0.25, 0.0);  // 1/8 of domain width
  // lane offset still full width -> relatively widest.
  EXPECT_EQ(choose_split_dimension(cell, domain, nullptr), 1u);

  // A dead-center witness carries no direction: falls back to bisection.
  data::RoadScenario center;
  center.curvature = cell.curvature.midpoint();
  center.lane_offset = cell.lane_offset.midpoint();
  center.brightness = cell.brightness.midpoint();
  center.traffic_distance = cell.traffic_distance.midpoint();
  EXPECT_EQ(choose_split_dimension(cell, domain, &center), 1u);
}

// ---------------------------------------------------------------------
// End-to-end runs on a small trained perception model.

struct CoverageTestbed {
  data::PerceptionModel model;
  verify::RiskSpec risk;
};

const CoverageTestbed& coverage_testbed() {
  static const CoverageTestbed instance = [] {
    CoverageTestbed tb;
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

    // Risk: heading hard left. True heading is 0.8 * curvature, so the
    // risk region is roughly curvature <= -0.44 — inside the leftmost
    // initial cell, with the rest of the domain certifiable.
    tb.risk = verify::RiskSpec("heading-hard-left");
    tb.risk.output_at_most(1, 2, -0.35);
    return tb;
  }();
  return instance;
}

CoverageOptions fast_options(const data::PerceptionConfig& pconfig) {
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

OperationalDomain run_domain() {
  OperationalDomain domain;
  domain.initial_grid = {4, 1, 1, 1};
  return domain;
}

const CoverageReport& shared_report() {
  static const CoverageReport instance = [] {
    const CoverageTestbed& tb = coverage_testbed();
    return run_coverage(tb.model.network, tb.model.attach_layer, tb.risk, run_domain(),
                        fast_options(tb.model.config));
  }();
  return instance;
}

TEST(CoverageRun, CertifiedVolumeMonotoneAcrossRounds) {
  const CoverageReport& report = shared_report();
  ASSERT_FALSE(report.rounds.empty());
  double previous = 0.0;
  for (const CoverageRound& r : report.rounds) {
    EXPECT_GE(r.certified_volume_fraction, previous);
    previous = r.certified_volume_fraction;
  }
  EXPECT_NEAR(leaf_volume_sum(report.map), 1.0, 1e-9);
  // The model is trained: the hard-left band falsifies and the benign
  // side certifies, so both outcomes must be represented.
  EXPECT_GT(report.map.unsafe_volume_fraction(), 0.0);
  EXPECT_GT(report.map.certified_volume_fraction(), 0.0);
}

TEST(CoverageRun, SafeCellsAreNeverResplit) {
  const CoverageReport& report = shared_report();
  for (const CoverageCell& cell : report.map.cells()) {
    if (!cell.is_leaf()) {
      EXPECT_NE(cell.status, CellStatus::kCertified) << cell.id;
    }
  }
}

TEST(CoverageRun, SoundnessOfSafeCells) {
  const CoverageTestbed& tb = coverage_testbed();
  const CoverageReport& report = shared_report();
  const CoverageOptions options = fast_options(tb.model.config);
  std::size_t checked = 0;
  for (const std::size_t id : report.map.leaves()) {
    const CoverageCell& cell = report.map.cell(id);
    if (cell.status != CellStatus::kCertified) continue;
    // Regenerate exactly the scenarios the cell was certified from (the
    // engine's documented draw pattern) and check the property concretely.
    Rng rng(coverage_cell_seed(options.seed, cell.path_hash));
    for (std::size_t i = 0; i < options.samples_per_cell; ++i) {
      const data::RoadScenario s = data::sample_scenario_in(cell.box, rng);
      ASSERT_TRUE(data::scenario_in_box(cell.box, s));
      const Tensor image = data::render_road_image(s, options.render);
      const Tensor output = tb.model.network.forward(image);
      // Certified cell: no build sample may sit in the risk region.
      EXPECT_LT(tb.risk.min_margin(output), options.require_margin) << "cell " << id;
      // Conditional proofs must deploy a monitor that admits its own
      // support (margin >= 0 guarantees containment of build samples).
      if (cell.verdict == SafetyVerdict::kSafeConditional) {
        ASSERT_TRUE(cell.safety.deployed_monitor.has_value());
        const Tensor activation =
            tb.model.network.forward_prefix(image, tb.model.attach_layer);
        EXPECT_TRUE(cell.safety.deployed_monitor->contains(activation)) << "cell " << id;
      }
    }
    // Fresh scenarios (different stream): whenever the deployed monitor
    // accepts the activation, the conditional proof covers it, so the
    // output must stay out of the risk region (solver tolerance slack).
    if (cell.verdict == SafetyVerdict::kSafeConditional) {
      Rng fresh(coverage_cell_seed(options.seed ^ 0xfeedULL, cell.path_hash));
      for (std::size_t i = 0; i < 20; ++i) {
        const data::RoadScenario s = data::sample_scenario_in(cell.box, fresh);
        const Tensor image = data::render_road_image(s, options.render);
        const Tensor activation =
            tb.model.network.forward_prefix(image, tb.model.attach_layer);
        if (!cell.safety.deployed_monitor->contains(activation)) continue;
        const Tensor output =
            tb.model.network.forward_suffix(activation, tb.model.attach_layer);
        EXPECT_LT(tb.risk.min_margin(output), 1e-6) << "cell " << id;
      }
    }
    ++checked;
  }
  EXPECT_GT(checked, 0u);
}

TEST(CoverageRun, SoundnessOfUnsafeCells) {
  const CoverageTestbed& tb = coverage_testbed();
  const CoverageReport& report = shared_report();
  const CoverageOptions options = fast_options(tb.model.config);
  std::size_t scenario_witnesses = 0;
  for (const CoverageCell& cell : report.map.cells()) {
    if (cell.status != CellStatus::kUnsafe) continue;
    const verify::VerificationResult& v = cell.safety.verification;
    if (cell.has_counterexample_scenario) {
      // Scenario-space witness: inside the cell, and its render really
      // drives the network into the risk region with the strict margin.
      EXPECT_TRUE(data::scenario_in_box(cell.box, cell.counterexample_scenario))
          << "cell " << cell.id;
      const Tensor image =
          data::render_road_image(cell.counterexample_scenario, options.render);
      const Tensor output = tb.model.network.forward(image);
      EXPECT_GE(tb.risk.min_margin(output), options.require_margin) << "cell " << cell.id;
      ++scenario_witnesses;
    } else {
      // Abstract witness: validated at layer l; re-run the real tail.
      EXPECT_TRUE(v.counterexample_validated) << "cell " << cell.id;
      ASSERT_GT(v.counterexample_activation.numel(), 0u) << "cell " << cell.id;
      const Tensor output = tb.model.network.forward_suffix(v.counterexample_activation,
                                                           tb.model.attach_layer);
      EXPECT_GE(tb.risk.min_margin(output), -1e-6) << "cell " << cell.id;
    }
  }
  EXPECT_GT(scenario_witnesses, 0u);
}

TEST(CoverageRun, ReportFormatsAreCoherent) {
  const CoverageReport& report = shared_report();
  const std::string table = report.format_table();
  EXPECT_NE(table.find("coverage:"), std::string::npos);
  EXPECT_NE(table.find("funnel:"), std::string::npos);
  EXPECT_NE(table.find("round"), std::string::npos);
  const std::string map_text = report.map.format_map();
  EXPECT_NE(map_text.find("coverage map:"), std::string::npos);
  // Every cell appears in the map rendering.
  EXPECT_NE(map_text.find("cell 0 "), std::string::npos);
  const std::string summary = report.format_summary();
  EXPECT_NE(summary.find("coverage run:"), std::string::npos);
}

TEST(CoverageRun, StaticPrepassCertifiesFarOutRiskUnconditionally) {
  const CoverageTestbed& tb = coverage_testbed();
  // A risk no bounded-pixel input can reach: below even the *interval*
  // output floor of the whole-domain pixel hull (interval is looser
  // than the prepass's per-cell zonotope, so the proof must land).
  const data::ImageBounds domain_hull =
      data::render_road_image_bounds(data::scenario_domain(), tb.model.config.render);
  absint::Box domain_pixels;
  for (std::size_t i = 0; i < domain_hull.lo.numel(); ++i)
    domain_pixels.emplace_back(domain_hull.lo[i], domain_hull.hi[i]);
  const absint::Box output_box = absint::propagate_box_range(
      tb.model.network, domain_pixels, 0, tb.model.network.layer_count());
  verify::RiskSpec far("heading-absurd");
  far.output_at_most(1, 2, output_box[1].lo - 1.0);
  CoverageOptions options = fast_options(tb.model.config);
  options.max_rounds = 1;
  OperationalDomain domain;
  domain.initial_grid = {2, 1, 1, 1};
  const CoverageReport report =
      run_coverage(tb.model.network, tb.model.attach_layer, far, domain, options);
  EXPECT_NEAR(report.map.certified_volume_fraction(), 1.0, 1e-12);
  EXPECT_NEAR(report.map.certified_unconditional_fraction(), 1.0, 1e-12);
  EXPECT_EQ(report.static_proved, 2u);
  for (const std::size_t id : report.map.leaves()) {
    const CoverageCell& cell = report.map.cell(id);
    EXPECT_EQ(cell.verdict, SafetyVerdict::kSafeUnconditional);
    EXPECT_EQ(cell.decided_by, "static-bounds");
    EXPECT_FALSE(cell.safety.deployed_monitor.has_value());
  }
}

// ---------------------------------------------------------------------
// Determinism grid.

TEST(CoverageDeterminism, BitIdenticalAcrossThreadCounts) {
  const CoverageTestbed& tb = coverage_testbed();
  CoverageOptions options = fast_options(tb.model.config);
  options.max_rounds = 2;
  const CoverageReport serial = run_coverage(tb.model.network, tb.model.attach_layer,
                                             tb.risk, run_domain(), options);
  options.threads = 4;
  const CoverageReport parallel = run_coverage(tb.model.network, tb.model.attach_layer,
                                               tb.risk, run_domain(), options);
  EXPECT_EQ(serial.format_table(), parallel.format_table());
  EXPECT_EQ(serial.map.format_map(), parallel.map.format_map());
  ASSERT_EQ(serial.rounds.size(), parallel.rounds.size());
  for (std::size_t r = 0; r < serial.rounds.size(); ++r)
    EXPECT_EQ(serial.rounds[r].milp_nodes, parallel.rounds[r].milp_nodes);
}

TEST(CoverageDeterminism, DecidedCellsAgreeAcrossFalsifyModes) {
  const CoverageTestbed& tb = coverage_testbed();
  CoverageOptions options = fast_options(tb.model.config);
  options.max_rounds = 2;
  options.falsify_first = true;
  const CoverageReport with_falsify = run_coverage(tb.model.network, tb.model.attach_layer,
                                                   tb.risk, run_domain(), options);
  options.falsify_first = false;
  const CoverageReport without = run_coverage(tb.model.network, tb.model.attach_layer,
                                              tb.risk, run_domain(), options);
  // Cells are matched by lineage hash (same hash -> same box and same
  // sample stream). A cell decided in both runs must agree on the
  // outcome — the in-verifier pipeline is verdict-preserving, so only
  // UNKNOWNs may differ (budgets bite at different stages).
  std::map<std::uint64_t, const CoverageCell*> by_hash;
  for (const CoverageCell& cell : without.map.cells()) by_hash[cell.path_hash] = &cell;
  std::size_t compared = 0;
  for (const CoverageCell& cell : with_falsify.map.cells()) {
    const auto it = by_hash.find(cell.path_hash);
    if (it == by_hash.end()) continue;
    const CoverageCell& other = *it->second;
    const bool both_decided =
        (cell.status == CellStatus::kCertified || cell.status == CellStatus::kUnsafe) &&
        (other.status == CellStatus::kCertified || other.status == CellStatus::kUnsafe);
    if (!both_decided) continue;
    EXPECT_EQ(cell.status, other.status) << "cell hash " << cell.path_hash;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

}  // namespace
}  // namespace dpv::core
