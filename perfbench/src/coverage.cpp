// coverage-serial: compositional coverage of the operational design
// domain. One op is core::run_coverage of the testbed network over the
// default OperationalDomain against hard-left steering, on one thread.
// This is the per-cell kernel path: nn forwards and renders dominate the
// op, the LP barely shows.
#include <cmath>
#include <optional>
#include <vector>

#include "absint/box_domain.hpp"
#include "common/rng.hpp"
#include "core/coverage.hpp"
#include "data/renderer.hpp"
#include "monitor/activation_recorder.hpp"
#include "monitor/diff_monitor.hpp"
#include "testbed.hpp"
#include "verify/falsifier.hpp"
#include "workload.hpp"

namespace perfbench {

namespace {

using namespace dpv;

/// True when interval bounds on the outputs make `ineq` unsatisfiable:
/// the static prepass's fallback test after a failed bound proof (the
/// engine's own copy is private to src/core/coverage.cpp).
bool interval_unsatisfiable(const verify::OutputInequality& ineq, const absint::Box& out) {
  double lo = 0.0, hi = 0.0;
  for (std::size_t i = 0; i < ineq.coeffs.size() && i < out.size(); ++i) {
    const double c = ineq.coeffs[i];
    lo += c * (c >= 0.0 ? out[i].lo : out[i].hi);
    hi += c * (c >= 0.0 ? out[i].hi : out[i].lo);
  }
  switch (ineq.sense) {
    case lp::RowSense::kLessEqual:
      return lo > ineq.rhs;
    case lp::RowSense::kGreaterEqual:
      return hi < ineq.rhs;
    case lp::RowSense::kEqual:
      return lo > ineq.rhs || hi < ineq.rhs;
  }
  return false;
}

class CoverageWorkload final : public Workload {
 public:
  CoverageWorkload() { risk_.output_at_most(1, 2, -0.7); }

  void setup(std::uint64_t seed, const std::string&, Tracer& tracer) override {
    testbed_.reset();
    testbed_.emplace(load_testbed(seed, tracer));
    // The op keeps the engine's default cell seed on every workload seed:
    // seeded cell samples change the refinement, and with it the op's work
    // and its certified volume (0.656 to 0.703 over seeds 1-10). The seed
    // drives set-up's road data only.
    options_ = core::CoverageOptions{};
    options_.render = testbed_->render;
    options_.threads = 1;
    reference_map_.clear();
  }

  OpOutcome run_op(Tracer& tracer) override {
    const Testbed& tb = *testbed_;
    OpOutcome out;
    core::CoverageReport report;
    double op_cpu = 0.0;
    {
      Span op(tracer, "bench.op");
      const Clock::time_point start = Clock::now();
      const double cpu_start = process_cpu_seconds();
      report = core::run_coverage(tb.network, tb.attach_layer, risk_, core::OperationalDomain{},
                                  options_);
      out.seconds = seconds_since(start);
      op_cpu = process_cpu_seconds() - cpu_start;
    }
    out.certified_fraction = report.map.certified_volume_fraction();
    out.failure = check(report);
    if (out.failure.empty() && tracer.enabled()) replay(report, op_cpu, tracer, out);
    return out;
  }

 private:
  std::string check(const core::CoverageReport& report) {
    if (report.interrupted) return "coverage run interrupted";
    double leaf_volume = 0.0;
    for (const std::size_t id : report.map.leaves())
      leaf_volume += report.map.cell(id).volume_fraction;
    if (std::abs(leaf_volume - 1.0) > 1e-9)
      return "leaf volume fractions sum to " + std::to_string(leaf_volume);
    for (const core::CoverageCell& cell : report.map.cells()) {
      if (cell.status != core::CellStatus::kUnsafe) continue;
      if (cell.has_counterexample_scenario) {
        const Tensor output = testbed_->network.forward(
            data::render_road_image(cell.counterexample_scenario, options_.render));
        if (risk_.min_margin(output) < 0.0)
          return "cell " + std::to_string(cell.id) + ": scenario witness misses the risk region";
      } else if (!cell.safety.verification.counterexample_validated) {
        return "cell " + std::to_string(cell.id) + ": UNSAFE without a validated witness";
      }
    }
    std::string map = report.map.format_map();
    if (reference_map_.empty())
      reference_map_ = std::move(map);
    else if (map != reference_map_)
      return "coverage map differs from the run's first op";
    return {};
  }

  /// Replays every processed cell's ladder through the same public
  /// functions run_coverage calls, under per-layer spans, and reports
  /// the verifier's own stage times. Fails the op when the replay decides
  /// a cell differently from it (the trace would lie).
  void replay(const core::CoverageReport& report, double op_cpu, Tracer& tracer, OpOutcome& out) {
    const Testbed& tb = *testbed_;
    const double cpu_start = process_cpu_seconds();
    Span replay_span(tracer, "bench.replay");
    double forwards = 0, prefix_images = 0, renders = 0, static_cells = 0, static_proved = 0;
    double busy = 0.0;
    StageTotals stages;
    for (const core::CoverageCell& cell : report.map.cells()) {
      Span cell_span(tracer, "bench.cell");
      const Clock::time_point cell_start = Clock::now();
      std::vector<data::RoadScenario> scenarios;
      std::vector<Tensor> images;
      {
        Span span(tracer, "data.sample");
        Rng rng(core::coverage_cell_seed(options_.seed, cell.path_hash));
        for (std::size_t i = 0; i < options_.samples_per_cell; ++i)
          scenarios.push_back(data::sample_scenario_in(cell.box, rng));
      }
      {
        Span span(tracer, "data.render");
        for (const data::RoadScenario& s : scenarios)
          images.push_back(data::render_road_image(s, options_.render));
        renders += static_cast<double>(scenarios.size());
      }

      // Stage 1: forward passes up to the first output inside psi.
      const auto attack = [&](const Tensor& image) {
        Tensor output;
        {
          Span span(tracer, "nn.forward");
          output = tb.network.forward(image);
          ++forwards;
        }
        if (risk_.min_margin(output) < options_.require_margin) return false;
        Span span(tracer, "nn.prefix");
        (void)tb.network.forward_prefix(image, tb.attach_layer);
        ++prefix_images;
        return true;
      };
      bool hit = false;
      if (cell.has_seed_scenario) {
        Tensor image;
        {
          Span span(tracer, "data.render");
          image = data::render_road_image(cell.seed_scenario, options_.render);
          ++renders;
        }
        hit = attack(image);
      }
      for (std::size_t i = 0; !hit && i < images.size(); ++i) hit = attack(images[i]);
      if (hit != (cell.decided_by == "scenario-attack")) {
        out.failure = "replay decided cell " + std::to_string(cell.id) + " differently (attack)";
        return;
      }
      if (hit) {
        busy += seconds_since(cell_start);
        continue;
      }

      // Stage 2: the static prepass over the interval renderer's hull.
      bool static_safe = false;
      {
        Span span(tracer, "absint.static");
        data::ImageBounds bounds;
        {
          Span render_span(tracer, "data.render_bounds");
          bounds = data::render_road_image_bounds(cell.box, options_.render, options_.render_bounds);
        }
        absint::Box pixel_box;
        for (std::size_t i = 0; i < bounds.lo.numel(); ++i)
          pixel_box.emplace_back(bounds.lo[i], bounds.hi[i]);
        verify::VerificationQuery query;
        query.network = &tb.network;
        query.attach_layer = tb.attach_layer;
        query.risk = risk_;
        query.input_box = absint::propagate_box_range(tb.network, pixel_box, 0, tb.attach_layer);
        static_safe = verify::prove_by_bounds(query, options_.verifier.falsify).proved_safe;
        if (!static_safe) {
          const absint::Box output_box = absint::propagate_box_range(
              tb.network, query.input_box, tb.attach_layer, tb.network.layer_count());
          for (const verify::OutputInequality& ineq : risk_.inequalities())
            static_safe = static_safe || interval_unsatisfiable(ineq, output_box);
        }
        ++static_cells;
        static_proved += static_safe ? 1 : 0;
      }
      if (static_safe != (cell.decided_by == "static-bounds")) {
        out.failure = "replay decided cell " + std::to_string(cell.id) + " differently (static)";
        return;
      }
      if (static_safe) {
        busy += seconds_since(cell_start);
        continue;
      }

      // Stage 3: the cell's monitor, then the verifier (timed by the op).
      std::vector<Tensor> activations;
      {
        Span span(tracer, "nn.prefix");
        activations = monitor::record_activations(tb.network, tb.attach_layer, images);
        prefix_images += static_cast<double>(images.size());
      }
      {
        Span span(tracer, "monitor.build");
        (void)monitor::DiffMonitor::from_activations(activations, options_.monitor_margin);
      }
      const verify::VerificationResult& v = cell.safety.verification;
      stages.add(v);
      busy += seconds_since(cell_start) + v.attack_seconds + v.zonotope_seconds +
              v.encode_seconds + v.solve_seconds;
    }
    stages.report(tracer);

    double retried = 0;
    for (const core::CoverageRound& round : report.rounds)
      retried += static_cast<double>(round.budget_cells_retried);
    tracer.count("nn.forwards", forwards);
    tracer.count("nn.prefix_images", prefix_images);
    tracer.count("data.renders", renders);
    tracer.count("absint.static_cells", static_cells);
    tracer.count("absint.static_proved", static_proved);
    tracer.count("verify.attack_falsified", static_cast<double>(report.attack_falsified));
    tracer.count("verify.zonotope_proved", static_cast<double>(report.zonotope_proved));
    tracer.count("core.busy_s", busy);
    tracer.count("core.idle_fraction", 1.0 - busy / (static_cast<double>(threads()) * out.seconds));
    tracer.count("core.retried", retried);
    out.replay_mismatch = (process_cpu_seconds() - cpu_start + stages.seconds()) / op_cpu - 1.0;
  }

  std::optional<Testbed> testbed_;
  verify::RiskSpec risk_{"heading-hard-left (heading <= -0.7)"};
  core::CoverageOptions options_;
  std::string reference_map_;
};

}  // namespace

std::unique_ptr<Workload> make_coverage_workload() {
  return std::make_unique<CoverageWorkload>();
}

}  // namespace perfbench
