// Road scenario model — the synthetic stand-in for the paper's A9
// highway data.
//
// Each scenario is a small set of ground-truth parameters (curvature,
// lane offset, lighting, adjacent-lane traffic, sensor noise seed) from
// which both the camera image and the affordance labels are derived.
// Having the generative parameters gives us what the paper obtained from
// human labelling: an exact oracle for input properties phi.
//
// Deliberate design point (mirrors the paper's information-bottleneck
// observation, Sec. V): the affordance labels depend ONLY on curvature
// and lane offset. Lighting and adjacent-lane traffic are visible in the
// image but irrelevant to the output, so close-to-output layers are free
// to discard them — which is exactly why characterizers for those
// properties degrade to coin flipping.
//
// The operational design domain itself is first-class: `ScenarioBox` is
// an axis-aligned box of scenario parameters (one cell of a coverage
// decomposition), `scenario_domain()` is the full ODD every sampler
// draws from, and the split/sample/membership helpers are what the
// scenario-coverage engine (src/core/coverage.hpp) refines over.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>

#include "absint/interval.hpp"
#include "common/rng.hpp"

namespace dpv::data {

struct RoadScenario {
  /// Road curvature in [-1, 1]; positive bends to the right.
  double curvature = 0.0;
  /// Vehicle lateral offset within the lane, in [-0.3, 0.3].
  double lane_offset = 0.0;
  /// Global illumination factor in [0.6, 1.1].
  double brightness = 1.0;
  /// Vehicle present in the adjacent (right) lane.
  bool traffic_adjacent = false;
  /// Longitudinal position of that vehicle, in [0.3, 0.8] (fraction of
  /// the visible road; only meaningful when traffic_adjacent).
  double traffic_distance = 0.5;
  /// Per-image sensor/texture noise seed.
  std::uint64_t noise_seed = 0;
};

/// Affordances the direct perception network must produce: the paper's
/// "next waypoint and orientation for autonomous vehicles to follow".
struct Affordances {
  /// Lateral offset of the next waypoint (normalized; + is right).
  double waypoint_offset = 0.0;
  /// Road heading at the look-ahead point (normalized; + steers right).
  double heading = 0.0;
};

/// Axis-aligned box of scenario parameters: the continuous dimensions as
/// intervals, plus the discrete traffic-presence flag (a box covers
/// either traffic-free or traffic-bearing scenarios, never both — the
/// coverage engine certifies the two worlds as separate domains).
/// Dimension order is fixed: curvature, lane offset, brightness, traffic
/// distance — the order `dim()` indexes and reports print.
struct ScenarioBox {
  static constexpr std::size_t kDimensions = 4;

  absint::Interval curvature;
  absint::Interval lane_offset;
  absint::Interval brightness;
  absint::Interval traffic_distance;
  bool traffic_adjacent = false;

  absint::Interval& dim(std::size_t d);
  const absint::Interval& dim(std::size_t d) const;
};

/// Canonical name of dimension `d` ("curvature", "lane-offset",
/// "brightness", "traffic-distance").
const char* scenario_dimension_name(std::size_t d);

/// The full operational design domain: the exact parameter ranges
/// `sample_scenario` draws from (documented on RoadScenario). Traffic
/// presence is set (the harder world — the vehicle is visible in-image);
/// flip `traffic_adjacent` off for the traffic-free domain.
ScenarioBox scenario_domain();

/// True when every continuous parameter lies inside the box and the
/// traffic flag matches. noise_seed is free (it parameterizes the
/// renderer, not the operational state).
bool scenario_in_box(const ScenarioBox& box, const RoadScenario& scenario);

/// Halves the box along dimension `d` at its midpoint; `.first` is the
/// lower half. The two halves share exactly the splitting face, so a
/// refinement tree's leaves always tile the parent box.
std::pair<ScenarioBox, ScenarioBox> split_scenario_box(const ScenarioBox& box, std::size_t d);

/// Uniformly samples a scenario from the operational design domain.
RoadScenario sample_scenario(Rng& rng);

/// Uniformly samples a scenario from `box` (traffic presence comes from
/// the box flag; a fresh noise seed is drawn from `rng`).
RoadScenario sample_scenario_in(const ScenarioBox& box, Rng& rng);

/// Ground-truth affordances. A function of curvature and lane offset only.
Affordances ground_truth_affordances(const RoadScenario& scenario);

}  // namespace dpv::data
