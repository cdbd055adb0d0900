#include "data/scenario.hpp"

#include "common/check.hpp"

namespace dpv::data {

absint::Interval& ScenarioBox::dim(std::size_t d) {
  switch (d) {
    case 0:
      return curvature;
    case 1:
      return lane_offset;
    case 2:
      return brightness;
    case 3:
      return traffic_distance;
  }
  throw ContractViolation("ScenarioBox::dim: index out of range");
}

const absint::Interval& ScenarioBox::dim(std::size_t d) const {
  return const_cast<ScenarioBox*>(this)->dim(d);
}

const char* scenario_dimension_name(std::size_t d) {
  switch (d) {
    case 0:
      return "curvature";
    case 1:
      return "lane-offset";
    case 2:
      return "brightness";
    case 3:
      return "traffic-distance";
  }
  return "?";
}

ScenarioBox scenario_domain() {
  ScenarioBox box;
  box.curvature = absint::Interval(-1.0, 1.0);
  box.lane_offset = absint::Interval(-0.3, 0.3);
  box.brightness = absint::Interval(0.6, 1.1);
  box.traffic_distance = absint::Interval(0.3, 0.8);
  box.traffic_adjacent = true;
  return box;
}

bool scenario_in_box(const ScenarioBox& box, const RoadScenario& scenario) {
  return box.curvature.contains(scenario.curvature) &&
         box.lane_offset.contains(scenario.lane_offset) &&
         box.brightness.contains(scenario.brightness) &&
         box.traffic_distance.contains(scenario.traffic_distance) &&
         box.traffic_adjacent == scenario.traffic_adjacent;
}

std::pair<ScenarioBox, ScenarioBox> split_scenario_box(const ScenarioBox& box, std::size_t d) {
  check(d < ScenarioBox::kDimensions, "split_scenario_box: dimension out of range");
  const double mid = box.dim(d).midpoint();
  ScenarioBox lower = box;
  ScenarioBox upper = box;
  lower.dim(d).hi = mid;
  upper.dim(d).lo = mid;
  return {lower, upper};
}

RoadScenario sample_scenario(Rng& rng) {
  // Draw order is load-bearing: datasets, the cached testbed model and
  // the committed bench baselines all derive from this exact sequence.
  const ScenarioBox odd = scenario_domain();
  RoadScenario s;
  s.curvature = rng.uniform(odd.curvature.lo, odd.curvature.hi);
  s.lane_offset = rng.uniform(odd.lane_offset.lo, odd.lane_offset.hi);
  s.brightness = rng.uniform(odd.brightness.lo, odd.brightness.hi);
  s.traffic_adjacent = rng.bernoulli(0.4);
  s.traffic_distance = rng.uniform(odd.traffic_distance.lo, odd.traffic_distance.hi);
  s.noise_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  return s;
}

RoadScenario sample_scenario_in(const ScenarioBox& box, Rng& rng) {
  RoadScenario s;
  s.curvature = rng.uniform(box.curvature.lo, box.curvature.hi);
  s.lane_offset = rng.uniform(box.lane_offset.lo, box.lane_offset.hi);
  s.brightness = rng.uniform(box.brightness.lo, box.brightness.hi);
  s.traffic_adjacent = box.traffic_adjacent;
  s.traffic_distance = rng.uniform(box.traffic_distance.lo, box.traffic_distance.hi);
  s.noise_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 30));
  return s;
}

Affordances ground_truth_affordances(const RoadScenario& scenario) {
  Affordances a;
  // Follow the bend and re-center in the lane. Coefficients chosen so
  // both outputs stay within [-1, 1] over the ODD.
  a.waypoint_offset = 0.6 * scenario.curvature - 0.5 * scenario.lane_offset;
  a.heading = 0.8 * scenario.curvature;
  return a;
}

}  // namespace dpv::data
