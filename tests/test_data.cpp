// Road scenario substrate tests: determinism, label geometry, renderer
// behaviour (curvature visibly bends the road, traffic adds pixels,
// brightness scales), the renderer's noise contract and build-independent
// bits, property oracles, dataset assembly and the perception factory's
// attachment-point contract.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "data/properties.hpp"
#include "data/renderer.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::data {
namespace {

RoadScenario base_scenario() {
  RoadScenario s;
  s.curvature = 0.0;
  s.lane_offset = 0.0;
  s.brightness = 1.0;
  s.traffic_adjacent = false;
  s.noise_seed = 42;
  return s;
}

TEST(Scenario, SamplingStaysInsideDocumentedRanges) {
  // The ODD box is the single source of truth: sample_scenario must pin
  // to exactly the ranges scenario_domain() declares (which are the
  // documented RoadScenario ranges), and actually span them.
  const ScenarioBox odd = scenario_domain();
  EXPECT_DOUBLE_EQ(odd.curvature.lo, -1.0);
  EXPECT_DOUBLE_EQ(odd.curvature.hi, 1.0);
  EXPECT_DOUBLE_EQ(odd.lane_offset.lo, -0.3);
  EXPECT_DOUBLE_EQ(odd.lane_offset.hi, 0.3);
  EXPECT_DOUBLE_EQ(odd.brightness.lo, 0.6);
  EXPECT_DOUBLE_EQ(odd.brightness.hi, 1.1);
  EXPECT_DOUBLE_EQ(odd.traffic_distance.lo, 0.3);
  EXPECT_DOUBLE_EQ(odd.traffic_distance.hi, 0.8);

  Rng rng(1);
  ScenarioBox seen;
  for (std::size_t d = 0; d < ScenarioBox::kDimensions; ++d)
    seen.dim(d) = absint::Interval(odd.dim(d).midpoint(), odd.dim(d).midpoint());
  bool saw_traffic = false, saw_free = false;
  for (int i = 0; i < 400; ++i) {
    const RoadScenario s = sample_scenario(rng);
    ScenarioBox membership = odd;
    membership.traffic_adjacent = s.traffic_adjacent;
    EXPECT_TRUE(scenario_in_box(membership, s));
    seen.curvature = seen.curvature.hull(absint::Interval(s.curvature, s.curvature));
    seen.lane_offset = seen.lane_offset.hull(absint::Interval(s.lane_offset, s.lane_offset));
    seen.brightness = seen.brightness.hull(absint::Interval(s.brightness, s.brightness));
    seen.traffic_distance =
        seen.traffic_distance.hull(absint::Interval(s.traffic_distance, s.traffic_distance));
    (s.traffic_adjacent ? saw_traffic : saw_free) = true;
  }
  // 400 uniform draws cover at least 90% of every documented range.
  for (std::size_t d = 0; d < ScenarioBox::kDimensions; ++d)
    EXPECT_GT(seen.dim(d).width(), 0.9 * odd.dim(d).width()) << scenario_dimension_name(d);
  EXPECT_TRUE(saw_traffic);
  EXPECT_TRUE(saw_free);
}

TEST(Scenario, SampleInBoxRespectsBoxAndTrafficFlag) {
  ScenarioBox box = scenario_domain();
  box.curvature = absint::Interval(-0.25, 0.125);
  box.brightness = absint::Interval(0.7, 0.75);
  for (const bool traffic : {false, true}) {
    box.traffic_adjacent = traffic;
    Rng rng(5);
    for (int i = 0; i < 100; ++i) {
      const RoadScenario s = sample_scenario_in(box, rng);
      EXPECT_TRUE(scenario_in_box(box, s));
      EXPECT_EQ(s.traffic_adjacent, traffic);
    }
  }
}

/// Product of the interval widths (the box's 4-volume).
double box_volume(const ScenarioBox& box) {
  double volume = 1.0;
  for (std::size_t d = 0; d < ScenarioBox::kDimensions; ++d) volume *= box.dim(d).width();
  return volume;
}

TEST(Scenario, BoxVolumeAndSplitAreConsistent) {
  const ScenarioBox odd = scenario_domain();
  const double volume = box_volume(odd);
  EXPECT_GT(volume, 0.0);
  for (std::size_t d = 0; d < ScenarioBox::kDimensions; ++d) {
    const auto [lower, upper] = split_scenario_box(odd, d);
    // Halves share exactly the splitting face and partition the volume.
    EXPECT_DOUBLE_EQ(lower.dim(d).hi, upper.dim(d).lo);
    EXPECT_DOUBLE_EQ(lower.dim(d).lo, odd.dim(d).lo);
    EXPECT_DOUBLE_EQ(upper.dim(d).hi, odd.dim(d).hi);
    EXPECT_NEAR(box_volume(lower) + box_volume(upper), volume, 1e-12);
  }
  EXPECT_THROW(split_scenario_box(odd, ScenarioBox::kDimensions), ContractViolation);
}

TEST(Scenario, AffordancesDependOnlyOnCurvatureAndOffset) {
  RoadScenario a = base_scenario();
  a.curvature = 0.5;
  a.lane_offset = 0.1;
  RoadScenario b = a;
  b.brightness = 0.6;
  b.traffic_adjacent = true;
  b.noise_seed = 7;
  const Affordances fa = ground_truth_affordances(a);
  const Affordances fb = ground_truth_affordances(b);
  EXPECT_DOUBLE_EQ(fa.waypoint_offset, fb.waypoint_offset);
  EXPECT_DOUBLE_EQ(fa.heading, fb.heading);
  // Heading tracks curvature sign and magnitude.
  EXPECT_GT(fa.heading, 0.0);
  a.curvature = -0.5;
  EXPECT_LT(ground_truth_affordances(a).heading, 0.0);
}

TEST(Scenario, AffordanceIndependenceHoldsAcrossRandomizedNuisances) {
  // Property-based version of the information-bottleneck design point:
  // randomize *every* output-irrelevant parameter — including
  // traffic_distance, which a fixed-pair test can silently miss — and
  // the labels must not move at all.
  Rng rng(31);
  const ScenarioBox odd = scenario_domain();
  for (int i = 0; i < 200; ++i) {
    RoadScenario a;
    a.curvature = rng.uniform(odd.curvature.lo, odd.curvature.hi);
    a.lane_offset = rng.uniform(odd.lane_offset.lo, odd.lane_offset.hi);
    a.brightness = rng.uniform(odd.brightness.lo, odd.brightness.hi);
    a.traffic_adjacent = rng.bernoulli(0.5);
    a.traffic_distance = rng.uniform(odd.traffic_distance.lo, odd.traffic_distance.hi);
    a.noise_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    RoadScenario b = a;
    b.brightness = rng.uniform(odd.brightness.lo, odd.brightness.hi);
    b.traffic_adjacent = !a.traffic_adjacent;
    b.traffic_distance = rng.uniform(odd.traffic_distance.lo, odd.traffic_distance.hi);
    b.noise_seed = static_cast<std::uint64_t>(rng.uniform_int(0, 1 << 20));
    const Affordances fa = ground_truth_affordances(a);
    const Affordances fb = ground_truth_affordances(b);
    EXPECT_DOUBLE_EQ(fa.waypoint_offset, fb.waypoint_offset);
    EXPECT_DOUBLE_EQ(fa.heading, fb.heading);
  }
}

TEST(Renderer, DeterministicPerSeed) {
  const RenderConfig config;
  RoadScenario s = base_scenario();
  const Tensor img1 = render_road_image(s, config);
  const Tensor img2 = render_road_image(s, config);
  EXPECT_EQ(max_abs_diff(img1, img2), 0.0);
  s.noise_seed = 43;
  EXPECT_GT(max_abs_diff(img1, render_road_image(s, config)), 0.0);
}

TEST(Renderer, PixelsInUnitRangeAndShapeCorrect) {
  const RenderConfig config{.width = 24, .height = 12};
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    const Tensor img = render_road_image(sample_scenario(rng), config);
    EXPECT_EQ(img.shape(), (Shape{1, 12, 24}));
    EXPECT_GE(*std::min_element(img.data().begin(), img.data().end()), 0.0);
    EXPECT_LE(*std::max_element(img.data().begin(), img.data().end()), 1.0);
  }
}

TEST(Renderer, CurvatureBendsCenterline) {
  const RenderConfig config;
  RoadScenario right = base_scenario();
  right.curvature = 0.8;
  RoadScenario left = base_scenario();
  left.curvature = -0.8;
  // At the horizon the centerline moves in the curvature direction.
  EXPECT_GT(road_center_column(right, config, 1.0),
            road_center_column(base_scenario(), config, 1.0));
  EXPECT_LT(road_center_column(left, config, 1.0),
            road_center_column(base_scenario(), config, 1.0));
  // Near the vehicle the curvature has no effect yet.
  EXPECT_NEAR(road_center_column(right, config, 0.0),
              road_center_column(base_scenario(), config, 0.0), 1e-9);
}

TEST(Renderer, CurvatureChangesImagePixels) {
  const RenderConfig config;
  RoadScenario s = base_scenario();
  const Tensor straight = render_road_image(s, config);
  s.curvature = 0.9;
  const Tensor bent = render_road_image(s, config);
  EXPECT_GT(max_abs_diff(straight, bent), 0.2);
}

TEST(Renderer, PerspectiveNarrowsRoad) {
  const RenderConfig config;
  EXPECT_GT(road_half_width(config, 0.0), road_half_width(config, 1.0));
}

TEST(Renderer, TrafficParticipantAddsBrightBlob) {
  const RenderConfig config;
  RoadScenario s = base_scenario();
  const Tensor without = render_road_image(s, config);
  s.traffic_adjacent = true;
  s.traffic_distance = 0.5;
  const Tensor with = render_road_image(s, config);
  EXPECT_GT(max_abs_diff(without, with), 0.1);
}

double mean_pixel(const Tensor& image) {
  return std::accumulate(image.data().begin(), image.data().end(), 0.0) /
         static_cast<double>(image.numel());
}

TEST(Renderer, BrightnessScalesIntensity) {
  RoadScenario s = base_scenario();
  const RenderConfig config{.width = 32, .height = 16, .noise_stddev = 0.0};
  const double bright = mean_pixel(render_road_image(s, config));
  s.brightness = 0.6;
  const double dark = mean_pixel(render_road_image(s, config));
  EXPECT_GT(bright, dark + 0.05);
}

TEST(Renderer, RejectsTinyImages) {
  const RenderConfig config{.width = 4, .height = 2};
  EXPECT_THROW(render_road_image(base_scenario(), config), ContractViolation);
}

TEST(Renderer, RejectsNegativeOrNonFiniteNoise) {
  for (const double stddev : {-0.02, -std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::infinity(),
                              std::numeric_limits<double>::quiet_NaN()}) {
    const RenderConfig config{.width = 32, .height = 16, .noise_stddev = stddev};
    EXPECT_THROW(render_road_image(base_scenario(), config), ContractViolation) << stddev;
  }
}

/// 64-bit FNV-1a over the bit patterns of an image's values, continuing
/// from `hash`.
std::uint64_t fnv1a(std::uint64_t hash, const Tensor& image) {
  for (const double v : image.data()) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (bits >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

TEST(Renderer, RenderHashIsBuildIndependent) {
  // The renderer's arithmetic is written out (explicit fusions, noise
  // from the explicit engine's block kernel), so every build renders the
  // same bits: optimized or not, with or without the SIMD bodies, and
  // forced scalar. The constant is what the std::normal_distribution
  // renderer this replaced hashed to in its Release build.
  for (const bool scalar : {false, true}) {
    simd::set_force_scalar(scalar);
    std::uint64_t hash = 14695981039346656037ull;
    RoadDatasetConfig dataset;
    dataset.count = 600;
    dataset.seed = 101;
    for (const RoadSample& sample : generate_road_samples(dataset))
      hash = fnv1a(hash, sample.image);
    Rng rng(202);
    ScenarioBox traffic = scenario_domain();
    traffic.traffic_adjacent = true;
    const RenderConfig wide{.width = 40, .height = 20, .noise_stddev = 0.05};
    for (int i = 0; i < 300; ++i) {
      const RoadScenario s = sample_scenario_in(traffic, rng);
      hash = fnv1a(hash, render_road_image(s, RenderConfig{}));
      hash = fnv1a(hash, render_road_image(s, wide));
    }
    EXPECT_EQ(hash, 0x75ac877b623c5481ull) << (scalar ? "forced scalar: " : "dispatch: ")
                                           << std::hex << hash;
  }
  simd::set_force_scalar(false);
}

/// Random sub-box of the ODD along each dimension (possibly the full
/// range), with a random traffic flag.
ScenarioBox random_sub_box(Rng& rng) {
  ScenarioBox box = scenario_domain();
  for (std::size_t d = 0; d < ScenarioBox::kDimensions; ++d) {
    const absint::Interval full = box.dim(d);
    const double a = rng.uniform(full.lo, full.hi);
    const double b = rng.uniform(full.lo, full.hi);
    box.dim(d) = absint::Interval(std::min(a, b), std::max(a, b));
  }
  box.traffic_adjacent = rng.bernoulli(0.5);
  return box;
}

TEST(Renderer, IntervalBoundsContainConcreteRenders) {
  // Soundness of the coverage engine's input hull: every render of every
  // scenario inside a box lies pixel-wise within the box's bounds.
  // Deterministic (fixed seeds); the Gaussian noise stays inside the
  // default 5-sigma budgets for these draws.
  const RenderConfig config{.width = 24, .height = 12};
  Rng rng(77);
  for (int trial = 0; trial < 20; ++trial) {
    const ScenarioBox box = random_sub_box(rng);
    const ImageBounds bounds = render_road_image_bounds(box, config);
    ASSERT_EQ(bounds.lo.shape(), (Shape{1, 12, 24}));
    ASSERT_EQ(bounds.hi.shape(), (Shape{1, 12, 24}));
    for (std::size_t i = 0; i < bounds.lo.numel(); ++i)
      ASSERT_LE(bounds.lo[i], bounds.hi[i]);
    for (int s = 0; s < 20; ++s) {
      const RoadScenario scenario = sample_scenario_in(box, rng);
      const Tensor image = render_road_image(scenario, config);
      for (std::size_t i = 0; i < image.numel(); ++i) {
        ASSERT_GE(image[i], bounds.lo[i] - 1e-12)
            << "trial " << trial << " sample " << s << " pixel " << i;
        ASSERT_LE(image[i], bounds.hi[i] + 1e-12)
            << "trial " << trial << " sample " << s << " pixel " << i;
      }
    }
  }
}

TEST(Renderer, BoundsOfPointBoxAreTightAroundNoiseBudgets) {
  // A degenerate (point) box must reproduce the concrete render within
  // bounds, and those bounds must be tight: outside the few pixels where
  // the branch hull spans two surface categories (road vs centerline,
  // road vs marking), the interval width is just the noise budgets.
  const RenderConfig noiseless{.width = 32, .height = 16, .noise_stddev = 0.0};
  RoadScenario s = base_scenario();
  s.curvature = 0.4;
  s.lane_offset = -0.1;
  ScenarioBox point = scenario_domain();
  point.curvature = absint::Interval(s.curvature, s.curvature);
  point.lane_offset = absint::Interval(s.lane_offset, s.lane_offset);
  point.brightness = absint::Interval(s.brightness, s.brightness);
  point.traffic_adjacent = false;
  const RenderBoundsOptions budgets;
  const ImageBounds bounds = render_road_image_bounds(point, noiseless, budgets);
  const Tensor image = render_road_image(s, noiseless);
  const double tight_width = 2.0 * budgets.texture_noise_bound * s.brightness +
                             2.0 * budgets.sensor_noise_bound;
  std::size_t loose_pixels = 0;
  for (std::size_t i = 0; i < image.numel(); ++i) {
    ASSERT_GE(image[i], bounds.lo[i] - 1e-12) << "pixel " << i;
    ASSERT_LE(image[i], bounds.hi[i] + 1e-12) << "pixel " << i;
    if (bounds.hi[i] - bounds.lo[i] > tight_width + 1e-12) ++loose_pixels;
  }
  EXPECT_LE(loose_pixels, image.numel() / 5);
}

TEST(Properties, OraclesMatchScenarioParameters) {
  RoadScenario s = base_scenario();
  s.curvature = 0.5;
  EXPECT_TRUE(property_holds(s, InputProperty::kBendRightStrong));
  EXPECT_FALSE(property_holds(s, InputProperty::kBendLeftStrong));
  s.curvature = -0.5;
  EXPECT_TRUE(property_holds(s, InputProperty::kBendLeftStrong));
  s.traffic_adjacent = true;
  EXPECT_TRUE(property_holds(s, InputProperty::kTrafficAdjacent));
  s.brightness = 0.7;
  EXPECT_TRUE(property_holds(s, InputProperty::kLowLight));
  s.brightness = 1.0;
  EXPECT_FALSE(property_holds(s, InputProperty::kLowLight));
}

TEST(Properties, OutputRelevanceTags) {
  EXPECT_TRUE(property_output_relevant(InputProperty::kBendRightStrong));
  EXPECT_TRUE(property_output_relevant(InputProperty::kBendLeftStrong));
  EXPECT_FALSE(property_output_relevant(InputProperty::kTrafficAdjacent));
  EXPECT_FALSE(property_output_relevant(InputProperty::kLowLight));
}

TEST(DatasetGen, RegressionAndPropertyDatasetsAlign) {
  RoadDatasetConfig config;
  config.count = 50;
  config.seed = 9;
  const std::vector<RoadSample> samples = generate_road_samples(config);
  ASSERT_EQ(samples.size(), 50u);
  const train::Dataset reg = to_regression_dataset(samples);
  const train::Dataset prop = to_property_dataset(samples, InputProperty::kBendRightStrong);
  ASSERT_EQ(reg.size(), 50u);
  ASSERT_EQ(prop.size(), 50u);
  for (std::size_t i = 0; i < samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(reg[i].target[1], samples[i].affordances.heading);
    EXPECT_DOUBLE_EQ(prop[i].target[0],
                     samples[i].scenario.curvature >= 0.4 ? 1.0 : 0.0);
    EXPECT_EQ(max_abs_diff(reg[i].input, prop[i].input), 0.0);
  }
}

TEST(DatasetGen, DeterministicPerSeed) {
  RoadDatasetConfig config;
  config.count = 10;
  config.seed = 21;
  const auto a = generate_road_samples(config);
  const auto b = generate_road_samples(config);
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_EQ(max_abs_diff(a[i].image, b[i].image), 0.0);
}

TEST(PerceptionFactory, AttachmentLayerYieldsRankOneFeatures) {
  Rng rng(2);
  PerceptionConfig config;
  config.render.width = 16;
  config.render.height = 8;
  config.embedding = 12;
  config.features = 8;
  config.tail_hidden = 8;
  const PerceptionModel model = make_perception_network(config, rng);
  const Tensor x = Tensor::randn(Shape{1, 8, 16}, rng, 0.3);
  const Tensor features = model.network.forward_prefix(x, model.attach_layer);
  EXPECT_EQ(features.shape(), (Shape{config.features}));
  // The tail reproduces the full forward pass.
  const Tensor full = model.network.forward(x);
  const Tensor via_tail = model.network.forward_suffix(features, model.attach_layer);
  EXPECT_NEAR(max_abs_diff(full, via_tail), 0.0, 1e-12);
  EXPECT_EQ(full.numel(), 2u);
}

TEST(PerceptionFactory, TailContainsOnlyVerifiableKinds) {
  Rng rng(4);
  PerceptionConfig config;
  config.render.width = 16;
  config.render.height = 8;
  for (const bool bn : {false, true}) {
    config.batchnorm_tail = bn;
    const PerceptionModel model = make_perception_network(config, rng);
    for (std::size_t i = model.attach_layer; i < model.network.layer_count(); ++i) {
      const nn::LayerKind kind = model.network.layer(i).kind();
      EXPECT_TRUE(kind == nn::LayerKind::kDense || kind == nn::LayerKind::kReLU ||
                  kind == nn::LayerKind::kBatchNorm)
          << "layer " << i;
    }
  }
}

TEST(PerceptionFactory, CharacterizerShape) {
  Rng rng(6);
  nn::Network h = make_characterizer_network(16, 8, rng);
  EXPECT_EQ(h.input_shape(), (Shape{16}));
  EXPECT_EQ(h.output_shape(), (Shape{1}));
}

TEST(PerceptionFactory, RejectsIndivisibleImages) {
  Rng rng(8);
  PerceptionConfig config;
  config.render.width = 18;
  config.render.height = 9;
  EXPECT_THROW(make_perception_network(config, rng), ContractViolation);
}

}  // namespace
}  // namespace dpv::data
