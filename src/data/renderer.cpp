#include "data/renderer.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace dpv::data {

namespace {
constexpr double kRoadValue = 0.45;
constexpr double kGrassValue = 0.22;
constexpr double kMarkingValue = 0.88;
constexpr double kCenterlineValue = 0.80;
constexpr double kVehicleValue = 0.68;
constexpr double kVehicleShadow = 0.30;

/// What the renderer paints a pixel with before lighting. Road (under a
/// centerline dash too) and grass pixels each take one texture draw.
enum class Surface : std::uint8_t { kRoad, kCenterline, kMarking, kGrass };
}  // namespace

double road_center_column(const RoadScenario& scenario, const RenderConfig& config, double t) {
  const double w = static_cast<double>(config.width);
  // Near the vehicle the center reflects the lane offset; toward the
  // horizon the curvature term bends the road quadratically. Every
  // product rounds except the two fused ones (0.5w is exact).
  const double lane_term = scenario.lane_offset * 0.25 * w * (1.0 - t);
  return std::fma(scenario.curvature * 0.40 * w * t, t, std::fma(0.5, w, -lane_term));
}

double road_half_width(const RenderConfig& config, double t) {
  return 0.28 * static_cast<double>(config.width) * std::fma(-0.65, t, 1.0);
}

Tensor render_road_image(const RoadScenario& scenario, const RenderConfig& config) {
  check(config.width >= 8 && config.height >= 4, "render_road_image: image too small");
  check(std::isfinite(config.noise_stddev) && config.noise_stddev >= 0.0,
        "render_road_image: noise_stddev must be finite and non-negative");
  const std::size_t width = config.width, height = config.height, pixels = width * height;
  Tensor image(Shape{1, height, width});
  double* px = image.data().data();

  std::vector<Surface> surface(pixels);
  std::size_t textured = 0;
  for (std::size_t row = 0; row < height; ++row) {
    // Depth: bottom row is the nearest road surface, top row the horizon.
    const double t = 1.0 - static_cast<double>(row) / static_cast<double>(height - 1);
    const double center = road_center_column(scenario, config, t);
    // Rounded where it meets a subtraction below, as the Release build had it.
    const double half_width = simd::rounded(road_half_width(config, t));
    for (std::size_t col = 0; col < width; ++col) {
      const double x = static_cast<double>(col) + 0.5;
      const double dist = std::abs(x - center);
      Surface& s = surface[row * width + col];
      if (dist <= half_width)  // asphalt, under a dashed centerline
        s = dist < 0.6 && (row % 4) < 2 ? Surface::kCenterline : Surface::kRoad;
      else if (std::abs(dist - half_width) < 0.9)
        s = Surface::kMarking;  // lane boundary marking
      else
        s = Surface::kGrass;
      textured += s != Surface::kMarking;
    }
  }

  // All noise in the stream order of one draw per textured pixel (row
  // major), then one sensor draw per pixel.
  std::vector<double> noise(textured + pixels);
  Rng rng(scenario.noise_seed);
  rng.normals(0.0, 0.03, noise.data(), textured);
  rng.normals(0.0, config.noise_stddev, noise.data() + textured, pixels);
  const double* texture = noise.data();
  for (std::size_t i = 0; i < pixels; ++i) {
    switch (surface[i]) {
      case Surface::kRoad:
        px[i] = kRoadValue + *texture++;
        break;
      case Surface::kCenterline:
        px[i] = kCenterlineValue;
        ++texture;
        break;
      case Surface::kMarking:
        px[i] = kMarkingValue;
        break;
      case Surface::kGrass:
        px[i] = kGrassValue + *texture++;
        break;
    }
  }

  // Adjacent-lane vehicle: a bright rectangle with a dark shadow line,
  // placed one lane to the right at the configured distance.
  if (scenario.traffic_adjacent) {
    const double t0 = scenario.traffic_distance;
    const double center = road_center_column(scenario, config, t0);
    const double half_width = road_half_width(config, t0);
    const double vehicle_center = std::fma(1.9, half_width, center);
    const double vehicle_half_w = std::max(1.0, 0.45 * half_width);
    // Rounded before the two sums below, as the Release build had it.
    const double row_center = simd::rounded((1.0 - t0) * static_cast<double>(height - 1));
    const double vehicle_half_h =
        std::max(1.0, std::fma(0.10, static_cast<double>(height), 1.2 * (1.0 - t0)));
    const long row_lo = static_cast<long>(std::floor(row_center - vehicle_half_h));
    const long row_hi = static_cast<long>(std::ceil(row_center + vehicle_half_h));
    for (long row = row_lo; row <= row_hi; ++row) {
      if (row < 0 || row >= static_cast<long>(height)) continue;
      for (std::size_t col = 0; col < width; ++col) {
        const double x = static_cast<double>(col) + 0.5;
        if (std::abs(x - vehicle_center) > vehicle_half_w) continue;
        const bool shadow_row = row == row_hi;
        px[static_cast<std::size_t>(row) * width + col] =
            shadow_row ? kVehicleShadow : kVehicleValue;
      }
    }
  }

  // Illumination and sensor noise, clamped to the valid pixel range; the
  // lit value rounds before the noise is added.
  const double* sensor = noise.data() + textured;
  for (std::size_t i = 0; i < pixels; ++i)
    px[i] = std::clamp(simd::rounded(px[i] * scenario.brightness) + sensor[i], 0.0, 1.0);
  return image;
}

namespace {

using absint::Interval;

/// Interval product (neither operand sign-restricted).
Interval mul(const Interval& a, const Interval& b) {
  const double p1 = a.lo * b.lo, p2 = a.lo * b.hi, p3 = a.hi * b.lo, p4 = a.hi * b.hi;
  return Interval(std::min(std::min(p1, p2), std::min(p3, p4)),
                  std::max(std::max(p1, p2), std::max(p3, p4)));
}

/// |x| over an interval.
Interval abs_interval(const Interval& a) {
  if (a.lo >= 0.0) return a;
  if (a.hi <= 0.0) return Interval(-a.hi, -a.lo);
  return Interval(0.0, std::max(-a.lo, a.hi));
}

/// road_center_column over (curvature, lane_offset) intervals at a depth
/// interval [t]: 0.5w - lane * 0.25w(1-t) + curv * 0.40w t^2. Exact for
/// a point t; conservative when t itself is an interval (vehicle rows).
Interval center_column_hull(const ScenarioBox& box, const RenderConfig& config,
                            const Interval& t) {
  const double w = static_cast<double>(config.width);
  const Interval one_minus_t(1.0 - t.hi, 1.0 - t.lo);
  const Interval t_sq(t.lo * t.lo, t.hi * t.hi);  // t in [0, 1]
  Interval c = mul(absint::scale(box.lane_offset, -0.25 * w), one_minus_t) +
               mul(absint::scale(box.curvature, 0.40 * w), t_sq);
  return absint::shift(c, 0.5 * w);
}

/// road_half_width over a depth interval (decreasing in t).
Interval half_width_hull(const RenderConfig& config, const Interval& t) {
  return Interval(road_half_width(config, t.hi), road_half_width(config, t.lo));
}

}  // namespace

ImageBounds render_road_image_bounds(const ScenarioBox& box, const RenderConfig& config,
                                     const RenderBoundsOptions& options) {
  check(config.width >= 8 && config.height >= 4, "render_road_image_bounds: image too small");
  ImageBounds bounds{Tensor(Shape{1, config.height, config.width}),
                     Tensor(Shape{1, config.height, config.width})};

  // Vehicle extent hull: the rows and columns any vehicle placement in
  // the box could touch (empty when the box is traffic-free).
  long vehicle_row_lo = 1, vehicle_row_hi = 0;
  Interval vehicle_cols(0.0, 0.0);  // only read when traffic_adjacent set it
  if (box.traffic_adjacent) {
    const Interval t0 = box.traffic_distance;
    const Interval hw = half_width_hull(config, t0);
    const Interval center = center_column_hull(box, config, t0);
    const Interval vehicle_center = center + absint::scale(hw, 1.9);
    const double vehicle_half_w = std::max(1.0, 0.45 * hw.hi);
    const double h1 = static_cast<double>(config.height - 1);
    const Interval row_center((1.0 - t0.hi) * h1, (1.0 - t0.lo) * h1);
    const double vehicle_half_h =
        std::max(1.0, 0.10 * static_cast<double>(config.height) + 1.2 * (1.0 - t0.lo));
    vehicle_row_lo = static_cast<long>(std::floor(row_center.lo - vehicle_half_h));
    vehicle_row_hi = static_cast<long>(std::ceil(row_center.hi + vehicle_half_h));
    vehicle_cols = Interval(vehicle_center.lo - vehicle_half_w,
                            vehicle_center.hi + vehicle_half_w);
  }

  const double tex = options.texture_noise_bound;
  for (std::size_t row = 0; row < config.height; ++row) {
    const double t = 1.0 - static_cast<double>(row) / static_cast<double>(config.height - 1);
    const Interval center = center_column_hull(box, config, Interval(t, t));
    const double half_width = road_half_width(config, t);
    for (std::size_t col = 0; col < config.width; ++col) {
      const double x = static_cast<double>(col) + 0.5;
      const Interval dist(x - center.hi, x - center.lo);
      const Interval ad = abs_interval(dist);

      // Hull over every surface category the pixel could be, mirroring
      // render_road_image's branch structure over the |dist| interval.
      Interval value(0.0, 0.0);  // replaced by the first include()
      bool any = false;
      const auto include = [&](double lo, double hi) {
        value = any ? value.hull(Interval(lo, hi)) : Interval(lo, hi);
        any = true;
      };
      if (ad.lo <= half_width) {
        include(kRoadValue - tex, kRoadValue + tex);
        if (ad.lo < 0.6 && (row % 4) < 2) include(kCenterlineValue, kCenterlineValue);
      }
      if (ad.hi > half_width && ad.lo < half_width + 0.9)
        include(kMarkingValue, kMarkingValue);
      if (ad.hi >= half_width + 0.9) include(kGrassValue - tex, kGrassValue + tex);
      if (box.traffic_adjacent && static_cast<long>(row) >= vehicle_row_lo &&
          static_cast<long>(row) <= vehicle_row_hi && x >= vehicle_cols.lo &&
          x <= vehicle_cols.hi)
        include(kVehicleShadow, kVehicleValue);

      // Illumination interval (pixel values are non-negative, brightness
      // positive), sensor noise budget, then the renderer's clamp.
      const double lit_lo = std::max(0.0, value.lo) * box.brightness.lo;
      const double lit_hi = std::max(0.0, value.hi) * box.brightness.hi;
      bounds.lo.at3(0, row, col) =
          std::clamp(lit_lo - options.sensor_noise_bound, 0.0, 1.0);
      bounds.hi.at3(0, row, col) =
          std::clamp(lit_hi + options.sensor_noise_bound, 0.0, 1.0);
    }
  }
  return bounds;
}

}  // namespace dpv::data
