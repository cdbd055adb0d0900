// Road image rasterizer.
//
// Produces small grayscale camera frames (default 16x32) with perspective
// narrowing, curvature bending, lane markings, texture noise, global
// illumination, and an optional adjacent-lane vehicle. The scale is
// deliberately modest: the verification method never looks at pixels
// (Lemma 1 cuts after the convolutional stack), so image size only needs
// to be large enough for the perception CNN to recover curvature.
#pragma once

#include <cstddef>

#include "data/scenario.hpp"
#include "tensor/tensor.hpp"

namespace dpv::data {

struct RenderConfig {
  std::size_t width = 32;
  std::size_t height = 16;
  /// Stddev of additive per-pixel sensor noise: finite and >= 0 (0 adds
  /// none).
  double noise_stddev = 0.02;
};

/// Renders the scenario as a (1, height, width) tensor with values in
/// [0, 1]. Deterministic in (scenario, config), with the same bits in
/// every build — the texture/sensor noise comes from scenario.noise_seed.
/// Throws ContractViolation for an image smaller than 8x4 or a negative
/// or non-finite noise_stddev.
Tensor render_road_image(const RoadScenario& scenario, const RenderConfig& config);

/// Road centerline column (in pixel units) at depth t in [0, 1]
/// (0 = near / image bottom, 1 = far / image top). Exposed for tests and
/// for deriving geometric ground truth.
double road_center_column(const RoadScenario& scenario, const RenderConfig& config, double t);

/// Road half-width in pixels at depth t (perspective narrowing).
double road_half_width(const RenderConfig& config, double t);

/// Per-pixel image bounds for a whole box of scenarios: every pixel of
/// every render of every scenario in the box lies in [lo, hi] — the
/// input-set hull the scenario-coverage engine feeds to static interval
/// analysis. Shapes match render_road_image's (1, height, width).
struct ImageBounds {
  Tensor lo;
  Tensor hi;
};

/// Noise budget of the bounds. The renderer's texture and sensor noise
/// are Gaussian, hence unbounded in principle; the bounds are sound
/// under the bounded-noise assumption |texture| <= texture_noise_bound
/// (the normal(0, 0.03) asphalt/grass grain) and |sensor| <=
/// sensor_noise_bound (the additive normal(0, noise_stddev) term). The
/// defaults are 5-sigma budgets of the default RenderConfig — certifying
/// against them is the deterministic analogue of a sensor-noise spec.
struct RenderBoundsOptions {
  double texture_noise_bound = 0.16;
  double sensor_noise_bound = 0.10;
};

/// Renders the scenario *box* into per-pixel bounds: for each pixel, the
/// hull over every surface category (road / centerline / marking / grass
/// / vehicle) any scenario in the box could place there, widened by the
/// noise budgets, scaled by the brightness interval and clamped to
/// [0, 1] exactly like render_road_image. Sound w.r.t. the bounded-noise
/// assumption documented on RenderBoundsOptions: for every scenario in
/// `box` (any noise seed whose draws respect the budgets),
/// lo <= render_road_image(scenario) <= hi pixel-wise.
ImageBounds render_road_image_bounds(const ScenarioBox& box, const RenderConfig& config,
                                     const RenderBoundsOptions& options = {});

}  // namespace dpv::data
