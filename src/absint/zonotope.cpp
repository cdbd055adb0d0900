#include "absint/zonotope.hpp"

#include "absint/box_domain.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/check.hpp"
#include "common/simd.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"

namespace dpv::absint {

Zonotope Zonotope::from_box(const Box& box) {
  Zonotope z;
  z.center_.resize(box.size());
  for (std::size_t i = 0; i < box.size(); ++i) {
    z.center_[i] = box[i].midpoint();
    const double radius = 0.5 * box[i].width();
    if (radius > 0.0) {
      std::vector<double> gen(box.size(), 0.0);
      gen[i] = radius;
      z.generators_.push_back(std::move(gen));
    }
  }
  return z;
}

Box Zonotope::to_box() const {
  // Generator-major accumulation: each generator row is contiguous, so
  // the |.| sums stream instead of striding column-wise per dimension.
  const std::size_t n = center_.size();
  std::vector<double> radius(n, 0.0);
  for (const auto& gen : generators_)
    simd::accumulate_abs(gen.data(), radius.data(), n);
  Box box(n);
  for (std::size_t i = 0; i < n; ++i)
    box[i] = Interval(center_[i] - radius[i], center_[i] + radius[i]);
  return box;
}

Zonotope Zonotope::affine(const std::vector<std::vector<double>>& weight,
                          const std::vector<double>& bias) const {
  const std::size_t out_n = weight.size();
  check(out_n == bias.size(), "Zonotope::affine: weight/bias mismatch");
  Zonotope out;
  out.center_.assign(out_n, 0.0);
  const std::size_t in_n = center_.size();
  for (std::size_t r = 0; r < out_n; ++r) {
    check(weight[r].size() == in_n, "Zonotope::affine: weight width mismatch");
    out.center_[r] = bias[r] + simd::dot(weight[r].data(), center_.data(), in_n);
  }
  out.generators_.reserve(generators_.size());
  for (const auto& gen : generators_) {
    std::vector<double> mapped(out_n);
    for (std::size_t r = 0; r < out_n; ++r)
      mapped[r] = simd::dot(weight[r].data(), gen.data(), in_n);
    out.generators_.push_back(std::move(mapped));
  }
  return out;
}

Zonotope Zonotope::scale_shift(const std::vector<double>& scale,
                               const std::vector<double>& shift) const {
  check(scale.size() == center_.size() && shift.size() == center_.size(),
        "Zonotope::scale_shift: dimension mismatch");
  Zonotope out = *this;
  simd::hadamard_fma(out.center_.data(), scale.data(), shift.data(), center_.size());
  for (auto& gen : out.generators_)
    simd::hadamard(gen.data(), scale.data(), gen.size());
  return out;
}

namespace {

/// Intersection of two sound enclosures of the same values: non-empty
/// up to rounding, and the guard keeps the result well-formed either
/// way. Shared by the transformer clamp and the trace loop so the
/// chord-slope bounds and the trace boxes can never diverge.
Interval guarded_intersection(const Interval& a, const Interval& b) {
  const double lo = std::max(a.lo, b.lo);
  const double hi = std::min(a.hi, b.hi);
  return Interval(std::min(lo, hi), std::max(lo, hi));
}

/// Per-dimension pre-activation bounds: the zonotope's own
/// concretization, intersected with externally proven `clamp` bounds
/// when supplied (sound because every concrete value lies in both).
Interval effective_bounds(const Box& own, const Box* clamp, std::size_t i) {
  if (clamp == nullptr) return own[i];
  return guarded_intersection(own[i], (*clamp)[i]);
}

}  // namespace

Zonotope Zonotope::relu(const Box* clamp) const {
  if (clamp != nullptr)
    check(clamp->size() == center_.size(), "Zonotope::relu: clamp arity mismatch");
  const Box bounds = to_box();
  const std::size_t n = center_.size();
  Zonotope out = *this;
  // The DeepZ transformer. Every product by the zero slope of the x < 0
  // piece is kept (`0.0 * lo`, `0.0 - s`, `*= 0.0`) so signed zeros and
  // non-finite bounds come out exactly as the chord formulas give them.
  // Fresh-noise magnitude per unstable dimension (half the chord's
  // maximal deviation from f, attained at the kink x = 0).
  std::vector<double> fresh(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const Interval iv = effective_bounds(bounds, clamp, i);
    const double lo = iv.lo;
    const double hi = iv.hi;
    if (lo >= 0.0) continue;  // identity piece
    if (hi <= 0.0) {          // zero piece: exact linear map
      out.center_[i] *= 0.0;
      for (auto& gen : out.generators_) gen[i] *= 0.0;
      continue;
    }
    // Unstable: f(x) = max(x, 0) is convex, so it lies between the chord
    // c(x) = s*x - s*lo through (lo, 0) and (hi, hi), and c shifted down
    // by its kink deviation d0 = c(0) - f(0) = -s*lo = -lo*hi/(hi-lo).
    // Midline plus a fresh symbol of radius d0/2.
    const double s = (hi - 0.0 * lo) / (hi - lo);
    const double d0 = (0.0 - s) * lo;
    out.center_[i] = s * out.center_[i] + (0.0 - s) * lo - 0.5 * d0;
    for (auto& gen : out.generators_) gen[i] *= s;
    fresh[i] = 0.5 * d0;
  }
  for (std::size_t i = 0; i < n; ++i) {
    if (fresh[i] == 0.0) continue;
    std::vector<double> gen(n, 0.0);
    gen[i] = fresh[i];
    out.generators_.push_back(std::move(gen));
  }
  return out;
}

Zonotope Zonotope::reduce(std::size_t max_generators) const {
  if (max_generators == 0 || generators_.size() <= max_generators) return *this;
  const std::size_t n = center_.size();
  // Keep the heaviest generators outright; the rest are boxed. Reserve
  // room for up to one axis generator per dimension so the result stays
  // within the budget whenever max_generators > dimensions().
  const std::size_t keep = max_generators > n ? max_generators - n : 0;

  std::vector<std::size_t> order(generators_.size());
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::vector<double> mass(generators_.size(), 0.0);
  for (std::size_t k = 0; k < generators_.size(); ++k)
    mass[k] = simd::sum_abs(generators_[k].data(), n);
  // Heaviest first; index tie-break keeps the reduction deterministic.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (mass[a] != mass[b]) return mass[a] > mass[b];
    return a < b;
  });

  Zonotope out;
  out.center_ = center_;
  out.generators_.reserve(keep + n);
  for (std::size_t k = 0; k < keep; ++k) out.generators_.push_back(generators_[order[k]]);
  std::vector<double> residual(n, 0.0);
  for (std::size_t k = keep; k < order.size(); ++k)
    simd::accumulate_abs(generators_[order[k]].data(), residual.data(), n);
  for (std::size_t i = 0; i < n; ++i) {
    if (residual[i] == 0.0) continue;
    std::vector<double> gen(n, 0.0);
    gen[i] = residual[i];
    out.generators_.push_back(std::move(gen));
  }
  return out;
}

namespace {

/// The zonotope transformer of one layer (the shared step of range and
/// trace propagation). `pre_clamp`, when non-null, carries externally
/// proven bounds on the layer's *input* — trace propagation feeds the
/// interval-intersected box of the previous layer back in, so the
/// ReLU chord slope is chosen from the clamped bounds instead of
/// the zonotope's possibly looser own concretization.
Zonotope zonotope_step(const nn::Layer& layer, Zonotope z, const Box* pre_clamp) {
  switch (layer.kind()) {
    case nn::LayerKind::kDense: {
      const auto& d = static_cast<const nn::Dense&>(layer);
      const std::size_t out_n = d.output_shape().dim(0);
      const std::size_t in_n = d.input_shape().dim(0);
      std::vector<std::vector<double>> weight(out_n, std::vector<double>(in_n));
      std::vector<double> bias(out_n);
      for (std::size_t r = 0; r < out_n; ++r) {
        bias[r] = d.bias()[r];
        for (std::size_t c = 0; c < in_n; ++c) weight[r][c] = d.weight().at2(r, c);
      }
      return z.affine(weight, bias);
    }
    case nn::LayerKind::kReLU:
      return z.relu(pre_clamp);
    case nn::LayerKind::kBatchNorm: {
      const auto& bn = static_cast<const nn::BatchNorm&>(layer);
      const std::size_t n = bn.input_shape().dim(0);
      std::vector<double> scale(n), shift(n);
      for (std::size_t f = 0; f < n; ++f) {
        scale[f] = bn.effective_scale(f);
        shift[f] = bn.effective_shift(f);
      }
      return z.scale_shift(scale, shift);
    }
    case nn::LayerKind::kFlatten:
      return z;  // reshape only
    default:
      throw ContractViolation(
          "propagate_zonotope_range: unsupported layer kind '" +
          nn::layer_kind_name(layer.kind()) +
          "' (zonotopes cover verified tails: dense/relu/batchnorm)");
  }
}

}  // namespace

Zonotope propagate_zonotope_range(const nn::Network& net, Zonotope z, std::size_t from_layer,
                                  std::size_t to_layer, std::size_t max_generators) {
  check(from_layer <= to_layer && to_layer <= net.layer_count(),
        "propagate_zonotope_range: invalid layer range");
  for (std::size_t i = from_layer; i < to_layer; ++i) {
    z = zonotope_step(net.layer(i), std::move(z), nullptr);
    if (max_generators > 0) z = z.reduce(max_generators);
  }
  return z;
}

bool zonotope_supported(const nn::Network& net, std::size_t from_layer, std::size_t to_layer) {
  check(from_layer <= to_layer && to_layer <= net.layer_count(),
        "zonotope_supported: invalid layer range");
  for (std::size_t i = from_layer; i < to_layer; ++i) {
    switch (net.layer(i).kind()) {
      case nn::LayerKind::kDense:
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kBatchNorm:
      case nn::LayerKind::kFlatten:
        break;
      default:
        return false;
    }
  }
  return true;
}

std::vector<Box> propagate_zonotope_trace(const nn::Network& net, const Box& input_box,
                                          std::size_t from_layer, std::size_t to_layer,
                                          std::size_t max_generators) {
  check(from_layer <= to_layer && to_layer <= net.layer_count(),
        "propagate_zonotope_trace: invalid layer range");
  std::vector<Box> trace;
  trace.reserve(to_layer - from_layer);
  Zonotope z = Zonotope::from_box(input_box);
  // The DeepZ ReLU transformer preserves correlations but its box can be
  // locally looser than plain intervals (the midline form dips below 0).
  // Running interval propagation alongside — seeded each layer from the
  // previous *intersected* box — makes every trace entry at least as
  // tight as pure interval propagation while keeping the zonotope's
  // correlation wins. The intersected box also feeds *back* into the
  // transformer as the pre-activation clamp, so the ReLU chord slope is
  // chosen from the tightened bounds.
  Box interval_box = input_box;
  for (std::size_t i = from_layer; i < to_layer; ++i) {
    z = zonotope_step(net.layer(i), std::move(z), &interval_box);
    if (max_generators > 0) z = z.reduce(max_generators);
    interval_box = propagate_box(net.layer(i), interval_box);
    const Box zono_box = z.to_box();
    check(zono_box.size() == interval_box.size(),
          "propagate_zonotope_trace: arity mismatch between domains");
    for (std::size_t d = 0; d < interval_box.size(); ++d)
      interval_box[d] = guarded_intersection(interval_box[d], zono_box[d]);
    trace.push_back(interval_box);
  }
  return trace;
}

}  // namespace dpv::absint
