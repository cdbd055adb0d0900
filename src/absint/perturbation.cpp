#include "absint/perturbation.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/diff.hpp"
#include "nn/pool2d.hpp"

namespace dpv::absint {

namespace {

/// Largest magnitude a coordinate can take inside `box[i]`.
double magnitude(const Interval& iv) {
  return std::max(std::fabs(iv.lo), std::fabs(iv.hi));
}

std::vector<double> dense_step(const nn::Dense& base, const nn::Dense& upd,
                               const std::vector<double>& r_in, const Box& in_box) {
  const Tensor& wu = upd.weight();
  const Tensor& wb = base.weight();
  const std::size_t out = wu.shape().dim(0);
  const std::size_t in = wu.shape().dim(1);
  std::vector<double> r_out(out, 0.0);
  for (std::size_t i = 0; i < out; ++i) {
    double r = std::fabs(upd.bias()[i] - base.bias()[i]);
    for (std::size_t j = 0; j < in; ++j) {
      const double wij = wu[i * in + j];
      r += std::fabs(wij) * r_in[j];
      r += std::fabs(wij - wb[i * in + j]) * magnitude(in_box[j]);
    }
    r_out[i] = r;
  }
  return r_out;
}

std::vector<double> batchnorm_step(const nn::BatchNorm& base, const nn::BatchNorm& upd,
                                   const std::vector<double>& r_in, const Box& in_box) {
  const std::size_t n = r_in.size();
  std::vector<double> r_out(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    const double su = upd.effective_scale(i);
    const double ds = std::fabs(su - base.effective_scale(i));
    const double dh = std::fabs(upd.effective_shift(i) - base.effective_shift(i));
    r_out[i] = std::fabs(su) * r_in[i] + ds * magnitude(in_box[i]) + dh;
  }
  return r_out;
}

std::vector<double> conv_step(const nn::Conv2D& base, const nn::Conv2D& upd,
                              const std::vector<double>& r_in, const Box& in_box) {
  // Conservative: every output cell of channel o reads at most one
  // kernel's worth of inputs, each bounded by the worst input radius
  // and magnitude (padding cells contribute zero to both sums).
  double r_max = 0.0;
  for (double r : r_in) r_max = std::max(r_max, r);
  double mag_max = 0.0;
  for (const Interval& iv : in_box) mag_max = std::max(mag_max, magnitude(iv));

  const Tensor& wu = upd.weight();
  const Tensor& wb = base.weight();
  const std::size_t out_c = wu.shape().dim(0);
  const std::size_t per_channel = wu.numel() / out_c;
  const Shape out_shape = upd.output_shape();
  const std::size_t plane = out_shape.numel() / out_c;
  std::vector<double> r_out(out_shape.numel(), 0.0);
  for (std::size_t o = 0; o < out_c; ++o) {
    double abs_sum = 0.0, delta_sum = 0.0;
    for (std::size_t k = 0; k < per_channel; ++k) {
      abs_sum += std::fabs(wu[o * per_channel + k]);
      delta_sum += std::fabs(wu[o * per_channel + k] - wb[o * per_channel + k]);
    }
    const double r = abs_sum * r_max + delta_sum * mag_max +
                     std::fabs(upd.bias()[o] - base.bias()[o]);
    for (std::size_t p = 0; p < plane; ++p) r_out[o * plane + p] = r;
  }
  return r_out;
}

std::vector<double> pool_step(const nn::Layer& layer, const std::vector<double>& r_in,
                              bool average) {
  // Non-overlapping windows (stride == window): max pooling is
  // 1-Lipschitz per window in ∞-norm; average pooling averages radii.
  const auto& pool = static_cast<const nn::Pool2D&>(layer);
  const Shape in_shape = layer.input_shape();
  const Shape out_shape = layer.output_shape();
  const std::size_t channels = in_shape.dim(0);
  const std::size_t ih = in_shape.dim(1), iw = in_shape.dim(2);
  const std::size_t oh = out_shape.dim(1), ow = out_shape.dim(2);
  const std::size_t win = pool.window();
  std::vector<double> r_out(out_shape.numel(), 0.0);
  for (std::size_t c = 0; c < channels; ++c) {
    for (std::size_t r = 0; r < oh; ++r) {
      for (std::size_t col = 0; col < ow; ++col) {
        double acc = 0.0;
        std::size_t cells = 0;
        for (std::size_t dr = 0; dr < win; ++dr) {
          for (std::size_t dc = 0; dc < win; ++dc) {
            const std::size_t rr = r * win + dr, cc = col * win + dc;
            if (rr >= ih || cc >= iw) continue;
            const double v = r_in[(c * ih + rr) * iw + cc];
            acc = average ? acc + v : std::max(acc, v);
            ++cells;
          }
        }
        r_out[(c * oh + r) * ow + col] = average && cells > 0 ? acc / cells : acc;
      }
    }
  }
  return r_out;
}

}  // namespace

PerturbationTrace perturbation_radii(const nn::Network& base, const nn::Network& updated,
                                     const std::vector<Box>& base_trace,
                                     const Box& base_input, const Box& new_input,
                                     std::size_t from_layer) {
  PerturbationTrace trace;
  const nn::NetworkDiff diff = nn::diff_networks(base, updated);
  if (!diff.structurally_identical) return trace;
  const std::size_t count = base.layer_count();
  check(from_layer <= count, "perturbation_radii: from_layer out of range");
  check(base_trace.size() == count - from_layer,
        "perturbation_radii: base trace length mismatch");
  check(base_input.size() == new_input.size(),
        "perturbation_radii: input box dimension mismatch");

  // Coupling excess at the input: x' vs clamp(x', base box).
  std::vector<double> r(base_input.size(), 0.0);
  for (std::size_t j = 0; j < base_input.size(); ++j)
    r[j] = std::max(0.0, std::max(new_input[j].hi - base_input[j].hi,
                                  base_input[j].lo - new_input[j].lo));

  trace.supported = true;
  trace.radii.reserve(count - from_layer);
  const Box* in_box = &base_input;
  for (std::size_t l = from_layer; l < count; ++l) {
    const nn::Layer& lb = base.layer(l);
    const nn::Layer& lu = updated.layer(l);
    switch (lb.kind()) {
      case nn::LayerKind::kDense:
        r = dense_step(static_cast<const nn::Dense&>(lb),
                       static_cast<const nn::Dense&>(lu), r, *in_box);
        break;
      case nn::LayerKind::kBatchNorm:
        r = batchnorm_step(static_cast<const nn::BatchNorm&>(lb),
                           static_cast<const nn::BatchNorm&>(lu), r, *in_box);
        break;
      case nn::LayerKind::kConv2D:
        r = conv_step(static_cast<const nn::Conv2D&>(lb),
                      static_cast<const nn::Conv2D&>(lu), r, *in_box);
        break;
      case nn::LayerKind::kMaxPool2D:
        r = pool_step(lb, r, /*average=*/false);
        break;
      case nn::LayerKind::kAvgPool2D:
        r = pool_step(lb, r, /*average=*/true);
        break;
      case nn::LayerKind::kReLU:
      case nn::LayerKind::kFlatten:
        break;  // 1-Lipschitz elementwise (or identity): radii carry over
    }
    for (double v : r) trace.max_radius = std::max(trace.max_radius, v);
    trace.radii.push_back(r);
    in_box = &base_trace[l - from_layer];
  }
  return trace;
}

Box widen_box(const Box& box, const std::vector<double>& radii) {
  check(box.size() == radii.size(), "widen_box: dimension mismatch");
  Box out;
  out.reserve(box.size());
  for (std::size_t i = 0; i < box.size(); ++i)
    out.emplace_back(box[i].lo - radii[i], box[i].hi + radii[i]);
  return out;
}

}  // namespace dpv::absint
