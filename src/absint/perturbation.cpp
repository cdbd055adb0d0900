#include "absint/perturbation.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"
#include "nn/diff.hpp"

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
      case nn::LayerKind::kMaxPool2D:
      case nn::LayerKind::kAvgPool2D:
        return {};  // never in a verified tail (Lemma 1): no radii
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
