#include "nn/diff.hpp"

#include <cmath>
#include <cstring>

#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool2d.hpp"

namespace dpv::nn {

namespace {

/// Bitwise double equality: the diff must agree with the fingerprint,
/// which hashes bit patterns (so -0.0 != +0.0 and NaN payloads count).
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool same_structure(const Layer& a, const Layer& b) {
  if (a.kind() != b.kind()) return false;
  if (!(a.input_shape() == b.input_shape())) return false;
  if (!(a.output_shape() == b.output_shape())) return false;
  switch (a.kind()) {
    case LayerKind::kBatchNorm:
      return same_bits(static_cast<const BatchNorm&>(a).eps(),
                       static_cast<const BatchNorm&>(b).eps());
    case LayerKind::kConv2D: {
      const auto& ca = static_cast<const Conv2D&>(a);
      const auto& cb = static_cast<const Conv2D&>(b);
      return ca.kernel() == cb.kernel() && ca.stride() == cb.stride() &&
             ca.padding() == cb.padding();
    }
    case LayerKind::kMaxPool2D:
    case LayerKind::kAvgPool2D:
      return static_cast<const Pool2D&>(a).window() ==
             static_cast<const Pool2D&>(b).window();
    default:
      return true;  // Dense shapes fix everything; ReLU/Flatten stateless
  }
}

void diff_dense(const Dense& base, const Dense& upd, LayerDelta& d) {
  const Tensor& wb = base.weight();
  const Tensor& wu = upd.weight();
  const std::size_t out = wb.shape().dim(0);
  const std::size_t in = wb.shape().dim(1);
  for (std::size_t i = 0; i < out; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < in; ++j) {
      const double bv = wb[i * in + j];
      const double uv = wu[i * in + j];
      if (!same_bits(bv, uv)) d.changed = true;
      const double a = std::fabs(uv - bv);
      row_sum += a;
      if (a > d.max_abs) d.max_abs = a;
    }
    if (row_sum > d.weight_row_sum) d.weight_row_sum = row_sum;
    const double bb = base.bias()[i];
    const double ub = upd.bias()[i];
    if (!same_bits(bb, ub)) d.changed = true;
    const double ab = std::fabs(ub - bb);
    if (ab > d.bias_abs) d.bias_abs = ab;
    if (ab > d.max_abs) d.max_abs = ab;
  }
}

/// BatchNorm is compared through its frozen affine form — effective
/// scale/shift are what both the encoder and tail_fingerprint consume,
/// so gamma/running_var changes that cancel in the effective transform
/// count as "unchanged" here exactly as they do in the fingerprint.
void diff_batchnorm(const BatchNorm& base, const BatchNorm& upd, LayerDelta& d) {
  const std::size_t n = base.input_shape().dim(0);
  for (std::size_t i = 0; i < n; ++i) {
    const double sb = base.effective_scale(i);
    const double su = upd.effective_scale(i);
    const double hb = base.effective_shift(i);
    const double hu = upd.effective_shift(i);
    if (!same_bits(sb, su) || !same_bits(hb, hu)) d.changed = true;
    const double ds = std::fabs(su - sb);
    const double dh = std::fabs(hu - hb);
    if (ds > d.weight_row_sum) d.weight_row_sum = ds;
    if (dh > d.bias_abs) d.bias_abs = dh;
    if (ds > d.max_abs) d.max_abs = ds;
    if (dh > d.max_abs) d.max_abs = dh;
  }
}

void diff_conv(const Conv2D& base, const Conv2D& upd, LayerDelta& d) {
  const Tensor& wb = base.weight();
  const Tensor& wu = upd.weight();
  // Weight holds [out_c, in_c, k, k] flat, so the bias gives out_c; one
  // output channel's kernel slides over every position, so Σ|Δ| over
  // its kernel is that channel's ∞-operator row sum.
  const std::size_t out_c = base.bias().numel();
  const std::size_t per_channel = wb.numel() / out_c;
  for (std::size_t o = 0; o < out_c; ++o) {
    double row_sum = 0.0;
    for (std::size_t k = 0; k < per_channel; ++k) {
      const double bv = wb[o * per_channel + k];
      const double uv = wu[o * per_channel + k];
      if (!same_bits(bv, uv)) d.changed = true;
      const double a = std::fabs(uv - bv);
      row_sum += a;
      if (a > d.max_abs) d.max_abs = a;
    }
    if (row_sum > d.weight_row_sum) d.weight_row_sum = row_sum;
    const double bb = base.bias()[o];
    const double ub = upd.bias()[o];
    if (!same_bits(bb, ub)) d.changed = true;
    const double ab = std::fabs(ub - bb);
    if (ab > d.bias_abs) d.bias_abs = ab;
    if (ab > d.max_abs) d.max_abs = ab;
  }
}

}  // namespace

NetworkDiff diff_networks(const Network& base, const Network& updated) {
  NetworkDiff diff;
  if (base.layer_count() != updated.layer_count()) return diff;
  const std::size_t count = base.layer_count();
  for (std::size_t l = 0; l < count; ++l)
    if (!same_structure(base.layer(l), updated.layer(l))) return diff;

  diff.structurally_identical = true;
  diff.first_changed_layer = count;
  diff.layers.reserve(count);
  for (std::size_t l = 0; l < count; ++l) {
    LayerDelta d;
    d.layer = l;
    const Layer& a = base.layer(l);
    const Layer& b = updated.layer(l);
    switch (a.kind()) {
      case LayerKind::kDense:
        diff_dense(static_cast<const Dense&>(a), static_cast<const Dense&>(b), d);
        break;
      case LayerKind::kBatchNorm:
        diff_batchnorm(static_cast<const BatchNorm&>(a), static_cast<const BatchNorm&>(b), d);
        break;
      case LayerKind::kConv2D:
        diff_conv(static_cast<const Conv2D&>(a), static_cast<const Conv2D&>(b), d);
        break;
      default:
        break;  // stateless: never changed
    }
    if (d.changed) {
      ++diff.changed_layers;
      if (diff.first_changed_layer == count) diff.first_changed_layer = l;
      if (d.max_abs > diff.max_abs) diff.max_abs = d.max_abs;
    }
    diff.layers.push_back(d);
  }
  return diff;
}

}  // namespace dpv::nn
