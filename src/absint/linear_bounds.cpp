#include "absint/linear_bounds.hpp"

#include <algorithm>
#include <cmath>

#include "absint/box_domain.hpp"
#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/dense.hpp"

namespace dpv::absint {

double LinearForm::min_over(const Box& box) const {
  internal_check(coeffs.size() == box.size(), "LinearForm: box dimension mismatch");
  double acc = constant;
  for (std::size_t k = 0; k < coeffs.size(); ++k)
    acc += coeffs[k] >= 0.0 ? coeffs[k] * box[k].lo : coeffs[k] * box[k].hi;
  return acc;
}

double LinearForm::max_over(const Box& box) const {
  internal_check(coeffs.size() == box.size(), "LinearForm: box dimension mismatch");
  double acc = constant;
  for (std::size_t k = 0; k < coeffs.size(); ++k)
    acc += coeffs[k] >= 0.0 ? coeffs[k] * box[k].hi : coeffs[k] * box[k].lo;
  return acc;
}

LinearBounds LinearBounds::from_box(const Box& box) {
  LinearBounds state;
  state.input_box_ = box;
  const std::size_t n = box.size();
  state.lower_.resize(n);
  state.upper_.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    state.lower_[i].coeffs.assign(n, 0.0);
    state.lower_[i].coeffs[i] = 1.0;
    state.upper_[i] = state.lower_[i];
  }
  state.concrete_ = box;
  return state;
}

void LinearBounds::refresh_concrete() {
  concrete_.resize(lower_.size());
  for (std::size_t i = 0; i < lower_.size(); ++i) {
    const double lo = lower_[i].min_over(input_box_);
    const double hi = upper_[i].max_over(input_box_);
    concrete_[i] = Interval(std::min(lo, hi), std::max(lo, hi));
  }
}

LinearBounds LinearBounds::affine(const std::vector<std::vector<double>>& weight,
                                  const std::vector<double>& bias) const {
  const std::size_t out_n = weight.size();
  check(out_n == bias.size(), "LinearBounds::affine: weight/bias mismatch");
  const std::size_t in_n = lower_.size();
  const std::size_t x_n = input_box_.size();

  LinearBounds out;
  out.input_box_ = input_box_;
  out.lower_.resize(out_n);
  out.upper_.resize(out_n);
  for (std::size_t r = 0; r < out_n; ++r) {
    check(weight[r].size() == in_n, "LinearBounds::affine: weight width mismatch");
    LinearForm lo{std::vector<double>(x_n, 0.0), bias[r]};
    LinearForm hi{std::vector<double>(x_n, 0.0), bias[r]};
    for (std::size_t c = 0; c < in_n; ++c) {
      const double w = weight[r][c];
      if (w == 0.0) continue;
      // Positive weights propagate lower->lower, negative swap roles.
      const LinearForm& lo_src = w >= 0.0 ? lower_[c] : upper_[c];
      const LinearForm& hi_src = w >= 0.0 ? upper_[c] : lower_[c];
      for (std::size_t k = 0; k < x_n; ++k) {
        lo.coeffs[k] += w * lo_src.coeffs[k];
        hi.coeffs[k] += w * hi_src.coeffs[k];
      }
      lo.constant += w * lo_src.constant;
      hi.constant += w * hi_src.constant;
    }
    out.lower_[r] = std::move(lo);
    out.upper_[r] = std::move(hi);
  }
  out.refresh_concrete();
  return out;
}

LinearBounds LinearBounds::scale_shift(const std::vector<double>& scale,
                                       const std::vector<double>& shift) const {
  const std::size_t n = lower_.size();
  check(scale.size() == n && shift.size() == n, "LinearBounds::scale_shift: size mismatch");
  LinearBounds out = *this;
  for (std::size_t i = 0; i < n; ++i) {
    if (scale[i] < 0.0) std::swap(out.lower_[i], out.upper_[i]);
    for (double& c : out.lower_[i].coeffs) c *= scale[i];
    for (double& c : out.upper_[i].coeffs) c *= scale[i];
    out.lower_[i].constant = out.lower_[i].constant * scale[i] + shift[i];
    out.upper_[i].constant = out.upper_[i].constant * scale[i] + shift[i];
  }
  out.refresh_concrete();
  return out;
}

LinearBounds LinearBounds::relu() const {
  const std::size_t n = lower_.size();
  const std::size_t x_n = input_box_.size();
  LinearBounds out = *this;
  for (std::size_t i = 0; i < n; ++i) {
    const double lo = concrete_[i].lo;
    const double hi = concrete_[i].hi;
    if (lo >= 0.0) continue;  // identity
    if (hi <= 0.0) {          // constantly zero
      out.lower_[i] = LinearForm{std::vector<double>(x_n, 0.0), 0.0};
      out.upper_[i] = out.lower_[i];
      continue;
    }
    // Unstable: upper = chord lambda*(u(x) - lo); lower = 0 or identity,
    // whichever halves the triangle area (DeepPoly's heuristic).
    const double lambda = hi / (hi - lo);
    LinearForm upper = upper_[i];
    for (double& c : upper.coeffs) c *= lambda;
    upper.constant = lambda * (upper.constant - lo);
    out.upper_[i] = std::move(upper);
    if (hi < -lo) {
      out.lower_[i] = LinearForm{std::vector<double>(x_n, 0.0), 0.0};
    }
    // else keep the identity lower form lower_[i].
  }
  out.refresh_concrete();
  // Post-ReLU values are non-negative regardless of the lower form.
  for (std::size_t i = 0; i < n; ++i)
    out.concrete_[i] =
        Interval(std::max(out.concrete_[i].lo, 0.0), std::max(out.concrete_[i].hi, 0.0));
  return out;
}

void LinearBounds::clamp_concrete(const Box& box) {
  check(box.size() == concrete_.size(), "LinearBounds::clamp_concrete: size mismatch");
  for (std::size_t i = 0; i < concrete_.size(); ++i) {
    const double lo = std::max(concrete_[i].lo, box[i].lo);
    const double hi = std::min(concrete_[i].hi, box[i].hi);
    concrete_[i] = Interval(std::min(lo, hi), std::max(lo, hi));
  }
}

std::vector<Box> symbolic_bounds_trace(const nn::Network& net, const Box& input_box,
                                       std::size_t from_layer, std::size_t to_layer) {
  check(from_layer <= to_layer && to_layer <= net.layer_count(),
        "symbolic_bounds_trace: invalid layer range");
  LinearBounds state = LinearBounds::from_box(input_box);
  Box interval_box = input_box;
  std::vector<Box> trace;
  trace.reserve(to_layer - from_layer);
  for (std::size_t i = from_layer; i < to_layer; ++i) {
    const nn::Layer& layer = net.layer(i);
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
        state = state.affine(weight, bias);
        break;
      }
      case nn::LayerKind::kBatchNorm: {
        const auto& bn = static_cast<const nn::BatchNorm&>(layer);
        const std::size_t n = bn.input_shape().dim(0);
        std::vector<double> scale(n), shift(n);
        for (std::size_t f = 0; f < n; ++f) {
          scale[f] = bn.effective_scale(f);
          shift[f] = bn.effective_shift(f);
        }
        state = state.scale_shift(scale, shift);
        break;
      }
      case nn::LayerKind::kReLU:
        state = state.relu();
        break;
      case nn::LayerKind::kFlatten:
        break;
      default:
        throw ContractViolation("symbolic_bounds_trace: unsupported layer kind '" +
                                nn::layer_kind_name(layer.kind()) + "' in verified tail");
    }
    // Intersect with interval propagation: never looser than the box
    // domain; the symbolic state and the interval box both benefit, which
    // sharpens later ReLU phase decisions.
    interval_box = propagate_box(layer, interval_box);
    Box merged(state.concrete().size());
    for (std::size_t k = 0; k < merged.size(); ++k) {
      const double lo = std::max(state.concrete()[k].lo, interval_box[k].lo);
      const double hi = std::min(state.concrete()[k].hi, interval_box[k].hi);
      merged[k] = Interval(std::min(lo, hi), std::max(lo, hi));
    }
    interval_box = merged;
    state.clamp_concrete(merged);
    trace.push_back(merged);
  }
  return trace;
}

}  // namespace dpv::absint
