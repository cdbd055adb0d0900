#include "absint/box_domain.hpp"

#include <cmath>

#include "common/check.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/pool2d.hpp"

namespace dpv::absint {

namespace {

Box dense_box(const nn::Dense& layer, const Box& in) {
  const std::size_t out_n = layer.output_shape().numel();
  const std::size_t in_n = layer.input_shape().numel();
  Box out(out_n);
  for (std::size_t r = 0; r < out_n; ++r) {
    Interval acc(layer.bias()[r], layer.bias()[r]);
    for (std::size_t c = 0; c < in_n; ++c) acc = acc + scale(in[c], layer.weight().at2(r, c));
    out[r] = acc;
  }
  return out;
}

Box batchnorm_box(const nn::BatchNorm& layer, const Box& in) {
  Box out(in.size());
  for (std::size_t i = 0; i < in.size(); ++i)
    out[i] = shift(scale(in[i], layer.effective_scale(i)), layer.effective_shift(i));
  return out;
}

Box conv_box(const nn::Conv2D& layer, const Box& in) {
  // Interval version of Conv2D::forward; zero padding contributes the
  // degenerate interval [0, 0].
  const Shape in_shape = layer.input_shape();
  const Shape out_shape = layer.output_shape();
  const std::size_t in_ch = in_shape.dim(0), in_h = in_shape.dim(1), in_w = in_shape.dim(2);
  const std::size_t out_ch = out_shape.dim(0), out_h = out_shape.dim(1),
                    out_w = out_shape.dim(2);
  const std::size_t k = layer.kernel(), k2 = k * k;
  Box out(out_shape.numel());
  for (std::size_t oc = 0; oc < out_ch; ++oc)
    for (std::size_t orow = 0; orow < out_h; ++orow)
      for (std::size_t ocol = 0; ocol < out_w; ++ocol) {
        Interval acc(layer.bias()[oc], layer.bias()[oc]);
        const long base_r =
            static_cast<long>(orow * layer.stride()) - static_cast<long>(layer.padding());
        const long base_c =
            static_cast<long>(ocol * layer.stride()) - static_cast<long>(layer.padding());
        for (std::size_t ic = 0; ic < in_ch; ++ic) {
          const std::size_t wbase = (oc * in_ch + ic) * k2;
          for (std::size_t kr = 0; kr < k; ++kr)
            for (std::size_t kc = 0; kc < k; ++kc) {
              const long r = base_r + static_cast<long>(kr);
              const long c = base_c + static_cast<long>(kc);
              if (r < 0 || c < 0 || r >= static_cast<long>(in_h) || c >= static_cast<long>(in_w))
                continue;
              const std::size_t in_idx =
                  (ic * in_h + static_cast<std::size_t>(r)) * in_w + static_cast<std::size_t>(c);
              acc = acc + scale(in[in_idx], layer.weight()[wbase + kr * k + kc]);
            }
        }
        out[(oc * out_h + orow) * out_w + ocol] = acc;
      }
  return out;
}

Box maxpool_box(const nn::MaxPool2D& layer, const Box& in) {
  const Shape in_shape = layer.input_shape();
  const Shape out_shape = layer.output_shape();
  const std::size_t ch = in_shape.dim(0), in_h = in_shape.dim(1), in_w = in_shape.dim(2);
  const std::size_t out_h = out_shape.dim(1), out_w = out_shape.dim(2);
  const std::size_t win = layer.window();
  Box out(out_shape.numel());
  for (std::size_t c = 0; c < ch; ++c)
    for (std::size_t orow = 0; orow < out_h; ++orow)
      for (std::size_t ocol = 0; ocol < out_w; ++ocol) {
        Interval acc;
        bool first = true;
        for (std::size_t wr = 0; wr < win; ++wr)
          for (std::size_t wc = 0; wc < win; ++wc) {
            const std::size_t idx =
                (c * in_h + orow * win + wr) * in_w + ocol * win + wc;
            if (first) {
              acc = in[idx];
              first = false;
            } else {
              // max of intervals: [max(lo), max(hi)]
              acc = Interval(std::max(acc.lo, in[idx].lo), std::max(acc.hi, in[idx].hi));
            }
          }
        out[(c * out_h + orow) * out_w + ocol] = acc;
      }
  return out;
}

Box avgpool_box(const nn::AvgPool2D& layer, const Box& in) {
  const Shape in_shape = layer.input_shape();
  const Shape out_shape = layer.output_shape();
  const std::size_t ch = in_shape.dim(0), in_h = in_shape.dim(1), in_w = in_shape.dim(2);
  const std::size_t out_h = out_shape.dim(1), out_w = out_shape.dim(2);
  const std::size_t win = layer.window();
  const double inv_area = 1.0 / static_cast<double>(win * win);
  Box out(out_shape.numel());
  for (std::size_t c = 0; c < ch; ++c)
    for (std::size_t orow = 0; orow < out_h; ++orow)
      for (std::size_t ocol = 0; ocol < out_w; ++ocol) {
        Interval acc(0.0, 0.0);
        for (std::size_t wr = 0; wr < win; ++wr)
          for (std::size_t wc = 0; wc < win; ++wc)
            acc = acc + in[(c * in_h + orow * win + wr) * in_w + ocol * win + wc];
        out[(c * out_h + orow) * out_w + ocol] = scale(acc, inv_area);
      }
  return out;
}

}  // namespace

Box propagate_box(const nn::Layer& layer, const Box& in) {
  check(in.size() == layer.input_shape().numel(),
        "propagate_box: box dimension does not match layer input");
  switch (layer.kind()) {
    case nn::LayerKind::kDense:
      return dense_box(static_cast<const nn::Dense&>(layer), in);
    case nn::LayerKind::kReLU: {
      Box out(in.size());
      for (std::size_t i = 0; i < in.size(); ++i) out[i] = relu(in[i]);
      return out;
    }
    case nn::LayerKind::kBatchNorm:
      return batchnorm_box(static_cast<const nn::BatchNorm&>(layer), in);
    case nn::LayerKind::kConv2D:
      return conv_box(static_cast<const nn::Conv2D&>(layer), in);
    case nn::LayerKind::kMaxPool2D:
      return maxpool_box(static_cast<const nn::MaxPool2D&>(layer), in);
    case nn::LayerKind::kAvgPool2D:
      return avgpool_box(static_cast<const nn::AvgPool2D&>(layer), in);
    case nn::LayerKind::kFlatten:
      return in;  // reshape only
  }
  throw InternalError("propagate_box: unknown layer kind");
}

Box propagate_box_range(const nn::Network& net, Box box, std::size_t from_layer,
                        std::size_t to_layer) {
  check(from_layer <= to_layer && to_layer <= net.layer_count(),
        "propagate_box_range: invalid layer range");
  for (std::size_t i = from_layer; i < to_layer; ++i) box = propagate_box(net.layer(i), box);
  return box;
}

Box uniform_box(std::size_t dimensions, double lo, double hi) {
  return Box(dimensions, Interval(lo, hi));
}

}  // namespace dpv::absint
