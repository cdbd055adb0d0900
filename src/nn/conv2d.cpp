#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"

namespace dpv::nn {

namespace {
std::size_t conv_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                        std::size_t padding) {
  check(kernel > 0 && stride > 0, "Conv2D: dimensions must be positive");
  check(in + 2 * padding >= kernel, "Conv2D: kernel larger than padded input");
  return (in + 2 * padding - kernel) / stride + 1;
}
}  // namespace

Conv2D::Conv2D(std::size_t in_channels, std::size_t in_height, std::size_t in_width,
               std::size_t out_channels, std::size_t kernel, std::size_t stride,
               std::size_t padding)
    : Layer(in_channels * in_height * in_width,
            out_channels * conv_extent(in_height, kernel, stride, padding) *
                conv_extent(in_width, kernel, stride, padding)),
      in_channels_(in_channels),
      in_height_(in_height),
      in_width_(in_width),
      out_channels_(out_channels),
      out_height_(conv_extent(in_height, kernel, stride, padding)),
      out_width_(conv_extent(in_width, kernel, stride, padding)),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      col_spans_(kernel),
      weight_(Shape{out_channels * in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  check(in_channels > 0 && out_channels > 0, "Conv2D: dimensions must be positive");
  for (std::size_t kc = 0; kc < kernel_; ++kc) {
    TapSpan& span = col_spans_[kc];
    span.first = std::min(out_width_, kc >= padding_ ? 0 : (padding_ - kc + stride_ - 1) / stride_);
    span.last = in_width_ + padding_ > kc
                    ? std::min(out_width_, (in_width_ + padding_ - kc - 1) / stride_ + 1)
                    : 0;
    span.last = std::max(span.first, span.last);
  }
}

Conv2D::TapSpan Conv2D::real_taps(std::size_t start, std::size_t extent) const {
  const std::size_t first = start >= padding_ ? 0 : std::min(kernel_, padding_ - start);
  const std::size_t last =
      start < extent + padding_ ? std::min(kernel_, extent + padding_ - start) : 0;
  return {first, std::max(first, last)};
}

void Conv2D::init_he(Rng& rng) {
  const double fan_in = static_cast<double>(in_channels_ * kernel_ * kernel_);
  weight_ = Tensor::randn(weight_.shape(), rng, std::sqrt(2.0 / fan_in));
  bias_.fill(0.0);
}

void Conv2D::set_parameters(Tensor weight, Tensor bias) {
  check(weight.numel() == weight_.numel(), "Conv2D::set_parameters: weight size mismatch");
  check(bias.numel() == bias_.numel(), "Conv2D::set_parameters: bias size mismatch");
  weight_ = weight.reshaped(weight_.shape());
  bias_ = bias.reshaped(bias_.shape());
}

std::vector<ParamRef> Conv2D::params() {
  return {{"weight", &weight_, &weight_grad_}, {"bias", &bias_, &bias_grad_}};
}

std::unique_ptr<Layer> Conv2D::clone() const {
  auto copy = std::make_unique<Conv2D>(in_channels_, in_height_, in_width_, out_channels_,
                                       kernel_, stride_, padding_);
  copy->weight_ = weight_;
  copy->bias_ = bias_;
  return copy;
}

void Conv2D::forward_row(const double* x, double* y) const {
  // Every output is its bias, then one fused multiply-add per tap in
  // ic -> kr -> kc order (std::fma or an FMA lane: the same bits). Taps
  // that land in the zero padding are skipped. At stride 1 the columns
  // whose taps all read real input run along the row, one output channel
  // at a time; every other column runs across the output channels.
  const double* w = weight_.data().data();
  const double* bias = bias_.data().data();
  // At stride 1, output columns [padding, out_width - padding) read no padding.
  const bool blocked = stride_ == 1 && 2 * padding_ < out_width_;
  const std::size_t interior_first = blocked ? padding_ : out_width_;
  const std::size_t interior_last = blocked ? out_width_ - padding_ : out_width_;
  const std::size_t out_plane = out_height_ * out_width_;
  const std::size_t w_channel = in_channels_ * kernel_ * kernel_;
  simd::TapGrid grid;
  grid.planes = in_channels_;
  grid.w_plane = kernel_ * kernel_;
  grid.w_row = kernel_;
  grid.x_plane = in_height_ * in_width_;
  grid.x_row = in_width_;
  for (std::size_t orow = 0; orow < out_height_; ++orow) {
    double* yrow = y + orow * out_width_;
    const std::size_t top = orow * stride_;
    const TapSpan rows = real_taps(top, in_height_);
    if (rows.first == rows.last) {
      for (std::size_t oc = 0; oc < out_channels_; ++oc)
        std::fill(yrow + oc * out_plane, yrow + oc * out_plane + out_width_, bias[oc]);
      continue;
    }
    grid.rows = rows.last - rows.first;
    const double* wtap = w + rows.first * kernel_;
    const double* xrow = x + (top + rows.first - padding_) * in_width_;
    for (std::size_t o = 0; o < out_width_;) {
      if (o == interior_first) {
        grid.cols = kernel_;
        for (std::size_t oc = 0; oc < out_channels_; ++oc)
          simd::fma_taps(wtap + oc * w_channel, xrow + (o - padding_), grid, bias[oc],
                         yrow + oc * out_plane + o, interior_last - o);
        o = interior_last;
        continue;
      }
      const std::size_t left = o * stride_;
      const TapSpan cols = real_taps(left, in_width_);
      grid.cols = cols.last - cols.first;
      if (grid.cols == 0) {
        for (std::size_t oc = 0; oc < out_channels_; ++oc) yrow[oc * out_plane + o] = bias[oc];
      } else {
        simd::fma_taps_shared_input(wtap + cols.first, w_channel,
                                    xrow + (left + cols.first - padding_), grid, bias, yrow + o,
                                    out_plane, out_channels_);
      }
      ++o;
    }
  }
}

void Conv2D::input_grad_row(const double* /*x*/, const double* g, double* gx) const {
  // Every input cell takes its taps in the order of the per-output loop
  // (oc, output row, output column): kernel columns run right to left, so
  // one input column meets its output columns left to right. Each product
  // is rounded before the add (unfused).
  std::fill(gx, gx + input_size(), 0.0);
  const double* w = weight_.data().data();
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      const double* grow = g + (oc * out_height_ + orow) * out_width_;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t kr = 0; kr < kernel_; ++kr) {
          const std::size_t padded_r = orow * stride_ + kr;
          if (padded_r < padding_ || padded_r - padding_ >= in_height_) continue;
          double* gxrow = gx + (ic * in_height_ + padded_r - padding_) * in_width_;
          const double* wrow = w + ((oc * in_channels_ + ic) * kernel_ + kr) * kernel_;
          for (std::size_t kc = kernel_; kc-- > 0;) {
            const TapSpan span = col_spans_[kc];
            const double wv = wrow[kc];
            for (std::size_t o = span.first; o < span.last; ++o)
              gxrow[o * stride_ + kc - padding_] += simd::rounded(grow[o] * wv);
          }
        }
      }
    }
  }
}

void Conv2D::accumulate_param_grads(const double* x, const double* g) {
  // dW += g * x tap by tap; every weight takes its output positions in
  // order (output row, then column), fused where the compiler fuses
  // `acc += g * x`. The kernel-column loop is innermost, so each step
  // updates distinct weights, never a sum the vectorizer could reorder.
  double* wg = weight_grad_.data().data();
  const std::size_t out_plane = out_height_ * out_width_;
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    const double* gplane = g + oc * out_plane;
    for (std::size_t o = 0; o < out_plane; ++o) bias_grad_[oc] += gplane[o];
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      const double* grow = gplane + orow * out_width_;
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t kr = 0; kr < kernel_; ++kr) {
          const std::size_t padded_r = orow * stride_ + kr;
          if (padded_r < padding_ || padded_r - padding_ >= in_height_) continue;
          const double* xrow = x + (ic * in_height_ + padded_r - padding_) * in_width_;
          double* wgrow = wg + ((oc * in_channels_ + ic) * kernel_ + kr) * kernel_;
          for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
            const std::size_t padded_c = ocol * stride_;
            const TapSpan cols = real_taps(padded_c, in_width_);
            const double gv = grow[ocol];
            for (std::size_t kc = cols.first; kc < cols.last; ++kc)
              wgrow[kc] += gv * xrow[padded_c + kc - padding_];
          }
        }
      }
    }
  }
}

}  // namespace dpv::nn
