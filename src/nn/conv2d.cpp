#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dpv::nn {

namespace {
std::size_t conv_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                        std::size_t padding) {
  check(kernel > 0 && stride > 0, "Conv2D: dimensions must be positive");
  check(in + 2 * padding >= kernel, "Conv2D: kernel larger than padded input");
  return (in + 2 * padding - kernel) / stride + 1;
}

/// y[i] += a * x[i] as a plain loop: the compiler vectorizes it and fuses
/// the multiply-add exactly where it fuses a scalar `acc += w * x` (not in
/// unoptimized builds), which simd::axpy's always-fused intrinsics would not.
void row_axpy(double a, const double* x, double* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += a * x[i];
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
  const double* w = weight_.data().data();
  // Row by row: every output keeps the accumulation order bias, then
  // ic -> kr -> kc, one multiply-add per tap. Taps that land in the zero
  // padding are skipped; each would add an exact w * 0.0.
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      double* yrow = y + (oc * out_height_ + orow) * out_width_;
      std::fill(yrow, yrow + out_width_, bias_[oc]);
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t kr = 0; kr < kernel_; ++kr) {
          const std::size_t padded_r = orow * stride_ + kr;
          if (padded_r < padding_ || padded_r - padding_ >= in_height_) continue;
          const double* xrow = x + (ic * in_height_ + padded_r - padding_) * in_width_;
          const double* wrow = w + ((oc * in_channels_ + ic) * kernel_ + kr) * kernel_;
          for (std::size_t kc = 0; kc < kernel_; ++kc) {
            const TapSpan span = col_spans_[kc];
            if (span.first == span.last) continue;
            const double wv = wrow[kc];
            if (stride_ == 1) {
              row_axpy(wv, xrow + span.first + kc - padding_, yrow + span.first,
                       span.last - span.first);
            } else {
              for (std::size_t o = span.first; o < span.last; ++o)
                yrow[o] += wv * xrow[o * stride_ + kc - padding_];
            }
          }
        }
      }
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
              gxrow[o * stride_ + kc - padding_] += detail::rounded(grow[o] * wv);
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
            // Kernel columns whose padded column ocol * stride + kc is a real one.
            const std::size_t padded_c = ocol * stride_;
            const std::size_t kc_first = padded_c >= padding_ ? 0 : padding_ - padded_c;
            const std::size_t kc_last =
                padded_c < in_width_ + padding_
                    ? std::min(kernel_, in_width_ + padding_ - padded_c)
                    : 0;
            const double gv = grow[ocol];
            for (std::size_t kc = kc_first; kc < kc_last; ++kc)
              wgrow[kc] += gv * xrow[padded_c + kc - padding_];
          }
        }
      }
    }
  }
}

}  // namespace dpv::nn
