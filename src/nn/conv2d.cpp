#include "nn/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dpv::nn {

namespace {
std::size_t conv_extent(std::size_t in, std::size_t kernel, std::size_t stride,
                        std::size_t padding) {
  check(in + 2 * padding >= kernel, "Conv2D: kernel larger than padded input");
  return (in + 2 * padding - kernel) / stride + 1;
}

/// Output positions [first, last) along one axis whose tap `k` reads a real
/// input coordinate o * stride + k - padding in [0, in) rather than padding.
struct TapSpan {
  std::size_t first = 0;
  std::size_t last = 0;
};

TapSpan tap_span(std::size_t in, std::size_t out, std::size_t stride, std::size_t padding,
                 std::size_t k) {
  TapSpan span;
  span.first = std::min(out, k >= padding ? 0 : (padding - k + stride - 1) / stride);
  span.last = in + padding > k ? std::min(out, (in + padding - k - 1) / stride + 1) : 0;
  span.last = std::max(span.first, span.last);
  return span;
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
    : in_channels_(in_channels),
      in_height_(in_height),
      in_width_(in_width),
      out_channels_(out_channels),
      out_height_(conv_extent(in_height, kernel, stride, padding)),
      out_width_(conv_extent(in_width, kernel, stride, padding)),
      kernel_(kernel),
      stride_(stride),
      padding_(padding),
      weight_(Shape{out_channels * in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      weight_grad_(weight_.shape()),
      bias_grad_(bias_.shape()) {
  check(in_channels > 0 && out_channels > 0 && kernel > 0 && stride > 0,
        "Conv2D: dimensions must be positive");
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

Tensor Conv2D::forward(const Tensor& x) const {
  check(x.numel() == in_channels_ * in_height_ * in_width_, "Conv2D::forward: input size mismatch");
  Tensor y(output_shape());
  const double* in = x.data().data();
  const double* w = weight_.data().data();
  double* out = y.data().data();
  // Row by row: every output keeps the accumulation order bias, then
  // ic -> kr -> kc, one multiply-add per tap. Taps that land in the zero
  // padding are skipped; each would add an exact w * 0.0.
  std::vector<TapSpan> col_spans(kernel_);
  for (std::size_t kc = 0; kc < kernel_; ++kc)
    col_spans[kc] = tap_span(in_width_, out_width_, stride_, padding_, kc);
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      double* yrow = out + (oc * out_height_ + orow) * out_width_;
      std::fill(yrow, yrow + out_width_, bias_[oc]);
      for (std::size_t ic = 0; ic < in_channels_; ++ic) {
        for (std::size_t kr = 0; kr < kernel_; ++kr) {
          const std::size_t padded_r = orow * stride_ + kr;
          if (padded_r < padding_ || padded_r - padding_ >= in_height_) continue;
          const double* xrow = in + (ic * in_height_ + padded_r - padding_) * in_width_;
          const double* wrow = w + ((oc * in_channels_ + ic) * kernel_ + kr) * kernel_;
          for (std::size_t kc = 0; kc < kernel_; ++kc) {
            const TapSpan span = col_spans[kc];
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
  return y;
}

Tensor Conv2D::backward_input(const Tensor& /*x*/, const Tensor& grad_out_in) const {
  const Tensor grad_out =
      grad_out_in.shape().rank() == 3 ? grad_out_in : grad_out_in.reshaped(output_shape());
  Tensor gx(input_shape());
  const std::size_t k2 = kernel_ * kernel_;
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        const double g = grad_out.at3(oc, orow, ocol);
        if (g == 0.0) continue;
        const long base_r = static_cast<long>(orow * stride_) - static_cast<long>(padding_);
        const long base_c = static_cast<long>(ocol * stride_) - static_cast<long>(padding_);
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          const std::size_t wbase = (oc * in_channels_ + ic) * k2;
          for (std::size_t kr = 0; kr < kernel_; ++kr) {
            for (std::size_t kc = 0; kc < kernel_; ++kc) {
              const long r = base_r + static_cast<long>(kr);
              const long c = base_c + static_cast<long>(kc);
              if (r < 0 || c < 0 || r >= static_cast<long>(in_height_) ||
                  c >= static_cast<long>(in_width_))
                continue;
              gx.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c)) +=
                  g * weight_[wbase + kr * kernel_ + kc];
            }
          }
        }
      }
    }
  }
  return gx;
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

Tensor Conv2D::forward_train(const Tensor& x, std::size_t slot) {
  cached_inputs_[slot] = x.shape().rank() == 3 ? x : x.reshaped(input_shape());
  return forward(x);
}

Tensor Conv2D::backward_sample(const Tensor& grad_out_in, std::size_t slot) {
  const Tensor& x = cached_inputs_[slot];
  const Tensor grad_out =
      grad_out_in.shape().rank() == 3 ? grad_out_in : grad_out_in.reshaped(output_shape());
  Tensor gx(input_shape());
  const std::size_t k2 = kernel_ * kernel_;
  for (std::size_t oc = 0; oc < out_channels_; ++oc) {
    for (std::size_t orow = 0; orow < out_height_; ++orow) {
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        const double g = grad_out.at3(oc, orow, ocol);
        bias_grad_[oc] += g;
        const long base_r = static_cast<long>(orow * stride_) - static_cast<long>(padding_);
        const long base_c = static_cast<long>(ocol * stride_) - static_cast<long>(padding_);
        for (std::size_t ic = 0; ic < in_channels_; ++ic) {
          const std::size_t wbase = (oc * in_channels_ + ic) * k2;
          for (std::size_t kr = 0; kr < kernel_; ++kr) {
            for (std::size_t kc = 0; kc < kernel_; ++kc) {
              const long r = base_r + static_cast<long>(kr);
              const long c = base_c + static_cast<long>(kc);
              if (r < 0 || c < 0 || r >= static_cast<long>(in_height_) ||
                  c >= static_cast<long>(in_width_))
                continue;
              const std::size_t widx = wbase + kr * kernel_ + kc;
              weight_grad_[widx] +=
                  g * x.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c));
              gx.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c)) +=
                  g * weight_[widx];
            }
          }
        }
      }
    }
  }
  return gx;
}

void Conv2D::prepare_cache(std::size_t batch_size) { cached_inputs_.resize(batch_size); }

}  // namespace dpv::nn
