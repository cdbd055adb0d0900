#include "nn/pool2d.hpp"

#include <limits>

#include "common/check.hpp"

namespace dpv::nn {

Pool2D::Pool2D(std::size_t channels, std::size_t in_height, std::size_t in_width,
               std::size_t window)
    : channels_(channels),
      in_height_(in_height),
      in_width_(in_width),
      out_height_(in_height / window),
      out_width_(in_width / window),
      window_(window) {
  check(window > 0, "Pool2D: window must be positive");
  check(in_height % window == 0 && in_width % window == 0,
        "Pool2D: input extents must be divisible by the window");
}

Tensor MaxPool2D::forward(const Tensor& x) const {
  check(x.numel() == channels_ * in_height_ * in_width_, "MaxPool2D::forward: input size mismatch");
  Tensor y(output_shape());
  const double* in = x.data().data();
  double* out = y.data().data();
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        const double* window = in + (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t wr = 0; wr < window_; ++wr, window += in_width_)
          for (std::size_t wc = 0; wc < window_; ++wc)
            if (window[wc] > best) best = window[wc];
        *out++ = best;
      }
  return y;
}

Tensor MaxPool2D::backward_input(const Tensor& x_in, const Tensor& grad_out) const {
  // Recomputes the argmax from `x` instead of reading the training cache;
  // ties resolve to the first window cell, matching forward_train.
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(input_shape());
  check(grad_out.numel() == channels_ * out_height_ * out_width_,
        "MaxPool2D::backward_input: gradient size mismatch");
  Tensor gx(input_shape());
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc) {
            const std::size_t r = orow * window_ + wr;
            const std::size_t col = ocol * window_ + wc;
            const double v = x.at3(c, r, col);
            if (v > best) {
              best = v;
              best_idx = (c * in_height_ + r) * in_width_ + col;
            }
          }
        gx[best_idx] += grad_out[out_idx];
      }
  return gx;
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(channels_, in_height_, in_width_, window_);
}

Tensor MaxPool2D::forward_train(const Tensor& x_in, std::size_t slot) {
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(input_shape());
  Tensor y(output_shape());
  auto& argmax = cached_argmax_[slot];
  argmax.assign(y.numel(), 0);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc) {
            const std::size_t r = orow * window_ + wr;
            const std::size_t col = ocol * window_ + wc;
            const double v = x.at3(c, r, col);
            if (v > best) {
              best = v;
              best_idx = (c * in_height_ + r) * in_width_ + col;
            }
          }
        y[out_idx] = best;
        argmax[out_idx] = best_idx;
      }
  return y;
}

Tensor MaxPool2D::backward_sample(const Tensor& grad_out, std::size_t slot) {
  Tensor gx(input_shape());
  const auto& argmax = cached_argmax_[slot];
  internal_check(grad_out.numel() == argmax.size(), "MaxPool2D: gradient size mismatch");
  for (std::size_t i = 0; i < argmax.size(); ++i) gx[argmax[i]] += grad_out[i];
  return gx;
}

void MaxPool2D::prepare_cache(std::size_t batch_size) { cached_argmax_.resize(batch_size); }

Tensor AvgPool2D::forward(const Tensor& x) const {
  check(x.numel() == channels_ * in_height_ * in_width_, "AvgPool2D::forward: input size mismatch");
  Tensor y(output_shape());
  const double* in = x.data().data();
  double* out = y.data().data();
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        const double* window = in + (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        double acc = 0.0;
        for (std::size_t wr = 0; wr < window_; ++wr, window += in_width_)
          for (std::size_t wc = 0; wc < window_; ++wc) acc += window[wc];
        *out++ = acc * inv_area;
      }
  return y;
}

Tensor AvgPool2D::backward_input(const Tensor& /*x*/, const Tensor& grad_out) const {
  check(grad_out.numel() == channels_ * out_height_ * out_width_,
        "AvgPool2D::backward_input: gradient size mismatch");
  Tensor gx(input_shape());
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx)
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc)
            gx.at3(c, orow * window_ + wr, ocol * window_ + wc) += grad_out[out_idx] * inv_area;
  return gx;
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(channels_, in_height_, in_width_, window_);
}

Tensor AvgPool2D::forward_train(const Tensor& x, std::size_t /*slot*/) { return forward(x); }

Tensor AvgPool2D::backward_sample(const Tensor& grad_out, std::size_t /*slot*/) {
  Tensor gx(input_shape());
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++out_idx)
        for (std::size_t wr = 0; wr < window_; ++wr)
          for (std::size_t wc = 0; wc < window_; ++wc)
            gx.at3(c, orow * window_ + wr, ocol * window_ + wc) += grad_out[out_idx] * inv_area;
  return gx;
}

void AvgPool2D::prepare_cache(std::size_t /*batch_size*/) {}

}  // namespace dpv::nn
