#include "nn/pool2d.hpp"

#include <algorithm>
#include <limits>

#include "common/check.hpp"
#include "common/simd.hpp"

namespace dpv::nn {

namespace {
/// Output extent of one axis; checks the window before dividing by it.
std::size_t pooled_extent(std::size_t in, std::size_t window) {
  check(window > 0, "Pool2D: window must be positive");
  check(in % window == 0, "Pool2D: input extents must be divisible by the window");
  return in / window;
}
}  // namespace

Pool2D::Pool2D(std::size_t channels, std::size_t in_height, std::size_t in_width,
               std::size_t window)
    : Layer(channels * in_height * in_width,
            channels * pooled_extent(in_height, window) * pooled_extent(in_width, window)),
      channels_(channels),
      in_height_(in_height),
      in_width_(in_width),
      out_height_(in_height / window),
      out_width_(in_width / window),
      window_(window) {}

void MaxPool2D::forward_row(const double* x, double* y) const {
  // Output row r (over all channels) reads input rows r * window onward.
  for (std::size_t r = 0; r < channels_ * out_height_; ++r)
    simd::window_max(x + r * window_ * in_width_, window_, in_width_, y + r * out_width_,
                     out_width_);
}

void MaxPool2D::input_grad_row(const double* x, const double* g, double* gx) const {
  // Recomputes the argmax from `x`; ties resolve to the first window cell.
  std::fill(gx, gx + input_size(), 0.0);
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t wr = 0; wr < window_; ++wr) {
          const std::size_t base = (c * in_height_ + orow * window_ + wr) * in_width_;
          for (std::size_t wc = 0; wc < window_; ++wc) {
            const std::size_t idx = base + ocol * window_ + wc;
            if (x[idx] > best) {
              best = x[idx];
              best_idx = idx;
            }
          }
        }
        gx[best_idx] += *g++;
      }
}

std::unique_ptr<Layer> MaxPool2D::clone() const {
  return std::make_unique<MaxPool2D>(channels_, in_height_, in_width_, window_);
}

void AvgPool2D::forward_row(const double* x, double* y) const {
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol) {
        const double* window = x + (c * in_height_ + orow * window_) * in_width_ + ocol * window_;
        double acc = 0.0;
        for (std::size_t wr = 0; wr < window_; ++wr, window += in_width_)
          for (std::size_t wc = 0; wc < window_; ++wc) acc += window[wc];
        *y++ = acc * inv_area;
      }
}

void AvgPool2D::input_grad_row(const double* /*x*/, const double* g, double* gx) const {
  // Every input cell lies in exactly one window: gx = 0.0 + g * inv_area.
  std::fill(gx, gx + input_size(), 0.0);
  const double inv_area = 1.0 / static_cast<double>(window_ * window_);
  for (std::size_t c = 0; c < channels_; ++c)
    for (std::size_t orow = 0; orow < out_height_; ++orow)
      for (std::size_t ocol = 0; ocol < out_width_; ++ocol, ++g)
        for (std::size_t wr = 0; wr < window_; ++wr) {
          double* row = gx + (c * in_height_ + orow * window_ + wr) * in_width_ + ocol * window_;
          for (std::size_t wc = 0; wc < window_; ++wc) row[wc] += *g * inv_area;
        }
}

std::unique_ptr<Layer> AvgPool2D::clone() const {
  return std::make_unique<AvgPool2D>(channels_, in_height_, in_width_, window_);
}

}  // namespace dpv::nn
