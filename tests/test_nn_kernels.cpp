// Bit-exact oracle for the nn inference kernels.
//
// Conv2D and MaxPool2D forward follow a written specification: each conv
// output is its bias, then one std::fma per tap in ic -> kr -> kc order,
// padded taps skipped; each max-pool output starts at -inf and takes its
// window's cells in row-major order as `if (v > best) best = v`. The
// other raw-pointer kernels (AvgPool2D forward, the activations, matvec,
// Dense::backward_input) must reproduce the checked per-element loops
// they replaced bit for bit: same accumulation order, and a multiply-add
// fused wherever the compiler fused the old one. The reference loops
// below are that specification and those loops, kept here as test-only
// oracles; every output element is compared by bit pattern, with no
// tolerance, once with the SIMD dispatch on and once forced scalar. Run
// it in an optimized and in an unoptimized build: the two fuse
// differently where the compiler decides. A hash of a testbed-shaped
// conv / max-pool stack pins the specified kernels to one committed
// value in every build, with or without the SIMD bodies.
// A second suite checks that every layer kind rejects a mis-sized tensor
// with ContractViolation before touching memory.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "data/perception_model.hpp"
#include "data/renderer.hpp"
#include "data/scenario.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::nn {
namespace {

// ---------------------------------------------------------------------------
// Reference loops: checked accessors, one element at a time.
// ---------------------------------------------------------------------------

Tensor ref_conv_forward(const Conv2D& conv, const Tensor& x_in) {
  const Shape in = conv.input_shape();
  const Shape out = conv.output_shape();
  const std::size_t in_channels = in.dim(0), in_height = in.dim(1), in_width = in.dim(2);
  const std::size_t out_channels = out.dim(0), out_height = out.dim(1), out_width = out.dim(2);
  const std::size_t kernel = conv.kernel(), stride = conv.stride(), padding = conv.padding();
  const Tensor& weight = conv.weight();
  const Tensor& bias = conv.bias();
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(in);
  Tensor y(out);
  const std::size_t k2 = kernel * kernel;
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    for (std::size_t orow = 0; orow < out_height; ++orow) {
      for (std::size_t ocol = 0; ocol < out_width; ++ocol) {
        double acc = bias[oc];
        const long base_r = static_cast<long>(orow * stride) - static_cast<long>(padding);
        const long base_c = static_cast<long>(ocol * stride) - static_cast<long>(padding);
        for (std::size_t ic = 0; ic < in_channels; ++ic) {
          const std::size_t wbase = (oc * in_channels + ic) * k2;
          for (std::size_t kr = 0; kr < kernel; ++kr)
            for (std::size_t kc = 0; kc < kernel; ++kc) {
              const long r = base_r + static_cast<long>(kr);
              const long c = base_c + static_cast<long>(kc);
              if (r < 0 || c < 0 || r >= static_cast<long>(in_height) ||
                  c >= static_cast<long>(in_width))
                continue;  // a padded tap
              acc = std::fma(weight[wbase + kr * kernel + kc],
                             x.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c)),
                             acc);
            }
        }
        y.at3(oc, orow, ocol) = acc;
      }
    }
  }
  return y;
}

Tensor ref_maxpool_forward(const MaxPool2D& pool, const Tensor& x_in) {
  const Shape out = pool.output_shape();
  const std::size_t channels = out.dim(0), out_height = out.dim(1), out_width = out.dim(2);
  const std::size_t window = pool.window();
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(pool.input_shape());
  Tensor y(out);
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t orow = 0; orow < out_height; ++orow)
      for (std::size_t ocol = 0; ocol < out_width; ++ocol) {
        double best = -std::numeric_limits<double>::infinity();
        for (std::size_t wr = 0; wr < window; ++wr)
          for (std::size_t wc = 0; wc < window; ++wc) {
            const double v = x.at3(c, orow * window + wr, ocol * window + wc);
            if (v > best) best = v;
          }
        y.at3(c, orow, ocol) = best;
      }
  return y;
}

Tensor ref_avgpool_forward(const AvgPool2D& pool, const Tensor& x_in) {
  const Shape out = pool.output_shape();
  const std::size_t channels = out.dim(0), out_height = out.dim(1), out_width = out.dim(2);
  const std::size_t window = pool.window();
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(pool.input_shape());
  Tensor y(out);
  const double inv_area = 1.0 / static_cast<double>(window * window);
  for (std::size_t c = 0; c < channels; ++c)
    for (std::size_t orow = 0; orow < out_height; ++orow)
      for (std::size_t ocol = 0; ocol < out_width; ++ocol) {
        double acc = 0.0;
        for (std::size_t wr = 0; wr < window; ++wr)
          for (std::size_t wc = 0; wc < window; ++wc)
            acc += x.at3(c, orow * window + wr, ocol * window + wc);
        y.at3(c, orow, ocol) = acc * inv_area;
      }
  return y;
}

/// ReLU one element at a time: the value, then the gradient as g times
/// the derivative at x.
class RefReLU {
 public:
  Tensor forward(const Tensor& x) const {
    Tensor y = x;
    for (std::size_t i = 0; i < y.numel(); ++i) y[i] = x[i] > 0.0 ? x[i] : 0.0;
    return y;
  }

  Tensor backward_input(const Tensor& x, const Tensor& grad_out) const {
    Tensor gx = grad_out;
    for (std::size_t i = 0; i < gx.numel(); ++i) gx[i] *= x[i] > 0.0 ? 1.0 : 0.0;
    return gx;
  }
};

Tensor ref_matvec(const Tensor& w, const Tensor& x) {
  const std::size_t rows = w.shape().dim(0);
  const std::size_t cols = w.shape().dim(1);
  Tensor y(Shape{rows});
  const double* wd = w.data().data();
  const double* xd = x.data().data();
  for (std::size_t r = 0; r < rows; ++r) {
    double acc = 0.0;
    const double* row = wd + r * cols;
    for (std::size_t c = 0; c < cols; ++c) acc += row[c] * xd[c];
    y[r] = acc;
  }
  return y;
}

Tensor ref_dense_forward(const Dense& dense, const Tensor& x) {
  const std::size_t in = dense.input_shape().numel();
  Tensor y = ref_matvec(dense.weight(), x.shape().rank() == 1 ? x : x.reshaped(Shape{in}));
  for (std::size_t i = 0; i < y.numel(); ++i) y[i] += dense.bias()[i];
  return y;
}

Tensor ref_dense_backward_input(const Dense& dense, const Tensor& grad_out) {
  const std::size_t in = dense.input_shape().numel();
  const std::size_t out = dense.output_shape().numel();
  const Tensor& weight = dense.weight();
  Tensor gx(Shape{in});
  for (std::size_t r = 0; r < out; ++r) {
    const double g = grad_out[r];
    if (g == 0.0) continue;
    for (std::size_t c = 0; c < in; ++c) gx[c] += weight.at2(r, c) * g;
  }
  return gx;
}

/// Reference for one layer of a perception network; layers the rewrite
/// left alone (Flatten, BatchNorm) run their own code.
Tensor ref_layer_forward(const Layer& layer, const Tensor& x) {
  switch (layer.kind()) {
    case LayerKind::kConv2D:
      return ref_conv_forward(static_cast<const Conv2D&>(layer), x);
    case LayerKind::kMaxPool2D:
      return ref_maxpool_forward(static_cast<const MaxPool2D&>(layer), x);
    case LayerKind::kReLU:
      return RefReLU().forward(x);
    case LayerKind::kDense:
      return ref_dense_forward(static_cast<const Dense&>(layer), x);
    default:
      return layer.forward(x);
  }
}

Tensor ref_layer_backward_input(const Layer& layer, const Tensor& x, const Tensor& grad_out) {
  switch (layer.kind()) {
    case LayerKind::kReLU:
      return RefReLU().backward_input(x, grad_out);
    case LayerKind::kDense:
      return ref_dense_backward_input(static_cast<const Dense&>(layer), grad_out);
    default:
      return layer.backward_input(x, grad_out);
  }
}

Tensor ref_forward_prefix(const Network& net, const Tensor& x, std::size_t l) {
  Tensor v = x;
  for (std::size_t i = 0; i < l; ++i) v = ref_layer_forward(net.layer(i), v);
  return v;
}

Tensor ref_input_gradient(const Network& net, const Tensor& x, const Tensor& grad_out,
                          std::size_t from, std::size_t to) {
  std::vector<Tensor> inputs;
  Tensor v = x;
  for (std::size_t i = from; i < to; ++i) {
    inputs.push_back(v);
    v = ref_layer_forward(net.layer(i), v);
  }
  Tensor g = grad_out;
  for (std::size_t i = to; i-- > from;)
    g = ref_layer_backward_input(net.layer(i), inputs[i - from], g);
  return g;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bit_identical(const Tensor& actual, const Tensor& expected, const std::string& what) {
  ASSERT_EQ(actual.shape(), expected.shape()) << what;
  for (std::size_t i = 0; i < actual.numel(); ++i)
    EXPECT_EQ(bits(actual[i]), bits(expected[i]))
        << what << " element " << i << ": " << actual[i] << " vs " << expected[i];
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  // Some exact zeros and repeated values exercise ReLU boundaries,
  // skipped zero gradients and max-pool ties.
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const int pick = rng.uniform_int(0, 9);
    t[i] = pick == 0 ? 0.0 : pick == 1 ? 0.5 : rng.normal(0.0, 1.0);
  }
  return t;
}

/// Every case runs with the SIMD dispatch on (false) and forced scalar (true).
class KernelOracle : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }
};

TEST_P(KernelOracle, Conv2DForwardMatchesReferenceOverShapes) {
  Rng rng(101);
  int cases = 0;
  for (std::size_t stride : {1, 2})
    for (std::size_t padding : {0, 1, 2})
      for (std::size_t kernel : {1, 3, 5})
        for (int trial = 0; trial < 3; ++trial) {
          const std::size_t in_c = static_cast<std::size_t>(rng.uniform_int(1, 4));
          const std::size_t out_c = static_cast<std::size_t>(rng.uniform_int(1, 8));
          const int min_extent =
              std::max(1, static_cast<int>(kernel) - 2 * static_cast<int>(padding));
          const std::size_t h = static_cast<std::size_t>(rng.uniform_int(min_extent, 9));
          std::size_t w = static_cast<std::size_t>(rng.uniform_int(min_extent, 13));
          if (w == h) ++w;  // non-square
          Conv2D conv(in_c, h, w, out_c, kernel, stride, padding);
          conv.set_parameters(random_tensor(Shape{out_c * in_c * kernel * kernel}, rng),
                              random_tensor(Shape{out_c}, rng));
          const Tensor x = random_tensor(Shape{in_c, h, w}, rng);
          const std::string what = "conv in " + conv.input_shape().to_string() + " out " +
                                   conv.output_shape().to_string() + " k" +
                                   std::to_string(kernel) + " s" + std::to_string(stride) +
                                   " p" + std::to_string(padding);
          expect_bit_identical(conv.forward(x), ref_conv_forward(conv, x), what);
          // A flat tensor of the right size is accepted as the same image.
          expect_bit_identical(conv.forward(x.reshaped(Shape{x.numel()})),
                               ref_conv_forward(conv, x), what + " (flat input)");
          ++cases;
        }
  EXPECT_EQ(cases, 54);
}

TEST_P(KernelOracle, PoolingForwardMatchesReference) {
  Rng rng(202);
  for (std::size_t window : {1, 2, 3})
    for (int trial = 0; trial < 4; ++trial) {
      const std::size_t c = static_cast<std::size_t>(rng.uniform_int(1, 4));
      const std::size_t h = window * static_cast<std::size_t>(rng.uniform_int(1, 5));
      const std::size_t w = window * static_cast<std::size_t>(rng.uniform_int(1, 7));
      const MaxPool2D max_pool(c, h, w, window);
      const AvgPool2D avg_pool(c, h, w, window);
      const Tensor x = random_tensor(Shape{c, h, w}, rng);
      const std::string what = max_pool.input_shape().to_string() + " window " +
                               std::to_string(window);
      expect_bit_identical(max_pool.forward(x), ref_maxpool_forward(max_pool, x),
                           "maxpool " + what);
      expect_bit_identical(avg_pool.forward(x), ref_avgpool_forward(avg_pool, x),
                           "avgpool " + what);
    }
}

TEST_P(KernelOracle, Conv2DForwardMatchesReferenceAtEveryRowWidth) {
  // Stride-1 rows of 1 to 40 columns: every split of a row into 16-column
  // register blocks and a shifted last vector, and 1 to 10 output channels
  // across the padded edge columns.
  Rng rng(111);
  const std::pair<std::size_t, std::size_t> kernel_padding[] = {{3, 1}, {3, 0}, {5, 2}};
  for (std::size_t w = 1; w <= 40; ++w)
    for (const auto& [kernel, padding] : kernel_padding) {
      if (w + 2 * padding < kernel) continue;
      const std::size_t in_c = static_cast<std::size_t>(rng.uniform_int(1, 3));
      const std::size_t out_c = static_cast<std::size_t>(rng.uniform_int(1, 10));
      const std::size_t h = static_cast<std::size_t>(rng.uniform_int(static_cast<int>(kernel), 6));
      Conv2D conv(in_c, h, w, out_c, kernel, 1, padding);
      conv.set_parameters(random_tensor(Shape{out_c * in_c * kernel * kernel}, rng),
                          random_tensor(Shape{out_c}, rng));
      const Tensor x = random_tensor(Shape{in_c, h, w}, rng);
      expect_bit_identical(conv.forward(x), ref_conv_forward(conv, x),
                           "conv out " + conv.output_shape().to_string() + " k" +
                               std::to_string(kernel) + " p" + std::to_string(padding));
    }
}

TEST_P(KernelOracle, MaxPoolKeepsTheFirstOfEqualZerosAndNeverTakesANaN) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const double cells[] = {-0.0, 0.0, nan, -inf, inf, 1.0, -1.0, 0.0, -0.0, nan, 0.25};
  Rng rng(222);
  for (std::size_t window : {2, 3})
    for (std::size_t out_w : {1, 4, 5, 6, 7, 8, 9}) {
      const MaxPool2D pool(2, 2 * window, out_w * window, window);
      Tensor x(pool.input_shape());
      for (std::size_t i = 0; i < x.numel(); ++i)
        x[i] = cells[static_cast<std::size_t>(rng.uniform_int(0, 10))];
      expect_bit_identical(pool.forward(x), ref_maxpool_forward(pool, x),
                           "maxpool window " + std::to_string(window) + " out width " +
                               std::to_string(out_w));
    }
}

/// 64-bit FNV-1a over the bit patterns of a tensor's values.
std::uint64_t fnv1a(const Tensor& t) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const std::uint64_t b = bits(t[i]);
    for (int byte = 0; byte < 8; ++byte) {
      hash ^= (b >> (8 * byte)) & 0xffu;
      hash *= 1099511628211ull;
    }
  }
  return hash;
}

/// Value k of a fixed sequence in [lo_num / den, (lo_num + 1000) / den]: an
/// integer pattern and one division, so every build computes the same bits.
double pattern_value(std::size_t k, std::size_t mul, long lo_num, double den) {
  return static_cast<double>(static_cast<long>((k * mul + 17) % 1001) + lo_num) / den;
}

TEST_P(KernelOracle, ConvPoolStackHashIsBuildIndependent) {
  // The testbed's convolutional stack (1x16x32 image, 4 and 8 channels),
  // with parameters and images from integer patterns, so the hash covers
  // the kernels alone (Rng::normal and the renderer are specified too and
  // hashed in tests/test_rng.cpp and tests/test_data.cpp). The specified
  // kernels compute one result in every build: optimized or not, with or
  // without the SIMD bodies, and forced scalar.
  Network net;
  auto conv1 = std::make_unique<Conv2D>(1, 16, 32, 4, 3, 1, 1);
  auto conv2 = std::make_unique<Conv2D>(4, 8, 16, 8, 3, 1, 1);
  for (Conv2D* conv : {conv1.get(), conv2.get()}) {
    Tensor w(conv->weight().shape());
    Tensor b(conv->bias().shape());
    for (std::size_t i = 0; i < w.numel(); ++i) w[i] = pattern_value(i, 7919, -500, 1999.0);
    for (std::size_t i = 0; i < b.numel(); ++i) b[i] = pattern_value(i, 104729, -500, 9973.0);
    conv->set_parameters(w, b);
  }
  net.add(std::move(conv1));
  net.add(std::make_unique<ReLU>(Shape{4, 16, 32}));
  net.add(std::make_unique<MaxPool2D>(4, 16, 32, 2));
  net.add(std::move(conv2));
  net.add(std::make_unique<ReLU>(Shape{8, 8, 16}));
  net.add(std::make_unique<MaxPool2D>(8, 8, 16, 2));
  Tensor outputs(Shape{4, 8 * 4 * 8});
  for (std::size_t image = 0; image < 4; ++image) {
    Tensor x(Shape{1, 16, 32});
    for (std::size_t i = 0; i < x.numel(); ++i)
      x[i] = pattern_value(image * x.numel() + i, 6007, 0, 1000.0);
    const Tensor y = net.forward(x);
    std::copy(y.data().begin(), y.data().end(), outputs.data().begin() + image * y.numel());
  }
  EXPECT_EQ(fnv1a(outputs), 0xc6c608a0705f7749ull) << std::hex << fnv1a(outputs);
}

TEST_P(KernelOracle, ReluMatchesPerElementReference) {
  Rng rng(303);
  const Shape shape{3, 5, 7};
  Tensor x = random_tensor(shape, rng);
  for (std::size_t i = 0; i < x.numel(); i += 11) x[i] *= 40.0;
  const Tensor g = random_tensor(shape, rng);
  const ReLU relu(shape);
  const RefReLU ref;
  expect_bit_identical(relu.forward(x), ref.forward(x), "relu forward");
  expect_bit_identical(relu.backward_input(x, g), ref.backward_input(x, g),
                       "relu backward_input");
}

TEST_P(KernelOracle, MatvecAndDenseMatchReference) {
  Rng rng(404);
  for (std::size_t rows = 1; rows <= 9; ++rows)
    for (std::size_t cols : {1, 2, 3, 4, 5, 7, 8, 16, 17, 31, 32, 256, 257}) {
      const Tensor w = random_tensor(Shape{rows, cols}, rng);
      const Tensor b = random_tensor(Shape{rows}, rng);
      const Tensor x = random_tensor(Shape{cols}, rng);
      const Tensor g = random_tensor(Shape{rows}, rng);
      const std::string what = std::to_string(rows) + "x" + std::to_string(cols);
      Tensor y(Shape{rows});
      matvec(w.data().data(), rows, cols, x.data().data(), y.data().data());
      expect_bit_identical(y, ref_matvec(w, x), "matvec " + what);
      Dense dense(cols, rows);
      dense.set_parameters(w, b);
      expect_bit_identical(dense.forward(x), ref_dense_forward(dense, x), "dense forward " + what);
      expect_bit_identical(dense.backward_input(x, g), ref_dense_backward_input(dense, g),
                           "dense backward_input " + what);
    }
}

TEST_P(KernelOracle, PerceptionNetworkForwardPrefixAndGradientOnRenderedRoads) {
  Rng rng(505);
  const data::PerceptionConfig config;
  data::PerceptionModel model = data::make_perception_network(config, rng);
  Network& net = model.network;
  // Non-trivial frozen statistics so the BatchNorm tail is not the identity.
  for (std::size_t i = 0; i < net.layer_count(); ++i)
    if (net.layer(i).kind() == LayerKind::kBatchNorm) {
      auto& bn = static_cast<BatchNorm&>(net.layer(i));
      const std::size_t n = bn.input_shape().numel();
      Tensor mean = random_tensor(Shape{n}, rng);
      Tensor var(Shape{n});
      for (std::size_t j = 0; j < n; ++j) var[j] = 0.5 + rng.uniform(0.0, 2.0);
      bn.set_statistics(mean, var);
    }
  const std::size_t depth = net.layer_count();
  const std::size_t l = model.attach_layer;
  for (int image = 0; image < 6; ++image) {
    const Tensor x = data::render_road_image(data::sample_scenario(rng), config.render);
    const std::string what = "image " + std::to_string(image);
    expect_bit_identical(net.forward(x), ref_forward_prefix(net, x, depth), what + " forward");
    for (std::size_t k = 0; k <= depth; ++k)
      expect_bit_identical(net.forward_prefix(x, k), ref_forward_prefix(net, x, k),
                           what + " forward_prefix " + std::to_string(k));

    Tensor g_out = random_tensor(net.output_shape(), rng);
    if (image % 2 == 0) g_out[0] = 0.0;  // a zero output gradient row is skipped
    expect_bit_identical(net.input_gradient(x, g_out), ref_input_gradient(net, x, g_out, 0, depth),
                         what + " input_gradient (whole network)");
    // The tail VJP the falsifier's PGD takes at the attachment layer.
    const Tensor features = net.forward_prefix(x, l);
    expect_bit_identical(net.input_gradient(features, g_out, l, depth),
                         ref_input_gradient(net, features, g_out, l, depth),
                         what + " input_gradient (tail)");
    // The prefix VJP behind activation concretization.
    const Tensor g_features = random_tensor(features.shape(), rng);
    expect_bit_identical(net.input_gradient(x, g_features, 0, l),
                         ref_input_gradient(net, x, g_features, 0, l),
                         what + " input_gradient (prefix)");
  }
}

INSTANTIATE_TEST_SUITE_P(SimdAndScalar, KernelOracle, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("ForcedScalar")
                                             : std::string("Dispatch");
                         });

// ---------------------------------------------------------------------------
// Mis-sized tensors are rejected before any memory is read.
// ---------------------------------------------------------------------------

std::unique_ptr<Layer> make_layer(LayerKind kind) {
  switch (kind) {
    case LayerKind::kDense:
      return std::make_unique<Dense>(12, 5);
    case LayerKind::kReLU:
      return std::make_unique<ReLU>(Shape{2, 3, 4});
    case LayerKind::kBatchNorm:
      return std::make_unique<BatchNorm>(6);
    case LayerKind::kConv2D:
      return std::make_unique<Conv2D>(2, 5, 6, 3, 3, 1, 1);
    case LayerKind::kMaxPool2D:
      return std::make_unique<MaxPool2D>(2, 4, 6, 2);
    case LayerKind::kAvgPool2D:
      return std::make_unique<AvgPool2D>(2, 4, 6, 2);
    case LayerKind::kFlatten:
      return std::make_unique<Flatten>(Shape{2, 3, 4});
  }
  return nullptr;
}

class MisSizedTensor : public ::testing::TestWithParam<LayerKind> {};

TEST_P(MisSizedTensor, ForwardAndBackwardInputThrowContractViolation) {
  const std::unique_ptr<Layer> layer = make_layer(GetParam());
  ASSERT_NE(layer, nullptr);
  const std::size_t in = layer->input_shape().numel();
  const std::size_t out = layer->output_shape().numel();
  for (std::size_t n : {in - 1, in + 1})
    EXPECT_THROW((void)layer->forward(Tensor(Shape{n})), ContractViolation) << "input " << n;
  const Tensor x(layer->input_shape());
  for (std::size_t n : {out - 1, out + 1})
    EXPECT_THROW((void)layer->backward_input(x, Tensor(Shape{n})), ContractViolation)
        << "gradient " << n;
  // The right sizes still go through.
  EXPECT_EQ(layer->forward(x).numel(), out);
  EXPECT_EQ(layer->backward_input(x, Tensor(layer->output_shape())).numel(), in);
}

INSTANTIATE_TEST_SUITE_P(EveryLayerKind, MisSizedTensor,
                         ::testing::Values(LayerKind::kDense, LayerKind::kReLU,
                                           LayerKind::kBatchNorm, LayerKind::kConv2D,
                                           LayerKind::kMaxPool2D, LayerKind::kAvgPool2D,
                                           LayerKind::kFlatten),
                         [](const ::testing::TestParamInfo<LayerKind>& info) {
                           return layer_kind_name(info.param);
                         });

}  // namespace
}  // namespace dpv::nn
