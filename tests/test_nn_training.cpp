// Bit-exact oracle for the batch-major training path.
//
// `Network::forward_batch` / `backward_batch` and `Trainer::fit` must train
// exactly as the per-sample path they replaced: every parameter, gradient,
// BatchNorm running statistic and loss-history entry equal by bit pattern.
// The reference below is that path, kept here as a test-only oracle: one
// cached input per sample and layer, and per-sample backward loops that
// index through the checked, out-of-line `Tensor::at2` / `at3` where the
// old loops did. A call between a multiply and its add keeps the two
// apart, so those loops fix which products the compiler fuses; run this
// in an optimized and in an unoptimized build, which fuse differently.
// A second suite checks that the training entry points reject mis-sized
// batches with ContractViolation before touching memory, and a third that
// a fit allocates nothing per batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "common/simd.hpp"
#include "data/dataset_gen.hpp"
#include "data/perception_model.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/network.hpp"
#include "nn/pool2d.hpp"
#include "train/loss.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

// Every heap allocation in this test program, counted. Kept out of line,
// so callers never see the malloc / free pair behind new / delete.
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

__attribute__((noinline)) void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
__attribute__((noinline)) void operator delete(void* p) noexcept { std::free(p); }
__attribute__((noinline)) void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace dpv::nn {
namespace {

// ---------------------------------------------------------------------------
// Reference: the per-sample training path, one cache slot per sample.
// ---------------------------------------------------------------------------

Tensor ref_dense_backward(Dense& dense, const Tensor& x, const Tensor& grad_out) {
  std::vector<ParamRef> params = dense.params();
  Tensor& weight_grad = *params[0].grad;
  Tensor& bias_grad = *params[1].grad;
  const Tensor& weight = dense.weight();
  const std::size_t out = dense.output_shape().numel();
  const std::size_t in = dense.input_shape().numel();
  Tensor gx(Shape{in});
  for (std::size_t r = 0; r < out; ++r) {
    const double g = grad_out[r];
    bias_grad[r] += g;
    for (std::size_t c = 0; c < in; ++c) {
      weight_grad.at2(r, c) += g * x[c];
      gx[c] += weight.at2(r, c) * g;
    }
  }
  return gx;
}

Tensor ref_conv_backward(Conv2D& conv, const Tensor& x_in, const Tensor& grad_out_in) {
  std::vector<ParamRef> params = conv.params();
  Tensor& weight_grad = *params[0].grad;
  Tensor& bias_grad = *params[1].grad;
  const Tensor& weight = conv.weight();
  const Shape in = conv.input_shape();
  const Shape out = conv.output_shape();
  const std::size_t in_channels = in.dim(0), in_height = in.dim(1), in_width = in.dim(2);
  const std::size_t out_channels = out.dim(0), out_height = out.dim(1), out_width = out.dim(2);
  const std::size_t kernel = conv.kernel(), stride = conv.stride(), padding = conv.padding();
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(in);
  const Tensor grad_out = grad_out_in.shape().rank() == 3 ? grad_out_in : grad_out_in.reshaped(out);
  Tensor gx(in);
  const std::size_t k2 = kernel * kernel;
  for (std::size_t oc = 0; oc < out_channels; ++oc) {
    for (std::size_t orow = 0; orow < out_height; ++orow) {
      for (std::size_t ocol = 0; ocol < out_width; ++ocol) {
        const double g = grad_out.at3(oc, orow, ocol);
        bias_grad[oc] += g;
        const long base_r = static_cast<long>(orow * stride) - static_cast<long>(padding);
        const long base_c = static_cast<long>(ocol * stride) - static_cast<long>(padding);
        for (std::size_t ic = 0; ic < in_channels; ++ic) {
          const std::size_t wbase = (oc * in_channels + ic) * k2;
          for (std::size_t kr = 0; kr < kernel; ++kr) {
            for (std::size_t kc = 0; kc < kernel; ++kc) {
              const long r = base_r + static_cast<long>(kr);
              const long c = base_c + static_cast<long>(kc);
              if (r < 0 || c < 0 || r >= static_cast<long>(in_height) ||
                  c >= static_cast<long>(in_width))
                continue;
              const std::size_t widx = wbase + kr * kernel + kc;
              weight_grad[widx] +=
                  g * x.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c));
              gx.at3(ic, static_cast<std::size_t>(r), static_cast<std::size_t>(c)) +=
                  g * weight[widx];
            }
          }
        }
      }
    }
  }
  return gx;
}

/// Flat input index of the max cell of every output cell (first on ties).
std::vector<std::size_t> ref_maxpool_argmax(const MaxPool2D& pool, const Tensor& x_in) {
  const Shape in = pool.input_shape();
  const Shape out = pool.output_shape();
  const std::size_t window = pool.window();
  const Tensor x = x_in.shape().rank() == 3 ? x_in : x_in.reshaped(in);
  std::vector<std::size_t> argmax(out.numel(), 0);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < out.dim(0); ++c)
    for (std::size_t orow = 0; orow < out.dim(1); ++orow)
      for (std::size_t ocol = 0; ocol < out.dim(2); ++ocol, ++out_idx) {
        double best = -std::numeric_limits<double>::infinity();
        std::size_t best_idx = 0;
        for (std::size_t wr = 0; wr < window; ++wr)
          for (std::size_t wc = 0; wc < window; ++wc) {
            const std::size_t r = orow * window + wr;
            const std::size_t col = ocol * window + wc;
            const double v = x.at3(c, r, col);
            if (v > best) {
              best = v;
              best_idx = (c * in.dim(1) + r) * in.dim(2) + col;
            }
          }
        argmax[out_idx] = best_idx;
      }
  return argmax;
}

Tensor ref_avgpool_backward(const AvgPool2D& pool, const Tensor& grad_out) {
  const Shape out = pool.output_shape();
  const std::size_t window = pool.window();
  Tensor gx(pool.input_shape());
  const double inv_area = 1.0 / static_cast<double>(window * window);
  std::size_t out_idx = 0;
  for (std::size_t c = 0; c < out.dim(0); ++c)
    for (std::size_t orow = 0; orow < out.dim(1); ++orow)
      for (std::size_t ocol = 0; ocol < out.dim(2); ++ocol, ++out_idx)
        for (std::size_t wr = 0; wr < window; ++wr)
          for (std::size_t wc = 0; wc < window; ++wc)
            gx.at3(c, orow * window + wr, ocol * window + wc) += grad_out[out_idx] * inv_area;
  return gx;
}

/// BatchNorm's training forward / backward on batch statistics.
struct RefBatchNorm {
  std::vector<Tensor> normalized;  // x_hat per sample
  Tensor inv_std;

  std::vector<Tensor> forward(BatchNorm& bn, const std::vector<Tensor>& xs) {
    const std::size_t features = bn.input_shape().numel();
    const std::size_t n = xs.size();
    const double momentum = bn.momentum();
    Tensor mean(Shape{features});
    Tensor var(Shape{features});
    for (const Tensor& x : xs)
      for (std::size_t i = 0; i < features; ++i) mean[i] += x[i];
    for (std::size_t i = 0; i < features; ++i) mean[i] /= static_cast<double>(n);
    for (const Tensor& x : xs)
      for (std::size_t i = 0; i < features; ++i) {
        const double d = x[i] - mean[i];
        var[i] += d * d;
      }
    for (std::size_t i = 0; i < features; ++i) var[i] /= static_cast<double>(n);
    normalized.assign(n, Tensor(Shape{features}));
    inv_std = Tensor(Shape{features});
    for (std::size_t i = 0; i < features; ++i) inv_std[i] = 1.0 / std::sqrt(var[i] + bn.eps());
    std::vector<Tensor> ys(n, Tensor(Shape{features}));
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t i = 0; i < features; ++i) {
        const double x_hat = (xs[s][i] - mean[i]) * inv_std[i];
        normalized[s][i] = x_hat;
        ys[s][i] = bn.gamma()[i] * x_hat + bn.beta()[i];
      }
    Tensor running_mean = bn.running_mean();
    Tensor running_var = bn.running_var();
    for (std::size_t i = 0; i < features; ++i) {
      running_mean[i] = (1.0 - momentum) * running_mean[i] + momentum * mean[i];
      running_var[i] = (1.0 - momentum) * running_var[i] + momentum * var[i];
    }
    bn.set_statistics(running_mean, running_var);
    return ys;
  }

  std::vector<Tensor> backward(BatchNorm& bn, const std::vector<Tensor>& grad_out) const {
    std::vector<ParamRef> params = bn.params();
    Tensor& gamma_grad = *params[0].grad;
    Tensor& beta_grad = *params[1].grad;
    const std::size_t features = bn.input_shape().numel();
    const std::size_t n = grad_out.size();
    const double inv_n = 1.0 / static_cast<double>(n);
    Tensor sum_dy(Shape{features});
    Tensor sum_dy_xhat(Shape{features});
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t i = 0; i < features; ++i) {
        sum_dy[i] += grad_out[s][i];
        sum_dy_xhat[i] += grad_out[s][i] * normalized[s][i];
      }
    for (std::size_t i = 0; i < features; ++i) {
      gamma_grad[i] += sum_dy_xhat[i];
      beta_grad[i] += sum_dy[i];
    }
    std::vector<Tensor> gxs(n, Tensor(Shape{features}));
    for (std::size_t s = 0; s < n; ++s)
      for (std::size_t i = 0; i < features; ++i) {
        const double term = static_cast<double>(n) * grad_out[s][i] - sum_dy[i] -
                            normalized[s][i] * sum_dy_xhat[i];
        gxs[s][i] = bn.gamma()[i] * inv_std[i] * inv_n * term;
      }
    return gxs;
  }
};

/// Per-sample training of a network: forward caches every layer's input
/// (and activation output, and max-pool argmax) per sample.
class RefTraining {
 public:
  explicit RefTraining(Network& net) : net_(net), inputs_(net.layer_count()) {
    argmax_.resize(net.layer_count());
    bn_.resize(net.layer_count());
  }

  std::vector<Tensor> forward_batch(const std::vector<Tensor>& xs) {
    std::vector<Tensor> vs = xs;
    for (std::size_t l = 0; l < net_.layer_count(); ++l) {
      Layer& layer = net_.layer(l);
      if (layer.kind() == LayerKind::kBatchNorm) {
        vs = bn_[l].forward(static_cast<BatchNorm&>(layer), vs);
        continue;
      }
      inputs_[l] = vs;
      for (std::size_t s = 0; s < vs.size(); ++s) {
        if (layer.kind() == LayerKind::kMaxPool2D)
          argmax_[l].push_back(ref_maxpool_argmax(static_cast<MaxPool2D&>(layer), vs[s]));
        vs[s] = layer.forward(vs[s]);
      }
    }
    return vs;
  }

  std::vector<Tensor> backward_batch(const std::vector<Tensor>& grad_out) {
    std::vector<Tensor> gs = grad_out;
    for (std::size_t l = net_.layer_count(); l-- > 0;) {
      Layer& layer = net_.layer(l);
      if (layer.kind() == LayerKind::kBatchNorm) {
        gs = bn_[l].backward(static_cast<BatchNorm&>(layer), gs);
        continue;
      }
      for (std::size_t s = 0; s < gs.size(); ++s) gs[s] = backward_sample(l, s, gs[s]);
      argmax_[l].clear();
    }
    return gs;
  }

 private:
  Tensor backward_sample(std::size_t l, std::size_t s, const Tensor& grad_out) {
    Layer& layer = net_.layer(l);
    const Tensor& x = inputs_[l][s];
    switch (layer.kind()) {
      case LayerKind::kDense:
        return ref_dense_backward(static_cast<Dense&>(layer), x, grad_out);
      case LayerKind::kConv2D:
        return ref_conv_backward(static_cast<Conv2D&>(layer), x, grad_out);
      case LayerKind::kMaxPool2D: {
        Tensor gx(layer.input_shape());
        const std::vector<std::size_t>& argmax = argmax_[l][s];
        for (std::size_t i = 0; i < argmax.size(); ++i) gx[argmax[i]] += grad_out[i];
        return gx;
      }
      case LayerKind::kAvgPool2D:
        return ref_avgpool_backward(static_cast<AvgPool2D&>(layer), grad_out);
      case LayerKind::kFlatten:
        return grad_out.reshaped(layer.input_shape());
      default: {  // ReLU
        Tensor gx = grad_out;
        for (std::size_t i = 0; i < gx.numel(); ++i) gx[i] *= x[i] > 0.0 ? 1.0 : 0.0;
        return gx;
      }
    }
  }

  Network& net_;
  std::vector<std::vector<Tensor>> inputs_;
  std::vector<std::vector<std::vector<std::size_t>>> argmax_;
  std::vector<RefBatchNorm> bn_;
};

void zero_grads(Network& net) {
  for (ParamRef& p : net.params()) p.grad->fill(0.0);
}

/// The losses, one sample at a time: MSE, or BCE on one logit.
double ref_loss_value(const train::Loss& loss, const Tensor& pred, const Tensor& target) {
  if (dynamic_cast<const train::MseLoss*>(&loss) != nullptr) {
    double acc = 0.0;
    for (std::size_t i = 0; i < pred.numel(); ++i) {
      const double d = pred[i] - target[i];
      acc += d * d;
    }
    return acc / static_cast<double>(pred.numel());
  }
  const double z = pred[0];
  const double t = target[0];
  return std::max(z, 0.0) - z * t + std::log1p(std::exp(-std::abs(z)));
}

Tensor ref_loss_gradient(const train::Loss& loss, const Tensor& pred, const Tensor& target) {
  Tensor g = pred;
  if (dynamic_cast<const train::MseLoss*>(&loss) != nullptr) {
    const double scale = 2.0 / static_cast<double>(pred.numel());
    for (std::size_t i = 0; i < g.numel(); ++i) g[i] = scale * (pred[i] - target[i]);
  } else {
    g[0] = 1.0 / (1.0 + std::exp(-pred[0])) - target[0];
  }
  return g;
}

/// The per-sample Trainer::fit.
train::LossHistory ref_fit(Network& net, const train::Dataset& data, const train::Loss& loss,
                           train::Adam& optimizer, const train::TrainerConfig& config) {
  RefTraining training(net);
  Rng rng(config.shuffle_seed);
  std::vector<std::size_t> order(data.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  train::LossHistory history;
  for (std::size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    std::size_t seen = 0;
    for (std::size_t start = 0; start < order.size(); start += config.batch_size) {
      const std::size_t end = std::min(start + config.batch_size, order.size());
      std::vector<Tensor> xs, ts;
      for (std::size_t i = start; i < end; ++i) {
        xs.push_back(data[order[i]].input);
        ts.push_back(data[order[i]].target);
      }
      zero_grads(net);
      const std::vector<Tensor> ys = training.forward_batch(xs);
      std::vector<Tensor> grads;
      const double inv_batch = 1.0 / static_cast<double>(ys.size());
      for (std::size_t i = 0; i < ys.size(); ++i) {
        epoch_loss += ref_loss_value(loss, ys[i], ts[i]);
        Tensor g = ref_loss_gradient(loss, ys[i], ts[i]);
        for (std::size_t j = 0; j < g.numel(); ++j) g[j] *= inv_batch;
        grads.push_back(std::move(g));
      }
      seen += ys.size();
      training.backward_batch(grads);
      optimizer.step(net.params());
    }
    history.push_back(epoch_loss / static_cast<double>(seen));
  }
  return history;
}

// ---------------------------------------------------------------------------
// Helpers
// ---------------------------------------------------------------------------

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

void expect_bit_identical(const std::vector<double>& actual, const std::vector<double>& expected,
                          const std::string& what) {
  ASSERT_EQ(actual.size(), expected.size()) << what;
  std::size_t mismatches = 0;
  for (std::size_t i = 0; i < actual.size(); ++i)
    if (bits(actual[i]) != bits(expected[i]) && ++mismatches <= 3)
      ADD_FAILURE() << what << " element " << i << ": " << actual[i] << " vs " << expected[i];
  EXPECT_EQ(mismatches, 0u) << what;
}

/// Every parameter and gradient, and BatchNorm running statistics.
void expect_same_state(Network& actual, Network& expected, const std::string& what) {
  std::vector<ParamRef> a = actual.params();
  std::vector<ParamRef> e = expected.params();
  ASSERT_EQ(a.size(), e.size());
  for (std::size_t k = 0; k < a.size(); ++k) {
    const std::string name = what + " param " + std::to_string(k) + " (" + a[k].name + ")";
    expect_bit_identical(a[k].value->data(), e[k].value->data(), name + " value");
    expect_bit_identical(a[k].grad->data(), e[k].grad->data(), name + " gradient");
  }
  for (std::size_t l = 0; l < actual.layer_count(); ++l)
    if (actual.layer(l).kind() == LayerKind::kBatchNorm) {
      const auto& bn_a = static_cast<const BatchNorm&>(actual.layer(l));
      const auto& bn_e = static_cast<const BatchNorm&>(expected.layer(l));
      expect_bit_identical(bn_a.running_mean().data(), bn_e.running_mean().data(),
                           what + " running mean");
      expect_bit_identical(bn_a.running_var().data(), bn_e.running_var().data(),
                           what + " running var");
    }
}

Tensor random_tensor(const Shape& shape, Rng& rng) {
  Tensor t(shape);
  // Exact zeros and repeated values exercise ReLU boundaries and max-pool ties.
  for (std::size_t i = 0; i < t.numel(); ++i) {
    const int pick = rng.uniform_int(0, 9);
    t[i] = pick == 0 ? 0.0 : pick == 1 ? 0.5 : rng.normal(0.0, 1.0);
  }
  return t;
}

train::Dataset random_dataset(const Shape& in, std::size_t out, std::size_t count, bool binary,
                              Rng& rng) {
  train::Dataset data;
  for (std::size_t i = 0; i < count; ++i) {
    Tensor target = random_tensor(Shape{out}, rng);
    if (binary) target[0] = rng.uniform_int(0, 1);
    data.add(random_tensor(in, rng), std::move(target));
  }
  return data;
}

template <class L>
void append(Network& net, std::unique_ptr<L> layer, Rng& rng) {
  if constexpr (std::is_same_v<L, Dense> || std::is_same_v<L, Conv2D>) layer->init_he(rng);
  net.add(std::move(layer));
}

Network dense_activations(Rng& rng) {
  Network net;
  append(net, std::make_unique<Dense>(5, 7), rng);
  append(net, std::make_unique<ReLU>(Shape{7}), rng);
  append(net, std::make_unique<Dense>(7, 6), rng);
  append(net, std::make_unique<ReLU>(Shape{6}), rng);
  append(net, std::make_unique<Dense>(6, 5), rng);
  append(net, std::make_unique<ReLU>(Shape{5}), rng);
  append(net, std::make_unique<Dense>(5, 4), rng);
  append(net, std::make_unique<ReLU>(Shape{4}), rng);
  append(net, std::make_unique<Dense>(4, 3), rng);
  return net;
}

Network dense_batchnorm(Rng& rng) {
  Network net;
  append(net, std::make_unique<BatchNorm>(5), rng);
  append(net, std::make_unique<Dense>(5, 9), rng);
  append(net, std::make_unique<BatchNorm>(9, 1e-3, 0.2), rng);
  append(net, std::make_unique<ReLU>(Shape{9}), rng);
  append(net, std::make_unique<Dense>(9, 2), rng);
  return net;
}

/// Conv2D (kernel/stride/padding 3/1/1, 5/1/2, 2/2/0) with both pool
/// kinds and Flatten.
Network conv_pools(Rng& rng) {
  Network net;
  append(net, std::make_unique<Conv2D>(2, 8, 10, 3, 3, 1, 1), rng);  // -> 3x8x10
  append(net, std::make_unique<ReLU>(Shape{3, 8, 10}), rng);
  append(net, std::make_unique<MaxPool2D>(3, 8, 10, 2), rng);        // -> 3x4x5
  append(net, std::make_unique<Conv2D>(3, 4, 5, 4, 5, 1, 2), rng);   // -> 4x4x5
  append(net, std::make_unique<ReLU>(Shape{4, 4, 5}), rng);
  append(net, std::make_unique<Conv2D>(4, 4, 5, 4, 2, 2, 0), rng);   // -> 4x2x2
  append(net, std::make_unique<AvgPool2D>(4, 2, 2, 2), rng);         // -> 4x1x1
  append(net, std::make_unique<Flatten>(Shape{4, 1, 1}), rng);
  append(net, std::make_unique<Dense>(4, 2), rng);
  return net;
}

/// Conv2D with kernel/stride/padding 3/2/1, 1/1/0 and 3/2/2.
Network conv_strided(Rng& rng) {
  Network net;
  append(net, std::make_unique<Conv2D>(1, 7, 9, 3, 3, 2, 1), rng);   // -> 3x4x5
  append(net, std::make_unique<ReLU>(Shape{3, 4, 5}), rng);
  append(net, std::make_unique<Conv2D>(3, 4, 5, 2, 1, 1, 0), rng);   // -> 2x4x5
  append(net, std::make_unique<Conv2D>(2, 4, 5, 2, 3, 2, 2), rng);   // -> 2x3x4
  append(net, std::make_unique<Flatten>(Shape{2, 3, 4}), rng);
  append(net, std::make_unique<Dense>(24, 1), rng);
  return net;
}

/// The parameter: whether the SIMD kernels are forced onto their scalar
/// bodies.
class TrainingOracle : public ::testing::TestWithParam<bool> {
 protected:
  void SetUp() override { simd::set_force_scalar(GetParam()); }
  void TearDown() override { simd::set_force_scalar(false); }

  /// Trains clones of `net` both ways; compares histories and state.
  void expect_same_training(const Network& net, const train::Dataset& data,
                            const train::Loss& loss, const train::TrainerConfig& config,
                            const std::string& what) {
    Network actual = net.clone();
    Network expected = net.clone();
    train::Adam opt_actual(0.01);
    train::Adam opt_expected(0.01);
    const train::LossHistory history = train::Trainer(config).fit(actual, data, loss, opt_actual);
    const train::LossHistory ref_history = ref_fit(expected, data, loss, opt_expected, config);
    expect_bit_identical(history, ref_history, what + " loss history");
    expect_same_state(actual, expected, what);
  }
};

TEST_P(TrainingOracle, EveryLayerKindTrainsBitIdentically) {
  Rng rng(601);
  const train::MseLoss mse;
  const train::TrainerConfig config{.epochs = 4, .batch_size = 5, .shuffle_seed = 9};
  // 23 samples: four batches of 5 and a tail batch of 3 per epoch.
  const std::pair<const char*, Network (*)(Rng&)> cases[] = {
      {"dense + activations", &dense_activations},
      {"dense + batchnorm", &dense_batchnorm},
      {"conv + pools", &conv_pools},
      {"strided conv", &conv_strided},
  };
  for (const auto& [name, build] : cases) {
    Network net = build(rng);
    const train::Dataset data =
        random_dataset(net.input_shape(), net.output_shape().numel(), 23, false, rng);
    expect_same_training(net, data, mse, config, name);
  }
}

TEST_P(TrainingOracle, PerceptionNetworkTrainsBitIdenticallyWithAndWithoutBatchNorm) {
  for (const bool batchnorm : {true, false}) {
    Rng rng(702);
    data::PerceptionConfig config;
    config.batchnorm_tail = batchnorm;
    const data::PerceptionModel model = data::make_perception_network(config, rng);
    const train::Dataset data = data::to_regression_dataset(
        data::generate_road_samples({20, 31, config.render}));
    expect_same_training(model.network, data, train::MseLoss(),
                         {.epochs = 3, .batch_size = 8, .shuffle_seed = 3},
                         batchnorm ? "perception (batchnorm tail)" : "perception (no batchnorm)");
  }
}

TEST_P(TrainingOracle, CharacterizerTrainsBitIdenticallyWithShortTailBatch) {
  Rng rng(803);
  const Network net = data::make_characterizer_network(16, 8, rng);
  // 1400 % 16 = 8: every epoch ends on a half batch.
  const train::Dataset data = random_dataset(Shape{16}, 1, 1400, true, rng);
  expect_same_training(net, data, train::BceWithLogitsLoss(),
                       {.epochs = 3, .batch_size = 16, .shuffle_seed = 11}, "characterizer");
}

TEST_P(TrainingOracle, BatchInputGradientMatchesPerSampleBackward) {
  Rng rng(904);
  for (Network (*build)(Rng&) : {&dense_activations, &dense_batchnorm, &conv_pools,
                                 &conv_strided}) {
    Network actual = build(rng);
    Network expected = actual.clone();
    std::vector<Tensor> xs, gs;
    for (int s = 0; s < 4; ++s) {
      xs.push_back(random_tensor(actual.input_shape(), rng));
      gs.push_back(random_tensor(actual.output_shape(), rng));
    }
    Batch& x = actual.batch_input(xs.size());
    Batch grad_out(gs.size(), gs[0].numel());
    for (std::size_t s = 0; s < xs.size(); ++s) {
      std::copy(xs[s].data().begin(), xs[s].data().end(), x.row(s));
      std::copy(gs[s].data().begin(), gs[s].data().end(), grad_out.row(s));
    }
    const Batch& y = actual.forward_batch();
    Batch grad_in;
    actual.backward_batch(grad_out, &grad_in);

    RefTraining training(expected);
    const std::vector<Tensor> ys = training.forward_batch(xs);
    const std::vector<Tensor> gxs = training.backward_batch(gs);
    for (std::size_t s = 0; s < xs.size(); ++s) {
      const std::string what = "sample " + std::to_string(s);
      expect_bit_identical(std::vector<double>(y.row(s), y.row(s) + y.width()), ys[s].data(),
                           what + " output");
      expect_bit_identical(std::vector<double>(grad_in.row(s), grad_in.row(s) + grad_in.width()),
                           gxs[s].data(), what + " input gradient");
    }
    expect_same_state(actual, expected, "after one batch");
  }
}

INSTANTIATE_TEST_SUITE_P(SimdAndScalar, TrainingOracle, ::testing::Values(false, true),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? std::string("ForcedScalar")
                                             : std::string("Dispatch");
                         });

// ---------------------------------------------------------------------------
// Steady-state training allocates nothing: a fit's allocations do not
// depend on how many batches it runs.
// ---------------------------------------------------------------------------

std::size_t allocations_of_fit(const Network& net, const train::Dataset& data,
                               const train::Loss& loss, std::size_t epochs) {
  Network copy = net.clone();
  train::Adam adam(0.01);
  train::Trainer trainer({.epochs = epochs, .batch_size = 8, .shuffle_seed = 5});
  const std::size_t before = g_allocations.load();
  (void)trainer.fit(copy, data, loss, adam);
  return g_allocations.load() - before;
}

TEST(TrainingAllocations, FitAllocatesNothingPerBatch) {
  Rng rng(1001);
  // 44 samples: five batches of 8 and a tail batch of 4 per epoch.
  for (Network (*build)(Rng&) : {&dense_activations, &dense_batchnorm, &conv_pools}) {
    const Network net = build(rng);
    const train::Dataset data =
        random_dataset(net.input_shape(), net.output_shape().numel(), 44, false, rng);
    const train::MseLoss mse;
    EXPECT_EQ(allocations_of_fit(net, data, mse, 1), allocations_of_fit(net, data, mse, 5))
        << "allocations grew with the number of batches";
  }
}

// ---------------------------------------------------------------------------
// Mis-sized batches are rejected before any memory is read.
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

class TrainingMisSized : public ::testing::TestWithParam<LayerKind> {};

TEST_P(TrainingMisSized, BatchForwardAndBackwardThrowContractViolation) {
  const std::unique_ptr<Layer> layer = make_layer(GetParam());
  ASSERT_NE(layer, nullptr);
  const std::size_t in = layer->input_size();
  const std::size_t out = layer->output_size();
  ASSERT_EQ(in, layer->input_shape().numel());
  ASSERT_EQ(out, layer->output_shape().numel());
  const Batch x(3, in);
  const Batch grad_out(3, out);
  Batch y, grad_in;

  EXPECT_THROW(layer->backward_batch(x, grad_out, &grad_in), ContractViolation)
      << "backward before any forward";
  for (std::size_t n : {in - 1, in + 1})
    EXPECT_THROW(layer->forward_batch(Batch(3, n), y), ContractViolation) << "input " << n;
  EXPECT_THROW(layer->forward_batch(Batch(0, in), y), ContractViolation) << "empty batch";

  layer->forward_batch(x, y);
  EXPECT_EQ(y.rows(), 3u);
  EXPECT_EQ(y.width(), out);
  for (std::size_t n : {out - 1, out + 1})
    EXPECT_THROW(layer->backward_batch(x, Batch(3, n), &grad_in), ContractViolation)
        << "gradient " << n;
  for (std::size_t n : {in - 1, in + 1})
    EXPECT_THROW(layer->backward_batch(Batch(3, n), grad_out, &grad_in), ContractViolation)
        << "backward input " << n;
  for (std::size_t rows : {2, 4}) {
    EXPECT_THROW(layer->backward_batch(Batch(rows, in), Batch(rows, out), &grad_in),
                 ContractViolation)
        << "batch of " << rows << " after a forward of 3";
    EXPECT_THROW(layer->backward_batch(x, Batch(rows, out), &grad_in), ContractViolation)
        << "gradient rows " << rows;
  }

  // The right sizes still go through, with and without an input gradient.
  layer->backward_batch(x, grad_out, &grad_in);
  EXPECT_EQ(grad_in.rows(), 3u);
  EXPECT_EQ(grad_in.width(), in);
  layer->backward_batch(x, grad_out, nullptr);
}

INSTANTIATE_TEST_SUITE_P(EveryLayerKind, TrainingMisSized,
                         ::testing::Values(LayerKind::kDense, LayerKind::kReLU,
                                           LayerKind::kBatchNorm, LayerKind::kConv2D,
                                           LayerKind::kMaxPool2D, LayerKind::kAvgPool2D,
                                           LayerKind::kFlatten),
                         [](const ::testing::TestParamInfo<LayerKind>& info) {
                           return layer_kind_name(info.param);
                         });

TEST(TrainingMisSized, NetworkBackwardBeforeAnyForwardThrows) {
  Rng rng(5);
  Network net = data::make_characterizer_network(4, 3, rng);
  EXPECT_THROW(net.backward_batch(Batch(2, 1)), ContractViolation);
  net.batch_input(2);
  EXPECT_THROW(net.backward_batch(Batch(2, 1)), ContractViolation);
}

TEST(TrainingMisSized, TrainerRejectsARaggedSampleMidEpoch) {
  Rng rng(6);
  for (const bool ragged_target : {false, true})
    for (const std::size_t delta : {0, 2}) {  // one value short (n - 1) or long (n + 1)
      Network net = data::make_characterizer_network(4, 3, rng);
      train::Dataset data = random_dataset(Shape{4}, 1, 6, true, rng);
      const std::size_t n = (ragged_target ? 1 : 4) + delta - 1;
      if (ragged_target)
        data.add(random_tensor(Shape{4}, rng), random_tensor(Shape{n}, rng));
      else
        data.add(random_tensor(Shape{n}, rng), Tensor::vector1d({1.0}));
      for (int i = 0; i < 6; ++i) data.add(random_tensor(Shape{4}, rng), Tensor::vector1d({0.0}));
      train::Adam adam(0.01);
      EXPECT_THROW(train::Trainer({.epochs = 2, .batch_size = 4, .shuffle_seed = 1})
                       .fit(net, data, train::BceWithLogitsLoss(), adam),
                   ContractViolation)
          << (ragged_target ? "target" : "input") << " of " << n << " values";
    }
}

}  // namespace
}  // namespace dpv::nn
