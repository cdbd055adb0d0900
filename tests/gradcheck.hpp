// Numerical gradient checks for the tests: central differences against
// the analytic backward passes of the training path. The property-based
// layer tests sweep these across layer kinds and shapes.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/check.hpp"
#include "nn/network.hpp"
#include "train/loss.hpp"

namespace dpv::gradcheck {

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
};

namespace detail {

inline void update_errors(double analytic, double numeric, GradCheckResult& result) {
  const double abs_err = std::abs(analytic - numeric);
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-8});
  result.max_abs_error = std::max(result.max_abs_error, abs_err);
  result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
}

/// Training-mode forward of `input` as a batch of one, so BatchNorm uses
/// the same statistics path the analytic backward differentiates through.
inline Tensor forward_one(nn::Network& net, const Tensor& input) {
  nn::Batch& x = net.batch_input(1);
  check(input.numel() == x.width(), "gradcheck: input size mismatch");
  std::copy(input.data().begin(), input.data().end(), x.row(0));
  const nn::Batch& y = net.forward_batch();
  return Tensor(net.output_shape(), std::vector<double>(y.row(0), y.row(0) + y.width()));
}

/// Analytic backward of `loss` at `input` through the training path on a
/// fresh clone: leaves the parameter gradients in `net` (zero before, as
/// in every clone) and returns dL/dinput.
inline Tensor analytic_backward(nn::Network& net, const Tensor& input, const Tensor& target,
                                const train::Loss& loss) {
  const Tensor pred = forward_one(net, input);
  const Tensor g = loss.gradient(pred, target);
  nn::Batch grad_out(1, g.numel());
  std::copy(g.data().begin(), g.data().end(), grad_out.row(0));
  nn::Batch grad_in;
  net.backward_batch(grad_out, &grad_in);
  return Tensor(input.shape(),
                std::vector<double>(grad_in.row(0), grad_in.row(0) + grad_in.width()));
}

inline double loss_at(nn::Network& net, const Tensor& input, const Tensor& target,
                      const train::Loss& loss) {
  check(target.numel() == net.output_shape().numel(), "gradcheck: target size mismatch");
  const Tensor pred = forward_one(net, input);
  return loss.row_value(pred.data().data(), target.data().data(), pred.numel());
}

}  // namespace detail

/// Compares analytic parameter gradients of `net` against central
/// differences for one (input, target) pair under `loss`, both through
/// the training path (a batch of one, so BatchNorm on batch statistics).
///
/// `epsilon` is the finite-difference step. Every forward and probe runs
/// on a clone: `net` itself, BatchNorm running statistics included, is
/// left untouched.
inline GradCheckResult check_parameter_gradients(const nn::Network& original,
                                                 const Tensor& input, const Tensor& target,
                                                 const train::Loss& loss,
                                                 double epsilon = 1e-6) {
  check(epsilon > 0.0, "check_parameter_gradients: epsilon must be positive");
  GradCheckResult result;
  nn::Network net = original.clone();
  detail::analytic_backward(net, input, target, loss);

  // Snapshot analytic gradients before perturbing parameters.
  std::vector<std::vector<double>> analytic;
  for (nn::ParamRef& p : net.params()) analytic.push_back(p.grad->data());

  std::size_t param_idx = 0;
  for (nn::ParamRef& p : net.params()) {
    Tensor& value = *p.value;
    for (std::size_t i = 0; i < value.numel(); ++i) {
      const double saved = value[i];
      value[i] = saved + epsilon;
      const double plus = detail::loss_at(net, input, target, loss);
      value[i] = saved - epsilon;
      const double minus = detail::loss_at(net, input, target, loss);
      value[i] = saved;
      const double numeric = (plus - minus) / (2.0 * epsilon);
      detail::update_errors(analytic[param_idx][i], numeric, result);
    }
    ++param_idx;
  }
  return result;
}

/// Compares the analytic input gradient against central differences, on
/// a clone as above.
inline GradCheckResult check_input_gradients(const nn::Network& original, const Tensor& input,
                                             const Tensor& target, const train::Loss& loss,
                                             double epsilon = 1e-6) {
  check(epsilon > 0.0, "check_input_gradients: epsilon must be positive");
  GradCheckResult result;
  nn::Network net = original.clone();
  const Tensor analytic = detail::analytic_backward(net, input, target, loss);

  Tensor probe = input;
  for (std::size_t i = 0; i < probe.numel(); ++i) {
    const double saved = probe[i];
    probe[i] = saved + epsilon;
    const double plus = detail::loss_at(net, probe, target, loss);
    probe[i] = saved - epsilon;
    const double minus = detail::loss_at(net, probe, target, loss);
    probe[i] = saved;
    const double numeric = (plus - minus) / (2.0 * epsilon);
    detail::update_errors(analytic[i], numeric, result);
  }
  return result;
}

}  // namespace dpv::gradcheck
