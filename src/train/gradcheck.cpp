#include "train/gradcheck.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"

namespace dpv::train {

namespace {

void update_errors(double analytic, double numeric, GradCheckResult& result) {
  const double abs_err = std::abs(analytic - numeric);
  const double denom = std::max({std::abs(analytic), std::abs(numeric), 1e-8});
  result.max_abs_error = std::max(result.max_abs_error, abs_err);
  result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
}

/// Training-mode forward of `input` as a batch of one, so BatchNorm uses
/// the same statistics path the analytic backward differentiates through.
Tensor forward_one(nn::Network& net, const Tensor& input) {
  nn::Batch& x = net.batch_input(1);
  check(input.numel() == x.width(), "gradcheck: input size mismatch");
  std::copy(input.data().begin(), input.data().end(), x.row(0));
  const nn::Batch& y = net.forward_batch();
  return Tensor(net.output_shape(), std::vector<double>(y.row(0), y.row(0) + y.width()));
}

/// Analytic backward of `loss` at `input` through the training path on a
/// fresh clone: leaves the parameter gradients in `net` (zero before, as
/// in every clone) and returns dL/dinput.
Tensor analytic_backward(nn::Network& net, const Tensor& input, const Tensor& target,
                         const Loss& loss) {
  const Tensor pred = forward_one(net, input);
  const Tensor g = loss.gradient(pred, target);
  nn::Batch grad_out(1, g.numel());
  std::copy(g.data().begin(), g.data().end(), grad_out.row(0));
  nn::Batch grad_in;
  net.backward_batch(grad_out, &grad_in);
  return Tensor(input.shape(),
                std::vector<double>(grad_in.row(0), grad_in.row(0) + grad_in.width()));
}

double loss_at(nn::Network& net, const Tensor& input, const Tensor& target, const Loss& loss) {
  return loss.value(forward_one(net, input), target);
}

}  // namespace

GradCheckResult check_parameter_gradients(const nn::Network& original, const Tensor& input,
                                          const Tensor& target, const Loss& loss,
                                          double epsilon) {
  check(epsilon > 0.0, "check_parameter_gradients: epsilon must be positive");
  GradCheckResult result;
  nn::Network net = original.clone();
  analytic_backward(net, input, target, loss);

  // Snapshot analytic gradients before perturbing parameters.
  std::vector<std::vector<double>> analytic;
  for (nn::ParamRef& p : net.params()) analytic.push_back(p.grad->data());

  std::size_t param_idx = 0;
  for (nn::ParamRef& p : net.params()) {
    Tensor& value = *p.value;
    for (std::size_t i = 0; i < value.numel(); ++i) {
      const double saved = value[i];
      value[i] = saved + epsilon;
      const double plus = loss_at(net, input, target, loss);
      value[i] = saved - epsilon;
      const double minus = loss_at(net, input, target, loss);
      value[i] = saved;
      const double numeric = (plus - minus) / (2.0 * epsilon);
      update_errors(analytic[param_idx][i], numeric, result);
    }
    ++param_idx;
  }
  return result;
}

GradCheckResult check_input_gradients(const nn::Network& original, const Tensor& input,
                                      const Tensor& target, const Loss& loss, double epsilon) {
  check(epsilon > 0.0, "check_input_gradients: epsilon must be positive");
  GradCheckResult result;
  nn::Network net = original.clone();
  const Tensor analytic = analytic_backward(net, input, target, loss);

  Tensor probe = input;
  for (std::size_t i = 0; i < probe.numel(); ++i) {
    const double saved = probe[i];
    probe[i] = saved + epsilon;
    const double plus = loss_at(net, probe, target, loss);
    probe[i] = saved - epsilon;
    const double minus = loss_at(net, probe, target, loss);
    probe[i] = saved;
    const double numeric = (plus - minus) / (2.0 * epsilon);
    update_errors(analytic[i], numeric, result);
  }
  return result;
}

}  // namespace dpv::train
