#include "train/metrics.hpp"


#include "common/check.hpp"

namespace dpv::train {

namespace {
double ratio(std::size_t part, std::size_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}
}  // namespace

double ConfusionCounts::accuracy() const { return ratio(tp + tn, total()); }
double ConfusionCounts::alpha() const { return ratio(tp, total()); }
double ConfusionCounts::beta() const { return ratio(fp, total()); }
double ConfusionCounts::gamma() const { return ratio(fn, total()); }
double ConfusionCounts::delta() const { return ratio(tn, total()); }

ConfusionCounts binary_confusion(const nn::Network& classifier, const Dataset& data) {
  ConfusionCounts counts;
  for (const Sample& s : data.samples()) {
    check(s.target.numel() == 1, "binary_confusion: scalar target expected");
    const Tensor out = classifier.forward(s.input);
    check(out.numel() == 1, "binary_confusion: single-logit classifier expected");
    const bool predicted = out[0] >= 0.0;
    const bool actual = s.target[0] >= 0.5;
    if (predicted && actual)
      ++counts.tp;
    else if (predicted && !actual)
      ++counts.fp;
    else if (!predicted && actual)
      ++counts.fn;
    else
      ++counts.tn;
  }
  return counts;
}

double regression_mse(const nn::Network& net, const Dataset& data) {
  check(!data.empty(), "regression_mse: empty dataset");
  double acc = 0.0;
  std::size_t n = 0;
  for (const Sample& s : data.samples()) {
    const Tensor out = net.forward(s.input);
    check(out.same_shape(s.target), "regression_mse: target shape mismatch");
    for (std::size_t i = 0; i < out.numel(); ++i) {
      const double d = out[i] - s.target[i];
      acc += d * d;
      ++n;
    }
  }
  return acc / static_cast<double>(n);
}

}  // namespace dpv::train
