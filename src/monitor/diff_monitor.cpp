#include "monitor/diff_monitor.hpp"

#include "common/check.hpp"
#include "tensor/tensor_ops.hpp"

namespace dpv::monitor {

DiffMonitor DiffMonitor::from_activations(const std::vector<Tensor>& activations,
                                          double margin_fraction) {
  BoxMonitor box = BoxMonitor::from_activations(activations, margin_fraction);
  const std::size_t n = box.dimensions();
  std::vector<absint::Interval> diffs;
  if (n >= 2) {
    diffs.assign(n - 1, absint::Interval());
    bool first = true;
    for (const Tensor& a : activations) {
      const std::vector<double> d = adjacent_differences(a);
      for (std::size_t i = 0; i + 1 < n; ++i) {
        const absint::Interval point(d[i], d[i]);
        diffs[i] = first ? point : diffs[i].hull(point);
      }
      first = false;
    }
    if (margin_fraction > 0.0) {
      for (absint::Interval& iv : diffs) {
        const double margin = margin_fraction * iv.width();
        iv = absint::Interval(iv.lo - margin, iv.hi + margin);
      }
    }
  }
  return DiffMonitor(std::move(box), std::move(diffs));
}

DiffMonitor::DiffMonitor(BoxMonitor box, std::vector<absint::Interval> diff_bounds)
    : box_(std::move(box)), diff_bounds_(std::move(diff_bounds)) {
  check(diff_bounds_.size() + 1 == box_.dimensions() || (box_.dimensions() == 1 && diff_bounds_.empty()),
        "DiffMonitor: diff bound count must be dimensions - 1");
}

bool DiffMonitor::contains(const Tensor& activation) const {
  if (!box_.contains(activation)) return false;
  for (std::size_t i = 0; i < diff_bounds_.size(); ++i)
    if (!diff_bounds_[i].contains(activation[i + 1] - activation[i])) return false;
  return true;
}

std::vector<std::string> DiffMonitor::violations(const Tensor& activation) const {
  std::vector<std::string> out;
  for (std::size_t i : box_.violations(activation))
    out.push_back("n" + std::to_string(i) + " = " + std::to_string(activation[i]) +
                  " outside " + box_.box()[i].to_string());
  for (std::size_t i = 0; i < diff_bounds_.size(); ++i) {
    const double d = activation[i + 1] - activation[i];
    if (!diff_bounds_[i].contains(d))
      out.push_back("n" + std::to_string(i + 1) + " - n" + std::to_string(i) + " = " +
                    std::to_string(d) + " outside " + diff_bounds_[i].to_string());
  }
  return out;
}

}  // namespace dpv::monitor
