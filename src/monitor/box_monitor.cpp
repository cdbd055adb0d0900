#include "monitor/box_monitor.hpp"

#include "common/check.hpp"

namespace dpv::monitor {

BoxMonitor BoxMonitor::from_activations(const std::vector<Tensor>& activations,
                                        double margin_fraction) {
  check(!activations.empty(), "BoxMonitor: no activations to build from");
  check(margin_fraction >= 0.0, "BoxMonitor: margin must be non-negative");
  const std::size_t n = activations.front().numel();
  absint::Box box(n);
  for (std::size_t i = 0; i < n; ++i)
    box[i] = absint::Interval(activations.front()[i], activations.front()[i]);
  for (const Tensor& a : activations) {
    check(a.numel() == n, "BoxMonitor: inconsistent activation dimensions");
    for (std::size_t i = 0; i < n; ++i)
      box[i] = box[i].hull(absint::Interval(a[i], a[i]));
  }
  if (margin_fraction > 0.0) {
    for (absint::Interval& iv : box) {
      const double margin = margin_fraction * iv.width();
      iv = absint::Interval(iv.lo - margin, iv.hi + margin);
    }
  }
  return BoxMonitor(std::move(box));
}

BoxMonitor::BoxMonitor(absint::Box box) : box_(std::move(box)) {
  check(!box_.empty(), "BoxMonitor: empty box");
}

bool BoxMonitor::contains(const Tensor& activation) const {
  check(activation.numel() == box_.size(), "BoxMonitor::contains: dimension mismatch");
  for (std::size_t i = 0; i < box_.size(); ++i)
    if (!box_[i].contains(activation[i])) return false;
  return true;
}

std::vector<std::size_t> BoxMonitor::violations(const Tensor& activation) const {
  check(activation.numel() == box_.size(), "BoxMonitor::violations: dimension mismatch");
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < box_.size(); ++i)
    if (!box_[i].contains(activation[i])) out.push_back(i);
  return out;
}

}  // namespace dpv::monitor
