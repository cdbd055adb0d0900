#include "monitor/relation_monitor.hpp"

#include "common/check.hpp"

namespace dpv::monitor {

std::vector<NeuronPair> RelationMonitor::adjacent_pairs(std::size_t width) {
  return stride_pairs(width, 1);
}

std::vector<NeuronPair> RelationMonitor::stride_pairs(std::size_t width, std::size_t stride) {
  check(stride > 0, "RelationMonitor::stride_pairs: stride must be positive");
  std::vector<NeuronPair> pairs;
  for (std::size_t i = 0; i + stride < width; ++i) pairs.push_back({i, i + stride});
  return pairs;
}

std::vector<NeuronPair> RelationMonitor::all_pairs(std::size_t width) {
  std::vector<NeuronPair> pairs;
  for (std::size_t i = 0; i < width; ++i)
    for (std::size_t j = i + 1; j < width; ++j) pairs.push_back({i, j});
  return pairs;
}

RelationMonitor RelationMonitor::from_activations(const std::vector<Tensor>& activations,
                                                  std::vector<NeuronPair> pairs,
                                                  double margin_fraction) {
  BoxMonitor box = BoxMonitor::from_activations(activations, margin_fraction);
  const std::size_t n = box.dimensions();
  for (const NeuronPair& p : pairs)
    check(p.first < n && p.second < n && p.first != p.second,
          "RelationMonitor: invalid neuron pair");

  std::vector<absint::Interval> bounds(pairs.size());
  bool first_sample = true;
  for (const Tensor& a : activations) {
    for (std::size_t k = 0; k < pairs.size(); ++k) {
      const double d = a[pairs[k].second] - a[pairs[k].first];
      const absint::Interval point(d, d);
      bounds[k] = first_sample ? point : bounds[k].hull(point);
    }
    first_sample = false;
  }
  if (margin_fraction > 0.0) {
    for (absint::Interval& iv : bounds) {
      const double margin = margin_fraction * iv.width();
      iv = absint::Interval(iv.lo - margin, iv.hi + margin);
    }
  }
  return RelationMonitor(std::move(box), std::move(pairs), std::move(bounds));
}

RelationMonitor::RelationMonitor(BoxMonitor box, std::vector<NeuronPair> pairs,
                                 std::vector<absint::Interval> pair_bounds)
    : box_(std::move(box)), pairs_(std::move(pairs)), pair_bounds_(std::move(pair_bounds)) {
  check(pairs_.size() == pair_bounds_.size(),
        "RelationMonitor: pair/bound count mismatch");
}

bool RelationMonitor::contains(const Tensor& activation) const {
  if (!box_.contains(activation)) return false;
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    const double d = activation[pairs_[k].second] - activation[pairs_[k].first];
    if (!pair_bounds_[k].contains(d)) return false;
  }
  return true;
}

std::vector<std::string> RelationMonitor::violations(const Tensor& activation) const {
  std::vector<std::string> out;
  for (std::size_t i : box_.violations(activation))
    out.push_back("n" + std::to_string(i) + " = " + std::to_string(activation[i]) +
                  " outside " + box_.box()[i].to_string());
  for (std::size_t k = 0; k < pairs_.size(); ++k) {
    const double d = activation[pairs_[k].second] - activation[pairs_[k].first];
    if (!pair_bounds_[k].contains(d))
      out.push_back("n" + std::to_string(pairs_[k].second) + " - n" +
                    std::to_string(pairs_[k].first) + " = " + std::to_string(d) +
                    " outside " + pair_bounds_[k].to_string());
  }
  return out;
}

}  // namespace dpv::monitor
