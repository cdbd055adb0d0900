// Evaluation metrics.
//
// ConfusionCounts is the bridge to the paper's Section III: its cell
// frequencies are exactly the alpha / beta / gamma / (1-a-b-g) entries of
// Table I once normalized by the evaluation-set size.
#pragma once

#include <cstddef>

#include "nn/network.hpp"
#include "train/dataset.hpp"

namespace dpv::train {

/// 2x2 confusion table for a binary classifier.
///
/// Cells follow Table I of the paper with "positive" meaning the property
/// phi holds: tp = (predicted 1, in In_phi), fp = (predicted 1, not in
/// In_phi), fn = (predicted 0, in In_phi), tn = (predicted 0, not in
/// In_phi).
struct ConfusionCounts {
  std::size_t tp = 0;
  std::size_t fp = 0;
  std::size_t fn = 0;
  std::size_t tn = 0;

  std::size_t total() const { return tp + fp + fn + tn; }
  double accuracy() const;

  /// Table I cell probabilities (relative frequencies).
  double alpha() const;  // h=1 and in in In_phi
  double beta() const;   // h=1 and in not in In_phi
  double gamma() const;  // h=0 and in in In_phi  — the soundness gap
  double delta() const;  // h=0 and in not in In_phi
};

/// Confusion of `classifier` (single-logit output, decision logit >= 0)
/// against a dataset with scalar {0,1} targets.
ConfusionCounts binary_confusion(const nn::Network& classifier, const Dataset& data);

/// Mean squared error of a regressor over a dataset.
double regression_mse(const nn::Network& net, const Dataset& data);

}  // namespace dpv::train
