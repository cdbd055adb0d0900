#include "train/trainer.hpp"

#include <algorithm>
#include <cstdio>
#include <numeric>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace dpv::train {

LossHistory Trainer::fit(nn::Network& net, const Dataset& data, const Loss& loss,
                         Adam& optimizer) {
  check(!data.empty(), "Trainer::fit: empty dataset");
  check(config_.batch_size > 0, "Trainer::fit: batch size must be positive");
  const std::vector<nn::ParamRef> params = net.params();
  const std::size_t in_width = net.input_shape().numel();
  const std::size_t out_width = net.output_shape().numel();
  Rng rng(config_.shuffle_seed);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  nn::Batch grad_out;

  LossHistory history;
  history.reserve(config_.epochs);
  for (std::size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.shuffle(order);
    double epoch_loss = 0.0;
    for (std::size_t start = 0; start < order.size(); start += config_.batch_size) {
      const std::size_t rows = std::min(config_.batch_size, order.size() - start);
      nn::Batch& x = net.batch_input(rows);
      for (std::size_t s = 0; s < rows; ++s) {
        const Sample& sample = data[order[start + s]];
        check(sample.input.numel() == in_width && sample.target.numel() == out_width,
              "Trainer::fit: sample size differs from the network's input or output");
        std::copy(sample.input.data().begin(), sample.input.data().end(), x.row(s));
      }
      for (const nn::ParamRef& p : params) p.grad->fill(0.0);
      const nn::Batch& y = net.forward_batch();
      grad_out.resize(rows, out_width);
      const double inv_batch = 1.0 / static_cast<double>(rows);
      for (std::size_t s = 0; s < rows; ++s) {
        const double* target = data[order[start + s]].target.data().data();
        epoch_loss += loss.row_value(y.row(s), target, out_width);
        double* g = grad_out.row(s);
        loss.row_gradient(y.row(s), target, out_width, g);
        for (std::size_t j = 0; j < out_width; ++j) g[j] *= inv_batch;
      }
      net.backward_batch(grad_out);
      optimizer.step(params);
    }
    history.push_back(epoch_loss / static_cast<double>(order.size()));
    if (config_.verbose)
      std::printf("epoch %3zu  loss %.6f\n", epoch + 1, history.back());
  }
  return history;
}

}  // namespace dpv::train
