// Regenerates the committed testbed model and its record: the recipe of
// bench/common/testbed.cpp (renders at seeds 101/202, Rng(7) init, Adam
// 0.005, 18 epochs). Run from the repository root:
//
//   cmake --build <build-dir> --target dpv_perfbench_model
//   <build-dir>/dpv_perfbench_model
//
// Benchmark runs only ever load the result; they never train.
#include <cstdio>
#include <exception>

#include "data/perception_model.hpp"
#include "nn/serialize.hpp"
#include "testbed.hpp"
#include "train/loss.hpp"
#include "train/metrics.hpp"
#include "train/optimizer.hpp"
#include "train/trainer.hpp"

int main() {
  using namespace dpv;
  try {
    perfbench::ModelRecord record;
    const data::PerceptionConfig config;
    const auto train_samples = data::generate_road_samples(
        {record.train_count, record.train_seed, config.render});
    const auto val_samples =
        data::generate_road_samples({record.val_count, record.val_seed, config.render});
    const train::Dataset train_set = data::to_regression_dataset(train_samples);

    Rng rng(7);
    data::PerceptionModel model = data::make_perception_network(config, rng);
    train::MseLoss loss;
    train::Adam optimizer(0.005);
    train::Trainer trainer({.epochs = 18, .batch_size = 32, .shuffle_seed = 3});
    trainer.fit(model.network, train_set, loss, optimizer);
    nn::save_file(model.network, perfbench::kModelPath);

    // Record the MSEs of the model as a benchmark run will load it.
    const nn::Network saved = nn::load_file(perfbench::kModelPath);
    record.attach_layer = model.attach_layer;
    record.train_mse = train::regression_mse(saved, train_set);
    record.val_mse = train::regression_mse(saved, data::to_regression_dataset(val_samples));
    perfbench::write_model_record(perfbench::kRecordPath, record);
    std::printf("wrote %s and %s: train MSE %.6f, validation MSE %.6f\n", perfbench::kModelPath,
                perfbench::kRecordPath, record.train_mse, record.val_mse);
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dpv_perfbench_model: %s\n", e.what());
    return 1;
  }
}
