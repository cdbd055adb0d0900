// The committed testbed perception network and the road data the two
// testbed workloads (coverage-serial, campaign-parallel) render from
// their seed.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset_gen.hpp"
#include "nn/network.hpp"

namespace perfbench {

class Tracer;

/// Model files, relative to the checkout root (the benchmark's cwd).
inline constexpr const char* kModelPath = "perfbench/model/testbed.dpvnet";
inline constexpr const char* kRecordPath = "perfbench/model/testbed.record";

/// The model's recipe and its quality as measured when it was saved,
/// stored as a common::RecordWriter token stream (MSEs bit-exact).
struct ModelRecord {
  std::size_t attach_layer = 0;
  std::uint64_t train_seed = 101;
  std::uint64_t val_seed = 202;
  std::size_t train_count = 1400;
  std::size_t val_count = 600;
  double train_mse = 0.0;
  double val_mse = 0.0;
};

/// Throws (a std::exception) on a missing or malformed record.
ModelRecord read_model_record(const std::string& path);
void write_model_record(const std::string& path, const ModelRecord& record);

struct Testbed {
  dpv::nn::Network network;
  std::size_t attach_layer = 0;
  dpv::data::RenderConfig render;
  std::vector<dpv::data::RoadSample> train_samples;
  std::vector<dpv::data::RoadSample> val_samples;
};

/// Road-data seeds of a workload seed. Seed 0 renders exactly the
/// model's own training and validation sets.
std::uint64_t train_data_seed(const ModelRecord& record, std::uint64_t seed);
std::uint64_t val_data_seed(const ModelRecord& record, std::uint64_t seed);

/// Set-up of the testbed workloads: loads the committed model, renders
/// the seed's road data (as many images as the model was trained and
/// validated on) and checks the model's MSE on it against the recorded
/// values. Throws std::runtime_error when the check fails.
Testbed load_testbed(std::uint64_t seed, Tracer& tracer);

}  // namespace perfbench
