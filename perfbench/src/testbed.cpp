#include "testbed.hpp"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "common/record_io.hpp"
#include "nn/serialize.hpp"
#include "train/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

/// On the model's own data the MSE must reproduce up to summation-order
/// rounding (a kernel rewrite may reorder sums, never change the model).
constexpr double kOwnDataTolerance = 1e-6;
/// On other seeds' data it must stay within this share of the recorded
/// validation MSE: same data distribution, different draws.
constexpr double kOtherDataTolerance = 0.5;

constexpr const char* kRecordTag = "dpv-perfbench-model";
constexpr std::size_t kRecordVersion = 1;

void check_mse(const char* split, double measured, double recorded, double tolerance) {
  if (!(std::abs(measured - recorded) <= tolerance * recorded)) {
    std::ostringstream msg;
    msg << "testbed model " << split << " MSE " << measured << " is not within "
        << tolerance * 100.0 << "% of the recorded " << recorded;
    throw std::runtime_error(msg.str());
  }
}

}  // namespace

ModelRecord read_model_record(const std::string& path) {
  std::string text;
  if (!dpv::common::read_file(path, text))
    throw std::runtime_error("cannot read model record " + path);
  dpv::common::RecordReader in(std::move(text), path);
  in.expect_tag(kRecordTag);
  if (in.size_value() != kRecordVersion) in.fail("unsupported version");
  ModelRecord record;
  in.expect_tag("attach_layer");
  record.attach_layer = in.size_value();
  in.expect_tag("train_seed");
  record.train_seed = in.u64();
  in.expect_tag("train_count");
  record.train_count = in.size_value();
  in.expect_tag("val_seed");
  record.val_seed = in.u64();
  in.expect_tag("val_count");
  record.val_count = in.size_value();
  in.expect_tag("train_mse");
  record.train_mse = in.dbl();
  in.expect_tag("val_mse");
  record.val_mse = in.dbl();
  return record;
}

void write_model_record(const std::string& path, const ModelRecord& record) {
  dpv::common::RecordWriter out;
  out.tag(kRecordTag);
  out.size_value(kRecordVersion);
  out.newline();
  out.tag("attach_layer");
  out.size_value(record.attach_layer);
  out.newline();
  out.tag("train_seed");
  out.u64(record.train_seed);
  out.tag("train_count");
  out.size_value(record.train_count);
  out.newline();
  out.tag("val_seed");
  out.u64(record.val_seed);
  out.tag("val_count");
  out.size_value(record.val_count);
  out.newline();
  out.tag("train_mse");
  out.dbl(record.train_mse);
  out.tag("val_mse");
  out.dbl(record.val_mse);
  out.newline();
  dpv::common::write_file_atomic(path, out.take(), "model record");
}

std::uint64_t train_data_seed(const ModelRecord& record, std::uint64_t seed) {
  return record.train_seed + 1000 * seed;
}

std::uint64_t val_data_seed(const ModelRecord& record, std::uint64_t seed) {
  return record.val_seed + 1000 * seed;
}

Testbed load_testbed(std::uint64_t seed, Tracer& tracer) {
  Testbed tb;
  const ModelRecord record = read_model_record(kRecordPath);
  {
    Span span(tracer, "nn.load");
    tb.network = dpv::nn::load_file(kModelPath);
  }
  tb.attach_layer = record.attach_layer;
  {
    Span span(tracer, "data.render");
    tb.train_samples =
        dpv::data::generate_road_samples({record.train_count, train_data_seed(record, seed), tb.render});
    tb.val_samples =
        dpv::data::generate_road_samples({record.val_count, val_data_seed(record, seed), tb.render});
    tracer.count("data.renders", static_cast<double>(record.train_count + record.val_count));
  }
  double train_mse = 0.0, val_mse = 0.0;
  {
    // regression_mse is one forward pass per sample plus a running sum.
    Span span(tracer, "nn.forward");
    train_mse = dpv::train::regression_mse(tb.network,
                                           dpv::data::to_regression_dataset(tb.train_samples));
    val_mse = dpv::train::regression_mse(tb.network,
                                         dpv::data::to_regression_dataset(tb.val_samples));
    tracer.count("nn.forwards", static_cast<double>(record.train_count + record.val_count));
  }
  if (seed == 0) {
    check_mse("train", train_mse, record.train_mse, kOwnDataTolerance);
    check_mse("validation", val_mse, record.val_mse, kOwnDataTolerance);
  } else {
    check_mse("train-split", train_mse, record.val_mse, kOtherDataTolerance);
    check_mse("validation-split", val_mse, record.val_mse, kOtherDataTolerance);
  }
  return tb;
}

}  // namespace perfbench
