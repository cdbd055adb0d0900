#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <istream>
#include <iterator>
#include <limits>
#include <ostream>

#include "common/check.hpp"
#include "common/record_io.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pool2d.hpp"

namespace dpv::nn {

namespace {

using common::RecordReader;

constexpr const char* kMagic = "dpv-network";
constexpr std::size_t kVersion = 1;

void write_tensor(std::ostream& out, const Tensor& t) {
  out << t.numel();
  out << std::setprecision(17);
  for (std::size_t i = 0; i < t.numel(); ++i) out << ' ' << t[i];
  out << '\n';
}

/// A decimal number of the file; non-finite values are malformed.
double read_finite(RecordReader& in) {
  const double v = in.dbl();
  if (!std::isfinite(v)) in.fail("non-finite value");
  return v;
}

/// The product of header dimensions, failing instead of wrapping.
std::size_t checked_product(RecordReader& in, const std::vector<std::size_t>& dims) {
  std::size_t n = 1;
  for (const std::size_t d : dims) {
    if (d != 0 && n > std::numeric_limits<std::size_t>::max() / d)
      in.fail("dimension product overflows");
    n *= d;
  }
  return n;
}

/// Fails unless a tensor of `dims` still fits in the unread input: run
/// before the layer that holds it allocates its zero tensors.
void expect_tensor(RecordReader& in, const std::vector<std::size_t>& dims) {
  in.expect_room(checked_product(in, dims));
}

Tensor read_tensor(RecordReader& in, const Shape& shape) {
  const std::size_t count = in.count();
  if (count != shape.numel())
    in.fail("tensor size " + std::to_string(count) + " does not match expected shape " +
            shape.to_string());
  std::vector<double> values(count);
  for (double& v : values) v = read_finite(in);
  return Tensor(shape, std::move(values));
}

void write_shape(std::ostream& out, const Shape& shape) {
  out << shape.rank();
  for (std::size_t d : shape.dims()) out << ' ' << d;
}

Shape read_shape(RecordReader& in) {
  const std::size_t rank = in.size_value();
  if (rank > 4) in.fail("implausible shape rank");
  std::vector<std::size_t> dims(rank);
  for (std::size_t& d : dims) d = in.size_value();
  checked_product(in, dims);
  return Shape(dims);
}

void save_layer(std::ostream& out, const Layer& layer) {
  out << layer_kind_name(layer.kind()) << ' ';
  switch (layer.kind()) {
    case LayerKind::kDense: {
      const auto& d = static_cast<const Dense&>(layer);
      out << d.input_shape().dim(0) << ' ' << d.output_shape().dim(0) << '\n';
      write_tensor(out, d.weight());
      write_tensor(out, d.bias());
      break;
    }
    case LayerKind::kReLU: {
      write_shape(out, layer.input_shape());
      out << '\n';
      break;
    }
    case LayerKind::kBatchNorm: {
      const auto& bn = static_cast<const BatchNorm&>(layer);
      out << bn.input_shape().dim(0) << ' ' << std::setprecision(17) << bn.eps() << '\n';
      write_tensor(out, bn.gamma());
      write_tensor(out, bn.beta());
      write_tensor(out, bn.running_mean());
      write_tensor(out, bn.running_var());
      break;
    }
    case LayerKind::kConv2D: {
      const auto& c = static_cast<const Conv2D&>(layer);
      const Shape in = c.input_shape();
      out << in.dim(0) << ' ' << in.dim(1) << ' ' << in.dim(2) << ' '
          << c.output_shape().dim(0) << ' ' << c.kernel() << ' ' << c.stride() << ' '
          << c.padding() << '\n';
      write_tensor(out, c.weight());
      write_tensor(out, c.bias());
      break;
    }
    case LayerKind::kMaxPool2D:
    case LayerKind::kAvgPool2D: {
      const auto& p = static_cast<const Pool2D&>(layer);
      const Shape in = p.input_shape();
      out << in.dim(0) << ' ' << in.dim(1) << ' ' << in.dim(2) << ' ' << p.window() << '\n';
      break;
    }
    case LayerKind::kFlatten: {
      write_shape(out, layer.input_shape());
      out << '\n';
      break;
    }
  }
}

// Every header dimension is digits only, and every tensor a layer holds
// is checked against the unread input before the layer is constructed.
std::unique_ptr<Layer> load_layer(RecordReader& in, const std::string& kind) {
  if (kind == "dense") {
    const std::size_t in_f = in.size_value();
    const std::size_t out_f = in.size_value();
    expect_tensor(in, {out_f, in_f});
    expect_tensor(in, {out_f});
    auto layer = std::make_unique<Dense>(in_f, out_f);
    Tensor w = read_tensor(in, Shape{out_f, in_f});
    Tensor b = read_tensor(in, Shape{out_f});
    layer->set_parameters(std::move(w), std::move(b));
    return layer;
  }
  if (kind == "relu") return std::make_unique<ReLU>(read_shape(in));
  if (kind == "batchnorm") {
    const std::size_t features = in.size_value();
    const double eps = read_finite(in);
    expect_tensor(in, {features});
    auto layer = std::make_unique<BatchNorm>(features, eps);
    Tensor gamma = read_tensor(in, Shape{features});
    Tensor beta = read_tensor(in, Shape{features});
    Tensor mean = read_tensor(in, Shape{features});
    Tensor var = read_tensor(in, Shape{features});
    layer->set_affine(std::move(gamma), std::move(beta));
    layer->set_statistics(std::move(mean), std::move(var));
    return layer;
  }
  if (kind == "conv2d") {
    std::size_t dims[7];  // ic ih iw oc k s p
    for (std::size_t& d : dims) d = in.size_value();
    const auto [ic, ih, iw, oc, k, s, p] = dims;
    expect_tensor(in, {oc, ic, k, k});
    expect_tensor(in, {oc});
    checked_product(in, {ic, ih, iw});
    // The padded extents bound the output extents the layer multiplies.
    const std::size_t pad = checked_product(in, {2, p});
    if (pad > std::numeric_limits<std::size_t>::max() - std::max(ih, iw))
      in.fail("conv2d padding overflows");
    checked_product(in, {oc, ih + pad, iw + pad});
    auto layer = std::make_unique<Conv2D>(ic, ih, iw, oc, k, s, p);
    Tensor w = read_tensor(in, Shape{oc * ic * k * k});
    Tensor b = read_tensor(in, Shape{oc});
    layer->set_parameters(std::move(w), std::move(b));
    return layer;
  }
  if (kind == "maxpool2d" || kind == "avgpool2d") {
    std::size_t dims[4];  // c h w window
    for (std::size_t& d : dims) d = in.size_value();
    const auto [c, h, w, win] = dims;
    checked_product(in, {c, h, w});
    if (kind == "maxpool2d") return std::make_unique<MaxPool2D>(c, h, w, win);
    return std::make_unique<AvgPool2D>(c, h, w, win);
  }
  if (kind == "flatten") return std::make_unique<Flatten>(read_shape(in));
  in.fail("unknown layer kind '" + kind + "'");
}

}  // namespace

void save(const Network& net, std::ostream& out) {
  out << kMagic << ' ' << kVersion << '\n';
  out << "layers " << net.layer_count() << '\n';
  for (std::size_t i = 0; i < net.layer_count(); ++i) save_layer(out, net.layer(i));
}

Network load(std::istream& in) {
  RecordReader reader(std::string(std::istreambuf_iterator<char>(in), {}), "load");
  reader.expect_tag(kMagic);
  const std::size_t version = reader.size_value();
  if (version != kVersion) reader.fail("unsupported version " + std::to_string(version));
  reader.expect_tag("layers");
  const std::size_t count = reader.count();
  Network net;
  for (std::size_t i = 0; i < count; ++i) net.add(load_layer(reader, reader.token()));
  return net;
}

void save_file(const Network& net, const std::string& path) {
  std::ofstream out(path);
  check(out.good(), "save_file: cannot open '" + path + "'");
  save(net, out);
  check(out.good(), "save_file: write failed for '" + path + "'");
}

Network load_file(const std::string& path) {
  std::ifstream in(path);
  check(in.good(), "load_file: cannot open '" + path + "'");
  return load(in);
}

}  // namespace dpv::nn
