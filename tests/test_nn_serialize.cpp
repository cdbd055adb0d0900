// Serialization round-trip tests for every layer kind and malformed-input
// rejection, plus fingerprint stability across the round trip — the
// delta-reuse layer keys persisted artifacts by network fingerprint, so
// a save/load cycle must neither change it nor collide after a retrain.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "common/check.hpp"
#include "common/rng.hpp"
#include "data/perception_model.hpp"
#include "nn/activations.hpp"
#include "nn/batchnorm.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/flatten.hpp"
#include "nn/pool2d.hpp"
#include "nn/serialize.hpp"
#include "tensor/tensor_ops.hpp"
#include "verify/encoding_cache.hpp"

namespace dpv::nn {
namespace {

Network make_mixed_network(Rng& rng) {
  Network net;
  auto conv = std::make_unique<Conv2D>(1, 4, 4, 2, 3, 1, 1);
  conv->init_he(rng);
  net.add(std::move(conv));
  net.add(std::make_unique<ReLU>(Shape{2, 4, 4}));
  net.add(std::make_unique<MaxPool2D>(2, 4, 4, 2));
  net.add(std::make_unique<Flatten>(Shape{2, 2, 2}));
  auto dense = std::make_unique<Dense>(8, 4);
  dense->init_he(rng);
  net.add(std::move(dense));
  auto bn = std::make_unique<BatchNorm>(4);
  bn->set_affine(Tensor::vector1d({1.0, 2.0, 0.5, 1.5}),
                 Tensor::vector1d({0.1, -0.1, 0.0, 0.2}));
  bn->set_statistics(Tensor::vector1d({0.2, -0.3, 0.0, 0.1}),
                     Tensor::vector1d({1.0, 2.0, 0.5, 1.2}));
  net.add(std::move(bn));
  net.add(std::make_unique<ReLU>(Shape{4}));
  auto out = std::make_unique<Dense>(4, 2);
  out->init_he(rng);
  net.add(std::move(out));
  net.add(std::make_unique<ReLU>(Shape{2}));
  return net;
}

TEST(Serialize, RoundTripPreservesBehaviourBitExactly) {
  Rng rng(31);
  Network original = make_mixed_network(rng);
  std::stringstream buffer;
  save(original, buffer);
  Network restored = load(buffer);

  ASSERT_EQ(restored.layer_count(), original.layer_count());
  Rng probe_rng(77);
  for (int probe = 0; probe < 5; ++probe) {
    const Tensor x = Tensor::randn(Shape{1, 4, 4}, probe_rng, 1.0);
    EXPECT_EQ(max_abs_diff(original.forward(x), restored.forward(x)), 0.0);
  }
}

TEST(Serialize, RoundTripPerceptionFactoryModel) {
  Rng rng(5);
  data::PerceptionConfig config;
  config.render.width = 16;
  config.render.height = 8;
  config.embedding = 8;
  config.features = 6;
  config.tail_hidden = 6;
  data::PerceptionModel model = data::make_perception_network(config, rng);
  std::stringstream buffer;
  save(model.network, buffer);
  Network restored = load(buffer);
  const Tensor x = Tensor::randn(Shape{1, 8, 16}, rng, 0.3);
  EXPECT_EQ(max_abs_diff(model.network.forward(x), restored.forward(x)), 0.0);
}

TEST(Serialize, AvgPoolRoundTrip) {
  Network net;
  net.add(std::make_unique<AvgPool2D>(1, 4, 4, 2));
  std::stringstream buffer;
  save(net, buffer);
  Network restored = load(buffer);
  EXPECT_EQ(restored.layer(0).kind(), LayerKind::kAvgPool2D);
}

TEST(Serialize, FileRoundTrip) {
  Rng rng(9);
  Network net;
  auto dense = std::make_unique<Dense>(3, 3);
  dense->init_he(rng);
  net.add(std::move(dense));
  const std::string path = ::testing::TempDir() + "/dpv_net.txt";
  save_file(net, path);
  Network restored = load_file(path);
  const Tensor x = Tensor::vector1d({0.1, -0.2, 0.3});
  EXPECT_EQ(max_abs_diff(net.forward(x), restored.forward(x)), 0.0);
}

// ------------------------------------------------ fingerprint stability

TEST(Fingerprint, StableAcrossSerializationRoundTrip) {
  Rng rng(31);
  Network original = make_mixed_network(rng);
  std::stringstream buffer;
  save(original, buffer);
  Network restored = load(buffer);

  // The fingerprint hashes architecture + parameter bits, both of which
  // the hexfloat stream preserves exactly — so the persisted model must
  // key the same artifact bundle as the in-memory one, from any layer.
  for (std::size_t from = 0; from < original.layer_count(); ++from)
    EXPECT_EQ(verify::tail_fingerprint(original, from),
              verify::tail_fingerprint(restored, from))
        << "from layer " << from;
}

TEST(Fingerprint, PinnedForAFixedTail) {
  // Delta bundles and checkpoints persist tail fingerprints, and the
  // fingerprint hashes each layer's LayerKind value: this tail must keep
  // the value every earlier build computed. Every parameter is a short
  // dyadic and var + eps a perfect square, so the BatchNorm effective
  // scale and shift are exact in any build.
  Network tail;
  auto d1 = std::make_unique<Dense>(2, 3);
  d1->set_parameters(Tensor(Shape{3, 2}, {0.5, -1.0, 0.25, 2.0, -0.75, 1.25}),
                     Tensor::vector1d({0.125, -0.25, 0.375}));
  tail.add(std::move(d1));
  auto bn = std::make_unique<BatchNorm>(3, /*eps=*/0.0625);
  bn->set_affine(Tensor::vector1d({1.5, -0.5, 2.0}), Tensor::vector1d({0.25, -0.125, 0.0}));
  bn->set_statistics(Tensor::vector1d({0.25, -1.0, 0.5}),
                     Tensor::vector1d({0.9375, 3.9375, 0.1875}));
  tail.add(std::move(bn));
  tail.add(std::make_unique<ReLU>(Shape{3}));
  auto d2 = std::make_unique<Dense>(3, 1);
  d2->set_parameters(Tensor(Shape{1, 3}, {1.0, -2.0, 0.5}), Tensor::vector1d({0.0625}));
  tail.add(std::move(d2));
  EXPECT_EQ(verify::tail_fingerprint(tail, 0), std::size_t{17259809853654068071ull});
}

TEST(Fingerprint, EpsilonWeightChangeAltersFingerprintAndVersionedKey) {
  Rng rng(31);
  Network original = make_mixed_network(rng);
  Network nudged = original.clone();
  EXPECT_EQ(verify::tail_fingerprint(original, 0), verify::tail_fingerprint(nudged, 0));

  // The smallest representable retrain: one weight, one ulp-scale nudge.
  auto& dense = dynamic_cast<Dense&>(nudged.layer(4));
  Tensor w = dense.weight();
  Tensor b = dense.bias();
  w[0] += 1e-12;
  dense.set_parameters(std::move(w), std::move(b));

  const std::size_t base_fp = verify::tail_fingerprint(original, 0);
  const std::size_t nudged_fp = verify::tail_fingerprint(nudged, 0);
  EXPECT_NE(base_fp, nudged_fp);
  // Layers strictly after the edit still fingerprint identically.
  EXPECT_EQ(verify::tail_fingerprint(original, 5), verify::tail_fingerprint(nudged, 5));

  // The versioned cache identity separates base, retrained, and
  // chain-of-retrains — and never degenerates to the reserved 0.
  const std::size_t base_key = verify::versioned_cache_key(base_fp, {});
  const std::size_t delta_key = verify::versioned_cache_key(base_fp, {nudged_fp});
  EXPECT_NE(base_key, 0u);
  EXPECT_NE(delta_key, 0u);
  EXPECT_NE(base_key, delta_key);
}

TEST(Serialize, RejectsBadMagic) {
  std::stringstream buffer("not-a-network 1\nlayers 0\n");
  EXPECT_THROW(load(buffer), ContractViolation);
}

TEST(Serialize, RejectsUnsupportedVersion) {
  std::stringstream buffer("dpv-network 99\nlayers 0\n");
  EXPECT_THROW(load(buffer), ContractViolation);
}

TEST(Serialize, RejectsUnknownLayerKind) {
  std::stringstream buffer("dpv-network 1\nlayers 1\nwavelet 4\n");
  EXPECT_THROW(load(buffer), ContractViolation);
}

TEST(Serialize, RejectsTruncatedTensor) {
  Rng rng(4);
  Network net;
  auto dense = std::make_unique<Dense>(2, 2);
  dense->init_he(rng);
  net.add(std::move(dense));
  std::stringstream buffer;
  save(net, buffer);
  std::string text = buffer.str();
  text.resize(text.size() / 2);  // chop the payload
  std::stringstream truncated(text);
  EXPECT_THROW(load(truncated), ContractViolation);
}

TEST(Serialize, RejectsMalformedDimensionsBeforeAllocating) {
  // A negative dimension once wrapped to 2^64 - 1 and reached a layer
  // constructor (std::length_error), or passed as a wrapped element
  // count; an oversized one allocated its zero tensors (10^10 weights
  // here) before any weight was read; dimension products and padded
  // extents could wrap. Each is now a ContractViolation raised before
  // the layer is constructed. The leakyrelu, sigmoid and tanh records
  // name layer kinds the library does not have.
  for (const char* layer : {"dense -1 2\n", "conv2d 1 8 8 -1 3 1 1\n",
                            "batchnorm -1 1e-5\n", "relu 4 -1 2 2 2\n",
                            "dense 100000 100000\n1 2 3\n",
                            "flatten 2 4294967296 4294967296\n",
                            "conv2d 1 8 8 1 1 1 9223372036854775807\n",
                            "leakyrelu 0.1 1 4\n", "sigmoid 1 4\n", "tanh 1 4\n"}) {
    std::stringstream buffer(std::string("dpv-network 1\nlayers 1\n") + layer);
    EXPECT_THROW(load(buffer), ContractViolation) << layer;
  }
}

TEST(Serialize, RejectsMissingFile) {
  EXPECT_THROW(load_file("/nonexistent/dpv.txt"), ContractViolation);
}

}  // namespace
}  // namespace dpv::nn
