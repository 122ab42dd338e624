// Layer-level tests: shapes, parameter registration, gradient flow,
// train/eval behaviour, serialization round-trips.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <map>
#include <sstream>

#include "nn/conv1d.h"
#include "nn/conv2d.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/gru.h"
#include "nn/layer_norm.h"
#include "nn/linear.h"
#include "nn/serialize.h"
#include "tensor/gradcheck.h"
#include "tensor/ops.h"
#include "util/binary_io.h"

namespace conformer::nn {
namespace {

TEST(ModuleTest, ParameterRegistrationIsRecursive) {
  Linear inner(4, 3);
  EXPECT_EQ(inner.Parameters().size(), 2u);  // weight + bias
  EXPECT_EQ(inner.NumParameters(), 4 * 3 + 3);
}

TEST(ModuleTest, NamedParametersHaveDottedPaths) {
  Gru gru(4, 8, 2);
  bool found = false;
  for (const auto& [name, t] : gru.NamedParameters()) {
    if (name == "layer1.w_hh") {
      found = true;
      EXPECT_EQ(t.shape(), (Shape{8, 24}));
    }
  }
  EXPECT_TRUE(found);
}

TEST(ModuleTest, SetTrainingPropagates) {
  DataEmbedding emb(3, 5, 8);
  emb.SetTraining(false);
  EXPECT_FALSE(emb.training());
  emb.SetTraining(true);
  EXPECT_TRUE(emb.training());
}

TEST(ModuleTest, ZeroGradClearsAll) {
  Linear lin(3, 2);
  Tensor x = Tensor::Randn({4, 3});
  Sum(lin.Forward(x)).Backward();
  bool any = false;
  for (Tensor& p : lin.Parameters()) any = any || p.has_grad();
  EXPECT_TRUE(any);
  lin.ZeroGrad();
  for (Tensor& p : lin.Parameters()) EXPECT_FALSE(p.has_grad());
}

// -- Linear ---------------------------------------------------------------

TEST(LinearTest, ShapesAndLeadingDims) {
  Linear lin(5, 3);
  EXPECT_EQ(lin.Forward(Tensor::Randn({7, 5})).shape(), (Shape{7, 3}));
  EXPECT_EQ(lin.Forward(Tensor::Randn({2, 4, 5})).shape(), (Shape{2, 4, 3}));
}

TEST(LinearTest, NoBiasOption) {
  Linear lin(4, 2, /*bias=*/false);
  EXPECT_EQ(lin.Parameters().size(), 1u);
  Tensor zero_out = lin.Forward(Tensor::Zeros({1, 4}));
  EXPECT_EQ(zero_out.at({0, 0}), 0.0f);
}

TEST(LinearTest, GradFlowsToParams) {
  Linear lin(3, 2);
  Tensor x = Tensor::Randn({4, 3});
  Sum(lin.Forward(x)).Backward();
  for (Tensor& p : lin.Parameters()) EXPECT_TRUE(p.has_grad());
}

TEST(LinearTest, GradCheck) {
  Linear lin(3, 2);
  std::vector<Tensor> params = lin.Parameters();
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>&) {
        Tensor x = Tensor::Arange(6, -1.0f, 0.4f);
        Tensor out = lin.Forward(Reshape(x, {2, 3}));
        return Sum(Mul(out, out));
      },
      params);
  EXPECT_TRUE(r.passed) << r.message;
}

// -- Conv1dLayer ------------------------------------------------------------

TEST(Conv1dLayerTest, SamePaddingKeepsLength) {
  Conv1dLayer conv(2, 4, 3, 1, PadMode::kCircular);
  EXPECT_EQ(conv.Forward(Tensor::Randn({3, 2, 10})).shape(), (Shape{3, 4, 10}));
}

TEST(Conv1dLayerTest, ValidPaddingShrinks) {
  Conv1dLayer conv(1, 1, 4, 0);
  EXPECT_EQ(conv.Forward(Tensor::Randn({1, 1, 10})).shape(), (Shape{1, 1, 7}));
}

TEST(Conv1dLayerTest, StrideDownsamples) {
  // out_len = (10 + 2*1 - 3) / 2 + 1 = 5.
  Conv1dLayer conv(2, 4, 3, 1, PadMode::kZeros, true, /*dilation=*/1,
                   /*stride=*/2);
  EXPECT_EQ(conv.Forward(Tensor::Randn({3, 2, 10})).shape(), (Shape{3, 4, 5}));
}

// -- Conv2dLayer ------------------------------------------------------------

TEST(Conv2dLayerTest, SamePaddingKeepsGridShape) {
  Conv2dLayer conv(2, 5, 3, 3, /*padding=*/1);
  EXPECT_EQ(conv.Forward(Tensor::Randn({2, 2, 6, 4})).shape(),
            (Shape{2, 5, 6, 4}));
}

TEST(Conv2dLayerTest, ValidPaddingShrinksBothAxes) {
  Conv2dLayer conv(3, 1, 3, 2, /*padding=*/0, /*bias=*/false);
  EXPECT_EQ(conv.Forward(Tensor::Randn({1, 3, 7, 5})).shape(),
            (Shape{1, 1, 5, 4}));
  EXPECT_EQ(conv.Parameters().size(), 1u);  // No bias parameter.
}

TEST(Conv2dLayerTest, GradCheck) {
  Conv2dLayer conv(2, 2, 3, 3, /*padding=*/1);
  std::vector<Tensor> params = conv.Parameters();
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>&) {
        Tensor x = Tensor::Arange(24, -1.0f, 0.25f);
        Tensor out = conv.Forward(Reshape(x, {1, 2, 4, 3}));
        return Sum(Mul(out, out));
      },
      params);
  EXPECT_TRUE(r.passed) << r.message;
}

// -- LayerNorm -----------------------------------------------------------------

TEST(LayerNormTest, NormalizesLastDim) {
  LayerNorm norm(8);
  Tensor x = MulScalar(Tensor::Randn({4, 8}), 10.0f) + 5.0f;
  Tensor y = norm.Forward(x);
  for (int64_t i = 0; i < 4; ++i) {
    double mean = 0.0;
    for (int64_t j = 0; j < 8; ++j) mean += y.at({i, j});
    mean /= 8.0;
    double var = 0.0;
    for (int64_t j = 0; j < 8; ++j) {
      var += (y.at({i, j}) - mean) * (y.at({i, j}) - mean);
    }
    EXPECT_NEAR(mean, 0.0, 1e-4);
    EXPECT_NEAR(var / 8.0, 1.0, 1e-2);
  }
}

TEST(LayerNormTest, GradCheckThroughStats) {
  LayerNorm norm(4);
  Tensor x = Tensor::Randn({2, 4});
  x.set_requires_grad(true);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return Sum(Mul(norm.Forward(in[0]), norm.Forward(in[0])));
      },
      {x});
  EXPECT_TRUE(r.passed) << r.message;
}

// -- Dropout ----------------------------------------------------------------------

TEST(DropoutTest, RespectsTrainingMode) {
  Dropout drop(0.9f);
  Tensor x = Tensor::Ones({100});
  drop.SetTraining(false);
  Tensor eval_out = drop.Forward(x);
  for (int64_t i = 0; i < 100; ++i) EXPECT_EQ(eval_out.data()[i], 1.0f);
  drop.SetTraining(true);
  Tensor train_out = drop.Forward(x);
  int64_t zeros = 0;
  for (int64_t i = 0; i < 100; ++i) zeros += train_out.data()[i] == 0.0f;
  EXPECT_GT(zeros, 50);
}

// -- GRU ------------------------------------------------------------------------------

TEST(GruTest, OutputShapes) {
  Gru gru(3, 6, 2);
  GruOutput out = gru.Forward(Tensor::Randn({4, 5, 3}));
  EXPECT_EQ(out.output.shape(), (Shape{4, 5, 6}));
  EXPECT_EQ(out.last_hidden.shape(), (Shape{2, 4, 6}));
  EXPECT_EQ(out.first_hidden.shape(), (Shape{2, 4, 6}));
}

TEST(GruTest, LastOutputMatchesLastHiddenTopLayer) {
  Gru gru(2, 4, 2);
  GruOutput out = gru.Forward(Tensor::Randn({1, 7, 2}));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.output.at({0, 6, j}), out.last_hidden.at({1, 0, j}), 1e-6);
  }
}

TEST(GruTest, FirstHiddenMatchesFirstOutput) {
  Gru gru(2, 4, 1);
  GruOutput out = gru.Forward(Tensor::Randn({1, 5, 2}));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_NEAR(out.output.at({0, 0, j}), out.first_hidden.at({0, 0, j}), 1e-6);
  }
}

TEST(GruTest, HiddenStaysBounded) {
  // GRU states are convex combinations of tanh outputs: |h| <= 1.
  Gru gru(1, 3, 1);
  GruOutput out = gru.Forward(MulScalar(Tensor::Randn({2, 50, 1}), 100.0f));
  for (int64_t i = 0; i < out.output.numel(); ++i) {
    EXPECT_LE(std::fabs(out.output.data()[i]), 1.0f + 1e-5);
  }
}

TEST(GruTest, GradFlowsThroughTime) {
  Gru gru(2, 3, 1);
  Tensor x = Tensor::Randn({1, 4, 2});
  x.set_requires_grad(true);
  GruOutput out = gru.Forward(x);
  Sum(out.output).Backward();
  // The earliest timestep must receive gradient through the recurrence.
  Tensor g = x.grad();
  float first_step_norm = 0.0f;
  for (int64_t j = 0; j < 2; ++j) first_step_norm += std::fabs(g.at({0, 0, j}));
  EXPECT_GT(first_step_norm, 0.0f);
}

TEST(GruTest, GradCheckSmall) {
  Gru gru(2, 2, 1);
  std::vector<Tensor> params = gru.Parameters();
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>&) {
        Rng rng(11);
        NoGradGuard* no = nullptr;  // (params vary; input fixed per call)
        (void)no;
        Tensor x = Tensor::FromVector({0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f},
                                      {1, 3, 2});
        GruOutput out = gru.Forward(x);
        return Sum(Mul(out.output, out.output));
      },
      params, /*eps=*/1e-2, /*tolerance=*/8e-2);
  EXPECT_TRUE(r.passed) << r.message;
}

// -- GRU: fused GruSequence vs the composed per-step oracle -----------------------

struct GruLayerParams {
  Tensor w_ih, w_hh, b_ih, b_hh;
};

// Reads each layer's parameters by their checkpoint names.
std::vector<GruLayerParams> GruParams(const Gru& gru) {
  std::map<std::string, Tensor> by_name;
  for (const auto& [name, t] : gru.NamedParameters()) by_name[name] = t;
  std::vector<GruLayerParams> layers;
  for (int64_t l = 0; l < gru.num_layers(); ++l) {
    const std::string p = "layer" + std::to_string(l) + ".";
    layers.push_back({by_name.at(p + "w_ih"), by_name.at(p + "w_hh"),
                      by_name.at(p + "b_ih"), by_name.at(p + "b_hh")});
  }
  return layers;
}

// One composed cell step from precomputed input gates gi [B, 3h]: six gate
// slices and a dozen elementwise ops, in the float order GruSequence must
// reproduce.
Tensor ReferenceGruStep(const GruLayerParams& p, const Tensor& gi,
                        const Tensor& h) {
  const int64_t hs = p.w_hh.size(0);
  Tensor gh = Add(MatMul(h, p.w_hh), p.b_hh);
  Tensor r = Sigmoid(Add(Slice(gi, 1, 0, hs), Slice(gh, 1, 0, hs)));
  Tensor z = Sigmoid(Add(Slice(gi, 1, hs, 2 * hs), Slice(gh, 1, hs, 2 * hs)));
  Tensor n = Tanh(Add(Slice(gi, 1, 2 * hs, 3 * hs),
                      Mul(r, Slice(gh, 1, 2 * hs, 3 * hs))));
  return Add(Mul(Sub(Tensor::Ones(z.shape()), z), n), Mul(z, h));
}

// The per-timestep GRU that GruSequence replaced: layer 0 slices batched
// input gates per step, deeper layers project each fresh state on its own.
GruOutput ReferenceGruForward(const Gru& gru, const Tensor& x) {
  const std::vector<GruLayerParams> layers = GruParams(gru);
  const int64_t batch = x.size(0);
  const int64_t length = x.size(1);
  const int64_t hs = gru.hidden_size();
  const GruLayerParams& p0 = layers[0];
  Tensor gates0 = Reshape(
      Add(MatMul(Reshape(x, {batch * length, x.size(2)}), p0.w_ih), p0.b_ih),
      {batch, length, 3 * hs});
  std::vector<Tensor> states(layers.size(), Tensor::Zeros({batch, hs}));
  std::vector<Tensor> first(layers.size());
  std::vector<Tensor> outputs;
  for (int64_t t = 0; t < length; ++t) {
    Tensor input;
    for (size_t l = 0; l < layers.size(); ++l) {
      const GruLayerParams& p = layers[l];
      Tensor gi = l == 0 ? Squeeze(Slice(gates0, 1, t, t + 1), 1)
                         : Add(MatMul(input, p.w_ih), p.b_ih);
      states[l] = ReferenceGruStep(p, gi, states[l]);
      input = states[l];
      if (t == 0) first[l] = states[l];
    }
    outputs.push_back(input);
  }
  return {StackTensors(outputs, 1), StackTensors(states, 0),
          StackTensors(first, 0)};
}

void ExpectBitwiseEqual(const Tensor& a, const Tensor& b,
                        const std::string& what) {
  ASSERT_EQ(a.shape(), b.shape()) << what;
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), sizeof(float) * a.numel()))
      << what << " differs from the composed reference";
}

// max |a - b| over max |b|: the gradient agreement measure.
double RelativeError(const Tensor& a, const Tensor& b) {
  double diff = 0.0;
  double scale = 1e-12;
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float d = std::fabs(a.data()[i] - b.data()[i]);
    diff = std::max(diff, static_cast<double>(d));
    scale = std::max(scale, static_cast<double>(std::fabs(b.data()[i])));
  }
  return diff / scale;
}

struct GruGeometry {
  int64_t layers, batch, length, hidden;
};

// Hidden size 5 ends every step's [B, h] tanh span and [B, 2h] sigmoid span
// in a scalar tail, at B = 1 and B = 3 alike.
std::vector<GruGeometry> GruGeometries() {
  std::vector<GruGeometry> out;
  for (int64_t layers : {1, 2}) {
    for (int64_t batch : {1, 3}) {
      for (int64_t length : {1, 5}) out.push_back({layers, batch, length, 4});
      out.push_back({layers, batch, 5, 5});
    }
  }
  return out;
}

TEST(GruTest, ParameterNamesAreCheckpointStable) {
  Gru gru(3, 4, 2);
  std::map<std::string, Shape> got;
  for (const auto& [name, t] : gru.NamedParameters()) got[name] = t.shape();
  const std::map<std::string, Shape> want = {
      {"layer0.w_ih", {3, 12}}, {"layer0.w_hh", {4, 12}},
      {"layer0.b_ih", {12}},    {"layer0.b_hh", {12}},
      {"layer1.w_ih", {4, 12}}, {"layer1.w_hh", {4, 12}},
      {"layer1.b_ih", {12}},    {"layer1.b_hh", {12}}};
  EXPECT_EQ(got, want);
}

TEST(GruTest, ForwardBitwiseMatchesComposedReference) {
  for (const GruGeometry& g : GruGeometries()) {
    SCOPED_TRACE(::testing::Message() << "layers=" << g.layers << " B="
                                      << g.batch << " L=" << g.length
                                      << " h=" << g.hidden);
    Gru gru(3, g.hidden, g.layers);
    Rng rng(31);
    Tensor x = Tensor::Randn({g.batch, g.length, 3}, &rng);
    const GruOutput want = ReferenceGruForward(gru, x);
    const GruOutput got = gru.Forward(x);
    ExpectBitwiseEqual(got.output, want.output, "output");
    ExpectBitwiseEqual(got.last_hidden, want.last_hidden, "last_hidden");
    ExpectBitwiseEqual(got.first_hidden, want.first_hidden, "first_hidden");
  }
}

TEST(GruTest, GradientsMatchComposedReference) {
  for (const GruGeometry& g : GruGeometries()) {
    SCOPED_TRACE(::testing::Message() << "layers=" << g.layers << " B="
                                      << g.batch << " L=" << g.length
                                      << " h=" << g.hidden);
    Gru gru(3, g.hidden, g.layers);
    Rng rng(32);
    Tensor x = Tensor::Randn({g.batch, g.length, 3}, &rng);
    const Tensor proj = Tensor::Randn({g.batch, g.length, g.hidden}, &rng);
    const Tensor proj_last =
        Tensor::Randn({g.layers, g.batch, g.hidden}, &rng);
    const Tensor proj_first =
        Tensor::Randn({g.layers, g.batch, g.hidden}, &rng);
    x.set_requires_grad(true);
    // Every output feeds the loss, so gradient reaches each step through the
    // sequence, the first state and the last state.
    auto run = [&](const GruOutput& out) {
      gru.ZeroGrad();
      x.ZeroGrad();
      Tensor loss = Add(Sum(Mul(out.output, proj)),
                        Add(Sum(Mul(out.last_hidden, proj_last)),
                            Sum(Mul(out.first_hidden, proj_first))));
      loss.Backward();
      std::vector<Tensor> grads = {x.grad()};
      for (const Tensor& p : gru.Parameters()) grads.push_back(p.grad());
      return grads;
    };
    const std::vector<Tensor> want = run(ReferenceGruForward(gru, x));
    const std::vector<Tensor> got = run(gru.Forward(x));
    ASSERT_EQ(want.size(), got.size());
    for (size_t i = 0; i < want.size(); ++i) {
      EXPECT_LE(RelativeError(got[i], want[i]), 1e-5) << "gradient " << i;
    }
  }
}

TEST(GruTest, GruSequenceGradCheck) {
  Rng rng(33);
  auto leaf = [&](const Shape& shape) {
    Tensor t = MulScalar(Tensor::Randn(shape, &rng), 0.5f).Detach();
    t.set_requires_grad(true);
    return t;
  };
  const Tensor proj = Tensor::Randn({2, 4, 3}, &rng);
  GradCheckResult r = CheckGradients(
      [&](const std::vector<Tensor>& in) {
        return Sum(Mul(GruSequence(in[0], in[1], in[2]), proj));
      },
      {leaf({2, 4, 9}), leaf({3, 9}), leaf({9})}, /*eps=*/1e-2,
      /*tolerance=*/1e-2);
  EXPECT_TRUE(r.passed) << r.message << " (max err " << r.max_abs_error << ")";
}

TEST(GruTest, GruSequenceChecksShapes) {
  const Tensor gates = Tensor::Zeros({2, 3, 12});
  const Tensor w_hh = Tensor::Zeros({4, 12});
  const Tensor b_hh = Tensor::Zeros({12});
  EXPECT_DEATH(GruSequence(Tensor::Zeros({2, 3, 11}), w_hh, b_hh), "gates");
  EXPECT_DEATH(GruSequence(Tensor::Zeros({6, 12}), w_hh, b_hh), "gates");
  EXPECT_DEATH(GruSequence(gates, Tensor::Zeros({4, 11}), b_hh), "w_hh");
  EXPECT_DEATH(GruSequence(gates, w_hh, Tensor::Zeros({4})), "b_hh");
}

// -- Embeddings -------------------------------------------------------------------------

TEST(EmbeddingTest, LookupShape) {
  Embedding emb(10, 4);
  Tensor out = emb.Forward({1, 5, 5, 9});
  EXPECT_EQ(out.shape(), (Shape{4, 4}));
  // Repeated index returns identical rows.
  for (int64_t j = 0; j < 4; ++j) EXPECT_EQ(out.at({1, j}), out.at({2, j}));
}

TEST(EmbeddingTest, GradAccumulatesOnRepeats) {
  Embedding emb(5, 2);
  Tensor out = emb.Forward({3, 3, 3});
  Sum(out).Backward();
  Tensor g = emb.Parameters()[0].grad();
  EXPECT_NEAR(g.at({3, 0}), 3.0f, 1e-6);
  EXPECT_NEAR(g.at({0, 0}), 0.0f, 1e-6);
}

TEST(PositionalEncodingTest, ValuesMatchFormula) {
  PositionalEncoding pe(4);
  Tensor enc = pe.Forward(3);
  EXPECT_EQ(enc.shape(), (Shape{1, 3, 4}));
  EXPECT_NEAR(enc.at({0, 0, 0}), 0.0f, 1e-6);       // sin(0)
  EXPECT_NEAR(enc.at({0, 0, 1}), 1.0f, 1e-6);       // cos(0)
  EXPECT_NEAR(enc.at({0, 1, 0}), std::sin(1.0), 1e-5);
  EXPECT_NEAR(enc.at({0, 2, 1}), std::cos(2.0), 1e-5);
}

TEST(DataEmbeddingTest, ShapeAndPositionalToggle) {
  DataEmbedding with_pos(3, 5, 8, 0.0f, /*use_positional=*/true);
  DataEmbedding without_pos(3, 5, 8, 0.0f, /*use_positional=*/false);
  Tensor x = Tensor::Randn({2, 6, 3});
  Tensor marks = Tensor::Randn({2, 6, 5});
  EXPECT_EQ(with_pos.Forward(x, marks).shape(), (Shape{2, 6, 8}));
  EXPECT_EQ(without_pos.Forward(x, marks).shape(), (Shape{2, 6, 8}));
}

// -- serialization -------------------------------------------------------------------------

std::string SerializeToString(const Module& module) {
  std::ostringstream out(std::ios::binary);
  EXPECT_TRUE(SerializeModule(module, out).ok());
  return out.str();
}

Status DeserializeInto(Module* model, const std::string& bytes) {
  std::istringstream in(bytes, std::ios::binary);
  return DeserializeModule(model, in, "test", bytes.size());
}

TEST(SerializeTest, RoundTrip) {
  Linear src(4, 3);
  const std::string bytes = SerializeToString(src);

  Linear dst(4, 3);
  // Make sure dst differs first.
  dst.Parameters()[0].data()[0] = 1234.0f;
  ASSERT_TRUE(DeserializeInto(&dst, bytes).ok());
  std::vector<Tensor> src_params = src.Parameters();
  std::vector<Tensor> dst_params = dst.Parameters();
  for (size_t i = 0; i < src_params.size(); ++i) {
    for (int64_t j = 0; j < src_params[i].numel(); ++j) {
      EXPECT_EQ(src_params[i].data()[j], dst_params[i].data()[j]);
    }
  }
}

TEST(SerializeTest, ShapeMismatchFails) {
  Linear src(4, 3);
  Linear wrong(4, 5);
  EXPECT_FALSE(DeserializeInto(&wrong, SerializeToString(src)).ok());
}

TEST(SerializeTest, TruncatedStreamFails) {
  // Failure injection: cut a valid stream mid-tensor.
  Linear src(6, 5);
  std::string bytes = SerializeToString(src);
  bytes.resize(bytes.size() * 3 / 5);
  Linear dst(6, 5);
  EXPECT_FALSE(DeserializeInto(&dst, bytes).ok());
}

TEST(SerializeTest, GarbageStreamFails) {
  Linear m(2, 2);
  EXPECT_FALSE(DeserializeInto(&m, "not a checkpoint").ok());
}

// -- handcrafted corrupt streams (the DeserializeModule hardening contract) ---

constexpr uint32_t kModuleMagic = 0xC04F04E8;

// Header for a stream claiming `count` parameters, followed by one entry up
// to (not including) its data bytes.
std::ostringstream CorruptHeader(uint64_t count, const std::string& name,
                                 const std::vector<int64_t>& shape) {
  std::ostringstream out(std::ios::binary);
  io::WriteU32(out, kModuleMagic);
  io::WriteU64(out, count);
  io::WriteString(out, name);
  io::WriteU64(out, shape.size());
  for (int64_t d : shape) io::WriteI64(out, d);
  return out;
}

TEST(SerializeTest, NegativeDimFails) {
  Linear m(4, 3);
  const Status s = DeserializeInto(&m, CorruptHeader(1, "weight", {-3, 4}).str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("negative dim"), std::string::npos);
}

TEST(SerializeTest, NumelOverflowFails) {
  Linear m(4, 3);
  const Status s = DeserializeInto(
      &m, CorruptHeader(1, "weight", {int64_t{1} << 62, 16}).str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("overflow"), std::string::npos);
}

TEST(SerializeTest, ImplausibleTensorSizeFailsBeforeAllocation) {
  // A 4 TiB tensor claim against a few-dozen-byte stream must be rejected
  // up front, not attempted.
  Linear m(4, 3);
  const Status s = DeserializeInto(
      &m, CorruptHeader(1, "weight", {int64_t{1} << 40, 1}).str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("beyond the stream"), std::string::npos);
}

TEST(SerializeTest, DuplicateParameterNameFails) {
  Linear m(4, 3);
  const auto named = m.NamedParameters();
  std::ostringstream out(std::ios::binary);
  io::WriteU32(out, kModuleMagic);
  io::WriteU64(out, 2);
  for (int i = 0; i < 2; ++i) {  // "weight" twice.
    const auto& [name, tensor] = named[0];
    io::WriteString(out, name);
    io::WriteU64(out, tensor.shape().size());
    for (int64_t d : tensor.shape()) io::WriteI64(out, d);
    out.write(reinterpret_cast<const char*>(tensor.data()),
              static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  }
  const Status s = DeserializeInto(&m, out.str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("duplicate parameter"), std::string::npos);
}

TEST(SerializeTest, MissingParameterFails) {
  // A file holding only "weight" must not silently leave "bias" at its
  // in-memory value, and the rejected stream must not have written
  // "weight" either.
  Linear src(4, 3);
  const auto named = src.NamedParameters();
  std::ostringstream out(std::ios::binary);
  io::WriteU32(out, kModuleMagic);
  io::WriteU64(out, 1);
  const auto& [name, tensor] = named[0];
  io::WriteString(out, name);
  io::WriteU64(out, tensor.shape().size());
  for (int64_t d : tensor.shape()) io::WriteI64(out, d);
  out.write(reinterpret_cast<const char*>(tensor.data()),
            static_cast<std::streamsize>(tensor.numel() * sizeof(float)));
  Linear dst(4, 3);
  const Tensor weight = dst.NamedParameters()[0].second;
  const std::vector<float> before(weight.data(),
                                  weight.data() + weight.numel());
  const Status s = DeserializeInto(&dst, out.str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("unset"), std::string::npos);
  EXPECT_EQ(std::memcmp(weight.data(), before.data(),
                        before.size() * sizeof(float)),
            0);
}

TEST(SerializeTest, CountBeyondModuleFails) {
  Linear m(4, 3);
  std::ostringstream out(std::ios::binary);
  io::WriteU32(out, kModuleMagic);
  io::WriteU64(out, 5);  // The module has only 2 parameters.
  const Status s = DeserializeInto(&m, out.str());
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("file claims"), std::string::npos);
}

}  // namespace
}  // namespace conformer::nn
