#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>

#include "common/rng.h"
#include "nn/attention.h"
#include "nn/dropout.h"
#include "nn/embedding.h"
#include "nn/fm.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/optimizer.h"
#include "tensor/ops.h"

namespace rrre::nn {
namespace {

using common::Rng;
using tensor::Shape;
using tensor::Tensor;

// ---------------------------------------------------------------------------
// Module registry
// ---------------------------------------------------------------------------

class ToyModel : public Module {
 public:
  explicit ToyModel(Rng& rng) : inner_(2, 3, rng) {
    RegisterModule("inner", &inner_);
    scale_ = RegisterParameter("scale", Tensor::Scalar(1.0f, true));
  }
  Linear inner_;
  Tensor scale_;
};

TEST(ModuleTest, NamedParametersIncludeChildren) {
  Rng rng(1);
  ToyModel m(rng);
  auto named = m.NamedParameters();
  EXPECT_TRUE(named.count("scale"));
  EXPECT_TRUE(named.count("inner.weight"));
  EXPECT_TRUE(named.count("inner.bias"));
  EXPECT_EQ(named.size(), 3u);
}

TEST(ModuleTest, NumParametersCountsScalars) {
  Rng rng(1);
  ToyModel m(rng);
  EXPECT_EQ(m.NumParameters(), 2 * 3 + 3 + 1);
}

TEST(ModuleTest, SaveLoadRoundTrip) {
  Rng rng(2);
  ToyModel a(rng);
  ToyModel b(rng);  // Different init.
  const std::string path = ::testing::TempDir() + "/toy_model.bin";
  ASSERT_TRUE(a.Save(path).ok());
  ASSERT_TRUE(b.Load(path).ok());
  auto pa = a.NamedParameters();
  auto pb = b.NamedParameters();
  for (const auto& [name, t] : pa) {
    EXPECT_EQ(pb.at(name).ToVector(), t.ToVector()) << name;
  }
  std::remove(path.c_str());
}

TEST(ModuleTest, LoadRejectsMissingParameter) {
  Rng rng(3);
  ToyModel a(rng);
  Linear lone(2, 3, rng);
  const std::string path = ::testing::TempDir() + "/lone.bin";
  ASSERT_TRUE(lone.Save(path).ok());
  EXPECT_FALSE(a.Load(path).ok());
  std::remove(path.c_str());
}

TEST(ModuleTest, ZeroGradClearsGradients) {
  Rng rng(4);
  Linear lin(3, 2, rng);
  Tensor x = Tensor::Randn({4, 3}, rng);
  tensor::Sum(tensor::Square(lin.Forward(x))).Backward();
  bool any_nonzero = false;
  for (const Tensor& p : lin.Parameters()) {
    for (float g : p.grad()) any_nonzero |= (g != 0.0f);
  }
  EXPECT_TRUE(any_nonzero);
  lin.ZeroGrad();
  for (const Tensor& p : lin.Parameters()) {
    for (float g : p.grad()) EXPECT_EQ(g, 0.0f);
  }
}

// ---------------------------------------------------------------------------
// Linear / Embedding
// ---------------------------------------------------------------------------

TEST(LinearTest, ForwardShapeAndBias) {
  Rng rng(5);
  Linear lin(4, 2, rng);
  Tensor x = Tensor::Zeros({3, 4});
  Tensor y = lin.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{3, 2}));
  // Zero input -> bias only, and bias is initialized to zero.
  for (int64_t i = 0; i < y.numel(); ++i) EXPECT_EQ(y.at(i), 0.0f);
}

TEST(LinearTest, NoBiasVariant) {
  Rng rng(6);
  Linear lin(3, 3, rng, /*use_bias=*/false);
  EXPECT_EQ(lin.NamedParameters().size(), 1u);
}

TEST(EmbeddingTest, LookupReturnsRows) {
  Rng rng(7);
  Embedding emb(10, 4, rng);
  Tensor e = emb.Forward({3, 3, 9});
  EXPECT_EQ(e.shape(), (Shape{3, 4}));
  for (int64_t j = 0; j < 4; ++j) {
    EXPECT_EQ(e.at(0, j), e.at(1, j));
    EXPECT_EQ(e.at(0, j), emb.table().at(3, j));
  }
}

TEST(EmbeddingTest, SetWeightsOverridesTable) {
  Rng rng(8);
  Embedding emb(2, 2, rng);
  emb.SetWeights(Tensor::FromVector({2, 2}, {1, 2, 3, 4}));
  Tensor e = emb.Forward({1});
  EXPECT_EQ(e.ToVector(), (std::vector<float>{3, 4}));
}

TEST(EmbeddingTest, GradientFlowsToTable) {
  Rng rng(9);
  Embedding emb(5, 3, rng);
  tensor::Sum(tensor::Square(emb.Forward({2}))).Backward();
  const auto& g = emb.table().grad();
  // Only row 2 receives gradient.
  for (int64_t r = 0; r < 5; ++r) {
    for (int64_t c = 0; c < 3; ++c) {
      if (r == 2) {
        EXPECT_NE(g[static_cast<size_t>(r * 3 + c)], 0.0f);
      } else {
        EXPECT_EQ(g[static_cast<size_t>(r * 3 + c)], 0.0f);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Recurrent cells
// ---------------------------------------------------------------------------

TEST(LstmTest, StepShapesAndStateEvolution) {
  Rng rng(10);
  LstmCell cell(3, 5, rng);
  auto st = cell.InitialState(2);
  EXPECT_EQ(st.h.shape(), (Shape{2, 5}));
  Tensor x = Tensor::Randn({2, 3}, rng);
  auto st2 = cell.Step(x, st);
  EXPECT_EQ(st2.h.shape(), (Shape{2, 5}));
  EXPECT_EQ(st2.c.shape(), (Shape{2, 5}));
  bool changed = false;
  for (int64_t i = 0; i < st2.h.numel(); ++i) {
    if (st2.h.at(i) != 0.0f) changed = true;
  }
  EXPECT_TRUE(changed);
}

TEST(LstmTest, HiddenStateStaysBounded) {
  Rng rng(11);
  LstmCell cell(2, 4, rng);
  auto st = cell.InitialState(1);
  for (int t = 0; t < 50; ++t) {
    Tensor x = Tensor::Randn({1, 2}, rng, 3.0f);
    st = cell.Step(x, st);
  }
  // tanh output gate bounds |h| by 1.
  for (int64_t i = 0; i < st.h.numel(); ++i) {
    EXPECT_LE(std::abs(st.h.at(i)), 1.0f);
  }
}

TEST(BiLstmTest, EncodeShapeAndDirectionality) {
  Rng rng(12);
  BiLstmEncoder enc(3, 4, rng);
  EXPECT_EQ(enc.output_size(), 8);
  // Time-major: 5 steps of a batch of 2.
  Tensor seq = Tensor::Randn({5 * 2, 3}, rng);
  Tensor out = enc.Encode(seq, 5);
  EXPECT_EQ(out.shape(), (Shape{2, 8}));

  // Reversing the sequence must change the encoding (direction sensitivity).
  std::vector<Tensor> steps;
  for (int64_t t = 4; t >= 0; --t) {
    steps.push_back(tensor::SliceRows(seq, t * 2, 2));
  }
  Tensor out_rev = enc.Encode(tensor::ConcatRows(steps), 5);
  bool differs = false;
  for (int64_t i = 0; i < out.numel(); ++i) {
    if (std::abs(out.at(i) - out_rev.at(i)) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(BiLstmTest, GradientsReachAllParameters) {
  Rng rng(13);
  BiLstmEncoder enc(2, 3, rng);
  Tensor seq = Tensor::Randn({2 * 1, 2}, rng);
  tensor::Sum(tensor::Square(enc.Encode(seq, 2))).Backward();
  for (const auto& [name, p] : enc.NamedParameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0) << name;
  }
}

TEST(GruTest, StepAndEncodeShapes) {
  Rng rng(14);
  GruCell cell(3, 4, rng);
  Tensor h = cell.InitialState(2);
  EXPECT_EQ(h.shape(), (Shape{2, 4}));
  std::vector<Tensor> seq = {Tensor::Randn({2, 3}, rng),
                             Tensor::Randn({2, 3}, rng),
                             Tensor::Randn({2, 3}, rng)};
  Tensor out = cell.Encode(seq);
  EXPECT_EQ(out.shape(), (Shape{2, 4}));
}

TEST(GruTest, ZeroUpdateGateKeepsState) {
  // With all-zero parameters, z = sigmoid(0) = 0.5 and n = 0, so each step
  // halves the state; verify the recurrence matches that closed form.
  Rng rng(15);
  GruCell cell(1, 1, rng);
  for (Tensor& p : cell.Parameters()) {
    for (int64_t i = 0; i < p.numel(); ++i) p.at(i) = 0.0f;
  }
  Tensor h = Tensor::FromVector({1, 1}, {1.0f});
  Tensor x = Tensor::Zeros({1, 1});
  Tensor h1 = cell.Step(x, h);
  EXPECT_NEAR(h1.at(0), 0.5f, 1e-6f);
  Tensor h2 = cell.Step(x, h1);
  EXPECT_NEAR(h2.at(0), 0.25f, 1e-6f);
}

// ---------------------------------------------------------------------------
// FraudAttention
// ---------------------------------------------------------------------------

TEST(AttentionTest, WeightsArePerGroupDistributions) {
  Rng rng(16);
  const int64_t b = 3, s = 4, k = 6, du = 2, di = 2;
  FraudAttention att(k, du, di, 5, rng);
  Tensor rev = Tensor::Randn({b * s, k}, rng);
  Tensor eu = Tensor::Randn({b * s, du}, rng);
  Tensor ei = Tensor::Randn({b * s, di}, rng);
  Tensor alphas = att.Forward(rev, eu, ei, s);
  EXPECT_EQ(alphas.shape(), (Shape{b, s}));
  for (int64_t r = 0; r < b; ++r) {
    float sum = 0.0f;
    for (int64_t j = 0; j < s; ++j) {
      EXPECT_GT(alphas.at(r, j), 0.0f);
      sum += alphas.at(r, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(AttentionTest, ScoresDependOnIdEmbeddings) {
  Rng rng(17);
  const int64_t s = 2, k = 4;
  FraudAttention att(k, 3, 3, 5, rng);
  Tensor rev = Tensor::Randn({s, k}, rng);
  Tensor eu = Tensor::Randn({s, 3}, rng);
  Tensor ei1 = Tensor::Randn({s, 3}, rng);
  Tensor ei2 = Tensor::Randn({s, 3}, rng);
  Tensor a1 = att.Forward(rev, eu, ei1, s);
  Tensor a2 = att.Forward(rev, eu, ei2, s);
  bool differs = false;
  for (int64_t i = 0; i < a1.numel(); ++i) {
    if (std::abs(a1.at(i) - a2.at(i)) > 1e-6f) differs = true;
  }
  EXPECT_TRUE(differs);
}

TEST(AttentionTest, GradFlowsToAllParams) {
  Rng rng(18);
  const int64_t b = 2, s = 3, k = 4;
  FraudAttention att(k, 2, 2, 4, rng);
  Tensor rev = Tensor::Randn({b * s, k}, rng);
  Tensor eu = Tensor::Randn({b * s, 2}, rng);
  Tensor ei = Tensor::Randn({b * s, 2}, rng);
  Tensor mix = Tensor::Randn({b, s}, rng);
  tensor::Sum(tensor::Mul(att.Forward(rev, eu, ei, s), mix)).Backward();
  for (const auto& [name, p] : att.NamedParameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    if (name == "b2") {
      // b2 shifts every score in a group equally and softmax is
      // shift-invariant, so its gradient is zero up to float rounding (the
      // per-row cancellation sum_j y_j (g_j - dot) need not hit 0.0f
      // exactly). It is kept only for fidelity to Eq. (5) of the paper.
      EXPECT_LE(norm, 1e-5);
    } else {
      EXPECT_GT(norm, 0.0) << name;
    }
  }
}

// ---------------------------------------------------------------------------
// FactorizationMachine
// ---------------------------------------------------------------------------

/// Brute-force FM reference: w0 + sum w_i x_i + sum_{i<j} <v_i, v_j> x_i x_j.
float FmReference(const Tensor& x, int64_t row, const Tensor& w0,
                  const Tensor& w, const Tensor& v) {
  const int64_t n = x.dim(1);
  const int64_t f = v.dim(1);
  float out = w0.at(0);
  for (int64_t i = 0; i < n; ++i) out += w.at(i, 0) * x.at(row, i);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = i + 1; j < n; ++j) {
      float dot = 0.0f;
      for (int64_t c = 0; c < f; ++c) dot += v.at(i, c) * v.at(j, c);
      out += dot * x.at(row, i) * x.at(row, j);
    }
  }
  return out;
}

TEST(FmTest, MatchesBruteForcePairwiseForm) {
  Rng rng(19);
  const int64_t n = 5, f = 3;
  FactorizationMachine fm(n, f, rng);
  auto named = fm.NamedParameters();
  Tensor x = Tensor::Randn({4, n}, rng);
  Tensor y = fm.Forward(x);
  EXPECT_EQ(y.shape(), (Shape{4, 1}));
  for (int64_t r = 0; r < 4; ++r) {
    const float expected =
        FmReference(x, r, named.at("w0"), named.at("w"), named.at("v"));
    EXPECT_NEAR(y.at(r, 0), expected, 1e-4f) << "row " << r;
  }
}

TEST(FmTest, GradFlowsToAllParams) {
  Rng rng(20);
  FactorizationMachine fm(4, 2, rng);
  Tensor x = Tensor::Randn({3, 4}, rng);
  tensor::Sum(tensor::Square(fm.Forward(x))).Backward();
  for (const auto& [name, p] : fm.NamedParameters()) {
    double norm = 0.0;
    for (float g : p.grad()) norm += std::abs(g);
    EXPECT_GT(norm, 0.0) << name;
  }
}

// ---------------------------------------------------------------------------
// Dropout
// ---------------------------------------------------------------------------

TEST(DropoutTest, InferencePassesThrough) {
  Rng rng(21);
  Tensor x = Tensor::Randn({10, 10}, rng);
  Tensor y = Dropout(x, 0.5, rng, /*training=*/false);
  EXPECT_EQ(y.ToVector(), x.ToVector());
}

TEST(DropoutTest, TrainingZeroesAboutPFraction) {
  Rng rng(22);
  Tensor x = Tensor::Full({100, 100}, 1.0f);
  Tensor y = Dropout(x, 0.3, rng, /*training=*/true);
  int64_t zeros = 0;
  double sum = 0.0;
  for (int64_t i = 0; i < y.numel(); ++i) {
    if (y.at(i) == 0.0f) {
      ++zeros;
    } else {
      EXPECT_NEAR(y.at(i), 1.0f / 0.7f, 1e-5f);
    }
    sum += y.at(i);
  }
  EXPECT_NEAR(static_cast<double>(zeros) / y.numel(), 0.3, 0.02);
  // Inverted dropout keeps the expectation.
  EXPECT_NEAR(sum / y.numel(), 1.0, 0.05);
}

TEST(DropoutTest, ZeroRateIsIdentity) {
  Rng rng(23);
  Tensor x = Tensor::Randn({5, 5}, rng);
  Tensor y = Dropout(x, 0.0, rng, /*training=*/true);
  EXPECT_EQ(y.ToVector(), x.ToVector());
}

// ---------------------------------------------------------------------------
// Losses
// ---------------------------------------------------------------------------

TEST(LossTest, MseHandComputed) {
  Tensor pred = Tensor::FromVector({2, 1}, {3.0f, 1.0f});
  Tensor loss = MseLoss(pred, {1.0f, 1.0f});
  EXPECT_NEAR(loss.item(), (4.0f + 0.0f) / 2.0f, 1e-6f);
}

TEST(LossTest, WeightedMseBatchNormMatchesEq14) {
  Tensor pred = Tensor::FromVector({3, 1}, {2.0f, 2.0f, 5.0f});
  // Fake review (weight 0) contributes nothing even with a large error.
  Tensor loss = WeightedMseLoss(pred, {1.0f, 1.0f, 1.0f}, {1.0f, 0.0f, 1.0f});
  EXPECT_NEAR(loss.item(), (1.0f + 0.0f + 16.0f) / 3.0f, 1e-5f);
}

TEST(LossTest, WeightedMseWeightSumNorm) {
  Tensor pred = Tensor::FromVector({3, 1}, {2.0f, 2.0f, 5.0f});
  Tensor loss = WeightedMseLoss(pred, {1.0f, 1.0f, 1.0f}, {1.0f, 0.0f, 1.0f},
                                WeightedMseNorm::kWeightSum);
  EXPECT_NEAR(loss.item(), (1.0f + 16.0f) / 2.0f, 1e-5f);
}

TEST(LossTest, L2PenaltySumsSquares) {
  Tensor a = Tensor::FromVector({2}, {1.0f, 2.0f}, true);
  Tensor b = Tensor::FromVector({1}, {3.0f}, true);
  EXPECT_NEAR(L2Penalty({a, b}).item(), 1 + 4 + 9, 1e-6f);
}

TEST(LossTest, WeightedMseGradientZeroForZeroWeight) {
  Tensor pred = Tensor::FromVector({2, 1}, {5.0f, 5.0f}, true);
  WeightedMseLoss(pred, {0.0f, 0.0f}, {0.0f, 1.0f}).Backward();
  EXPECT_EQ(pred.grad()[0], 0.0f);
  EXPECT_NE(pred.grad()[1], 0.0f);
}

// ---------------------------------------------------------------------------
// Optimizers
// ---------------------------------------------------------------------------

TEST(OptimizerTest, SgdConvergesOnQuadratic) {
  Tensor x = Tensor::FromVector({2}, {5.0f, -3.0f}, true);
  Sgd opt({x}, /*lr=*/0.1);
  for (int i = 0; i < 200; ++i) {
    Tensor loss = tensor::Sum(tensor::Square(x));
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(x.at(0), 0.0f, 1e-3f);
  EXPECT_NEAR(x.at(1), 0.0f, 1e-3f);
}

TEST(OptimizerTest, SgdMomentumConvergesFasterOnIllConditioned) {
  // f(x) = 50 x0^2 + 0.5 x1^2.
  auto run = [](double momentum) {
    Tensor x = Tensor::FromVector({2}, {1.0f, 1.0f}, true);
    Sgd opt({x}, /*lr=*/0.009, momentum);
    for (int i = 0; i < 120; ++i) {
      Tensor loss =
          tensor::Sum(tensor::Mul(Tensor::FromVector({2}, {50.0f, 0.5f}),
                                  tensor::Square(x)));
      loss.Backward();
      opt.Step();
    }
    return std::abs(x.at(1));
  };
  EXPECT_LT(run(0.9), run(0.0));
}

TEST(OptimizerTest, AdamConvergesOnLinearRegression) {
  Rng rng(24);
  // y = 2 x - 1 with noise-free targets; fit w, b.
  Tensor w = Tensor::Scalar(0.0f, true);
  Tensor b = Tensor::Scalar(0.0f, true);
  Adam opt({w, b}, /*lr=*/0.05);
  Tensor xs = Tensor::FromVector({8, 1}, {-2, -1, 0, 1, 2, 3, 4, 5});
  std::vector<float> targets;
  for (int64_t i = 0; i < 8; ++i) targets.push_back(2.0f * xs.at(i) - 1.0f);
  for (int step = 0; step < 400; ++step) {
    Tensor wide = tensor::MatMul(xs, tensor::Reshape(w, {1, 1}));
    Tensor pred = tensor::AddBias(wide, b);
    Tensor loss = MseLoss(pred, targets);
    loss.Backward();
    opt.Step();
  }
  EXPECT_NEAR(w.item(), 2.0f, 0.05f);
  EXPECT_NEAR(b.item(), -1.0f, 0.05f);
}

TEST(OptimizerTest, WeightDecayShrinksUnusedDirection) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  Sgd opt({x}, /*lr=*/0.1, /*momentum=*/0.0, /*weight_decay=*/0.5);
  // Loss gradient is zero; only decay acts.
  Tensor zero = Tensor::Scalar(0.0f);
  for (int i = 0; i < 10; ++i) {
    Tensor loss = tensor::Mul(tensor::Reshape(x, {1}), zero);
    tensor::Sum(loss).Backward();
    opt.Step();
  }
  EXPECT_LT(x.at(0), 0.6f);
  EXPECT_GT(x.at(0), 0.0f);
}

TEST(OptimizerTest, ClipGradNormScalesDown) {
  Tensor x = Tensor::FromVector({2}, {30.0f, 40.0f}, true);
  tensor::Sum(tensor::Mul(x, Tensor::FromVector({2}, {3.0f, 4.0f})))
      .Backward();
  std::vector<Tensor> params = {x};
  const double pre = ClipGradNorm(params, 1.0);
  EXPECT_NEAR(pre, 5.0, 1e-6);
  EXPECT_NEAR(GlobalGradNorm(params), 1.0, 1e-5);
}

TEST(OptimizerTest, ClipGradNormNoOpBelowThreshold) {
  Tensor x = Tensor::FromVector({1}, {1.0f}, true);
  tensor::Sum(tensor::MulScalar(tensor::Reshape(x, {1}), 0.5f)).Backward();
  std::vector<Tensor> params = {x};
  ClipGradNorm(params, 10.0);
  EXPECT_NEAR(x.grad()[0], 0.5f, 1e-6f);
}

TEST(OptimizerTest, UntouchedParameterIsSkipped) {
  Rng rng(25);
  Tensor used = Tensor::FromVector({1}, {2.0f}, true);
  Tensor unused = Tensor::FromVector({1}, {7.0f}, true);
  Adam opt({used, unused}, 0.1);
  tensor::Sum(tensor::Square(tensor::Reshape(used, {1, 1}))).Backward();
  opt.Step();
  EXPECT_EQ(unused.at(0), 7.0f);
  EXPECT_NE(used.at(0), 2.0f);
}

// ---------------------------------------------------------------------------
// End-to-end: a small classifier learns a nonlinear decision rule
// ---------------------------------------------------------------------------

TEST(EndToEndTest, TwoLayerNetLearnsXor) {
  Rng rng(26);
  Linear l1(2, 8, rng);
  Linear l2(8, 2, rng);
  std::vector<Tensor> params = l1.Parameters();
  for (Tensor& p : l2.Parameters()) params.push_back(p);
  Adam opt(params, 0.05);

  Tensor x = Tensor::FromVector({4, 2}, {0, 0, 0, 1, 1, 0, 1, 1});
  std::vector<int64_t> labels = {0, 1, 1, 0};
  float final_loss = 1e9f;
  for (int step = 0; step < 300; ++step) {
    Tensor logits = l2.Forward(tensor::Tanh(l1.Forward(x)));
    Tensor loss = tensor::CrossEntropyWithLogits(logits, labels);
    loss.Backward();
    opt.Step();
    final_loss = loss.item();
  }
  EXPECT_LT(final_loss, 0.05f);
  // Predictions match labels.
  Tensor logits = l2.Forward(tensor::Tanh(l1.Forward(x)));
  for (int64_t r = 0; r < 4; ++r) {
    const int64_t pred = logits.at(r, 0) > logits.at(r, 1) ? 0 : 1;
    EXPECT_EQ(pred, labels[static_cast<size_t>(r)]) << "example " << r;
  }
}

}  // namespace
}  // namespace rrre::nn
