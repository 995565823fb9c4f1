#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <string>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/serialize.h"
#include "tensor/shape.h"
#include "tensor/tensor.h"

namespace rrre::tensor {
namespace {

using common::Rng;

// ---------------------------------------------------------------------------
// Shape
// ---------------------------------------------------------------------------

TEST(ShapeTest, NumElements) {
  EXPECT_EQ(NumElements({2, 3, 4}), 24);
  EXPECT_EQ(NumElements({1}), 1);
  EXPECT_EQ(NumElements({}), 1);
}

TEST(ShapeTest, ToString) { EXPECT_EQ(ShapeToString({2, 3}), "[2, 3]"); }

TEST(ShapeTest, Validity) {
  EXPECT_TRUE(IsValidShape({1}));
  EXPECT_TRUE(IsValidShape({4, 5}));
  EXPECT_FALSE(IsValidShape({}));
  EXPECT_FALSE(IsValidShape({0, 3}));
  EXPECT_FALSE(IsValidShape({2, -1}));
}

// ---------------------------------------------------------------------------
// Tensor basics
// ---------------------------------------------------------------------------

TEST(TensorTest, ZerosAndFull) {
  Tensor z = Tensor::Zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  for (int64_t i = 0; i < 6; ++i) EXPECT_EQ(z.at(i), 0.0f);
  Tensor f = Tensor::Full({2}, 3.5f);
  EXPECT_EQ(f.at(0), 3.5f);
  EXPECT_EQ(f.at(1), 3.5f);
}

TEST(TensorTest, FromVectorAndAccessors) {
  Tensor t = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(t.at(0, 0), 1.0f);
  EXPECT_EQ(t.at(1, 2), 6.0f);
  EXPECT_EQ(t.dim(0), 2);
  EXPECT_EQ(t.dim(1), 3);
  EXPECT_EQ(t.dim(-1), 3);
}

TEST(TensorTest, ThreeDimAccess) {
  Tensor t = Tensor::FromVector({2, 2, 2}, {0, 1, 2, 3, 4, 5, 6, 7});
  EXPECT_EQ(t.at(0, 0, 0), 0.0f);
  EXPECT_EQ(t.at(1, 0, 1), 5.0f);
  EXPECT_EQ(t.at(1, 1, 1), 7.0f);
}

TEST(TensorTest, ScalarItem) {
  EXPECT_FLOAT_EQ(Tensor::Scalar(2.5f).item(), 2.5f);
}

TEST(TensorTest, CopiesShareStorage) {
  Tensor a = Tensor::Zeros({2});
  Tensor b = a;
  b.at(0) = 9.0f;
  EXPECT_EQ(a.at(0), 9.0f);
}

TEST(TensorTest, DetachDoesNotShare) {
  Tensor a = Tensor::FromVector({2}, {1, 2}, /*requires_grad=*/true);
  Tensor d = a.Detach();
  EXPECT_FALSE(d.requires_grad());
  d.at(0) = 5.0f;
  EXPECT_EQ(a.at(0), 1.0f);
}

TEST(TensorTest, RandnIsDeterministicPerSeed) {
  Rng r1(5);
  Rng r2(5);
  Tensor a = Tensor::Randn({4, 4}, r1);
  Tensor b = Tensor::Randn({4, 4}, r2);
  EXPECT_EQ(a.ToVector(), b.ToVector());
}

TEST(TensorTest, XavierUniformWithinBound) {
  Rng rng(5);
  Tensor w = Tensor::XavierUniform({16, 8}, rng);
  const float bound = std::sqrt(6.0f / (16 + 8));
  for (int64_t i = 0; i < w.numel(); ++i) {
    EXPECT_LE(std::abs(w.at(i)), bound);
  }
}

// ---------------------------------------------------------------------------
// Forward values
// ---------------------------------------------------------------------------

TEST(OpsForwardTest, AddSubMulDiv) {
  Tensor a = Tensor::FromVector({3}, {1, 2, 3});
  Tensor b = Tensor::FromVector({3}, {4, 5, 8});
  EXPECT_EQ(Add(a, b).ToVector(), (std::vector<float>{5, 7, 11}));
  EXPECT_EQ(Sub(a, b).ToVector(), (std::vector<float>{-3, -3, -5}));
  EXPECT_EQ(Mul(a, b).ToVector(), (std::vector<float>{4, 10, 24}));
}

TEST(OpsForwardTest, AddBiasBroadcasts) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor bias = Tensor::FromVector({3}, {10, 20, 30});
  EXPECT_EQ(AddBias(a, bias).ToVector(),
            (std::vector<float>{11, 22, 33, 14, 25, 36}));
}

TEST(OpsForwardTest, ScalarOps) {
  Tensor a = Tensor::FromVector({2}, {1, -2});
  EXPECT_EQ(MulScalar(a, -3.0f).ToVector(), (std::vector<float>{-3, 6}));
}

TEST(OpsForwardTest, UnaryValues) {
  Tensor a = Tensor::FromVector({2}, {0.0f, 1.0f});
  EXPECT_FLOAT_EQ(Tanh(a).at(1), std::tanh(1.0f));
  EXPECT_FLOAT_EQ(Sigmoid(a).at(0), 0.5f);
  Tensor b = Tensor::FromVector({2}, {-2.0f, 3.0f});
  EXPECT_EQ(Relu(b).ToVector(), (std::vector<float>{0, 3}));
  EXPECT_EQ(Square(b).ToVector(), (std::vector<float>{4, 9}));
}

TEST(OpsForwardTest, SigmoidStableForLargeInputs) {
  Tensor a = Tensor::FromVector({2}, {100.0f, -100.0f});
  Tensor y = Sigmoid(a);
  EXPECT_FLOAT_EQ(y.at(0), 1.0f);
  EXPECT_NEAR(y.at(1), 0.0f, 1e-30f);
}

TEST(OpsForwardTest, MatMul) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::FromVector({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.shape(), (Shape{2, 2}));
  EXPECT_EQ(c.ToVector(), (std::vector<float>{58, 64, 139, 154}));
}

TEST(OpsForwardTest, SoftmaxRowsSumToOne) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, -1, 0, 1});
  Tensor y = Softmax(a);
  for (int64_t r = 0; r < 2; ++r) {
    float sum = 0.0f;
    for (int64_t j = 0; j < 3; ++j) sum += y.at(r, j);
    EXPECT_NEAR(sum, 1.0f, 1e-6f);
  }
  // Softmax is shift-invariant: both rows differ by a constant shift.
  for (int64_t j = 0; j < 3; ++j) {
    EXPECT_NEAR(y.at(0, j), y.at(1, j), 1e-6f);
  }
}

TEST(OpsForwardTest, SoftmaxStableForLargeLogits) {
  Tensor a = Tensor::FromVector({1, 2}, {1000.0f, 1001.0f});
  Tensor y = Softmax(a);
  EXPECT_NEAR(y.at(0, 0) + y.at(0, 1), 1.0f, 1e-6f);
  EXPECT_GT(y.at(0, 1), y.at(0, 0));
}

TEST(OpsForwardTest, Reductions) {
  Tensor a = Tensor::FromVector({2, 2}, {1, 2, 3, 4});
  EXPECT_FLOAT_EQ(Sum(a).item(), 10.0f);
  EXPECT_FLOAT_EQ(Mean(a).item(), 2.5f);
  Tensor rs = RowSum(a);
  EXPECT_EQ(rs.shape(), (Shape{2, 1}));
  EXPECT_EQ(rs.ToVector(), (std::vector<float>{3, 7}));
}

TEST(OpsForwardTest, ReshapePreservesData) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor r = Reshape(a, {3, 2});
  EXPECT_EQ(r.shape(), (Shape{3, 2}));
  EXPECT_EQ(r.ToVector(), a.ToVector());
}

TEST(OpsForwardTest, ConcatColsAndRows) {
  Tensor a = Tensor::FromVector({2, 1}, {1, 2});
  Tensor b = Tensor::FromVector({2, 2}, {3, 4, 5, 6});
  Tensor cc = ConcatCols({a, b});
  EXPECT_EQ(cc.shape(), (Shape{2, 3}));
  EXPECT_EQ(cc.ToVector(), (std::vector<float>{1, 3, 4, 2, 5, 6}));
}

TEST(OpsForwardTest, SliceRows) {
  Tensor a = Tensor::FromVector({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceRows(a, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{3, 4, 5, 6}));
}

TEST(OpsForwardTest, SliceCols) {
  Tensor a = Tensor::FromVector({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor s = SliceCols(a, 1, 2);
  EXPECT_EQ(s.shape(), (Shape{2, 2}));
  EXPECT_EQ(s.ToVector(), (std::vector<float>{2, 3, 5, 6}));
}

TEST(OpsForwardTest, Conv1dMaxPoolSelectsBestWindow) {
  // One example (B=1), T=3, d=1, window w=2, one filter: identity-sum kernel.
  Tensor values = Tensor::FromVector({3, 1}, {1, 5, 2});
  Tensor kernel = Tensor::FromVector({2, 1}, {1, 1});
  Tensor bias = Tensor::FromVector({1}, {0});
  Tensor out = Conv1dMaxPool(values, 3, kernel, bias);
  EXPECT_EQ(out.shape(), (Shape{1, 1}));
  // Windows: 1+5=6, 5+2=7 -> max 7.
  EXPECT_FLOAT_EQ(out.at(0), 7.0f);
}

TEST(OpsForwardTest, Conv1dMaxPoolBatched) {
  // B=2, T=2, d=2, w=1, f=2: per-step linear map, max over steps.
  Tensor values = Tensor::FromVector({4, 2}, {1, 0, 0, 1, 2, 2, -1, -1});
  Tensor kernel = Tensor::FromVector({2, 2}, {1, -1, 1, 1});
  Tensor bias = Tensor::FromVector({2}, {0, 10});
  Tensor out = Conv1dMaxPool(values, 2, kernel, bias);
  EXPECT_EQ(out.shape(), (Shape{2, 2}));
  // Example 0 step scores: filter0 {1, 1}, filter1 {-1+10, 1+10}.
  EXPECT_FLOAT_EQ(out.at(0, 0), 1.0f);
  EXPECT_FLOAT_EQ(out.at(0, 1), 11.0f);
  // Example 1 step scores: filter0 {4, -2}, filter1 {0+10, 0+10... -2+10? }.
  EXPECT_FLOAT_EQ(out.at(1, 0), 4.0f);
  EXPECT_FLOAT_EQ(out.at(1, 1), 10.0f);
}

TEST(OpsForwardTest, EmbeddingLookup) {
  Tensor table = Tensor::FromVector({3, 2}, {0, 1, 10, 11, 20, 21});
  Tensor e = EmbeddingLookup(table, {2, 0, 2});
  EXPECT_EQ(e.shape(), (Shape{3, 2}));
  EXPECT_EQ(e.ToVector(), (std::vector<float>{20, 21, 0, 1, 20, 21}));
}

TEST(OpsForwardTest, WeightedPool) {
  // B=2 groups of s=2 vectors of width k=2.
  Tensor values = Tensor::FromVector({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor weights = Tensor::FromVector({2, 2}, {0.25f, 0.75f, 1.0f, 0.0f});
  Tensor p = WeightedPool(values, weights);
  EXPECT_EQ(p.shape(), (Shape{2, 2}));
  EXPECT_FLOAT_EQ(p.at(0, 0), 0.25f * 1 + 0.75f * 3);
  EXPECT_FLOAT_EQ(p.at(0, 1), 0.25f * 2 + 0.75f * 4);
  EXPECT_FLOAT_EQ(p.at(1, 0), 5.0f);
  EXPECT_FLOAT_EQ(p.at(1, 1), 6.0f);
}

TEST(OpsForwardTest, CrossEntropyUniformLogits) {
  Tensor logits = Tensor::Zeros({2, 4});
  Tensor loss = CrossEntropyWithLogits(logits, {1, 3});
  EXPECT_NEAR(loss.item(), std::log(4.0f), 1e-5f);
}

TEST(OpsForwardTest, CrossEntropyWeightsZeroOutExamples) {
  Tensor logits = Tensor::FromVector({2, 2}, {10.0f, 0.0f, 0.0f, 10.0f});
  // First example is confidently correct, second confidently wrong.
  Tensor loss_unweighted = CrossEntropyWithLogits(logits, {0, 0});
  Tensor loss_weighted = CrossEntropyWithLogits(logits, {0, 0}, {1.0f, 0.0f});
  EXPECT_GT(loss_unweighted.item(), 1.0f);
  EXPECT_NEAR(loss_weighted.item(), 0.0f, 1e-3f);
}

// ---------------------------------------------------------------------------
// Gradient checks (central finite differences)
// ---------------------------------------------------------------------------

/// Checks autograd gradients of scalar-valued `f` w.r.t. every entry of every
/// tensor in `inputs` against central finite differences.
void CheckGradients(const std::vector<Tensor>& inputs,
                    const std::function<Tensor()>& f, float eps = 1e-2f,
                    float tol = 2e-2f) {
  Tensor out = f();
  ASSERT_EQ(out.numel(), 1);
  out.Backward();
  std::vector<std::vector<float>> analytic;
  analytic.reserve(inputs.size());
  for (const Tensor& in : inputs) analytic.push_back(in.grad());

  for (size_t t = 0; t < inputs.size(); ++t) {
    Tensor in = inputs[t];
    for (int64_t i = 0; i < in.numel(); ++i) {
      const float orig = in.at(i);
      in.at(i) = orig + eps;
      const float up = f().item();
      in.at(i) = orig - eps;
      const float down = f().item();
      in.at(i) = orig;
      const float numeric = (up - down) / (2.0f * eps);
      const float a = analytic[t][static_cast<size_t>(i)];
      const float scale = std::max({std::abs(a), std::abs(numeric), 1.0f});
      EXPECT_NEAR(a, numeric, tol * scale)
          << "input " << t << " entry " << i;
    }
  }
}

TEST(GradCheckTest, AddSubMulDiv) {
  Rng rng(1);
  Tensor a = Tensor::Randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({2, 3}, rng, 1.0f, true);
  // Keep divisors away from zero.
  for (int64_t i = 0; i < b.numel(); ++i) {
    b.at(i) = (b.at(i) >= 0 ? 1.0f : -1.0f) * (std::abs(b.at(i)) + 1.0f);
  }
  CheckGradients({a, b}, [&]() {
    return Sum(Mul(Add(a, b), Sub(a, b)));
  });
}

TEST(GradCheckTest, AddBias) {
  Rng rng(2);
  Tensor a = Tensor::Randn({3, 4}, rng, 1.0f, true);
  Tensor bias = Tensor::Randn({4}, rng, 1.0f, true);
  CheckGradients({a, bias}, [&]() { return Sum(Square(AddBias(a, bias))); });
}

TEST(GradCheckTest, UnaryChain) {
  Rng rng(3);
  Tensor a = Tensor::Randn({2, 3}, rng, 0.5f, true);
  CheckGradients({a}, [&]() { return Sum(Tanh(a)); });
  CheckGradients({a}, [&]() { return Sum(Sigmoid(a)); });
  CheckGradients({a}, [&]() { return Sum(Square(a)); });
}

TEST(GradCheckTest, MatMul) {
  Rng rng(5);
  Tensor a = Tensor::Randn({3, 4}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({4, 2}, rng, 1.0f, true);
  CheckGradients({a, b}, [&]() { return Sum(Square(MatMul(a, b))); });
}

TEST(GradCheckTest, Softmax) {
  Rng rng(7);
  Tensor a = Tensor::Randn({2, 4}, rng, 1.0f, true);
  Tensor mix = Tensor::Randn({2, 4}, rng, 1.0f, false);
  CheckGradients({a}, [&]() { return Sum(Mul(Softmax(a), mix)); });
}

TEST(GradCheckTest, MeanAndRowSum) {
  Rng rng(9);
  Tensor a = Tensor::Randn({3, 4}, rng, 1.0f, true);
  CheckGradients({a}, [&]() { return Mean(Square(a)); });
  CheckGradients({a}, [&]() { return Sum(Square(RowSum(a))); });
}

TEST(GradCheckTest, ReshapeConcatSlice) {
  Rng rng(10);
  Tensor a = Tensor::Randn({2, 3}, rng, 1.0f, true);
  Tensor b = Tensor::Randn({2, 2}, rng, 1.0f, true);
  CheckGradients({a, b}, [&]() {
    Tensor cat = ConcatCols({a, b});         // [2,5]
    Tensor r = Reshape(cat, {5, 2});         // [5,2]
    Tensor s = SliceRows(r, 1, 3);           // [3,2]
    return Sum(Square(s));
  });
}

TEST(GradCheckTest, EmbeddingLookupScattersIntoTable) {
  Rng rng(11);
  Tensor table = Tensor::Randn({4, 3}, rng, 1.0f, true);
  CheckGradients({table}, [&]() {
    // Repeated id 2 must accumulate gradient twice.
    return Sum(Square(EmbeddingLookup(table, {2, 0, 2})));
  });
}

TEST(GradCheckTest, WeightedPool) {
  Rng rng(12);
  Tensor values = Tensor::Randn({6, 3}, rng, 1.0f, true);   // B=2, s=3, k=3
  Tensor weights = Tensor::Randn({2, 3}, rng, 1.0f, true);
  CheckGradients({values, weights},
                 [&]() { return Sum(Square(WeightedPool(values, weights))); });
}

TEST(GradCheckTest, SliceCols) {
  Rng rng(25);
  Tensor a = Tensor::Randn({3, 5}, rng, 1.0f, true);
  CheckGradients({a}, [&]() { return Sum(Square(SliceCols(a, 1, 3))); });
}

TEST(GradCheckTest, Conv1dMaxPool) {
  Rng rng(26);
  const int64_t b = 2, t = 5, d = 3, w = 2, f = 4;
  Tensor values = Tensor::Randn({b * t, d}, rng, 1.0f, true);
  Tensor kernel = Tensor::Randn({w * d, f}, rng, 1.0f, true);
  Tensor bias = Tensor::Randn({f}, rng, 1.0f, true);
  // Small eps so perturbations do not flip the argmax window.
  CheckGradients(
      {values, kernel, bias},
      [&]() { return Sum(Square(Conv1dMaxPool(values, t, kernel, bias))); },
      /*eps=*/5e-3f, /*tol=*/5e-2f);
}

TEST(GradCheckTest, CrossEntropyWithLogits) {
  Rng rng(13);
  Tensor logits = Tensor::Randn({3, 4}, rng, 1.0f, true);
  std::vector<int64_t> labels = {0, 2, 3};
  CheckGradients({logits},
                 [&]() { return CrossEntropyWithLogits(logits, labels); });
}

TEST(GradCheckTest, WeightedCrossEntropy) {
  Rng rng(14);
  Tensor logits = Tensor::Randn({3, 4}, rng, 1.0f, true);
  std::vector<int64_t> labels = {1, 1, 0};
  std::vector<float> w = {0.5f, 0.0f, 2.0f};
  CheckGradients({logits},
                 [&]() { return CrossEntropyWithLogits(logits, labels, w); });
}

TEST(GradCheckTest, SharedSubexpressionAccumulates) {
  Rng rng(15);
  Tensor a = Tensor::Randn({2, 2}, rng, 1.0f, true);
  // a used twice: gradient must be the sum of both paths.
  CheckGradients({a}, [&]() { return Sum(Mul(a, a)); });
  CheckGradients({a}, [&]() { return Sum(Add(Square(a), MulScalar(a, 3.0f))); });
}

TEST(GradCheckTest, AttentionShapedComposite) {
  // End-to-end check of the fraud-attention computation pattern:
  // scores = tanh(X W) h, softmaxed per group, then weighted pooling.
  Rng rng(16);
  const int64_t b = 2, s = 3, k = 4, att = 5;
  Tensor x = Tensor::Randn({b * s, k}, rng, 0.7f, true);
  Tensor w = Tensor::Randn({k, att}, rng, 0.7f, true);
  Tensor h = Tensor::Randn({att, 1}, rng, 0.7f, true);
  CheckGradients({x, w, h}, [&]() {
    Tensor scores = MatMul(Tanh(MatMul(x, w)), h);   // [b*s, 1]
    Tensor alphas = Softmax(Reshape(scores, {b, s}));  // [b, s]
    Tensor pooled = WeightedPool(x, alphas);           // [b, k]
    return Sum(Square(pooled));
  });
}

// ---------------------------------------------------------------------------
// Backward bookkeeping
// ---------------------------------------------------------------------------

TEST(BackwardTest, GradsAreFreshPerBackward) {
  Tensor a = Tensor::FromVector({2}, {1, 2}, true);
  Tensor loss1 = Sum(Square(a));
  loss1.Backward();
  const auto g1 = a.grad();
  Tensor loss2 = Sum(Square(a));
  loss2.Backward();
  EXPECT_EQ(a.grad(), g1);  // Re-zeroed, not accumulated across calls.
}

TEST(BackwardTest, NoGradLeafIsUntouched) {
  Tensor a = Tensor::FromVector({2}, {1, 2}, true);
  Tensor c = Tensor::FromVector({2}, {5, 5}, false);
  Tensor loss = Sum(Mul(a, c));
  loss.Backward();
  EXPECT_EQ(a.grad(), (std::vector<float>{5, 5}));
  EXPECT_FALSE(c.requires_grad());
}

TEST(BackwardTest, GraphSurvivesScopedTemporaries) {
  Tensor a = Tensor::FromVector({2}, {3, 4}, true);
  Tensor loss;
  {
    Tensor tmp = Square(a);
    loss = Sum(tmp);
  }
  loss.Backward();  // tmp node must still be alive through parents chain.
  EXPECT_EQ(a.grad(), (std::vector<float>{6, 8}));
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(SerializeTest, SaveLoadRoundTrip) {
  Rng rng(21);
  std::map<std::string, Tensor> tensors;
  tensors["w1"] = Tensor::Randn({3, 4}, rng);
  tensors["b"] = Tensor::Randn({4}, rng);
  tensors["emb"] = Tensor::Randn({5, 2, 2}, rng);
  const std::string path = ::testing::TempDir() + "/rrre_ckpt.bin";
  ASSERT_TRUE(SaveTensors(path, tensors).ok());
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded.value().size(), 3u);
  for (const auto& [name, t] : tensors) {
    ASSERT_TRUE(loaded.value().count(name)) << name;
    const Tensor& l = loaded.value().at(name);
    EXPECT_EQ(l.shape(), t.shape());
    EXPECT_EQ(l.ToVector(), t.ToVector());
    EXPECT_FALSE(l.requires_grad());
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, RejectsCorruptFile) {
  const std::string path = ::testing::TempDir() + "/rrre_bad_ckpt.bin";
  FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  EXPECT_FALSE(LoadTensors(path).ok());
  std::remove(path.c_str());
}

TEST(SerializeTest, MissingFileFails) {
  EXPECT_FALSE(LoadTensors("/definitely/not/here.bin").ok());
}

// ---------------------------------------------------------------------------
// Checkpoint format v2: corruption corpus
// ---------------------------------------------------------------------------
//
// Every corrupted variant of a valid checkpoint must come back as a clean
// Status error naming the problem — never a crash, hang, or silent
// misload. The helpers below mutate the serialized bytes directly.

std::string SlurpBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void SpitBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Saves one known tensor and returns the checkpoint's raw bytes.
std::string ValidCheckpointBytes(const std::string& path) {
  Rng rng(7);
  std::map<std::string, Tensor> tensors;
  tensors["weights"] = Tensor::Randn({4, 5}, rng);
  EXPECT_TRUE(SaveTensors(path, tensors).ok());
  return SlurpBytes(path);
}

/// Appends little-endian POD bytes to a buffer (test-side writer for
/// hand-crafting v1 entries).
template <typename T>
void AppendPod(std::string* buf, T value) {
  buf->append(reinterpret_cast<const char*>(&value), sizeof(T));
}

/// Hand-writes a v1-format checkpoint (no CRC field) containing `copies`
/// entries all named `name`, each a {2} tensor.
std::string V1Bytes(const std::string& name, uint32_t copies) {
  std::string buf("RRRETNS1", 8);
  AppendPod<uint32_t>(&buf, copies);
  for (uint32_t i = 0; i < copies; ++i) {
    AppendPod<uint32_t>(&buf, static_cast<uint32_t>(name.size()));
    buf += name;
    AppendPod<uint32_t>(&buf, 1);           // rank
    AppendPod<int64_t>(&buf, 2);            // dims
    AppendPod<float>(&buf, 1.5f + i);       // payload
    AppendPod<float>(&buf, -2.5f);
  }
  return buf;
}

TEST(SerializeTest, Crc32MatchesIeeeCheckValue) {
  // The standard check value for CRC-32/ISO-HDLC ("123456789").
  EXPECT_EQ(Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(Crc32("", 0), 0u);
}

TEST(SerializeTest, SaveIsAtomicNoTempFileRemains) {
  const std::string path = ::testing::TempDir() + "/rrre_atomic.bin";
  ValidCheckpointBytes(path);
  std::ifstream tmp(path + ".tmp", std::ios::binary);
  EXPECT_FALSE(tmp.good());  // Renamed into place, not left behind.
  std::remove(path.c_str());
}

TEST(SerializeTest, BitFlipInPayloadFailsChecksum) {
  const std::string path = ::testing::TempDir() + "/rrre_flip.bin";
  std::string bytes = ValidCheckpointBytes(path);
  bytes[bytes.size() - 3] ^= 0x40;  // Flip one bit deep in the payload.
  SpitBytes(path, bytes);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("checksum mismatch"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, TruncationAtEveryPrefixFailsCleanly) {
  const std::string path = ::testing::TempDir() + "/rrre_trunc.bin";
  const std::string bytes = ValidCheckpointBytes(path);
  // Every proper prefix must be rejected (sampled densely; the file is
  // small enough to try them all).
  for (size_t len = 0; len < bytes.size(); ++len) {
    SpitBytes(path, bytes.substr(0, len));
    EXPECT_FALSE(LoadTensors(path).ok()) << "prefix length " << len;
  }
  std::remove(path.c_str());
}

TEST(SerializeTest, BadMagicFails) {
  const std::string path = ::testing::TempDir() + "/rrre_magic.bin";
  std::string bytes = ValidCheckpointBytes(path);
  bytes[0] = 'X';
  SpitBytes(path, bytes);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad checkpoint magic"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, TrailingGarbageFails) {
  const std::string path = ::testing::TempDir() + "/rrre_trailing.bin";
  std::string bytes = ValidCheckpointBytes(path);
  bytes += "extra";
  SpitBytes(path, bytes);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("trailing garbage"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, ImplausibleEntryCountFails) {
  const std::string path = ::testing::TempDir() + "/rrre_count.bin";
  std::string bytes = ValidCheckpointBytes(path);
  const uint32_t huge = 0xffffffffu;
  std::memcpy(bytes.data() + 8, &huge, sizeof(huge));
  SpitBytes(path, bytes);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("implausible entry count"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, OversizedDimsRejectedBeforeAllocation) {
  // rank=2, dims {2^40, 2^40}: numel would overflow int64 and the payload
  // bound; the loader must reject on the dims, not attempt the allocation.
  const std::string path = ::testing::TempDir() + "/rrre_dims.bin";
  std::string buf("RRRETNS1", 8);
  AppendPod<uint32_t>(&buf, 1);
  AppendPod<uint32_t>(&buf, 1);  // name_len
  buf += "w";
  AppendPod<uint32_t>(&buf, 2);  // rank
  AppendPod<int64_t>(&buf, int64_t{1} << 40);
  AppendPod<int64_t>(&buf, int64_t{1} << 40);
  SpitBytes(path, buf);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("element bound"), std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, NegativeDimFails) {
  const std::string path = ::testing::TempDir() + "/rrre_negdim.bin";
  std::string buf("RRRETNS1", 8);
  AppendPod<uint32_t>(&buf, 1);
  AppendPod<uint32_t>(&buf, 1);
  buf += "w";
  AppendPod<uint32_t>(&buf, 1);
  AppendPod<int64_t>(&buf, -4);
  SpitBytes(path, buf);
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("bad tensor dim"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST(SerializeTest, DuplicateTensorNameFails) {
  const std::string path = ::testing::TempDir() + "/rrre_dup.bin";
  SpitBytes(path, V1Bytes("w", 2));
  auto loaded = LoadTensors(path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().message().find("duplicate tensor name"),
            std::string::npos)
      << loaded.status().ToString();
  std::remove(path.c_str());
}

TEST(SerializeTest, ReadsLegacyV1Checkpoints) {
  const std::string path = ::testing::TempDir() + "/rrre_v1.bin";
  SpitBytes(path, V1Bytes("w", 1));
  auto loaded = LoadTensors(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded.value().size(), 1u);
  const Tensor& t = loaded.value().at("w");
  EXPECT_EQ(t.shape(), (Shape{2}));
  EXPECT_EQ(t.ToVector(), (std::vector<float>{1.5f, -2.5f}));
  std::remove(path.c_str());
}

TEST(SerializeTest, NewCheckpointsCarryV2Magic) {
  const std::string path = ::testing::TempDir() + "/rrre_v2magic.bin";
  const std::string bytes = ValidCheckpointBytes(path);
  ASSERT_GE(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 8), "RRRETNS2");
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rrre::tensor
