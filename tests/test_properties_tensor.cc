// Property-style parameterized tests of the tensor engine: algebraic
// identities and autograd consistency over a sweep of shapes and seeds.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "tensor/ops.h"
#include "tensor/tensor.h"

namespace rrre::tensor {
namespace {

using common::Rng;

/// (rows, cols, seed)
using ShapeSeed = std::tuple<int64_t, int64_t, uint64_t>;

class TensorAlgebraTest : public ::testing::TestWithParam<ShapeSeed> {
 protected:
  int64_t rows() const { return std::get<0>(GetParam()); }
  int64_t cols() const { return std::get<1>(GetParam()); }
  Rng MakeRng() const { return Rng(std::get<2>(GetParam())); }
};

TEST_P(TensorAlgebraTest, AddIsCommutative) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor b = Tensor::Randn({rows(), cols()}, rng);
  EXPECT_EQ(Add(a, b).ToVector(), Add(b, a).ToVector());
}

TEST_P(TensorAlgebraTest, MulDistributesOverAdd) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor b = Tensor::Randn({rows(), cols()}, rng);
  Tensor c = Tensor::Randn({rows(), cols()}, rng);
  Tensor lhs = Mul(a, Add(b, c));
  Tensor rhs = Add(Mul(a, b), Mul(a, c));
  for (int64_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs.at(i), rhs.at(i), 1e-4f) << i;
  }
}

TEST_P(TensorAlgebraTest, SubOfSelfIsZero) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor z = Sub(a, a);
  for (int64_t i = 0; i < z.numel(); ++i) EXPECT_EQ(z.at(i), 0.0f);
}

TEST_P(TensorAlgebraTest, ReshapeRoundTripPreservesValues) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor r = Reshape(Reshape(a, {rows() * cols()}), {rows(), cols()});
  EXPECT_EQ(r.ToVector(), a.ToVector());
}

TEST_P(TensorAlgebraTest, ConcatThenSliceRecoversParts) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor b = Tensor::Randn({rows(), cols()}, rng);
  Tensor catc = ConcatCols({a, b});
  EXPECT_EQ(SliceCols(catc, 0, cols()).ToVector(), a.ToVector());
  EXPECT_EQ(SliceCols(catc, cols(), cols()).ToVector(), b.ToVector());
}

TEST_P(TensorAlgebraTest, SoftmaxIsShiftInvariant) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  std::vector<float> values = a.ToVector();
  for (float& v : values) v += 7.5f;
  Tensor shifted = Tensor::FromVector({rows(), cols()}, values);
  Tensor sa = Softmax(a);
  Tensor sb = Softmax(shifted);
  for (int64_t i = 0; i < sa.numel(); ++i) {
    EXPECT_NEAR(sa.at(i), sb.at(i), 1e-5f);
  }
}

TEST_P(TensorAlgebraTest, SumIsLinear) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor b = Tensor::Randn({rows(), cols()}, rng);
  const float lhs = Sum(Add(MulScalar(a, 2.0f), b)).item();
  const float rhs = 2.0f * Sum(a).item() + Sum(b).item();
  EXPECT_NEAR(lhs, rhs, 1e-3f * std::abs(rhs) + 1e-3f);
}

TEST_P(TensorAlgebraTest, MatMulAgreesWithManualInnerProducts) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng);
  Tensor b = Tensor::Randn({cols(), rows()}, rng);
  Tensor c = MatMul(a, b);
  for (int64_t i = 0; i < rows(); ++i) {
    for (int64_t j = 0; j < rows(); ++j) {
      float acc = 0.0f;
      for (int64_t k = 0; k < cols(); ++k) acc += a.at(i, k) * b.at(k, j);
      EXPECT_NEAR(c.at(i, j), acc, 1e-3f);
    }
  }
}

TEST_P(TensorAlgebraTest, GradientOfSumIsOnes) {
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng, 1.0f, true);
  Sum(a).Backward();
  for (float g : a.grad()) EXPECT_EQ(g, 1.0f);
}

TEST_P(TensorAlgebraTest, ChainRuleThroughScalarScale) {
  // d/dx sum(s * x) == s everywhere.
  Rng rng = MakeRng();
  Tensor a = Tensor::Randn({rows(), cols()}, rng, 1.0f, true);
  Sum(MulScalar(a, -2.5f)).Backward();
  for (float g : a.grad()) EXPECT_FLOAT_EQ(g, -2.5f);
}

TEST_P(TensorAlgebraTest, WeightedPoolWithUniformWeightsIsRowMean) {
  Rng rng = MakeRng();
  const int64_t s = 4;
  Tensor values = Tensor::Randn({rows() * s, cols()}, rng);
  Tensor weights = Tensor::Full({rows(), s}, 1.0f / static_cast<float>(s));
  Tensor pooled = WeightedPool(values, weights);
  for (int64_t b = 0; b < rows(); ++b) {
    for (int64_t c = 0; c < cols(); ++c) {
      float mean = 0.0f;
      for (int64_t j = 0; j < s; ++j) mean += values.at(b * s + j, c);
      mean /= static_cast<float>(s);
      EXPECT_NEAR(pooled.at(b, c), mean, 1e-4f);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, TensorAlgebraTest,
    ::testing::Values(ShapeSeed{1, 1, 11}, ShapeSeed{2, 5, 22},
                      ShapeSeed{5, 2, 33}, ShapeSeed{7, 7, 44},
                      ShapeSeed{16, 3, 55}, ShapeSeed{3, 16, 66}));

// ---------------------------------------------------------------------------
// Autograd consistency across composite expressions, parameterized by seed.
// ---------------------------------------------------------------------------

class AutogradPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AutogradPropertyTest, NumericalGradientOfRandomComposite) {
  Rng rng(GetParam());
  Tensor x = Tensor::Randn({3, 4}, rng, 0.6f, true);
  Tensor w = Tensor::Randn({4, 3}, rng, 0.6f, true);
  auto f = [&]() {
    Tensor h = Tanh(MatMul(x, w));                 // [3,3]
    Tensor s = Softmax(h);                         // [3,3]
    return Mean(Mul(s, Sigmoid(MatMul(x, w))));    // scalar
  };
  Tensor out = f();
  out.Backward();
  const auto gx = x.grad();
  const float eps = 1e-2f;
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const float up = f().item();
    x.at(i) = orig - eps;
    const float down = f().item();
    x.at(i) = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(gx[static_cast<size_t>(i)], numeric,
                2e-2f * std::max(1.0f, std::abs(numeric)))
        << "entry " << i;
  }
}

namespace {

/// Central-difference check of d(f(x))/dx against x.grad() after Backward.
void CheckNumericalGradient(Tensor& x, const std::function<Tensor()>& f,
                            float eps = 1e-2f, float tol = 2e-2f) {
  Tensor out = f();
  out.Backward();
  const auto gx = x.grad();
  for (int64_t i = 0; i < x.numel(); ++i) {
    const float orig = x.at(i);
    x.at(i) = orig + eps;
    const float up = f().item();
    x.at(i) = orig - eps;
    const float down = f().item();
    x.at(i) = orig;
    const float numeric = (up - down) / (2.0f * eps);
    EXPECT_NEAR(gx[static_cast<size_t>(i)], numeric,
                tol * std::max(1.0f, std::abs(numeric)))
        << "entry " << i;
  }
}

}  // namespace

TEST_P(AutogradPropertyTest, NumericalGradientOfSliceCols) {
  Rng rng(GetParam());
  Tensor x = Tensor::Randn({4, 6}, rng, 0.8f, true);
  Tensor scale = Tensor::Randn({4, 3}, rng, 1.0f, false);
  CheckNumericalGradient(
      x, [&]() { return Mean(Mul(SliceCols(x, 2, 3), scale)); });
}

TEST_P(AutogradPropertyTest, BackwardTwiceGivesIdenticalGradients) {
  Rng rng(GetParam());
  Tensor x = Tensor::Randn({4, 4}, rng, 1.0f, true);
  Tensor loss1 = Sum(Square(Tanh(x)));
  loss1.Backward();
  const auto g1 = x.grad();
  Tensor loss2 = Sum(Square(Tanh(x)));
  loss2.Backward();
  EXPECT_EQ(x.grad(), g1);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AutogradPropertyTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

}  // namespace
}  // namespace rrre::tensor
