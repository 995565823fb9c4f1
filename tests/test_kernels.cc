#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/review_encoder.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/attention.h"
#include "nn/embedding.h"
#include "nn/fm.h"
#include "nn/gru.h"
#include "nn/linear.h"
#include "nn/lstm.h"
#include "tensor/grad_sink.h"
#include "tensor/kernels.h"
#include "tensor/ops.h"
#include "tensor/tape.h"
#include "tensor/tensor.h"

namespace rrre {
namespace {

using common::Rng;
using common::ThreadPool;
using tensor::Shape;
using tensor::Tensor;

/// Every test in this file restores the two pieces of process-global state it
/// may touch — the thread-pool size and the fusion switch — so binaries
/// sharing a ctest invocation (or a manual full-suite run) are unaffected.
class KernelTestBase : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = ThreadPool::GlobalSize();
    original_fusion_ = tensor::FusionEnabled();
  }
  void TearDown() override {
    ThreadPool::SetGlobalSize(original_threads_);
    tensor::SetFusionEnabled(original_fusion_);
  }

  int original_threads_ = 0;
  bool original_fusion_ = false;
};

// ---------------------------------------------------------------------------
// GEMM parity oracle: the blocked kernel vs a naive triple loop with double
// accumulation, over a shape grid that crosses every blocking boundary
// (1, kMr±1, kNr±1, primes, tall/skinny, wide/flat) and all four transpose
// variants.
// ---------------------------------------------------------------------------

class KernelGemmTest : public KernelTestBase {};

std::vector<float> RandomBuffer(int64_t n, Rng& rng) {
  std::vector<float> out(static_cast<size_t>(n));
  for (auto& v : out) v = static_cast<float>(rng.Normal()) * 0.5f;
  return out;
}

/// C[m,n] += opA(A)·opB(B), accumulated per element in double. The storage
/// convention matches kernels::Gemm: A is [m,k] ([k,m] when trans_a), B is
/// [k,n] ([n,k] when trans_b), all row-major with the given strides.
void NaiveGemm(bool trans_a, bool trans_b, int64_t m, int64_t n, int64_t k,
               const float* a, int64_t lda, const float* b, int64_t ldb,
               float* c, int64_t ldc) {
  for (int64_t i = 0; i < m; ++i) {
    for (int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (int64_t kk = 0; kk < k; ++kk) {
        const float av = trans_a ? a[kk * lda + i] : a[i * lda + kk];
        const float bv = trans_b ? b[j * ldb + kk] : b[kk * ldb + j];
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c[i * ldc + j] += static_cast<float>(acc);
    }
  }
}

TEST_F(KernelGemmTest, MatchesNaiveReferenceAcrossShapeGrid) {
  using tensor::kernels::kMr;
  using tensor::kernels::kNr;
  // Crosses the register-tile boundaries (kMr=4, kNr=16), the small-n
  // fallback threshold (kSmallN=5), primes, and 1.
  const std::vector<int64_t> dims = {1,        kMr - 1,  kMr,     kMr + 1,
                                     7,        13,       kNr - 1, kNr,
                                     kNr + 1,  37};
  Rng rng(7);
  for (int variant = 0; variant < 4; ++variant) {
    const bool ta = (variant & 1) != 0;
    const bool tb = (variant & 2) != 0;
    for (int64_t m : dims) {
      for (int64_t n : dims) {
        for (int64_t k : dims) {
          const int64_t lda = ta ? m : k;
          const int64_t ldb = tb ? k : n;
          const std::vector<float> a = RandomBuffer(m * k, rng);
          const std::vector<float> b = RandomBuffer(k * n, rng);
          std::vector<float> got(static_cast<size_t>(m * n), 0.0f);
          std::vector<float> want = got;
          tensor::kernels::Gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                                got.data(), n);
          NaiveGemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb, want.data(),
                    n);
          for (size_t i = 0; i < got.size(); ++i) {
            ASSERT_NEAR(got[i], want[i],
                        1e-4 + 1e-5 * std::fabs(want[i]))
                << "ta=" << ta << " tb=" << tb << " m=" << m << " n=" << n
                << " k=" << k << " elem " << i;
          }
        }
      }
    }
  }
}

TEST_F(KernelGemmTest, AccumulatesIntoExistingOutput) {
  Rng rng(11);
  const int64_t m = 9, n = 17, k = 21;
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> got = RandomBuffer(m * n, rng);
  std::vector<float> want = got;
  tensor::kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, got.data(), n);
  NaiveGemm(false, false, m, n, k, a.data(), k, b.data(), n, want.data(), n);
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], 1e-4) << "elem " << i;
  }
}

TEST_F(KernelGemmTest, RowChunksAreBitwiseIdenticalToOneCall) {
  // The batch-shape invariance contract: a row's bits may not depend on
  // which row range (or micro-batch) it was computed in. This is what lets
  // the serving layer score a pair in a micro-batch of 3 and get the exact
  // bits of the reference batch of 120. Checked for both A-storage layouts
  // because the sharded backward calls hand in column sub-blocks when
  // trans_a is set.
  Rng rng(13);
  const int64_t m = 37, n = 29, k = 23;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const int64_t lda = ta ? m : k;
      const int64_t ldb = tb ? k : n;
      const std::vector<float> a = RandomBuffer(m * k, rng);
      const std::vector<float> b = RandomBuffer(k * n, rng);
      std::vector<float> full(static_cast<size_t>(m * n), 0.0f);
      tensor::kernels::Gemm(ta, tb, m, n, k, a.data(), lda, b.data(), ldb,
                            full.data(), n);
      for (int64_t chunk : {1, 2, 3, 5, 8}) {
        std::vector<float> pieced(static_cast<size_t>(m * n), 0.0f);
        for (int64_t lo = 0; lo < m; lo += chunk) {
          const int64_t hi = std::min(m, lo + chunk);
          // Sub-block addressing mirrors ShardedGemm in ops.cc.
          const float* a_sub = ta ? a.data() + lo : a.data() + lo * lda;
          tensor::kernels::Gemm(ta, tb, hi - lo, n, k, a_sub, lda, b.data(),
                                ldb, pieced.data() + lo * n, n);
        }
        EXPECT_EQ(pieced, full)
            << "ta=" << ta << " tb=" << tb << " chunk=" << chunk;
      }
    }
  }
}

TEST_F(KernelGemmTest, RepeatCallsAreBitwiseIdentical) {
  Rng rng(17);
  const int64_t m = 33, n = 19, k = 129;  // k crosses the kKc=128 panel
  const std::vector<float> a = RandomBuffer(m * k, rng);
  const std::vector<float> b = RandomBuffer(k * n, rng);
  std::vector<float> first(static_cast<size_t>(m * n), 0.0f);
  std::vector<float> second = first;
  tensor::kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, first.data(), n);
  tensor::kernels::GemmNN(m, n, k, a.data(), k, b.data(), n, second.data(), n);
  EXPECT_EQ(first, second);
}

// ---------------------------------------------------------------------------
// Conv1dMaxPool parity oracle.
// ---------------------------------------------------------------------------

class KernelConvTest : public KernelTestBase {};

TEST_F(KernelConvTest, MatchesNaiveReference) {
  Rng rng(19);
  for (int64_t f : {1, 3, 11, 16, 17}) {
    const int64_t seq = 9, w = 3, d = 7;
    const std::vector<float> values = RandomBuffer(seq * d, rng);
    const std::vector<float> kernel = RandomBuffer(w * d * f, rng);
    const std::vector<float> bias = RandomBuffer(f, rng);
    std::vector<float> out(static_cast<size_t>(f), 0.0f);
    std::vector<int64_t> argmax(static_cast<size_t>(f), -1);
    std::vector<float> scratch(static_cast<size_t>(f), 0.0f);
    tensor::kernels::Conv1dMaxPoolExample(seq, w, d, f, values.data(),
                                          kernel.data(), bias.data(),
                                          out.data(), argmax.data(),
                                          scratch.data());
    for (int64_t c = 0; c < f; ++c) {
      double best = -1e300;
      int64_t best_q = -1;
      for (int64_t q = 0; q + w <= seq; ++q) {
        double score = bias[static_cast<size_t>(c)];
        for (int64_t t = 0; t < w * d; ++t) {
          score += static_cast<double>(values[static_cast<size_t>(q * d + t)]) *
                   static_cast<double>(kernel[static_cast<size_t>(t * f + c)]);
        }
        if (score > best) {  // first position wins ties, like the kernel
          best = score;
          best_q = q;
        }
      }
      EXPECT_NEAR(out[static_cast<size_t>(c)], best, 1e-4)
          << "f=" << f << " filter " << c;
      EXPECT_EQ(argmax[static_cast<size_t>(c)], best_q)
          << "f=" << f << " filter " << c;
    }
  }
}

TEST_F(KernelConvTest, RepeatCallsAreBitwiseIdentical) {
  Rng rng(23);
  const int64_t seq = 12, w = 3, d = 8, f = 11;
  const std::vector<float> values = RandomBuffer(seq * d, rng);
  const std::vector<float> kernel = RandomBuffer(w * d * f, rng);
  const std::vector<float> bias = RandomBuffer(f, rng);
  std::vector<float> out1(static_cast<size_t>(f)), out2(static_cast<size_t>(f));
  std::vector<int64_t> am1(static_cast<size_t>(f)), am2(static_cast<size_t>(f));
  std::vector<float> scratch(static_cast<size_t>(f));
  tensor::kernels::Conv1dMaxPoolExample(seq, w, d, f, values.data(),
                                        kernel.data(), bias.data(), out1.data(),
                                        am1.data(), scratch.data());
  tensor::kernels::Conv1dMaxPoolExample(seq, w, d, f, values.data(),
                                        kernel.data(), bias.data(), out2.data(),
                                        am2.data(), scratch.data());
  EXPECT_EQ(out1, out2);
  EXPECT_EQ(am1, am2);
}

// ---------------------------------------------------------------------------
// Tanh: kernels::Tanh and kernels::TanhN transcribe glibc 2.36's tanhf. The
// golden bits below were recorded from that libm's tanhf on x86-64. They
// cover every range the code branches on, plus canaries that come out an
// ulp or more off when the compiler fuses a product into an add (a build
// without -ffp-contract=off fails here). The sweeps pin the 8-lane blend to
// the scalar branches.
// ---------------------------------------------------------------------------

class KernelTanhTest : public KernelTestBase {};

uint32_t Bits(float v) { return std::bit_cast<uint32_t>(v); }
float FromBits(uint32_t w) { return std::bit_cast<float>(w); }

std::string Hex(uint32_t w) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%08x", w);
  return buf;
}

struct TanhGolden {
  uint32_t in;
  uint32_t out;
};

// Grouped by the branch an input takes; k is expm1f's reduction exponent
// for tanhf's argument 2|x| (|x| >= 1) or -2|x|.
constexpr TanhGolden kTanhGolden[] = {
    // |x| < 2^-55: x * (1 + x).
    {0x20000000u, 0x20000000u}, {0xa3ffffffu, 0xa3ffffffu},
    // |x| < 2^-26: expm1f returns its argument.
    {0x30000000u, 0x30000000u}, {0xb27fffffu, 0xb27fffffu},
    // |x| <= 0.1733: k = 0, from |x| = 2^-26 on.
    {0x32800000u, 0x32800000u}, {0x3d800000u, 0x3d7faacdu},
    {0xbe000000u, 0xbdfeaccau}, {0x3e3170b7u, 0x3e2faf76u},
    // |x| < 0.52: k = -1.
    {0x3e99999au, 0x3e9526edu}, {0xbf000000u, 0xbeec9a9fu},
    {0x3f051591u, 0x3ef486f8u},
    // |x| < 1: k <= -2.
    {0x3f400000u, 0x3f22991fu}, {0xbf7fffffu, 0xbf42f7d5u},
    // |x| < 7.6: 2 <= k < 23.
    {0x3f800000u, 0x3f42f7d6u}, {0xc0200000u, 0xbf7c92c1u},
    {0x40400000u, 0x3f7ebbe9u}, {0x40f33333u, 0x3f7ffff8u},
    // |x| <= 19.4: 23 <= k <= 56.
    {0x41200000u, 0x3f800000u}, {0xc1900000u, 0xbf800000u},
    {0x419b3333u, 0x3f800000u},
    // |x| < 22: k > 56.
    {0x41a80000u, 0x3f800000u}, {0xc1afffffu, 0xbf800000u},
    // |x| >= 22: +-1.
    {0x41b00000u, 0x3f800000u}, {0xc2c80000u, 0xbf800000u},
    {0x7f7fffffu, 0x3f800000u},
    // +-0, subnormals, +-inf, NaN payloads (a signaling NaN comes back quiet).
    {0x00000000u, 0x00000000u}, {0x80000000u, 0x80000000u},
    {0x00000001u, 0x00000001u}, {0x807fffffu, 0x807fffffu},
    {0x7f800000u, 0x3f800000u}, {0xff800000u, 0xbf800000u},
    {0x7fc12345u, 0x7fc12345u}, {0xffa00001u, 0xffe00001u},
    // Contraction canaries (k = 0, -1, -2 and 3).
    {0x3bd6f4c9u, 0x3bd6f400u}, {0x3e31c374u, 0x3e2fffc2u},
    {0x3f059b59u, 0x3ef5554eu}, {0x3f956f6au, 0x3f52ce15u},
};
constexpr int64_t kTanhGoldenSize = std::ssize(kTanhGolden);

TEST_F(KernelTanhTest, MatchesGlibcTanhfGoldenBits) {
  std::vector<float> mixed(kTanhGoldenSize);
  for (int64_t i = 0; i < kTanhGoldenSize; ++i) {
    mixed[i] = FromBits(kTanhGolden[i].in);
  }
  // All inputs side by side, so each vector mixes ranges across its lanes.
  tensor::kernels::TanhN(mixed.data(), mixed.data(), kTanhGoldenSize);
  for (int64_t i = 0; i < kTanhGoldenSize; ++i) {
    const auto [in, want] = kTanhGolden[i];
    const std::string at = "tanh(" + Hex(in) + ")";
    EXPECT_EQ(Hex(Bits(tensor::kernels::Tanh(FromBits(in)))), Hex(want))
        << "Tanh " << at;
    EXPECT_EQ(Hex(Bits(mixed[i])), Hex(want)) << "TanhN mixed lanes " << at;
    // The input in all 8 lanes of a vector, then as the scalar tail.
    std::vector<float> lanes(9, FromBits(in));
    tensor::kernels::TanhN(lanes.data(), lanes.data(), 9);
    for (size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(Hex(Bits(lanes[l])), Hex(want)) << "TanhN lane " << l << " "
                                                << at;
    }
  }
}

TEST_F(KernelTanhTest, VectorMatchesScalarOnStridedSweep) {
  // A prime stride through all 2^32 bit patterns: every exponent with varied
  // mantissas and both signs, about a million inputs. Chunks of a length
  // that is not a multiple of 8 end in a scalar tail each.
  constexpr uint64_t kStride = 4099;
  constexpr size_t kChunk = 4093;
  std::vector<float> in, out;
  int64_t checked = 0, mismatches = 0;
  std::string first;
  for (uint64_t w = 0; w < (uint64_t{1} << 32);) {
    in.clear();
    for (; w < (uint64_t{1} << 32) && in.size() < kChunk; w += kStride) {
      in.push_back(FromBits(static_cast<uint32_t>(w)));
    }
    out.resize(in.size());
    tensor::kernels::TanhN(in.data(), out.data(),
                           static_cast<int64_t>(in.size()));
    for (size_t i = 0; i < in.size(); ++i) {
      const uint32_t want = Bits(tensor::kernels::Tanh(in[i]));
      ++checked;
      if (Bits(out[i]) != want && mismatches++ == 0) {
        first = "tanh(" + Hex(Bits(in[i])) + "): TanhN " + Hex(Bits(out[i])) +
                ", Tanh " + Hex(want);
      }
    }
  }
  EXPECT_EQ(checked, 1047809);
  EXPECT_EQ(mismatches, 0) << "first: " << first;
}

TEST_F(KernelTanhTest, InPlaceEveryLengthMatchesScalar) {
  // n in [0, 17]: empty, the scalar tail alone, one vector, two, and the
  // tails after each; a sentinel past the end must survive.
  constexpr float kSentinel = 12345.0f;
  for (int64_t n = 0; n <= 17; ++n) {
    std::vector<float> buf(static_cast<size_t>(n) + 1, kSentinel);
    std::vector<uint32_t> want(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      buf[i] = FromBits(kTanhGolden[(7 * i + n) % kTanhGoldenSize].in);
      want[i] = Bits(tensor::kernels::Tanh(buf[i]));
    }
    tensor::kernels::TanhN(buf.data(), buf.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(Hex(Bits(buf[i])), Hex(want[i])) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(buf[n], kSentinel) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Gradchecks: central finite differences against the analytic backward, at
// awkward (non-blocked, prime) shapes. The loss is a fixed random weighting
// of the output so every output coordinate contributes.
// ---------------------------------------------------------------------------

class KernelGradcheckTest : public KernelTestBase {};

using ForwardFn = std::function<Tensor(const std::vector<Tensor>&)>;

double WeightedSum(const Tensor& y, const std::vector<float>& w) {
  const std::vector<float> v = y.ToVector();
  EXPECT_EQ(v.size(), w.size());
  double s = 0.0;
  for (size_t i = 0; i < v.size(); ++i) {
    s += static_cast<double>(v[i]) * static_cast<double>(w[i]);
  }
  return s;
}

void GradCheck(const std::string& name, const std::vector<Shape>& shapes,
               const ForwardFn& fn, uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> inputs;
  for (const Shape& s : shapes) {
    inputs.push_back(Tensor::Randn(s, rng, 0.5f, /*requires_grad=*/true));
  }
  Tensor y = fn(inputs);
  Rng wrng(seed ^ 0x9e3779b97f4a7c15ULL);
  Tensor w = Tensor::Randn(y.shape(), wrng);
  Tensor loss = tensor::Sum(tensor::Mul(y, w));
  loss.Backward();
  const std::vector<float> wv = w.ToVector();

  const float eps = 1e-2f;
  for (size_t t = 0; t < inputs.size(); ++t) {
    const std::vector<float> analytic = inputs[t].grad();
    for (int64_t i = 0; i < inputs[t].numel(); ++i) {
      auto eval = [&](float delta) {
        std::vector<Tensor> probe;
        for (size_t u = 0; u < inputs.size(); ++u) {
          std::vector<float> v = inputs[u].ToVector();
          if (u == t) v[static_cast<size_t>(i)] += delta;
          probe.push_back(Tensor::FromVector(inputs[u].shape(), std::move(v)));
        }
        return WeightedSum(fn(probe), wv);
      };
      const double numeric = (eval(eps) - eval(-eps)) / (2.0 * eps);
      const double got = analytic[static_cast<size_t>(i)];
      const double tol =
          2e-2 + 2e-2 * std::max(std::fabs(got), std::fabs(numeric));
      EXPECT_NEAR(got, numeric, tol)
          << name << ": input " << t << " coord " << i;
    }
  }
}

TEST_F(KernelGradcheckTest, MatMulAllTransposeVariants) {
  const int64_t m = 5, k = 7, n = 3;
  for (bool ta : {false, true}) {
    for (bool tb : {false, true}) {
      const Shape sa = ta ? Shape{k, m} : Shape{m, k};
      const Shape sb = tb ? Shape{n, k} : Shape{k, n};
      GradCheck("matmul ta=" + std::to_string(ta) + " tb=" + std::to_string(tb),
                {sa, sb},
                [ta, tb](const std::vector<Tensor>& in) {
                  return tensor::MatMul(in[0], in[1], ta, tb);
                },
                29);
    }
  }
}

TEST_F(KernelGradcheckTest, MatMulAtBlockBoundaryShapes) {
  // kMr=4 / kNr=16 boundaries and a k crossing the kKc panel.
  for (const auto& mkn : std::vector<std::vector<int64_t>>{
           {4, 16, 16}, {5, 17, 17}, {3, 130, 15}, {1, 7, 1}}) {
    GradCheck("matmul m=" + std::to_string(mkn[0]),
              {Shape{mkn[0], mkn[1]}, Shape{mkn[1], mkn[2]}},
              [](const std::vector<Tensor>& in) {
                return tensor::MatMul(in[0], in[1]);
              },
              31);
  }
}

TEST_F(KernelGradcheckTest, Conv1dMaxPoolMatchesFrozenArgmaxReference) {
  // Finite differences are invalid for max-pool wherever a perturbation
  // flips the argmax (the function has a kink there), so the conv backward
  // is checked against the exact analytic gradient instead: with the argmax
  // frozen, out[bi,c] = bias[c] + window(argmax)·kernel[:,c] is linear and
  // its gradient is known in closed form from the forward argmax.
  const int64_t batch = 3, seq = 5, d = 4, w = 3, f = 6;
  Rng rng(37);
  Tensor values =
      Tensor::Randn({batch * seq, d}, rng, 0.5f, /*requires_grad=*/true);
  Tensor kernel = Tensor::Randn({w * d, f}, rng, 0.5f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({f}, rng, 0.5f, /*requires_grad=*/true);
  Tensor out = tensor::Conv1dMaxPool(values, seq, kernel, bias);
  Rng wrng(73);
  Tensor lw = Tensor::Randn({batch, f}, wrng);
  tensor::Sum(tensor::Mul(out, lw)).Backward();

  // Recover each filter's argmax with the standalone kernel on the same
  // data, then accumulate the frozen-argmax gradient in double.
  std::vector<double> gv(static_cast<size_t>(batch * seq * d), 0.0);
  std::vector<double> gk(static_cast<size_t>(w * d * f), 0.0);
  std::vector<double> gb(static_cast<size_t>(f), 0.0);
  std::vector<float> out_row(static_cast<size_t>(f));
  std::vector<int64_t> argmax(static_cast<size_t>(f));
  std::vector<float> scratch(static_cast<size_t>(f));
  const std::vector<float> vv = values.ToVector();
  const std::vector<float> kv = kernel.ToVector();
  const std::vector<float> bv = bias.ToVector();
  for (int64_t bi = 0; bi < batch; ++bi) {
    tensor::kernels::Conv1dMaxPoolExample(
        seq, w, d, f, vv.data() + bi * seq * d, kv.data(), bv.data(),
        out_row.data(), argmax.data(), scratch.data());
    for (int64_t c = 0; c < f; ++c) {
      const double g = lw.at(bi, c);
      const int64_t q = argmax[static_cast<size_t>(c)];
      gb[static_cast<size_t>(c)] += g;
      for (int64_t t = 0; t < w * d; ++t) {
        gv[static_cast<size_t>(bi * seq * d + q * d + t)] +=
            g * kv[static_cast<size_t>(t * f + c)];
        gk[static_cast<size_t>(t * f + c)] +=
            g * vv[static_cast<size_t>(bi * seq * d + q * d + t)];
      }
    }
  }
  const std::vector<float>& agv = values.grad();
  const std::vector<float>& agk = kernel.grad();
  const std::vector<float>& agb = bias.grad();
  for (size_t i = 0; i < gv.size(); ++i) {
    EXPECT_NEAR(agv[i], gv[i], 1e-4) << "values grad " << i;
  }
  for (size_t i = 0; i < gk.size(); ++i) {
    EXPECT_NEAR(agk[i], gk[i], 1e-4) << "kernel grad " << i;
  }
  for (size_t i = 0; i < gb.size(); ++i) {
    EXPECT_NEAR(agb[i], gb[i], 1e-4) << "bias grad " << i;
  }
}

TEST_F(KernelGradcheckTest, AddNBiasActAllActivations) {
  const int64_t b = 3, d = 5;
  for (tensor::Activation act :
       {tensor::Activation::kNone, tensor::Activation::kTanh,
        tensor::Activation::kSigmoid, tensor::Activation::kRelu}) {
    GradCheck("addn_bias_act " + std::to_string(static_cast<int>(act)),
              {Shape{b, d}, Shape{b, d}, Shape{b, d}, Shape{d}},
              [act](const std::vector<Tensor>& in) {
                return tensor::AddNBiasAct({in[0], in[1], in[2]}, in[3], act);
              },
              41);
  }
}

TEST_F(KernelGradcheckTest, LstmSequence) {
  // Three steps of two sequences in both directions: the gradient crosses
  // the recurrence (dh, dc), the hoisted input GEMM and the bias.
  constexpr int64_t kSteps = 3, kBatch = 2, kDim = 3, kHidden = 2;
  for (bool reverse : {false, true}) {
    GradCheck(std::string("lstm_sequence reverse=") + (reverse ? "1" : "0"),
              {Shape{kSteps * kBatch, kDim}, Shape{kDim, 4 * kHidden},
               Shape{kHidden, 4 * kHidden}, Shape{4 * kHidden}},
              [reverse](const std::vector<Tensor>& in) {
                return tensor::LstmSequence(in[0], in[1], in[2], in[3],
                                            kSteps, reverse);
              },
              43);
  }
}

TEST_F(KernelGradcheckTest, GruPointwise) {
  const int64_t b = 3, h = 4;
  GradCheck("gru_pointwise", {Shape{b, 3 * h}, Shape{b, 3 * h}, Shape{b, h}},
            [](const std::vector<Tensor>& in) {
              return tensor::GruPointwise(in[0], in[1], in[2]);
            },
            47);
}

TEST_F(KernelGradcheckTest, FmPairwise) {
  const int64_t b = 4, f = 5;
  GradCheck("fm_pairwise", {Shape{b, f}, Shape{b, f}},
            [](const std::vector<Tensor>& in) {
              return tensor::FmPairwise(in[0], in[1]);
            },
            53);
}

// ---------------------------------------------------------------------------
// Fusion parity: every nn module that has a fused path must produce bitwise
// identical values AND parameter/input gradients with fusion on and off.
// This is the contract that lets `--tape` default on.
// ---------------------------------------------------------------------------

class KernelFusionParityTest : public KernelTestBase {};

struct ModuleRun {
  std::vector<float> out;
  std::vector<std::vector<float>> grads;
};

/// Runs `body` with the fusion switch forced to `fused`. The body builds its
/// module from a fresh rng (same seed both runs), returns the output tensor,
/// and appends every tensor whose grad should be compared.
ModuleRun RunModule(
    bool fused,
    const std::function<Tensor(Rng&, std::vector<Tensor>&)>& body) {
  tensor::SetFusionEnabled(fused);
  Rng rng(1234);
  std::vector<Tensor> tracked;
  Tensor out = body(rng, tracked);
  Rng wrng(4321);
  Tensor w = Tensor::Randn(out.shape(), wrng);
  Tensor loss = tensor::Sum(tensor::Mul(out, w));
  loss.Backward();
  ModuleRun run;
  run.out = out.ToVector();
  for (const Tensor& t : tracked) run.grads.push_back(t.grad());
  return run;
}

void ExpectFusedMatchesEager(
    const std::function<Tensor(Rng&, std::vector<Tensor>&)>& body) {
  const ModuleRun eager = RunModule(false, body);
  const ModuleRun fused = RunModule(true, body);
  EXPECT_EQ(fused.out, eager.out);
  ASSERT_EQ(fused.grads.size(), eager.grads.size());
  for (size_t i = 0; i < eager.grads.size(); ++i) {
    EXPECT_EQ(fused.grads[i], eager.grads[i]) << "tracked tensor " << i;
  }
}

TEST_F(KernelFusionParityTest, LinearBitwise) {
  ExpectFusedMatchesEager([](Rng& rng, std::vector<Tensor>& tracked) {
    nn::Linear layer(7, 5, rng);
    Tensor x = Tensor::Randn({6, 7}, rng, 0.5f, /*requires_grad=*/true);
    tracked.push_back(x);
    for (const Tensor& p : layer.Parameters()) tracked.push_back(p);
    return layer.Forward(x);
  });
}

/// A ReviewEncoder over an 11-word table, so token ids repeat within and
/// across slots and the table gradient scatter-adds into shared rows.
struct EncoderUnderTest {
  static constexpr int64_t kVocab = 11;

  EncoderUnderTest(int64_t max_tokens, int64_t word_dim, int64_t rev_dim)
      : rng(555),
        words(kVocab, word_dim, rng, 0.5f),
        encoder(&words, max_tokens, rev_dim, rng) {}

  /// The word table, then both directions' w_ih, w_hh and bias.
  std::vector<Tensor> Tracked() const {
    std::vector<Tensor> out = {words.table()};
    for (const Tensor& p : encoder.Parameters()) out.push_back(p);
    return out;
  }

  Rng rng;
  nn::Embedding words;
  core::ReviewEncoder encoder;
};

std::vector<int64_t> RandomTokens(int64_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<int64_t> ids(static_cast<size_t>(count));
  for (int64_t& id : ids) {
    id = static_cast<int64_t>(
        rng.UniformInt(static_cast<uint64_t>(EncoderUnderTest::kVocab)));
  }
  return ids;
}

/// Encodes `tokens` (slots x max_tokens) and backprops a fixed random
/// weighting of the output. With `sink` the grads go through a GradSink, as
/// in a training shard, and are added into the zeroed leaf grads after.
ModuleRun EncodeAndBackprop(const EncoderUnderTest& m,
                            const std::vector<int64_t>& tokens, int64_t slots,
                            bool sink) {
  std::vector<Tensor> tracked = m.Tracked();
  for (Tensor& t : tracked) t.ZeroGrad();
  Tensor out = m.encoder.Encode(tokens, slots);
  Rng wrng(4321);
  Tensor w = Tensor::Randn(out.shape(), wrng);
  Tensor loss = tensor::Sum(tensor::Mul(out, w));
  if (sink) {
    tensor::GradSink grad_sink(tracked);
    {
      tensor::GradSink::Scope scope(&grad_sink);
      loss.Backward();
    }
    grad_sink.AccumulateInto();
  } else {
    loss.Backward();
  }
  ModuleRun run;
  run.out = out.ToVector();
  for (const Tensor& t : tracked) run.grads.push_back(t.grad());
  return run;
}

void ExpectRunsEqual(const ModuleRun& got, const ModuleRun& want,
                     const std::string& what) {
  EXPECT_EQ(got.out, want.out) << what;
  ASSERT_EQ(got.grads.size(), want.grads.size()) << what;
  for (size_t i = 0; i < want.grads.size(); ++i) {
    // 0 is the word table; then fwd w_ih, w_hh, bias; then bwd.
    EXPECT_EQ(got.grads[i], want.grads[i]) << what << " tracked tensor " << i;
  }
}

TEST_F(KernelFusionParityTest, ReviewEncoderBitwise) {
  // One LstmSequence node per direction against the eager per-step chain,
  // values and every gradient. Slot counts cover the kMr=4 GEMM row tails
  // (1, 3, 5) and a weight-gradient reduction spanning two kKc=128 panels
  // (130); the (word_dim 5, hidden 35) shape adds a 4H=140 that is not a
  // kNr multiple, two k-panels in the dh / dX GEMMs and two bias chunks.
  struct Dims {
    int64_t word_dim;
    int64_t hidden;
  };
  for (const Dims dims : {Dims{16, 16}, Dims{5, 35}}) {
    for (int64_t max_tokens : {int64_t{1}, int64_t{16}}) {
      for (int64_t slots : {1, 3, 5, 56, 130}) {
        EncoderUnderTest m(max_tokens, dims.word_dim, 2 * dims.hidden);
        const std::vector<int64_t> tokens =
            RandomTokens(slots * max_tokens, 17 + static_cast<uint64_t>(slots));
        for (bool sink : {false, true}) {
          const std::string what =
              "D=" + std::to_string(dims.word_dim) +
              " H=" + std::to_string(dims.hidden) +
              " T=" + std::to_string(max_tokens) +
              " S=" + std::to_string(slots) + " sink=" + std::to_string(sink);
          tensor::SetFusionEnabled(false);
          const ModuleRun eager = EncodeAndBackprop(m, tokens, slots, sink);
          tensor::SetFusionEnabled(true);
          const ModuleRun fused = EncodeAndBackprop(m, tokens, slots, sink);
          ExpectRunsEqual(fused, eager, what);
        }
      }
    }
  }
}

TEST_F(KernelFusionParityTest, ReviewEncoderReplayBitwise) {
  // A recorded tape step, then a replayed one on new token ids: the
  // replayed step reuses the recorded LstmSequence closures and must still
  // match the eager chain bit for bit, with and without a GradSink.
  for (int64_t slots : {3, 130}) {
    for (bool sink : {false, true}) {
      EncoderUnderTest m(/*max_tokens=*/16, /*word_dim=*/16, /*rev_dim=*/32);
      tensor::BatchTape tape;
      for (int step = 0; step < 2; ++step) {
        const std::vector<int64_t> tokens =
            RandomTokens(slots * 16, 100 + static_cast<uint64_t>(step));
        const std::string what = "S=" + std::to_string(slots) +
                                 " sink=" + std::to_string(sink) +
                                 " step=" + std::to_string(step);
        tensor::SetFusionEnabled(false);
        const ModuleRun eager = EncodeAndBackprop(m, tokens, slots, sink);
        tensor::SetFusionEnabled(true);
        tape.BeginStep(1);
        ModuleRun taped;
        {
          tensor::BatchTape::Scope scope(&tape);
          taped = EncodeAndBackprop(m, tokens, slots, sink);
        }
        ExpectRunsEqual(taped, eager, what);
      }
      const tensor::BatchTape::Stats stats = tape.stats();
      EXPECT_EQ(stats.replay_steps, 1) << "S=" << slots << " sink=" << sink;
      EXPECT_EQ(stats.replay_backwards, 1) << "S=" << slots << " sink=" << sink;
      EXPECT_EQ(stats.replay_fallbacks, 0) << "S=" << slots << " sink=" << sink;
    }
  }
}

TEST_F(KernelFusionParityTest, LstmSequenceReplayPinsDirection) {
  // A forward and a reverse pass over the same input share op, shapes and
  // parents (the shapes already fix the step count); only the node's attr
  // tells the directions apart. A replayed step that flips the direction
  // must fall back and re-trace, never run the recorded closure's walk.
  constexpr int64_t kSteps = 4, kBatch = 3, kDim = 5, kHidden = 6;
  Rng rng(77);
  Tensor w_ih = Tensor::Randn({kDim, 4 * kHidden}, rng, 0.5f, true);
  Tensor w_hh = Tensor::Randn({kHidden, 4 * kHidden}, rng, 0.5f, true);
  Tensor bias = Tensor::Randn({4 * kHidden}, rng, 0.5f, true);
  const std::vector<float> xs = RandomBuffer(kSteps * kBatch * kDim, rng);
  auto run = [&](bool reverse) {
    Tensor x = Tensor::FromVector({kSteps * kBatch, kDim}, xs, true);
    Tensor out = tensor::LstmSequence(x, w_ih, w_hh, bias, kSteps, reverse);
    Rng wrng(4321);
    Tensor lw = Tensor::Randn(out.shape(), wrng);
    tensor::Sum(tensor::Mul(out, lw)).Backward();
    return std::vector<std::vector<float>>{out.ToVector(), x.grad(),
                                           w_ih.grad(), w_hh.grad(),
                                           bias.grad()};
  };
  const auto want_fwd = run(false);
  const auto want_rev = run(true);
  ASSERT_NE(want_fwd, want_rev);
  tensor::BatchTape tape;
  for (bool reverse : {false, false, true}) {
    tape.BeginStep(1);
    tensor::BatchTape::Scope scope(&tape);
    EXPECT_EQ(run(reverse), reverse ? want_rev : want_fwd)
        << "reverse=" << reverse;
  }
  const tensor::BatchTape::Stats stats = tape.stats();
  EXPECT_EQ(stats.replay_steps, 2);
  EXPECT_EQ(stats.replay_fallbacks, 1) << "a direction flip replayed";
}

TEST_F(KernelFusionParityTest, GruCellBitwise) {
  ExpectFusedMatchesEager([](Rng& rng, std::vector<Tensor>& tracked) {
    nn::GruCell cell(5, 4, rng);
    Tensor x = Tensor::Randn({3, 5}, rng, 0.5f, /*requires_grad=*/true);
    Tensor h = Tensor::Randn({3, 4}, rng, 0.5f, /*requires_grad=*/true);
    tracked.insert(tracked.end(), {x, h});
    for (const Tensor& p : cell.Parameters()) tracked.push_back(p);
    return cell.Step(x, h);
  });
}

TEST_F(KernelFusionParityTest, FraudAttentionBitwise) {
  ExpectFusedMatchesEager([](Rng& rng, std::vector<Tensor>& tracked) {
    nn::FraudAttention attn(6, 4, 4, 5, rng);
    const int64_t b = 4, s = 3;
    Tensor rev = Tensor::Randn({b * s, 6}, rng, 0.5f, /*requires_grad=*/true);
    Tensor uid = Tensor::Randn({b * s, 4}, rng, 0.5f, /*requires_grad=*/true);
    Tensor iid = Tensor::Randn({b * s, 4}, rng, 0.5f, /*requires_grad=*/true);
    tracked.insert(tracked.end(), {rev, uid, iid});
    for (const Tensor& p : attn.Parameters()) tracked.push_back(p);
    return attn.Forward(rev, uid, iid, s);
  });
}

TEST_F(KernelFusionParityTest, FactorizationMachineBitwise) {
  ExpectFusedMatchesEager([](Rng& rng, std::vector<Tensor>& tracked) {
    nn::FactorizationMachine fm(9, 4, rng);
    Tensor x = Tensor::Randn({6, 9}, rng, 0.5f, /*requires_grad=*/true);
    tracked.push_back(x);
    for (const Tensor& p : fm.Parameters()) tracked.push_back(p);
    return fm.Forward(x);
  });
}

TEST_F(KernelFusionParityTest, AddNBiasActMatchesEagerChainBitwise) {
  // Op-level: the fused kernel must reproduce the exact left-to-right Add
  // nesting + AddBias + activation bits of the eager chain it replaces.
  Rng rng(99);
  Tensor a = Tensor::Randn({5, 7}, rng, 0.5f, /*requires_grad=*/true);
  Tensor b = Tensor::Randn({5, 7}, rng, 0.5f, /*requires_grad=*/true);
  Tensor c = Tensor::Randn({5, 7}, rng, 0.5f, /*requires_grad=*/true);
  Tensor bias = Tensor::Randn({7}, rng, 0.5f, /*requires_grad=*/true);
  Tensor eager = tensor::Tanh(
      tensor::AddBias(tensor::Add(tensor::Add(a, b), c), bias));
  Tensor fused =
      tensor::AddNBiasAct({a, b, c}, bias, tensor::Activation::kTanh);
  EXPECT_EQ(fused.ToVector(), eager.ToVector());

  Rng wrng(66);
  Tensor w = Tensor::Randn({5, 7}, wrng);
  tensor::Sum(tensor::Mul(eager, w)).Backward();
  const std::vector<float> ga = a.grad(), gb = b.grad(), gc = c.grad(),
                           gbias = bias.grad();
  tensor::Sum(tensor::Mul(fused, w)).Backward();
  EXPECT_EQ(a.grad(), ga);
  EXPECT_EQ(b.grad(), gb);
  EXPECT_EQ(c.grad(), gc);
  EXPECT_EQ(bias.grad(), gbias);
}

TEST_F(KernelFusionParityTest, FmPairwiseMatchesEagerChainBitwise) {
  Rng rng(101);
  Tensor xv = Tensor::Randn({4, 6}, rng, 0.5f, /*requires_grad=*/true);
  Tensor x2v2 = Tensor::Randn({4, 6}, rng, 0.5f, /*requires_grad=*/true);
  Tensor eager = tensor::MulScalar(
      tensor::RowSum(tensor::Sub(tensor::Square(xv), x2v2)), 0.5f);
  Tensor fused = tensor::FmPairwise(xv, x2v2);
  EXPECT_EQ(fused.ToVector(), eager.ToVector());

  Rng wrng(67);
  Tensor w = Tensor::Randn({4, 1}, wrng);
  tensor::Sum(tensor::Mul(eager, w)).Backward();
  const std::vector<float> gx = xv.grad(), g2 = x2v2.grad();
  tensor::Sum(tensor::Mul(fused, w)).Backward();
  EXPECT_EQ(xv.grad(), gx);
  EXPECT_EQ(x2v2.grad(), g2);
}

// ---------------------------------------------------------------------------
// Reduction accumulation order: blocked reductions keep the fixed
// shard-order merge, so two scrapes of the same graph are bitwise equal at
// any thread count (the DESIGN.md accumulation-order contract).
// ---------------------------------------------------------------------------

class KernelReductionTest : public KernelTestBase {};

TEST_F(KernelReductionTest, DoubleScrapeIsBitwiseEqual) {
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalSize(threads);
    auto scrape = [] {
      Rng rng(303);
      Tensor a = Tensor::Randn({41, 33}, rng, 1.0f, /*requires_grad=*/true);
      Tensor b = Tensor::Randn({33, 13}, rng, 1.0f, /*requires_grad=*/true);
      Tensor bias = Tensor::Randn({13}, rng, 1.0f, /*requires_grad=*/true);
      Tensor y = tensor::AddBias(tensor::MatMul(a, b), bias);
      Tensor loss = tensor::Add(tensor::Sum(y), tensor::Sum(tensor::RowSum(
                                                    tensor::Square(y))));
      loss.Backward();
      std::vector<std::vector<float>> out = {y.ToVector(), a.grad(), b.grad(),
                                             bias.grad(), loss.ToVector()};
      return out;
    };
    const auto first = scrape();
    const auto second = scrape();
    EXPECT_EQ(first, second) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Tape correctness: training on the tape is bitwise identical to eager,
// survives kill+resume, and stops allocating after warmup.
// ---------------------------------------------------------------------------

class TapeTrainingTest : public KernelTestBase {};

data::ReviewDataset SmallCorpus(int64_t users = 6, int64_t items = 5) {
  data::ReviewDataset ds(users, items);
  const char* texts[] = {
      "great pasta and friendly staff",  "terrible service avoid this",
      "amazing deal best place in town", "okay food nothing special",
      "worst scam ever do not go",       "lovely ambiance great wine",
      "decent prices quick service",     "fantastic best pasta in town",
  };
  int64_t ts = 0;
  for (int64_t u = 0; u < users; ++u) {
    for (int64_t i = 0; i < items; ++i) {
      data::Review r;
      r.user = u;
      r.item = i;
      r.rating = static_cast<float>(1 + (u * 3 + i * 2) % 5);
      r.timestamp = ++ts;
      r.text = texts[(u * 5 + i) % 8];
      r.label = ((u + i) % 4 == 0) ? data::ReliabilityLabel::kFake
                                   : data::ReliabilityLabel::kBenign;
      ds.Add(r);
    }
  }
  ds.BuildIndex();
  return ds;
}

core::RrreConfig SmallConfig() {
  core::RrreConfig c;
  c.word_dim = 8;
  c.rev_dim = 8;
  c.id_dim = 4;
  c.attention_dim = 6;
  c.fm_factors = 4;
  c.max_tokens = 8;
  c.s_u = 3;
  c.s_i = 4;
  c.batch_size = 16;
  c.epochs = 2;
  c.pretrain_epochs = 1;
  c.lr = 5e-3;
  return c;
}

struct FitResult {
  std::vector<double> losses;
  std::vector<float> params;
  std::vector<double> ratings;
  std::vector<double> reliabilities;
};

FitResult RunFit(const core::RrreConfig& config, int threads,
                 const data::ReviewDataset& corpus = SmallCorpus()) {
  ThreadPool::SetGlobalSize(threads);
  core::RrreTrainer trainer(config);
  FitResult res;
  trainer.Fit(corpus, [&](const core::RrreTrainer::EpochStats& s) {
    res.losses.push_back(s.loss);
  });
  for (const Tensor& p : trainer.model().Parameters()) {
    const std::vector<float> v = p.ToVector();
    res.params.insert(res.params.end(), v.begin(), v.end());
  }
  auto preds = trainer.PredictDataset(corpus);
  res.ratings = preds.ratings;
  res.reliabilities = preds.reliabilities;
  return res;
}

TEST_F(TapeTrainingTest, TapeMatchesEagerBitwise) {
  // The headline claim behind `--tape` defaulting on: taped + fused training
  // reaches the exact bits of the eager path — losses, every parameter, and
  // downstream predictions — on both the whole-batch and sharded paths, for
  // serial and parallel pools.
  for (int64_t shard : {int64_t{0}, int64_t{4}}) {
    core::RrreConfig eager_config = SmallConfig();
    eager_config.shard_size = shard;
    eager_config.use_tape = false;
    core::RrreConfig taped_config = eager_config;
    taped_config.use_tape = true;
    const FitResult eager = RunFit(eager_config, 1);
    for (int threads : {1, 4}) {
      const FitResult taped = RunFit(taped_config, threads);
      EXPECT_EQ(taped.losses, eager.losses)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.params, eager.params)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.ratings, eager.ratings)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(taped.reliabilities, eager.reliabilities)
          << "shard=" << shard << " threads=" << threads;
    }
  }
}

TEST_F(TapeTrainingTest, TapeMatchesEagerBitwiseAcrossGemmPanels) {
  // The crosses above train 16 examples x s_i 4 = 64 review slots a step,
  // so no review-encoder weight-gradient sum spans two kKc-deep GEMM
  // panels. A 40-example whole batch sends 160 item slots through each
  // LstmSequence node: its per-step dW_ih / dW_hh GEMMs must group every
  // sum by panel exactly as the eager per-step MatMuls do.
  core::RrreConfig eager_config = SmallConfig();
  eager_config.batch_size = 40;
  eager_config.shard_size = 0;
  eager_config.use_tape = false;
  ASSERT_GT(eager_config.batch_size * eager_config.s_i, tensor::kernels::kKc);
  core::RrreConfig taped_config = eager_config;
  taped_config.use_tape = true;
  // 72 reviews: a 40-example batch and a 32-example tail per epoch.
  const data::ReviewDataset corpus = SmallCorpus(12, 6);
  const FitResult eager = RunFit(eager_config, 1, corpus);
  for (int threads : {1, 4}) {
    const FitResult taped = RunFit(taped_config, threads, corpus);
    EXPECT_EQ(taped.losses, eager.losses) << "threads=" << threads;
    EXPECT_EQ(taped.params, eager.params) << "threads=" << threads;
    EXPECT_EQ(taped.ratings, eager.ratings) << "threads=" << threads;
    EXPECT_EQ(taped.reliabilities, eager.reliabilities)
        << "threads=" << threads;
  }
}

TEST_F(TapeTrainingTest, TapeRunsAreBitwiseRepeatable) {
  core::RrreConfig config = SmallConfig();
  config.shard_size = 4;
  config.use_tape = true;
  const FitResult first = RunFit(config, 4);
  const FitResult second = RunFit(config, 4);
  EXPECT_EQ(first.losses, second.losses);
  EXPECT_EQ(first.params, second.params);
  EXPECT_EQ(first.ratings, second.ratings);
  EXPECT_EQ(first.reliabilities, second.reliabilities);
}

TEST_F(TapeTrainingTest, ArenaStopsAllocatingAfterWarmup) {
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;  // 30 examples / batch 16 -> 2 steps per epoch, 8 total
  config.use_tape = true;
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  const tensor::BatchTape::Stats stats = trainer.TapeStats();
  EXPECT_EQ(stats.steps, 8);
  EXPECT_GT(stats.nodes, 0);
  // Steady state: after the first full batch and the first tail batch have
  // each been traced once, every later step serves all its value buffers
  // from the pool. Allocations are therefore bounded by the nodes of the
  // first two steps — at most a quarter of the total over 8 steps.
  EXPECT_LE(stats.buffer_allocs, stats.nodes / 4)
      << "arena keeps allocating after warmup";
  EXPECT_GE(stats.buffer_reuses, stats.nodes / 2);
  // A static training graph traces the same op sequence every step: one
  // fingerprint for the full batch, one for the tail.
  EXPECT_LE(stats.distinct_sequences, 3);
}

TEST_F(TapeTrainingTest, ShardedArenaStopsAllocatingAfterWarmup) {
  ThreadPool::SetGlobalSize(4);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;
  config.shard_size = 4;
  config.use_tape = true;
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  const tensor::BatchTape::Stats stats = trainer.TapeStats();
  EXPECT_GT(stats.steps, 0);
  EXPECT_GT(stats.nodes, 0);
  EXPECT_LE(stats.buffer_allocs, stats.nodes / 4);
  EXPECT_GE(stats.buffer_reuses, stats.nodes / 2);
  // Per shard: full-shard shape, tail-shard shape, and the shard-0 tape also
  // hosts the whole-batch L2 join.
  EXPECT_LE(stats.distinct_sequences,
            3 * static_cast<int64_t>((config.batch_size + 3) / 4));
}

std::vector<float> FlattenParams(const core::RrreTrainer& trainer) {
  std::vector<float> params;
  for (const Tensor& p : trainer.model().Parameters()) {
    const std::vector<float> v = p.ToVector();
    params.insert(params.end(), v.begin(), v.end());
  }
  return params;
}

void RemoveCheckpoint(const std::string& prefix) {
  for (const char* suffix :
       {".model", ".vocab", ".train.tsv", ".meta", ".optimizer"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST_F(TapeTrainingTest, KillThenResumeThroughTapeIsBitwise) {
  // The resume path re-creates the trainer (fresh tapes) mid-schedule; the
  // warm-started arena must not perturb a single bit. With replay on (the
  // default) the resumed run re-records its graphs from scratch and then
  // replays them — the stats check pins that replay actually engaged.
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;
  config.use_tape = true;

  core::RrreTrainer straight(config);
  straight.Fit(corpus);

  const std::string prefix = ::testing::TempDir() + "/tape_resume_ckpt";
  {
    core::RrreConfig half = config;
    half.epochs = 2;
    core::RrreTrainer first(half);
    first.Fit(corpus);
    ASSERT_TRUE(first.Save(prefix).ok());
  }
  core::RrreTrainer resumed(config);
  ASSERT_TRUE(resumed.Load(prefix).ok());
  ASSERT_TRUE(resumed.Resume().ok());
  EXPECT_EQ(FlattenParams(resumed), FlattenParams(straight));
  EXPECT_GT(resumed.TapeStats().replay_steps, 0)
      << "resume never reached a replayed step";
  const auto expect = straight.PredictDataset(corpus);
  const auto actual = resumed.PredictDataset(corpus);
  EXPECT_EQ(actual.ratings, expect.ratings);
  EXPECT_EQ(actual.reliabilities, expect.reliabilities);
  RemoveCheckpoint(prefix);
}

// ---------------------------------------------------------------------------
// Compiled replay: steady-state steps execute the recorded backward schedule
// with zero DFS work and zero closure rebuilds, bitwise identical both to
// eager training and to the rebuild-every-step tape.
// ---------------------------------------------------------------------------

TEST_F(TapeTrainingTest, ReplayMatchesRebuildEveryStepBitwise) {
  // --tape_replay=false is the escape hatch back to PR 9's rebuild-every-step
  // tape; flipping it must never change a bit, for whole-batch and sharded
  // training on serial and parallel pools.
  for (int64_t shard : {int64_t{0}, int64_t{4}}) {
    core::RrreConfig rebuild_config = SmallConfig();
    rebuild_config.shard_size = shard;
    rebuild_config.use_tape = true;
    rebuild_config.tape_replay = false;
    core::RrreConfig replay_config = rebuild_config;
    replay_config.tape_replay = true;
    const FitResult rebuild = RunFit(rebuild_config, 1);
    for (int threads : {1, 4}) {
      const FitResult replay = RunFit(replay_config, threads);
      EXPECT_EQ(replay.losses, rebuild.losses)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(replay.params, rebuild.params)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(replay.ratings, rebuild.ratings)
          << "shard=" << shard << " threads=" << threads;
      EXPECT_EQ(replay.reliabilities, rebuild.reliabilities)
          << "shard=" << shard << " threads=" << threads;
    }
  }
}

TEST_F(TapeTrainingTest, ReplaySteadyStateDoesNoGraphWork) {
  // 30 examples / batch 16 -> a 16-example and a 14-example graph per epoch.
  // Each key records on its first step and replays ever after, so doubling
  // the epochs must add zero DFS node visits and zero closure allocations —
  // all graph-building work happened during warmup.
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  auto run = [&](int64_t epochs, int64_t shard) {
    core::RrreConfig config = SmallConfig();
    config.epochs = epochs;
    config.shard_size = shard;
    config.use_tape = true;
    core::RrreTrainer trainer(config);
    trainer.Fit(corpus);
    return trainer.TapeStats();
  };
  for (int64_t shard : {int64_t{0}, int64_t{4}}) {
    const tensor::BatchTape::Stats warm = run(4, shard);
    const tensor::BatchTape::Stats longer = run(8, shard);
    EXPECT_EQ(warm.replay_fallbacks, 0) << "shard=" << shard;
    EXPECT_EQ(longer.replay_fallbacks, 0) << "shard=" << shard;
    EXPECT_GT(longer.replay_steps, warm.replay_steps) << "shard=" << shard;
    EXPECT_GT(longer.replay_backwards, 0) << "shard=" << shard;
    // The tentpole claim: steady state rebuilds nothing. Every DFS visit and
    // every closure allocation belongs to the recording steps, which do not
    // grow with epochs.
    EXPECT_EQ(longer.dfs_node_visits, warm.dfs_node_visits)
        << "shard=" << shard << ": replay still walks the graph";
    EXPECT_EQ(longer.closure_allocs, warm.closure_allocs)
        << "shard=" << shard << ": replay still rebuilds closures";
  }
}

TEST_F(TapeTrainingTest, WholeBatchReplayCountsEveryNonRecordingStep) {
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;  // 8 steps: keys 16 and 14, each recorded exactly once
  config.use_tape = true;
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  const tensor::BatchTape::Stats stats = trainer.TapeStats();
  EXPECT_EQ(stats.steps, 8);
  EXPECT_EQ(stats.replay_steps, 6);
  EXPECT_EQ(stats.replay_fallbacks, 0);
}

TEST_F(TapeTrainingTest, RefitRecordsFreshGraphs) {
  // Regression: the tapes used to outlive the model. A second Fit builds new
  // parameter tensors, so graphs compiled during the first Fit no longer
  // verify and every replay of them fell back to the arena. A refit must
  // start fresh tapes and count only its own steps.
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  for (int64_t shard : {int64_t{0}, int64_t{8}}) {
    core::RrreConfig config = SmallConfig();
    config.shard_size = shard;
    config.use_tape = true;
    core::RrreTrainer once(config);
    once.Fit(corpus);
    core::RrreTrainer twice(config);
    twice.Fit(corpus);
    twice.Fit(corpus);
    const tensor::BatchTape::Stats stats = twice.TapeStats();
    EXPECT_EQ(stats.replay_fallbacks, 0) << "shard=" << shard;
    EXPECT_EQ(stats.steps, once.TapeStats().steps) << "shard=" << shard;
    EXPECT_EQ(stats.replay_steps, once.TapeStats().replay_steps)
        << "shard=" << shard;
  }
}

TEST_F(TapeTrainingTest, LoadIntoFittedTrainerRecordsFreshGraphs) {
  // The same regression through Load, which also builds new parameter
  // tensors: resuming a checkpoint on a trainer that already trained must
  // not replay the earlier model's graphs.
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 4;
  config.use_tape = true;
  const std::string prefix = ::testing::TempDir() + "/tape_reload_ckpt";
  {
    core::RrreConfig half = config;
    half.epochs = 2;
    core::RrreTrainer first(half);
    first.Fit(corpus);
    ASSERT_TRUE(first.Save(prefix).ok());
  }
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  ASSERT_TRUE(trainer.Load(prefix).ok());
  ASSERT_TRUE(trainer.Resume().ok());
  EXPECT_EQ(trainer.TapeStats().replay_fallbacks, 0);
  EXPECT_GT(trainer.TapeStats().replay_steps, 0);
  RemoveCheckpoint(prefix);
}

TEST_F(TapeTrainingTest, StatsCountTailBatchFingerprintImmediately) {
  // Regression: the final step's fingerprint used to be folded into
  // distinct_sequences only by the NEXT BeginStep()/Clear(), so stats read
  // right after the tail batch under-reported by one. One epoch ends on the
  // first 14-example step ever traced; its fingerprint must already count.
  ThreadPool::SetGlobalSize(2);
  data::ReviewDataset corpus = SmallCorpus();
  core::RrreConfig config = SmallConfig();
  config.epochs = 1;  // steps: 16 examples, then the 14-example tail — stop
  config.use_tape = true;
  core::RrreTrainer trainer(config);
  trainer.Fit(corpus);
  const tensor::BatchTape::Stats stats = trainer.TapeStats();
  EXPECT_EQ(stats.steps, 2);
  EXPECT_EQ(stats.distinct_sequences, 2)
      << "tail-batch fingerprint not finalized until the next step";
}

TEST_F(TapeTrainingTest, StatsCountOpenStepFingerprintLazily) {
  // Same regression at the tape level: an open step's fingerprint shows up
  // in stats() without waiting for the next BeginStep, and is not double
  // counted once that step does arrive.
  tensor::BatchTape tape;
  tape.SetReplayEnabled(false);
  tensor::BatchTape::Scope scope(&tape);
  tape.BeginStep(1);
  { Tensor a = Tensor::Full({4}, 1.0f); }
  EXPECT_EQ(tape.stats().distinct_sequences, 1);
  tape.BeginStep(1);
  { Tensor a = Tensor::Full({4}, 1.0f); }
  EXPECT_EQ(tape.stats().distinct_sequences, 1) << "same trace counted twice";
  tape.BeginStep(2);
  { Tensor a = Tensor::Full({3}, 1.0f); }
  EXPECT_EQ(tape.stats().distinct_sequences, 2)
      << "open tail fingerprint missing";
}

TEST_F(TapeTrainingTest, HeldThenDroppedSubgraphCollapsesInOnePass) {
  // Regression: the retained-list sweep used to push survivors back in
  // reverse creation order, so a child was revisited before its parent on
  // the next sweep and a dropped chain of N nodes took N sweeps to recycle.
  // Survivors must keep creation order: recycling the head of a dead chain
  // clears its parent edges first, collapsing the whole chain in one pass.
  tensor::BatchTape tape;
  tape.SetReplayEnabled(false);
  tensor::BatchTape::Scope scope(&tape);
  tape.BeginStep(1);
  Tensor held;
  {
    Tensor a = Tensor::Full({8}, 1.0f, /*requires_grad=*/true);
    Tensor b = tensor::MulScalar(a, 2.0f);
    held = tensor::MulScalar(b, 3.0f);  // keeps b and a alive via parents
  }
  tape.BeginStep(1);  // sweep: all three survive, root still held
  held = Tensor();    // drop the root -> the whole chain is dead
  const tensor::BatchTape::Stats before = tape.stats();
  tape.BeginStep(1);  // sweep: the chain must collapse into the pool NOW
  {
    Tensor a = Tensor::Full({8}, 1.0f, /*requires_grad=*/true);
    Tensor b = tensor::MulScalar(a, 2.0f);
    Tensor c = tensor::MulScalar(b, 3.0f);
    const tensor::BatchTape::Stats after = tape.stats();
    EXPECT_EQ(after.buffer_allocs, before.buffer_allocs)
        << "dead chain was not fully recycled by a single sweep";
    EXPECT_EQ(after.buffer_reuses, before.buffer_reuses + 3);
  }
}

TEST_F(TapeTrainingTest, ClearMidRunInvalidatesReplayCacheBitwise) {
  // Clear() drops the arena AND the compiled graphs. A run that clears
  // mid-stream must re-record transparently (no fallbacks, replay resumes)
  // and stay bitwise identical to an uninterrupted run.
  auto run = [&](int clear_after) {
    tensor::BatchTape tape;
    std::vector<float> w(4, 0.5f);
    for (int step = 0; step < 8; ++step) {
      if (step == clear_after) tape.Clear();
      tensor::BatchTape::Scope scope(&tape);
      tape.BeginStep(4);
      Tensor weights = Tensor::FromVector({4}, w, /*requires_grad=*/true);
      std::vector<float> xs(4);
      for (int i = 0; i < 4; ++i) {
        xs[static_cast<size_t>(i)] = 0.25f * static_cast<float>(step + i + 1);
      }
      Tensor x = Tensor::FromVector({4}, xs, /*requires_grad=*/false);
      Tensor loss = tensor::Sum(tensor::Mul(weights, x));
      loss.Backward();
      const std::vector<float>& g = weights.grad();
      for (int i = 0; i < 4; ++i) {
        w[static_cast<size_t>(i)] -= 0.1f * g[static_cast<size_t>(i)];
      }
    }
    return std::make_pair(w, tape.stats());
  };
  const auto [w_straight, s_straight] = run(/*clear_after=*/-1);
  const auto [w_cleared, s_cleared] = run(/*clear_after=*/4);
  EXPECT_EQ(w_cleared, w_straight);
  EXPECT_EQ(s_straight.replay_fallbacks, 0);
  EXPECT_EQ(s_cleared.replay_fallbacks, 0)
      << "Clear() should drop graphs, not trip the fallback path";
  // Uninterrupted: record on step 0, replay 7. Cleared at 4: re-record once,
  // replay 3 + 3.
  EXPECT_EQ(s_straight.replay_steps, 7);
  EXPECT_EQ(s_cleared.replay_steps, 6);
}

TEST_F(TapeTrainingTest, NestedScopesRestoreTheOuterTape) {
  // The sharded L2 join nests a tapes_[0] scope inside the step that built
  // the shard losses; Scope must restore whatever was active, not null.
  tensor::BatchTape outer;
  tensor::BatchTape inner;
  EXPECT_EQ(tensor::BatchTape::Active(), nullptr);
  {
    tensor::BatchTape::Scope s_outer(&outer);
    EXPECT_EQ(tensor::BatchTape::Active(), &outer);
    outer.BeginStep(1);
    { Tensor a = Tensor::Full({2}, 1.0f); }
    {
      tensor::BatchTape::Scope s_inner(&inner);
      EXPECT_EQ(tensor::BatchTape::Active(), &inner);
      inner.BeginStep(1);
      { Tensor b = Tensor::Full({2}, 1.0f); }
    }
    EXPECT_EQ(tensor::BatchTape::Active(), &outer);
    { Tensor c = Tensor::Full({2}, 1.0f); }
  }
  EXPECT_EQ(tensor::BatchTape::Active(), nullptr);
  // Each tape owned exactly its own nodes.
  EXPECT_EQ(outer.stats().nodes, 2);
  EXPECT_EQ(inner.stats().nodes, 1);
}

}  // namespace
}  // namespace rrre
