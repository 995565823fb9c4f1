#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iterator>
#include <map>
#include <set>
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
#include "nn/loss.h"
#include "nn/optimizer.h"
#include "nn/sharded_step.h"
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

TEST_F(KernelGemmTest, NestedMatMulMatchesTopLevelBitwise) {
  // Inside a pool task ShardedGemm makes one kernels::Gemm call over every
  // row instead of fanning out row chunks; a row's bits may not notice.
  // Forward and both gradients, all transpose variants, shapes that split
  // into many row chunks at top level and cross the kKc and kNc panels.
  const int64_t m = 70, n = 70, k = 150;
  struct Run {
    std::vector<float> out, grad_a, grad_b;
    bool operator==(const Run&) const = default;
  };
  for (int threads : {1, 4}) {
    ThreadPool::SetGlobalSize(threads);
    for (int variant = 0; variant < 4; ++variant) {
      const bool ta = (variant & 1) != 0;
      const bool tb = (variant & 2) != 0;
      auto run = [&]() {
        Rng rng(29);
        Tensor a = Tensor::FromVector(ta ? Shape{k, m} : Shape{m, k},
                                      RandomBuffer(m * k, rng), true);
        Tensor b = Tensor::FromVector(tb ? Shape{n, k} : Shape{k, n},
                                      RandomBuffer(k * n, rng), true);
        Tensor w = Tensor::FromVector({m, n}, RandomBuffer(m * n, rng));
        Tensor y = tensor::MatMul(a, b, ta, tb);
        tensor::Sum(tensor::Mul(y, w)).Backward();
        return Run{y.ToVector(), a.grad(), b.grad()};
      };
      const Run top = run();
      std::vector<Run> nested(4);
      common::ParallelFor(0, 4, 1, [&](int64_t lo, int64_t) {
        ASSERT_TRUE(ThreadPool::InWorker());
        nested[static_cast<size_t>(lo)] = run();
      });
      for (size_t i = 0; i < nested.size(); ++i) {
        EXPECT_TRUE(nested[i] == top) << "threads=" << threads << " ta=" << ta
                                      << " tb=" << tb << " task " << i;
      }
    }
  }
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

/// A recorded libm input -> output pair, by bit pattern.
struct GoldenBits {
  uint32_t in;
  uint32_t out;
};

// Grouped by the branch an input takes; k is expm1f's reduction exponent
// for tanhf's argument 2|x| (|x| >= 1) or -2|x|.
constexpr GoldenBits kTanhGolden[] = {
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
// Exp and SigmoidN: kernels::Exp transcribes glibc 2.36's expf. The golden
// bits below were recorded from that libm's expf on x86-64. They cover each
// of the 32 table indices from both signs, the slow path and its bounds,
// and the two contraction canaries: the only inputs with |x| < 88 on which
// e_expf.c with every product and sum rounded separately misses glibc's
// bits, so a build that drops one of the fmas glibc's build fused fails
// here. Sweeps pin SigmoidN's 8 lanes to the scalar StableSigmoid.
// ---------------------------------------------------------------------------

class KernelExpTest : public KernelTestBase {};
class KernelSigmoidTest : public KernelTestBase {};

constexpr GoldenBits kExpGolden[] = {
    // Table index j from x = (j + 1/4) ln2/32, then from x = (j - 32 - 1/4)
    // ln2/32, for j = 0..31.
    {0x3bb17218u, 0x3f80b1edu}, {0xbf32d4fcu, 0x3efe9e12u},
    {0x3cddce9eu, 0x3f838359u}, {0xbf2d496bu, 0x3f0218afu},
    {0x3d47a05bu, 0x3f866491u}, {0xbf27bddbu, 0x3f04f1f6u},
    {0x3d902cb3u, 0x3f8955eeu}, {0xbf22324au, 0x3f07db35u},
    {0x3dbc8939u, 0x3f8c57cau}, {0xbf1ca6b9u, 0x3f0ad4c6u},
    {0x3de8e5bfu, 0x3f8f6a81u}, {0xbf171b28u, 0x3f0ddf04u},
    {0x3e0aa123u, 0x3f928e73u}, {0xbf118f98u, 0x3f10fa4cu},
    {0x3e20cf66u, 0x3f95c3ffu}, {0xbf0c0407u, 0x3f1426ffu},
    {0x3e36fda9u, 0x3f990b88u}, {0xbf067876u, 0x3f17657du},
    {0x3e4d2becu, 0x3f9c6573u}, {0xbf00ece5u, 0x3f1ab62bu},
    {0x3e635a2fu, 0x3f9fd228u}, {0xbef6c2a9u, 0x3f1e196eu},
    {0x3e798872u, 0x3fa3520fu}, {0xbeebab88u, 0x3f218fafu},
    {0x3e87db5au, 0x3fa6e595u}, {0xbee09466u, 0x3f251958u},
    {0x3e92f27cu, 0x3faa8d26u}, {0xbed57d45u, 0x3f28b6d5u},
    {0x3e9e099du, 0x3fae4934u}, {0xbeca6623u, 0x3f2c6897u},
    {0x3ea920bfu, 0x3fb21a32u}, {0xbebf4f02u, 0x3f302f0eu},
    {0x3eb437e0u, 0x3fb60094u}, {0xbeb437e0u, 0x3f340aafu},
    {0x3ebf4f02u, 0x3fb9fcd2u}, {0xbea920bfu, 0x3f37fbf0u},
    {0x3eca6623u, 0x3fbe0f68u}, {0xbe9e099du, 0x3f3c034bu},
    {0x3ed57d45u, 0x3fc238d2u}, {0xbe92f27cu, 0x3f40213bu},
    {0x3ee09466u, 0x3fc67991u}, {0xbe87db5au, 0x3f44563fu},
    {0x3eebab88u, 0x3fcad226u}, {0xbe798872u, 0x3f48a2d8u},
    {0x3ef6c2a9u, 0x3fcf4319u}, {0xbe635a2fu, 0x3f4d078bu},
    {0x3f00ece5u, 0x3fd3ccf0u}, {0xbe4d2becu, 0x3f5184dfu},
    {0x3f067876u, 0x3fd87039u}, {0xbe36fda9u, 0x3f561b5eu},
    {0x3f0c0407u, 0x3fdd2d82u}, {0xbe20cf66u, 0x3f5acb94u},
    {0x3f118f98u, 0x3fe2055bu}, {0xbe0aa123u, 0x3f5f9613u},
    {0x3f171b28u, 0x3fe6f85au}, {0xbde8e5bfu, 0x3f647b6du},
    {0x3f1ca6b9u, 0x3fec0719u}, {0xbdbc8939u, 0x3f697c38u},
    {0x3f22324au, 0x3ff13231u}, {0xbd902cb3u, 0x3f6e9910u},
    {0x3f27bddbu, 0x3ff67a42u}, {0xbd47a05bu, 0x3f73d290u},
    {0x3f2d496bu, 0x3ffbdfedu}, {0xbcddce9eu, 0x3f79295au},
    // +-0 and subnormals: 1.
    {0x00000000u, 0x3f800000u}, {0x80000000u, 0x3f800000u},
    {0x00000001u, 0x3f800000u}, {0x807fffffu, 0x3f800000u},
    {0x00400000u, 0x3f800000u},
    // |x| = 88 and past it: the filter sends these to the slow path, whose
    // bounds hand the in-range ones back to the fast path.
    {0x42b00000u, 0x7ef882b7u}, {0xc2b00000u, 0x0041edc4u},
    {0x42b10000u, 0x7f4cdcc4u}, {0x42b17217u, 0x7f7fff84u},
    {0xc2ce0000u, 0x00000001u}, {0xc2ce8ecfu, 0x00000001u},
    // Past the bounds: overflow to inf, the 2^-149 band, underflow to 0.
    {0x42b17218u, 0x7f800000u}, {0x7f7fffffu, 0x7f800000u},
    {0xc2ce8ed0u, 0x00000001u}, {0xc2cf0000u, 0x00000001u},
    {0xc2cff1b4u, 0x00000001u}, {0xc2cff1b5u, 0x00000000u},
    {0xff7fffffu, 0x00000000u},
    // +-inf, NaN payloads (a signaling NaN comes back quiet).
    {0x7f800000u, 0x7f800000u}, {0xff800000u, 0x00000000u},
    {0x7fc12345u, 0x7fc12345u}, {0xffa00001u, 0xffe00001u},
    // Contraction canaries.
    {0x4202422fu, 0x56fc9f1cu}, {0xc27c65d9u, 0x11fa2993u},
};
constexpr int64_t kExpGoldenSize = std::ssize(kExpGolden);

TEST_F(KernelExpTest, MatchesGlibcExpfGoldenBits) {
  for (const auto [in, want] : kExpGolden) {
    EXPECT_EQ(Hex(Bits(tensor::kernels::Exp(FromBits(in)))), Hex(want))
        << "exp(" << Hex(in) << ")";
  }
}

/// Every golden exp input and its negation: each sign of each range for
/// both of StableSigmoid's branches, the slow path's lanes included.
std::vector<float> SigmoidInputs() {
  std::vector<float> out;
  for (const GoldenBits& g : kExpGolden) {
    out.push_back(FromBits(g.in));
    out.push_back(FromBits(g.in ^ 0x80000000u));
  }
  return out;
}

TEST_F(KernelSigmoidTest, MixedLanesMatchScalar) {
  const std::vector<float> inputs = SigmoidInputs();
  std::vector<float> mixed = inputs;
  tensor::kernels::SigmoidN(mixed.data(), mixed.data(), std::ssize(mixed));
  for (size_t i = 0; i < inputs.size(); ++i) {
    const uint32_t want = Bits(tensor::kernels::StableSigmoid(inputs[i]));
    const std::string at = "sigmoid(" + Hex(Bits(inputs[i])) + ")";
    EXPECT_EQ(Hex(Bits(mixed[i])), Hex(want)) << "SigmoidN mixed lanes " << at;
    // The input in all 8 lanes of a vector, then as the scalar tail.
    std::vector<float> lanes(9, inputs[i]);
    tensor::kernels::SigmoidN(lanes.data(), lanes.data(), 9);
    for (size_t l = 0; l < lanes.size(); ++l) {
      EXPECT_EQ(Hex(Bits(lanes[l])), Hex(want)) << "SigmoidN lane " << l
                                                << " " << at;
    }
  }
}

TEST_F(KernelSigmoidTest, VectorMatchesScalarOnStridedSweep) {
  // The Tanh sweep's prime stride through all 2^32 bit patterns, in chunks
  // that end in a scalar tail each.
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
    tensor::kernels::SigmoidN(in.data(), out.data(), std::ssize(in));
    for (size_t i = 0; i < in.size(); ++i) {
      const uint32_t want = Bits(tensor::kernels::StableSigmoid(in[i]));
      ++checked;
      if (Bits(out[i]) != want && mismatches++ == 0) {
        first = "sigmoid(" + Hex(Bits(in[i])) + "): SigmoidN " +
                Hex(Bits(out[i])) + ", StableSigmoid " + Hex(want);
      }
    }
  }
  EXPECT_EQ(checked, 1047809);
  EXPECT_EQ(mismatches, 0) << "first: " << first;
}

TEST_F(KernelSigmoidTest, InPlaceEveryLengthMatchesScalar) {
  constexpr float kSentinel = 12345.0f;
  const std::vector<float> inputs = SigmoidInputs();
  for (int64_t n = 0; n <= 17; ++n) {
    std::vector<float> buf(static_cast<size_t>(n) + 1, kSentinel);
    std::vector<uint32_t> want(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      buf[i] = inputs[static_cast<size_t>(7 * i + n) % inputs.size()];
      want[i] = Bits(tensor::kernels::StableSigmoid(buf[i]));
    }
    tensor::kernels::SigmoidN(buf.data(), buf.data(), n);
    for (int64_t i = 0; i < n; ++i) {
      EXPECT_EQ(Hex(Bits(buf[i])), Hex(want[i])) << "n=" << n << " i=" << i;
    }
    EXPECT_EQ(buf[n], kSentinel) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// LSTM row kernels against the scalar loops LstmSequence ran before them,
// kept here as the oracle, element for element: at H = 16, where every
// 8-lane path runs full vectors, and at H = 13, where each ends in a
// scalar tail. Pre-activations reach the sigmoid's slow path.
// ---------------------------------------------------------------------------

namespace lstm_reference {

using tensor::kernels::StableSigmoid;

void ForwardRows(int64_t rows, int64_t hs, const float* hw, const float* pb,
                 const float* c_prev, float* gt, float* c_next, float* tc,
                 float* h_next) {
  const int64_t g4 = 4 * hs;
  for (int64_t r = 0; r < rows; ++r) {
    float* grow = gt + r * g4;
    const float* hwrow = hw + r * g4;
    for (int64_t q = 0; q < g4; ++q) grow[q] = (grow[q] + hwrow[q]) + pb[q];
    tensor::kernels::TanhN(grow + 2 * hs, grow + 2 * hs, hs);
    for (int64_t j = 0; j < hs; ++j) {
      const int64_t idx = r * hs + j;
      const float iv = StableSigmoid(grow[j]);
      const float fv = StableSigmoid(grow[hs + j]);
      const float gv = grow[2 * hs + j];
      const float ov = StableSigmoid(grow[3 * hs + j]);
      grow[j] = iv;
      grow[hs + j] = fv;
      grow[3 * hs + j] = ov;
      const float t1 = fv * c_prev[idx];
      const float t2 = iv * gv;
      c_next[idx] = t1 + t2;
    }
    tensor::kernels::TanhN(c_next + r * hs, tc + r * hs, hs);
    for (int64_t j = 0; j < hs; ++j) {
      const int64_t idx = r * hs + j;
      h_next[idx] = grow[3 * hs + j] * tc[idx];
    }
  }
}

void BackwardRows(int64_t rows, int64_t hs, const float* gt, const float* tc,
                  const float* c_prev, const float* dh_cur, float* dp,
                  float* dc) {
  const int64_t g4 = 4 * hs;
  for (int64_t r = 0; r < rows; ++r) {
    const float* grow = gt + r * g4;
    float* drow = dp + r * g4;
    for (int64_t j = 0; j < hs; ++j) {
      const int64_t idx = r * hs + j;
      const float iv = grow[j];
      const float fv = grow[hs + j];
      const float gv = grow[2 * hs + j];
      const float ov = grow[3 * hs + j];
      const float tcv = tc[idx];
      const float g = dh_cur[idx];
      drow[3 * hs + j] += (g * tcv) * (ov * (1.0f - ov));
      dc[idx] += (g * ov) * (1.0f - tcv * tcv);
      const float gcv = dc[idx];
      drow[j] += (gcv * gv) * (iv * (1.0f - iv));
      drow[hs + j] += (gcv * c_prev[idx]) * (fv * (1.0f - fv));
      drow[2 * hs + j] += (gcv * iv) * (1.0f - gv * gv);
      dc[idx] = 0.0f + gcv * fv;
    }
  }
}

void BiasSum(int64_t bsz, int64_t g4, int64_t grain, const float* dp,
             float* part, float* gb) {
  for (int64_t lo = 0; lo < bsz; lo += grain) {
    const int64_t hi = std::min(bsz, lo + grain);
    std::fill(part, part + g4, 0.0f);
    for (int64_t r = lo; r < hi; ++r) {
      for (int64_t q = 0; q < g4; ++q) part[q] += dp[r * g4 + q];
    }
    for (int64_t q = 0; q < g4; ++q) gb[q] += part[q];
  }
}

}  // namespace lstm_reference

class KernelLstmRowTest : public KernelTestBase {};

std::vector<uint32_t> BitsOf(const std::vector<float>& v) {
  std::vector<uint32_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = Bits(v[i]);
  return out;
}

/// Normal values of scale `scale`, with every 11th entry pushed past the
/// exp filter (|x| >= 88) and every 13th set to a golden exp input.
std::vector<float> GateInputs(int64_t n, float scale, Rng& rng) {
  std::vector<float> out = RandomBuffer(n, rng);
  for (int64_t i = 0; i < n; ++i) {
    out[i] *= scale;
    if (i % 11 == 5) out[i] = (i % 2 ? 1.0f : -1.0f) * (88.0f + out[i] * out[i]);
    if (i % 13 == 7) out[i] = FromBits(kExpGolden[i % kExpGoldenSize].in);
  }
  return out;
}

TEST_F(KernelLstmRowTest, RowsMatchScalarLoops) {
  constexpr int64_t kRows = 5;
  for (int64_t hs : {16, 13}) {
    const int64_t g4 = 4 * hs;
    const std::string at = "H=" + std::to_string(hs);
    Rng rng(31 + static_cast<uint64_t>(hs));
    const std::vector<float> hw = GateInputs(kRows * g4, 4.0f, rng);
    const std::vector<float> bias = GateInputs(g4, 1.0f, rng);
    const std::vector<float> c_prev = GateInputs(kRows * hs, 2.0f, rng);
    const std::vector<float> x_gates = GateInputs(kRows * g4, 4.0f, rng);

    std::vector<float> gates_ref = x_gates, gates = x_gates;
    std::vector<float> c_ref(kRows * hs), c(kRows * hs);
    std::vector<float> tc_ref(kRows * hs), tc(kRows * hs);
    std::vector<float> h_ref(kRows * hs), h(kRows * hs);
    lstm_reference::ForwardRows(kRows, hs, hw.data(), bias.data(),
                                c_prev.data(), gates_ref.data(), c_ref.data(),
                                tc_ref.data(), h_ref.data());
    for (int64_t r = 0; r < kRows; ++r) {
      tensor::kernels::LstmForwardRow(
          hs, hw.data() + r * g4, bias.data(), c_prev.data() + r * hs,
          gates.data() + r * g4, c.data() + r * hs, tc.data() + r * hs,
          h.data() + r * hs);
    }
    EXPECT_EQ(BitsOf(gates), BitsOf(gates_ref)) << at << " gates";
    EXPECT_EQ(BitsOf(c), BitsOf(c_ref)) << at << " c";
    EXPECT_EQ(BitsOf(tc), BitsOf(tc_ref)) << at << " tanh(c)";
    EXPECT_EQ(BitsOf(h), BitsOf(h_ref)) << at << " h";

    // Backward over the forward's activations, into nonzero accumulators.
    const std::vector<float> dh = GateInputs(kRows * hs, 1.0f, rng);
    std::vector<float> dpre_ref = GateInputs(kRows * g4, 0.5f, rng);
    std::vector<float> dc_ref = GateInputs(kRows * hs, 0.5f, rng);
    std::vector<float> dpre = dpre_ref, dc = dc_ref;
    lstm_reference::BackwardRows(kRows, hs, gates_ref.data(), tc_ref.data(),
                                 c_prev.data(), dh.data(), dpre_ref.data(),
                                 dc_ref.data());
    for (int64_t r = 0; r < kRows; ++r) {
      tensor::kernels::LstmBackwardRow(
          hs, gates.data() + r * g4, tc.data() + r * hs,
          c_prev.data() + r * hs, dh.data() + r * hs, dpre.data() + r * g4,
          dc.data() + r * hs);
    }
    EXPECT_EQ(BitsOf(dpre), BitsOf(dpre_ref)) << at << " dpre";
    EXPECT_EQ(BitsOf(dc), BitsOf(dc_ref)) << at << " dc";
  }
}

TEST_F(KernelLstmRowTest, ChunkedColumnSumsMatchScalarLoop) {
  Rng rng(37);
  for (int64_t cols : {64, 52}) {
    for (int64_t rows : {1, 5, 37}) {
      for (int64_t grain : {1, 3, 64}) {
        const std::vector<float> x = RandomBuffer(rows * cols, rng);
        std::vector<float> acc_ref = RandomBuffer(cols, rng);
        std::vector<float> acc = acc_ref;
        std::vector<float> part(static_cast<size_t>(cols));
        lstm_reference::BiasSum(rows, cols, grain, x.data(), part.data(),
                                acc_ref.data());
        tensor::kernels::AddChunkedColumnSums(rows, cols, grain, x.data(),
                                              part.data(), acc.data());
        EXPECT_EQ(BitsOf(acc), BitsOf(acc_ref))
            << "cols=" << cols << " rows=" << rows << " grain=" << grain;
      }
    }
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
// Training-tail oracle, in the InferLLM CheckerHelper idiom: the work after
// the shard join done serially — the Square -> Sum -> Add L2 graph, the
// per-sink merge, the serial clip and the scalar Adam — is the reference the
// product's tail (nn::L2Penalty, GradSink::AccumulateInto, nn::ClipGradNorm,
// nn::Adam::Step) must match bit for bit at 1 and 4 threads. Inputs mix
// +-0, subnormals, values whose square underflows and large magnitudes, over
// sizes that straddle the 16,384-element chunk and the 4-lane width.
// ---------------------------------------------------------------------------

namespace tail_reference {

Tensor L2Penalty(const std::vector<Tensor>& params) {
  Tensor total = tensor::Sum(tensor::Square(params[0]));
  for (size_t i = 1; i < params.size(); ++i) {
    total = tensor::Add(total, tensor::Sum(tensor::Square(params[i])));
  }
  return total;
}

bool HasLiveGrad(const Tensor& t) {
  return t.impl()->grad.size() == t.impl()->data.size();
}

double ClipGradNorm(std::vector<Tensor>& params, double max_norm) {
  double total = 0.0;
  for (const Tensor& p : params) {
    if (!HasLiveGrad(p)) continue;
    for (float g : p.impl()->grad) total += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(total);
  if (norm > max_norm) {
    const float scale = static_cast<float>(max_norm / norm);
    for (Tensor& p : params) {
      if (!HasLiveGrad(p)) continue;
      for (float& g : p.impl()->grad) g *= scale;
    }
  }
  return norm;
}

class Adam {
 public:
  Adam(std::vector<Tensor> params, double lr)
      : params_(std::move(params)), lr_(lr), m_(params_.size()),
        v_(params_.size()) {}

  void Step() {
    ++t_;
    const double bias1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
    for (size_t k = 0; k < params_.size(); ++k) {
      Tensor& p = params_[k];
      if (!HasLiveGrad(p)) continue;
      float* data = p.data();
      const std::vector<float>& grad = p.impl()->grad;
      const size_t n = grad.size();
      std::vector<float>& m = m_[k];
      std::vector<float>& v = v_[k];
      if (m.size() != n) {
        m.assign(n, 0.0f);
        v.assign(n, 0.0f);
      }
      for (size_t i = 0; i < n; ++i) {
        const double g = grad[i];
        m[i] = static_cast<float>(kBeta1 * m[i] + (1.0 - kBeta1) * g);
        v[i] = static_cast<float>(kBeta2 * v[i] + (1.0 - kBeta2) * g * g);
        const double mhat = m[i] / bias1;
        const double vhat = v[i] / bias2;
        data[i] -= static_cast<float>(lr_ * mhat / (std::sqrt(vhat) + kEps));
      }
    }
  }

  /// The moments under nn::Adam::StateTensors()'s names.
  std::map<std::string, std::vector<float>> State() const {
    std::map<std::string, std::vector<float>> state;
    for (size_t k = 0; k < params_.size(); ++k) {
      if (m_[k].empty()) continue;
      state["adam." + std::to_string(k) + ".m"] = m_[k];
      state["adam." + std::to_string(k) + ".v"] = v_[k];
    }
    return state;
  }

 private:
  static constexpr double kBeta1 = 0.9;
  static constexpr double kBeta2 = 0.999;
  static constexpr double kEps = 1e-8;
  std::vector<Tensor> params_;
  double lr_;
  int64_t t_ = 0;
  std::vector<std::vector<float>> m_;
  std::vector<std::vector<float>> v_;
};

}  // namespace tail_reference

class TailOracleTest : public KernelTestBase {};

uint64_t Bits64(double v) { return std::bit_cast<uint64_t>(v); }

/// Element i of a tensor salted by `salt`: mostly N(0, 0.5) draws, with +-0,
/// subnormals, values whose float square underflows (|x| < 2^-63) and large
/// magnitudes at fixed strides.
float TailValue(int64_t i, Rng& rng) {
  const float sign = (i / 13) % 2 == 0 ? 1.0f : -1.0f;
  switch (i % 13) {
    case 0:
      return sign * 0.0f;
    case 1:
      return FromBits(0x00000001u + static_cast<uint32_t>(i % 0x7fffff)) *
             sign;
    case 2:
      return sign * 3.0e-20f;
    case 3:
      return sign * std::ldexp(1.0f, -75);  // square is half a subnormal step
    case 4:
      return sign * 7.5e9f;
    default:
      return static_cast<float>(rng.Normal()) * 0.5f;
  }
}

std::vector<Tensor> TailLeaves(const std::vector<int64_t>& sizes,
                               uint64_t seed) {
  Rng rng(seed);
  std::vector<Tensor> leaves;
  for (int64_t n : sizes) {
    std::vector<float> v(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = TailValue(i, rng);
    }
    leaves.push_back(Tensor::FromVector({n}, std::move(v), true));
  }
  return leaves;
}

/// Element-wise bit comparison; reports the first differing index.
void ExpectSameBits(const std::vector<float>& got,
                    const std::vector<float>& want, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    if (Bits(got[i]) != Bits(want[i])) {
      ADD_FAILURE() << what << " differs at " << i << ": " << Hex(Bits(got[i]))
                    << " vs " << Hex(Bits(want[i]));
      return;
    }
  }
}

TEST_F(TailOracleTest, L2PenaltyMatchesSquareSumAddGraph) {
  const std::vector<std::vector<int64_t>> cases = {
      {1},
      {5, 4, 3, 8, 9},
      {16383, 16384, 16385, 2 * 16384 + 3, 7},
  };
  for (const auto& sizes : cases) {
    for (int threads : {1, 4}) {
      ThreadPool::SetGlobalSize(threads);
      std::vector<Tensor> product = TailLeaves(sizes, 11);
      std::vector<Tensor> reference = TailLeaves(sizes, 11);
      // Squares of a few subnormal steps each, so that their rounding
      // shows in a subnormal value.
      std::vector<float> tiny(1031);
      for (size_t i = 0; i < tiny.size(); ++i) {
        tiny[i] = std::ldexp(1.0f + static_cast<float>(i) / 1031.0f,
                             -71 - static_cast<int>(i % 5));
      }
      product.push_back(Tensor::FromVector({1031}, tiny, true));
      reference.push_back(Tensor::FromVector({1031}, tiny, true));
      Tensor tiny_p = nn::L2Penalty({product.back()});
      Tensor tiny_r = tail_reference::L2Penalty({reference.back()});
      EXPECT_GT(tiny_r.item(), 0.0f);
      EXPECT_EQ(Hex(Bits(tiny_p.item())), Hex(Bits(tiny_r.item())));
      // A tensor that needs no grad still counts in the value.
      product.push_back(Tensor::FromVector({6}, {1, -2, 0, 3e-30f, 4, 5}));
      reference.push_back(product.back());
      Tensor p = tensor::MulScalar(nn::L2Penalty(product), 0.75f);
      Tensor r = tensor::MulScalar(tail_reference::L2Penalty(reference), 0.75f);
      const std::string at = "sizes=" + std::to_string(sizes.size()) +
                             " threads=" + std::to_string(threads);
      EXPECT_EQ(Hex(Bits(p.item())), Hex(Bits(r.item()))) << at;
      p.Backward();
      r.Backward();
      for (size_t k = 0; k + 1 < product.size(); ++k) {
        ExpectSameBits(product[k].grad(), reference[k].grad(),
                       at + " grad " + std::to_string(k));
      }
    }
  }
}

/// One shard's loss: sum over the leaves it touches of Sum(leaf * w), w
/// drawn like the leaves, so each sink buffer holds w's bits.
Tensor TailShardLoss(int64_t shard, const std::vector<Tensor>& leaves,
                     const std::vector<std::vector<float>>& weights,
                     const std::function<bool(int64_t, size_t)>& touches) {
  Tensor loss;
  for (size_t k = 0; k < leaves.size(); ++k) {
    if (!touches(shard, k)) continue;
    const std::vector<float>& w =
        weights[static_cast<size_t>(shard) * leaves.size() + k];
    Tensor term = tensor::Sum(
        tensor::Mul(leaves[k], Tensor::FromVector(leaves[k].shape(), w)));
    loss = loss.defined() ? tensor::Add(loss, term) : term;
  }
  return loss;
}

struct TailRun {
  std::vector<std::vector<float>> params;
  std::vector<std::vector<float>> grads;
  std::map<std::string, std::vector<float>> adam;
  std::vector<double> norms;
  std::vector<float> l2;
};

TEST_F(TailOracleTest, ProductTailMatchesSerialReference) {
  // 11 leaves: the chunk and lane boundaries, plus leaf 10, which no shard
  // touches. Shard s skips leaf k when (k + 2s) % 3 == 0.
  const std::vector<int64_t> sizes = {1,     3,     4,     5,
                                      8,     9,     16383, 16384,
                                      16385, 32771, 37};
  constexpr int64_t kShards = 4;
  constexpr int kSteps = 3;
  constexpr double kLr = 1e-2;
  constexpr double kMaxNorm = 1.0;
  constexpr float kL2Coeff = 0.37f;
  const auto touches = [&](int64_t s, size_t k) {
    return k + 1 < sizes.size() && (k + 2 * static_cast<size_t>(s)) % 3 != 0;
  };
  std::vector<std::vector<float>> weights;
  {
    Rng rng(29);
    for (int64_t s = 0; s < kShards; ++s) {
      for (int64_t n : sizes) {
        std::vector<float> w(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) {
          w[static_cast<size_t>(i)] = TailValue(i + s, rng);
        }
        weights.push_back(std::move(w));
      }
    }
  }
  auto finish = [&](const std::vector<Tensor>& leaves, TailRun& run) {
    for (const Tensor& t : leaves) {
      run.params.push_back(t.ToVector());
      run.grads.push_back(t.impl()->grad);
    }
  };

  for (bool with_l2 : {true, false}) {
    // The reference: each shard's buffers are its loss's plain gradients,
    // then the serial tail.
    ThreadPool::SetGlobalSize(1);
    TailRun want;
    {
      std::vector<Tensor> leaves = TailLeaves(sizes, 5);
      tail_reference::Adam adam(leaves, kLr);
      for (int step = 0; step < kSteps; ++step) {
        std::vector<std::vector<std::vector<float>>> bufs(kShards);
        for (int64_t s = 0; s < kShards; ++s) {
          TailShardLoss(s, leaves, weights, touches).Backward();
          bufs[static_cast<size_t>(s)].resize(leaves.size());
          for (size_t k = 0; k < leaves.size(); ++k) {
            if (touches(s, k)) {
              bufs[static_cast<size_t>(s)][k] = leaves[k].impl()->grad;
            }
          }
        }
        std::set<size_t> zeroed;
        for (int64_t s = 0; s < kShards; ++s) {
          for (size_t k = 0; k < leaves.size(); ++k) {
            if (touches(s, k) && zeroed.insert(k).second) leaves[k].ZeroGrad();
          }
        }
        if (with_l2) {
          Tensor l2 = tail_reference::L2Penalty(leaves);
          want.l2.push_back(l2.item());
          tensor::MulScalar(l2, kL2Coeff).Backward();
        }
        for (const auto& shard_bufs : bufs) {
          for (size_t k = 0; k < leaves.size(); ++k) {
            const std::vector<float>& buf = shard_bufs[k];
            if (buf.empty()) continue;
            std::vector<float>& g = leaves[k].mutable_grad();
            for (size_t i = 0; i < buf.size(); ++i) g[i] += buf[i];
          }
        }
        want.norms.push_back(tail_reference::ClipGradNorm(leaves, kMaxNorm));
        adam.Step();
      }
      finish(leaves, want);
      want.adam = adam.State();
    }
    for (bool use_tape : {false, true}) {
      for (int threads : {1, 4}) {
        ThreadPool::SetGlobalSize(threads);
        const std::string at = std::string("l2=") + (with_l2 ? "1" : "0") +
                               " tape=" + (use_tape ? "1" : "0") +
                               " threads=" + std::to_string(threads);
        TailRun got;
        std::vector<Tensor> leaves = TailLeaves(sizes, 5);
        nn::Adam adam(leaves, kLr);
        nn::ShardedStep step(/*shard_size=*/1, use_tape, /*tape_replay=*/true);
        Rng rng(1);
        for (int step_index = 0; step_index < kSteps; ++step_index) {
          nn::ShardedStep::ParamLoss l2_loss;
          if (with_l2) {
            l2_loss = [&] {
              Tensor l2 = nn::L2Penalty(leaves);
              got.l2.push_back(l2.item());
              return tensor::MulScalar(l2, kL2Coeff);
            };
          }
          step.Run(
              kShards, leaves, rng,
              [&](const nn::ShardedStep::Shard& shard, Rng&) {
                return TailShardLoss(shard.index, leaves, weights, touches);
              },
              l2_loss);
          got.norms.push_back(nn::ClipGradNorm(leaves, kMaxNorm));
          adam.Step();
        }
        finish(leaves, got);
        for (const auto& [name, t] : adam.StateTensors()) {
          if (name != "adam.t") got.adam[name] = t.ToVector();
        }
        ASSERT_EQ(got.norms.size(), want.norms.size()) << at;
        for (size_t i = 0; i < got.norms.size(); ++i) {
          EXPECT_EQ(Bits64(got.norms[i]), Bits64(want.norms[i]))
              << at << " norm of step " << i;
          EXPECT_GT(want.norms[i], kMaxNorm) << "the clip must fire";
        }
        ASSERT_EQ(got.l2.size(), want.l2.size()) << at;
        for (size_t i = 0; i < got.l2.size(); ++i) {
          EXPECT_EQ(Hex(Bits(got.l2[i])), Hex(Bits(want.l2[i])))
              << at << " L2 of step " << i;
        }
        for (size_t k = 0; k < sizes.size(); ++k) {
          ExpectSameBits(got.params[k], want.params[k],
                         at + " param " + std::to_string(k));
          ExpectSameBits(got.grads[k], want.grads[k],
                         at + " grad " + std::to_string(k));
        }
        ASSERT_EQ(got.adam.size(), want.adam.size()) << at;
        for (const auto& [name, m] : want.adam) {
          ExpectSameBits(got.adam[name], m, at + " " + name);
        }
        // Leaf 10 gets a gradient only from the L2 term.
        EXPECT_EQ(got.adam.count("adam.10.m"), with_l2 ? 1u : 0u) << at;
      }
    }
  }
}

TEST_F(TailOracleTest, SinkMergeAcceptsOneSinkAtATime) {
  // perfbench merges its shards one AccumulateInto() call at a time; that
  // must give the multi-sink merge's bits.
  const std::vector<int64_t> sizes = {16385, 6, 1};
  Rng rng(3);
  std::vector<std::vector<float>> w;
  for (int64_t s = 0; s < 3; ++s) {
    for (int64_t n : sizes) {
      std::vector<float> v(static_cast<size_t>(n));
      for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = TailValue(i, rng);
    }
      w.push_back(std::move(v));
    }
  }
  const auto touches = [](int64_t s, size_t k) { return (k + s) % 2 == 0; };
  std::vector<std::vector<float>> merged[2];
  for (int one_at_a_time : {0, 1}) {
    ThreadPool::SetGlobalSize(4);
    std::vector<Tensor> leaves = TailLeaves(sizes, 8);
    std::vector<tensor::GradSink> sinks;
    for (int64_t s = 0; s < 3; ++s) sinks.emplace_back(leaves);
    for (int64_t s = 0; s < 3; ++s) {
      Tensor loss = TailShardLoss(s, leaves, w, touches);
      tensor::GradSink::Scope scope(&sinks[static_cast<size_t>(s)]);
      loss.Backward();
    }
    for (Tensor& t : leaves) t.ZeroGrad();
    if (one_at_a_time == 1) {
      for (tensor::GradSink& sink : sinks) sink.AccumulateInto();
    } else {
      tensor::GradSink::AccumulateInto({&sinks[0], &sinks[1], &sinks[2]});
    }
    for (const Tensor& t : leaves) {
      merged[one_at_a_time].push_back(t.impl()->grad);
    }
  }
  for (size_t k = 0; k < sizes.size(); ++k) {
    ExpectSameBits(merged[1][k], merged[0][k], "leaf " + std::to_string(k));
  }
}

TEST_F(TailOracleTest, FloatSquareMatchesFloatProductOnStridedSweeps) {
  // A prime stride through all 2^32 bit patterns, then a denser one through
  // the band whose squares fall below FLT_MIN or just above it
  // (2^-76 <= |x| < 2^-62), both signs.
  int64_t checked = 0, mismatches = 0;
  std::string first;
  auto check = [&](uint32_t w) {
    const float x = FromBits(w);
    const double want = static_cast<double>(x * x);
    const double got = nn::FloatSquare(x);
    ++checked;
    if (Bits64(got) != Bits64(want) && mismatches++ == 0) {
      first = "x=" + Hex(w);
    }
  };
  for (uint64_t w = 0; w < (uint64_t{1} << 32); w += 4099) {
    check(static_cast<uint32_t>(w));
  }
  EXPECT_EQ(checked, 1047809);
  const uint32_t lo = Bits(std::ldexp(1.0f, -76));
  const uint32_t hi = Bits(std::ldexp(1.0f, -62));
  for (uint32_t w = lo; w < hi; w += 257) {
    check(w);
    check(w | 0x80000000u);
  }
  EXPECT_EQ(mismatches, 0) << "first: " << first;
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
  // downstream predictions — with one lone shard of the whole 16-example
  // batch and with shards of 4, for serial and parallel pools.
  for (int64_t shard : {int64_t{16}, int64_t{4}}) {
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
  // panels. A 40-example batch trained as one shard sends 160 item slots
  // through each LstmSequence node: its per-step dW_ih / dW_hh GEMMs must
  // group every sum by panel exactly as the eager per-step MatMuls do.
  core::RrreConfig eager_config = SmallConfig();
  eager_config.batch_size = 40;
  eager_config.shard_size = eager_config.batch_size;
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
  config.shard_size = config.batch_size;  // One tape.
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
  // tape; flipping it must never change a bit, for one lone shard of the
  // whole batch and for shards of 4, on serial and parallel pools.
  for (int64_t shard : {int64_t{16}, int64_t{4}}) {
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
  for (int64_t shard : {int64_t{16}, int64_t{4}}) {
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
  config.shard_size = config.batch_size;  // One tape.
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
  for (int64_t shard : {int64_t{16}, int64_t{8}}) {
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
  config.shard_size = config.batch_size;  // One tape.
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
