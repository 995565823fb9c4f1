// Absolute bits of the training path.
//
// Every other bitwise test compares two paths of one build: eager with tape,
// 1 thread with 4, resumed with uninterrupted. A change that moves the bits
// of every path alike passes all of them. The constants below were recorded
// from a small fixed sharded Fit (tape and replay on, gamma > 0, clipping
// that fires on every step) on x86-64 with glibc 2.36. They pin:
//  - an FNV-1a of every RRRE parameter and of the Adam state, at 1 thread
//    and at 4;
//  - the bit patterns of each epoch's losses;
//  - an FNV-1a of DeepCoNN's parameters after a short Fit.
//
// The sigmoids and softmaxes call libm's expf, so the constants hold only
// for the libm they were recorded with; under any other the suite skips and
// names the mismatch. A change that moves a constant on purpose updates it
// and says why in CHANGES.md; a change whose contract is "no bit moves"
// leaves this file alone.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <gnu/libc-version.h>
#endif

#include "baselines/deepconn.h"
#include "common/threadpool.h"
#include "core/config.h"
#include "core/trainer.h"
#include "data/dataset.h"
#include "nn/module.h"
#include "tensor/serialize.h"
#include "tensor/tensor.h"

namespace rrre {
namespace {

using common::ThreadPool;
using tensor::Tensor;

/// Empty when this build runs the libm the constants were recorded with,
/// else the platform it runs instead.
std::string PlatformMismatch() {
#if !defined(__x86_64__)
  return "a non-x86-64 target";
#elif !defined(__GLIBC__)
  return "a libc other than glibc";
#else
  const std::string version = gnu_get_libc_version();
  return version == "2.36" ? "" : "glibc " + version;
#endif
}

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

uint64_t Fnv1a(uint64_t h, const void* bytes, size_t n) {
  const auto* p = static_cast<const unsigned char*>(bytes);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t HashTensors(const std::vector<Tensor>& tensors) {
  uint64_t h = kFnvOffset;
  for (const Tensor& t : tensors) {
    h = Fnv1a(h, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return h;
}

/// Names and values, in the map's (sorted) key order.
uint64_t HashNamedTensors(const std::map<std::string, Tensor>& tensors) {
  uint64_t h = kFnvOffset;
  for (const auto& [name, t] : tensors) {
    h = Fnv1a(h, name.data(), name.size());
    h = Fnv1a(h, t.data(), static_cast<size_t>(t.numel()) * sizeof(float));
  }
  return h;
}

std::string Hex(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

data::ReviewDataset GoldenCorpus() {
  data::ReviewDataset ds(6, 5);
  const char* texts[] = {
      "great pasta and friendly staff",  "terrible service avoid this",
      "amazing deal best place in town", "okay food nothing special",
      "worst scam ever do not go",       "lovely ambiance great wine",
      "decent prices quick service",     "fantastic best pasta in town",
  };
  int64_t ts = 0;
  for (int64_t u = 0; u < 6; ++u) {
    for (int64_t i = 0; i < 5; ++i) {
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

/// 30 examples in batches of 16 (a full and a tail batch), shards of 4.
core::RrreConfig GoldenConfig() {
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
  c.epochs = 3;
  c.pretrain_epochs = 1;
  c.lr = 5e-3;
  c.shard_size = 4;
  c.use_tape = true;
  c.tape_replay = true;
  c.gamma = 1e-2;
  c.grad_clip = 1e-3;
  return c;
}

struct GoldenRun {
  uint64_t params = 0;
  uint64_t adam_state = 0;
  std::vector<uint64_t> loss_bits;  ///< loss, loss1, loss2 per epoch.
  double min_grad_norm = 0.0;
};

GoldenRun RunRrre(int threads) {
  ThreadPool::SetGlobalSize(threads);
  const core::RrreConfig config = GoldenConfig();
  core::RrreTrainer trainer(config);
  GoldenRun run;
  run.min_grad_norm = -1.0;
  trainer.Fit(GoldenCorpus(), [&](const core::RrreTrainer::EpochStats& s) {
    for (double v : {s.loss, s.loss1, s.loss2}) {
      run.loss_bits.push_back(std::bit_cast<uint64_t>(v));
    }
    if (run.min_grad_norm < 0.0 || s.grad_norm < run.min_grad_norm) {
      run.min_grad_norm = s.grad_norm;
    }
  });
  run.params = HashTensors(trainer.model().Parameters());
  const std::string prefix = ::testing::TempDir() + "/golden_rrre_" +
                             std::to_string(threads);
  EXPECT_TRUE(trainer.Save(prefix).ok());
  auto state = tensor::LoadTensors(prefix + ".optimizer");
  EXPECT_TRUE(state.ok()) << state.status().ToString();
  if (state.ok()) run.adam_state = HashNamedTensors(state.value());
  for (const std::string& suffix :
       core::RrreTrainer::CheckpointSuffixes(/*with_optimizer=*/true)) {
    std::remove((prefix + suffix).c_str());
  }
  return run;
}

/// DeepCoNN with its network exposed, so the test can hash it.
class GoldenDeepCoNN : public baselines::DeepCoNN {
 public:
  using DeepCoNN::DeepCoNN;
  std::vector<Tensor> Params() { return module()->Parameters(); }
};

class GoldenTest : public ::testing::Test {
 protected:
  void SetUp() override {
    original_threads_ = ThreadPool::GlobalSize();
    const std::string mismatch = PlatformMismatch();
    if (!mismatch.empty()) {
      GTEST_SKIP() << "golden bits were recorded on x86-64 with glibc 2.36; "
                   << "this build runs " << mismatch;
    }
  }
  void TearDown() override { ThreadPool::SetGlobalSize(original_threads_); }

  int original_threads_ = 0;
};

// Recorded values.
constexpr uint64_t kRrreParams = 0xc651cbcdaadc71c8ull;
constexpr uint64_t kRrreAdamState = 0x1c965ad6a8308281ull;
constexpr uint64_t kRrreLossBits[] = {
    // epoch 0: loss, loss1, loss2
    0x3ffcb6a7bd8a3d71ull, 0x3fe5f667d0000000ull, 0x4007390dc98a3d71ull,
    // epoch 1
    0x3ffbbfdd9f07ae14ull, 0x3fe59007a4000000ull, 0x40065bdbb607ae14ull,
    // epoch 2
    0x3ffafe10aae66667ull, 0x3fe52c458e000000ull, 0x4005b2ff47666667ull,
};
constexpr uint64_t kDeepConnParams = 0xf80b6269713327ffull;

TEST_F(GoldenTest, RrreSharedFitPinsParametersAdamStateAndLosses) {
  for (int threads : {1, 4}) {
    const GoldenRun run = RunRrre(threads);
    // The clip fires (every epoch's mean pre-clip norm is above it), so its
    // scale pass is pinned too.
    EXPECT_GT(run.min_grad_norm, GoldenConfig().grad_clip)
        << "threads=" << threads;
    EXPECT_EQ(Hex(run.params), Hex(kRrreParams)) << "threads=" << threads;
    EXPECT_EQ(Hex(run.adam_state), Hex(kRrreAdamState))
        << "threads=" << threads;
    ASSERT_EQ(run.loss_bits.size(), std::size(kRrreLossBits));
    for (size_t i = 0; i < run.loss_bits.size(); ++i) {
      EXPECT_EQ(Hex(run.loss_bits[i]), Hex(kRrreLossBits[i]))
          << "threads=" << threads << " epoch " << i / 3 << " loss "
          << i % 3;
    }
  }
}

TEST_F(GoldenTest, DeepConnShortFitPinsParameters) {
  ThreadPool::SetGlobalSize(4);
  baselines::DeepCoNN::Config config;
  config.common.word_dim = 8;
  config.common.epochs = 2;
  config.common.batch_size = 16;
  config.common.pretrain_epochs = 1;
  config.common.shard_size = 4;
  config.common.grad_clip = 1e-2;
  config.doc_tokens = 16;
  config.filters = 6;
  config.latent_dim = 4;
  config.fm_factors = 4;
  GoldenDeepCoNN model(config);
  model.Fit(GoldenCorpus());
  EXPECT_EQ(Hex(HashTensors(model.Params())), Hex(kDeepConnParams));
}

}  // namespace
}  // namespace rrre
